"""Golden artifacts: the writing commands reproduce the same bytes.

``tests/data/artifacts_seed0.json`` holds, per shipped config, the exit
code of ``cvarpg train --seed 0`` and the SHA-256 of every file the run
writes; the same for ``cvarpg eval --seed 1`` on the seed-0
``ac_cvar_spsa`` parameters; and the stdout and CSV SHA-256 of
``cvarpg enumerate-oracle`` on ``configs/small_horizon.cfg`` for two
policies. A change that alters the random stream or an artifact's format
on purpose regenerates it with ``PYTHONPATH=src python tests/test_artifacts.py``
and records that in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cvarpg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "artifacts_seed0.json"
EVAL_CONFIG = "ac_cvar_spsa"
ORACLE_POLICIES = ("uniform", "wait")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(out: Path, code: int) -> dict:
    return {"exit": code, "sha256": {f.name: _sha256(f) for f in sorted(out.iterdir())}}


def train_digests(out_root: Path) -> dict:
    """Exit code and per-file SHA-256 of ``cvarpg train --seed 0`` for each shipped config."""
    runs = {}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        out = out_root / cfg.stem
        code = cli.main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out)])
        runs[cfg.stem] = _run(out, code)
    return runs


def eval_digests(train_root: Path, out: Path) -> dict:
    """Exit code and per-file SHA-256 of ``cvarpg eval --seed 1`` on saved parameters."""
    params = train_root / EVAL_CONFIG / "params.json"
    return _run(out, cli.main(["eval", "--params", str(params), "--seed", "1", "--out", str(out)]))


def oracle_outputs(out_root: Path) -> dict:
    """Exit code, stdout and CSV SHA-256 of ``cvarpg enumerate-oracle`` per policy."""
    runs = {}
    cfg = ROOT / "configs" / "small_horizon.cfg"
    for policy in ORACLE_POLICIES:
        csv = out_root / f"{policy}.csv"
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = cli.main(["enumerate-oracle", "--config", str(cfg), "--policy", policy,
                             "--out", str(csv)])
        runs[policy] = {"exit": code, "stdout": stdout.getvalue().replace(str(csv), "<out>"),
                        "csv_sha256": _sha256(csv)}
    return runs


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The seed-0 train runs of every shipped config: their root and their digests."""
    root = tmp_path_factory.mktemp("train")
    return root, train_digests(root)


def test_shipped_configs_reproduce_golden_artifacts(golden, trained):
    _, runs = trained
    # the risk-neutral actor-critic does not meet the convergence test
    assert {name: run["exit"] for name, run in runs.items()} == {
        name: 3 if name == "ac" else 0 for name in golden["runs"]
    }
    assert runs == golden["runs"], (
        f"recorded under numpy {golden['numpy']}, running numpy {np.__version__}"
    )


def test_eval_reproduces_golden_artifacts(golden, trained, tmp_path):
    root, _ = trained
    assert eval_digests(root, tmp_path / "eval") == golden["eval"]


def test_enumerate_oracle_reproduces_golden_output(golden, tmp_path):
    assert oracle_outputs(tmp_path) == golden["oracle"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        runs = train_digests(tmp / "train")
        pins = {"numpy": np.__version__, "runs": runs,
                "eval": eval_digests(tmp / "train", tmp / "eval"),
                "oracle": oracle_outputs(tmp)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
