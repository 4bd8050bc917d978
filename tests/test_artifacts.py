"""Golden artifacts: every shipped config trains at seed 0 to the same bytes.

``tests/data/artifacts_seed0.json`` holds, per config, the exit code of
``cvarpg train --seed 0`` and the SHA-256 of every file the run writes.
A change that alters the random stream or an artifact's format on
purpose regenerates it with ``PYTHONPATH=src python tests/test_artifacts.py``
and records that in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from cvarpg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "artifacts_seed0.json"


def train_digests(out_root: Path) -> dict:
    """Exit code and per-file SHA-256 of ``cvarpg train --seed 0`` for each shipped config."""
    runs = {}
    for cfg in sorted((ROOT / "configs").glob("*.cfg")):
        out = out_root / cfg.stem
        code = cli.main(["train", "--config", str(cfg), "--seed", "0", "--out", str(out)])
        digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in sorted(out.iterdir())}
        runs[cfg.stem] = {"exit": code, "sha256": digests}
    return runs


def test_shipped_configs_reproduce_golden_artifacts(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = train_digests(tmp_path)
    # the risk-neutral actor-critic does not meet the convergence test
    assert {name: run["exit"] for name, run in runs.items()} == {
        name: 3 if name == "ac" else 0 for name in golden["runs"]
    }
    assert runs == golden["runs"], (
        f"recorded under numpy {golden['numpy']}, running numpy {np.__version__}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        runs = train_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "runs": runs}, indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
