import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cvarpg import cli, harness
from cvarpg.config import (
    ExperimentConfig,
    config_from_mapping,
    parse_config_text,
)
from cvarpg.errors import InputError
from cvarpg.harness import (
    build_report,
    compare,
    evaluate_policy,
    load_params,
    report_from_text,
    report_to_text,
    run_experiment,
)
from cvarpg.optstop import rollout_batch, rollout_batch_augmented
from cvarpg.risk import EmpiricalDistribution, cvar, tail_probability


def small_config(algorithm="PG_CVAR"):
    cfg = ExperimentConfig()
    cfg.algorithm = algorithm
    cfg.env_T = 8
    cfg.pg_batch_size = 12
    cfg.pg_tuning_iterations = 15
    cfg.pg_iteration_cap = 15
    cfg.ac_tuning_episodes = 25
    cfg.ac_episode_cap = 25
    cfg.ac_critic_warmup_episodes = 10
    cfg.train_warmup_rollouts = 20
    cfg.eval_episodes = 40
    return cfg.validate()


def test_parse_config_text():
    text = """
    # comment line
    algorithm = PG        # trailing comment
    env.T = 9
    risk.alpha = 0.8
    """
    raw = parse_config_text(text)
    assert raw == {"algorithm": "PG", "env.T": "9", "risk.alpha": "0.8"}
    cfg = config_from_mapping(raw)
    assert cfg.algorithm == "PG" and cfg.env_T == 9 and cfg.risk_alpha == 0.8


def test_parse_errors():
    with pytest.raises(InputError):
        parse_config_text("not a pair")
    with pytest.raises(InputError):
        parse_config_text("a = 1\na = 2")
    with pytest.raises(InputError):
        config_from_mapping({"bogus.key": "1"})
    with pytest.raises(InputError):
        config_from_mapping({"env.T": "soon"})
    with pytest.raises(InputError):
        config_from_mapping({"algorithm": "MAGIC"})
    with pytest.raises(InputError):
        config_from_mapping({"env.f_u": "0.5"})  # violates environment invariants
    with pytest.raises(InputError):
        config_from_mapping({"pg.zeta2_p": "0.3"})  # schedule exponent out of range
    for key, value in (("pg.iteration_cap", "0"), ("ac.episode_cap", "0"),
                       ("ac.critic_warmup_episodes", "-1")):
        with pytest.raises(InputError):
            config_from_mapping({key: value})
    # non-finite floats are refused by name, from text and from params.json's floats
    for key, value in (("env.c_max", "nan"), ("policy.theta_bound", "NaN"), ("env.f_u", "inf"),
                       ("features.rbf_width_scale", "nan"), ("risk.lambda_max", "inf"),
                       ("env.p_h", "-inf"), ("risk.beta", float("nan"))):
        with pytest.raises(InputError, match=key):
            config_from_mapping({key: value})


def test_validate_reports_only_input_errors_as_config_errors():
    # a wrongly typed field is a programming error, not a bad config value
    with pytest.raises(TypeError):
        replace(ExperimentConfig(), risk_alpha="0.9").validate()
    with pytest.raises(InputError, match="alpha must be in"):
        replace(ExperimentConfig(), risk_alpha=1.5).validate()
    with pytest.raises(InputError, match="perturbation decays too fast"):
        replace(ExperimentConfig(), algorithm="AC", ac_delta_p=0.4).validate()


def test_config_round_trip_via_dict():
    cfg = small_config()
    again = config_from_mapping(cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


def test_report_text_round_trip():
    losses = np.array([1.0, 1.5, 0.5, 2.5])
    cfg = small_config()
    from cvarpg.harness import TrainedPolicy

    trained = TrainedPolicy("PG_CVAR", np.zeros(3), 1.2, 0.3, None, None, True,
                            1000.0, 0, [])
    report = build_report(cfg, trained, losses, seed=5)
    text = report_to_text(report)
    back = report_from_text(text)
    assert back.mean == report.mean
    assert back.cvar_alpha == report.cvar_alpha
    assert back.converged is True
    assert back.env_fingerprint == report.env_fingerprint


def test_degenerate_constant_losses_report():
    cfg = small_config()
    from cvarpg.harness import TrainedPolicy

    trained = TrainedPolicy("PG", np.zeros(3), 0.0, 0.0, None, None, True, 1000.0, 0, [])
    report = build_report(cfg, trained, np.ones(100), seed=0)
    assert report.mean == 1.0
    assert report.variance == 0.0
    assert report.cvar_alpha == 1.0
    assert report.tail_prob_beta == 0.0  # beta = 1.9 above the constant loss


def test_compare_table_and_mismatch():
    cfg = small_config()
    from cvarpg.harness import TrainedPolicy

    t1 = TrainedPolicy("PG", np.zeros(3), 0.0, 0.0, None, None, True, 1000.0, 0, [])
    t2 = TrainedPolicy("PG_CVAR", np.zeros(3), 1.0, 0.5, None, None, True, 1000.0, 0, [])
    r1 = build_report(cfg, t1, np.array([1.0, 2.0, 3.0]), seed=0)
    r2 = build_report(cfg, t2, np.array([1.5, 2.0, 2.5]), seed=0)
    table = compare([r1, r2])
    assert "mean" in table and "cvar_alpha" in table and "d(PG_CVAR)" in table

    selfcmp = compare([r1, r1])
    for line in selfcmp.splitlines()[1:]:
        assert "+0.000000" in line or "-0.000000" in line

    other = small_config()
    other.env_T = 9
    r3 = build_report(other, t1, np.array([1.0]), seed=0)
    with pytest.raises(InputError):
        compare([r1, r3])


@pytest.mark.parametrize("algorithm", ["PG_CVAR", "AC_CVAR_SPSA"])
def test_reports_are_reproducible(tmp_path, algorithm):
    cfg = small_config(algorithm)
    rep1, _, losses1, _ = run_experiment(cfg, seed=3)
    rep2, _, losses2, _ = run_experiment(cfg, seed=3)
    assert np.array_equal(losses1, losses2)
    assert report_to_text(rep1) == report_to_text(rep2)


def test_evaluation_is_one_kernel_call(monkeypatch):
    # the old thread-count variable is ignored: no shards, no pool
    monkeypatch.setenv("CVAR_MDP_THREADS", "4")
    cfg = small_config()
    feats = harness.policy_feature_map(cfg, include_s=False)
    theta = np.random.default_rng(6).normal(0.0, 0.5, feats.dim)
    trained = harness.TrainedPolicy("PG_CVAR", theta, 1.2, 0.3, None, None, True,
                                    1000.0, 0, [])
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(args[4])  # the episode count
        return rollout_batch(*args, **kwargs)

    monkeypatch.setattr(harness, "rollout_batch", counted)
    losses, lengths = evaluate_policy(cfg, trained, seed=5, episodes=60)
    assert sizes == [60]
    direct = rollout_batch(feats, theta, 5, ("eval",), 60, with_scores=False)
    assert np.array_equal(losses, direct.losses)
    assert np.array_equal(lengths, direct.lengths)


def test_risk_neutral_ac_evaluation_is_one_budget_blind_rollout(monkeypatch):
    # AC's policy does not read the budget, so its evaluation equals the
    # augmented rollout from budget 0 bit for bit
    cfg = small_config("AC")
    feats = harness.policy_feature_map(cfg, include_s=False, incremental=True)
    theta = np.random.default_rng(7).normal(0.0, 5.0, feats.dim)
    theta[-1] += 20.0  # a wait bias, so episodes run past their first decisions
    trained = harness.TrainedPolicy("AC", theta, 0.0, 0.0, np.zeros(3), None, False,
                                    1000.0, 0, [])
    calls = []
    for name in ("rollout_batch", "rollout_batch_augmented"):
        def counted(*args, _kernel=getattr(harness, name), **kwargs):
            calls.append(_kernel)
            return _kernel(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    losses, lengths = evaluate_policy(cfg, trained, seed=5, episodes=60)
    assert len(calls) == 1
    direct = rollout_batch_augmented(feats, theta, 0.0, 5, ("eval",), 60, with_scores=False)
    assert np.array_equal(losses, direct.losses)
    assert np.array_equal(lengths, direct.lengths)


def test_report_metrics_match_recomputation_from_csv(tmp_path):
    cfg = small_config()
    out = tmp_path / "run"
    report, _, _, _ = run_experiment(cfg, seed=2, out_dir=str(out))
    rows = (out / "losses.csv").read_text().strip().splitlines()
    assert rows[0] == "episode,loss,T"
    losses = np.array([float(line.split(",")[1]) for line in rows[1:]])
    dist = EmpiricalDistribution(losses)
    assert dist.mean() == report.mean
    assert dist.variance() == report.variance
    assert cvar(dist, cfg.risk_alpha) == report.cvar_alpha
    assert tail_probability(dist, cfg.risk_beta) == report.tail_prob_beta
    hist = (out / "histogram.csv").read_text().strip().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    counts = np.array([int(line.split(",")[2]) for line in hist[1:]])
    assert counts.sum() == report.episodes  # the envelope bounds every loss
    assert len(counts) == cfg.output_histogram_bins


def test_losses_csv_writes_each_loss_as_its_repr(tmp_path):
    # repeated losses share one formatting, and 0.0 and -0.0 keep their own text
    losses = np.array([0.1 + 0.2, -0.0, 0.0, 1 / 3, 0.1 + 0.2, -0.0, 5e-324, 1e22])
    lengths = np.arange(1, losses.size + 1)
    path = tmp_path / "losses.csv"
    for x, t in ((losses, lengths), (losses[1::2], lengths[1::2])):  # and a strided view
        harness.write_losses_csv(path, x, t)
        rows = [f"{j},{float(loss)!r},{n}" for j, (loss, n) in enumerate(zip(x, t))]
        assert path.read_text() == "\n".join(["episode,loss,T", *rows]) + "\n"
    harness.write_losses_csv(path, losses, lengths)
    assert path.read_text().splitlines()[2:4] == ["1,-0.0,2", "2,0.0,3"]


def test_default_config_pins_published_constants():
    cfg = ExperimentConfig().validate()
    assert (cfg.env_c0, cfg.env_p_h, cfg.env_T) == (1.0, 0.1, 20)
    assert (cfg.env_f_u, cfg.env_f_d, cfg.env_p, cfg.env_gamma) == (1.5, 0.8, 0.65, 0.95)
    assert (cfg.risk_alpha, cfg.risk_lambda_max, cfg.env_c_max) == (0.9, 1000.0, 4000.0)
    assert (cfg.pg_zeta1_c, cfg.pg_zeta1_p) == (0.1, 1.0)
    assert (cfg.pg_zeta2_c, cfg.pg_zeta2_p) == (0.05, 0.8)
    assert (cfg.pg_zeta3_c, cfg.pg_zeta3_p) == (0.01, 0.55)
    assert cfg.pg_batch_size == 100
    assert (cfg.ac_zeta1_c, cfg.ac_zeta1_p) == (1.0, 1.0)
    assert (cfg.ac_zeta2_c, cfg.ac_zeta2_p) == (1.0, 0.85)
    assert (cfg.ac_zeta3_c, cfg.ac_zeta3_p) == (0.5, 0.7)
    assert (cfg.ac_zeta4_c, cfg.ac_zeta4_p) == (0.5, 0.55)
    assert (cfg.ac_delta_c, cfg.ac_delta_p) == (0.5, 0.1)
    assert cfg.policy_theta_bound == 60.0
    assert cfg.pg_tuning_iterations == 1000
    assert cfg.ac_tuning_episodes == 1000
    assert cfg.eval_episodes == 1000
    # the quantile projection interval is the generic one intersected with
    # the attainable loss range
    box = cfg.nu_box()
    assert box.lo == 0.0
    assert box.hi == pytest.approx(cfg.env_params().loss_upper_bound())


def test_params_json_round_trip(tmp_path):
    cfg = small_config("AC_CVAR_SEMI")
    out = tmp_path / "run"
    report, trained, losses, _ = run_experiment(cfg, seed=4, out_dir=str(out))
    config2, trained2 = load_params(str(out / "params.json"))
    assert config2.to_dict() == cfg.to_dict()
    assert np.array_equal(trained2.theta, trained.theta)
    assert trained2.nu == trained.nu
    losses2, _ = evaluate_policy(config2, trained2, seed=4, episodes=cfg.eval_episodes)
    assert np.array_equal(losses2, losses)


def _run_cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "cvarpg.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_end_to_end(tmp_path):
    cfg_text = "\n".join([
        "algorithm = PG_CVAR",
        "env.T = 8",
        "pg.batch_size = 10",
        "pg.tuning_iterations = 10",
        "pg.iteration_cap = 10",
        "train.warmup_rollouts = 10",
        "eval.episodes = 30",
    ]) + "\n"
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(cfg_text)

    out1 = tmp_path / "run1"
    res = _run_cli(["train", "--config", str(cfg_path), "--seed", "1",
                    "--out", str(out1)], tmp_path)
    assert res.returncode in (0, 3), res.stderr
    for name in ("params.json", "losses.csv", "training_history.csv",
                 "report.txt", "histogram.csv", "histogram_tail.csv"):
        assert (out1 / name).exists()

    out2 = tmp_path / "run2"
    res = _run_cli(["eval", "--params", str(out1 / "params.json"), "--seed", "1",
                    "--out", str(out2), "--eval-episodes", "25"], tmp_path)
    assert res.returncode == 0, res.stderr
    rows = (out2 / "losses.csv").read_text().strip().splitlines()
    assert len(rows) == 26

    res = _run_cli(["train", "--config", str(cfg_path), "--seed", "2",
                    "--out", str(tmp_path / "run3"), "--algorithm", "PG"], tmp_path)
    assert res.returncode in (0, 3), res.stderr

    res = _run_cli(["compare", str(out1 / "report.txt"),
                    str(tmp_path / "run3" / "report.txt")], tmp_path)
    assert res.returncode == 0, res.stderr
    assert "cvar_alpha" in res.stdout

    res = _run_cli(["compare", str(out1 / "report.txt")], tmp_path)
    assert res.returncode == 2

    bad = tmp_path / "bad.cfg"
    bad.write_text("algorithm = NOPE\n")
    res = _run_cli(["train", "--config", str(bad), "--seed", "0",
                    "--out", str(tmp_path / "never")], tmp_path)
    assert res.returncode == 2


def test_cli_enumerate_oracle(tmp_path):
    for T in (6, 20):  # the lattice serves the full horizon
        cfg_path = tmp_path / f"T{T}.cfg"
        cfg_path.write_text(f"algorithm = PG\nenv.T = {T}\n")
        atoms = tmp_path / f"atoms{T}.csv"
        res = _run_cli(["enumerate-oracle", "--config", str(cfg_path),
                        "--policy", "uniform", "--out", str(atoms)], tmp_path)
        assert res.returncode == 0, res.stderr
        assert "atoms=" in res.stdout
        rows = atoms.read_text().strip().splitlines()
        assert rows[0] == "loss,weight"
        weights = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


# config values the run cannot use, each refused by validation before the warm-up
BAD_VALUES = {
    "policy-centers-0": "features.policy_centers = 0",
    "critic-centers-0": "features.critic_centers = 0",
    "rel-tol-negative": "train.rel_tol = -1",
    "lambda-margin-1": "train.lambda_margin = 1",
    "lambda-margin-negative": "train.lambda_margin = -0.5",
    "theta-bound-negative": "policy.theta_bound = -1",
    "c-max-negative": "env.c_max = -1",
    "cost-envelope-overflows": "env.f_u = 1e200",  # c0 f_u^T past the largest float
    "cost-envelope-underflows": "env.f_d = 1e-300",  # c0 f_d^T rounds to 0
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Config, params.json and report.txt files, good and bad, of an untrained PG policy."""
    root = tmp_path_factory.mktemp("inputs")
    cfg = small_config("PG")
    theta = np.zeros(harness.policy_feature_map(cfg, include_s=False).dim)
    trained = harness.TrainedPolicy("PG", theta, 0.0, 0.0, None, None, True, 1000.0, 0, [])
    losses = np.linspace(1.0, 2.0, 10)
    report = build_report(cfg, trained, losses, seed=0)
    harness.write_artifacts(root, cfg, trained, report, losses, np.ones(10, dtype=int), 0)
    params = json.loads((root / "params.json").read_text())
    bad_params = {"no_theta": {k: v for k, v in params.items() if k != "theta"},
                  "bad_nu": {**params, "nu": "abc"},
                  "long_theta": {**params, "theta": [*params["theta"], 0.0]},
                  "config_list": {**params, "config": [["env.T", 8]]},
                  "algorithm_list": {**params, "algorithm": ["PG"]}}
    for name, bad in bad_params.items():
        (root / f"{name}.json").write_text(json.dumps(bad))
    (root / "malformed.json").write_text("{not json")
    text = (root / "report.txt").read_text()
    assert "\nmean = " in text
    (root / "no_mean.txt").write_text(
        "".join(line + "\n" for line in text.splitlines() if not line.startswith("mean = ")))
    (root / "bad_mean.txt").write_text(text.replace("\nmean = ", "\nmean = x"))
    (root / "small.cfg").write_text("algorithm = PG\nenv.T = 8\n")
    (root / "window1.cfg").write_text("algorithm = PG\nenv.T = 8\ntrain.window = 1\n")
    (root / "undiscounted.cfg").write_text("algorithm = PG\nenv.T = 8\nenv.gamma = 1.0\n")
    for name, line in BAD_VALUES.items():
        (root / f"{name}.cfg").write_text(f"algorithm = PG_CVAR\nenv.T = 8\n{line}\n")
    return root


BAD_INPUTS = {
    "eval-missing-file": ["eval", "--params", "missing.json"],
    "eval-malformed-json": ["eval", "--params", "malformed.json"],
    "eval-missing-key": ["eval", "--params", "no_theta.json"],
    "eval-bad-number": ["eval", "--params", "bad_nu.json"],
    "eval-theta-length": ["eval", "--params", "long_theta.json"],
    "eval-config-not-object": ["eval", "--params", "config_list.json"],
    "eval-algorithm-not-string": ["eval", "--params", "algorithm_list.json"],
    "eval-zero-episodes": ["eval", "--params", "params.json", "--eval-episodes", "0"],
    "compare-missing-file": ["compare", "report.txt", "missing.txt"],
    "compare-missing-key": ["compare", "report.txt", "no_mean.txt"],
    "compare-bad-number": ["compare", "report.txt", "bad_mean.txt"],
    "train-zero-episodes": ["train", "--config", "small.cfg", "--eval-episodes", "0"],
    "train-window-1": ["train", "--config", "window1.cfg"],
    "oracle-undiscounted": ["enumerate-oracle", "--config", "undiscounted.cfg"],  # RiskSpec
    **{f"train-{name}": ["train", "--config", f"{name}.cfg"] for name in BAD_VALUES},
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_cli_refuses_bad_input_before_any_work(case, input_files, monkeypatch, capsys):
    def no_rollout(*args, **kwargs):
        raise AssertionError("a rollout ran")

    monkeypatch.setattr(harness, "rollout_batch", no_rollout)
    monkeypatch.setattr(harness, "rollout_batch_augmented", no_rollout)
    monkeypatch.chdir(input_files)
    out = input_files / f"out-{case}"
    argv = BAD_INPUTS[case] + ([] if case.startswith("compare") else ["--out", str(out)])
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse refuses a bad --eval-episodes itself
        code = exc.code
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("workload", ["oracle", "pg_train", "ac_train", "eval_large"])
def test_bench_oracle_workload_runs_traced(workload):
    # traced mode wraps every library name the benchmark lists, so a rename
    # or signature change that would break the benchmark fails here; the
    # training workloads run the wrapped policy names inside the rollout
    # kernel and the actor-critic loop, and eval_large runs the budget-aware
    # 50 000-episode evaluation through the node-loss and Monte Carlo checks
    res = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=Path(__file__).resolve().parents[1])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout.strip().splitlines()[-1])["correct"] is True
