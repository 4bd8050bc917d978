"""Experiment orchestration: train, evaluate, report, compare.

Training dispatches on the configured algorithm, evaluation rolls the
learned policy out for a fixed number of episodes, and the report holds
the loss statistics plus two histograms (full range and right tail).
Every artifact is written with round-trip float formatting so identical
runs produce byte-identical files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ac import AcIterate, AcResult, AcVariant, ac_train
from .config import ExperimentConfig
from .errors import InputError
from .optstop import (
    OptStopCriticFeatures,
    OptStopEnv,
    OptStopPolicyFeatures,
    rollout_batch,
    rollout_batch_augmented,
)
from .pg import PgResult, SaddleIterate, pg_train
from .risk import EmpiricalDistribution, cvar, tail_probability, value_at_risk
from .seeding import substream

_AC_VARIANTS = {
    "AC_CVAR_SPSA": AcVariant.SPSA_INCREMENTAL,
    "AC_CVAR_SEMI": AcVariant.SEMI_TRAJECTORY,
    "AC_CVAR_ALT": AcVariant.ALTERNATIVE_TWO_CRITIC,
}


@dataclass
class TrainedPolicy:
    algorithm: str
    theta: np.ndarray
    nu: float
    lam: float
    v: np.ndarray | None
    u: np.ndarray | None
    converged: bool
    lambda_max_final: float
    doublings: int
    history: list


@dataclass
class EvaluationReport:
    algorithm: str
    seed: int
    env_fingerprint: str
    alpha: float
    beta: float
    episodes: int
    mean: float
    variance: float
    cvar_alpha: float
    tail_prob_beta: float
    converged: bool
    nu: float
    lam: float
    theta_norm: float
    lambda_max_final: float
    doublings: int
    histogram_edges: np.ndarray = field(repr=False, default=None)
    histogram_counts: np.ndarray = field(repr=False, default=None)
    tail_histogram_edges: np.ndarray = field(repr=False, default=None)
    tail_histogram_counts: np.ndarray = field(repr=False, default=None)


def policy_feature_map(config: ExperimentConfig, include_s: bool,
                       incremental: bool = False) -> OptStopPolicyFeatures:
    scale = config.features_ac_policy_scale if incremental else config.features_policy_scale
    return OptStopPolicyFeatures(
        config.env_params(),
        centers_per_dim=config.features_policy_centers,
        include_s=include_s,
        s_range=config.s_range(),
        scale=scale,
        width_scale=config.features_rbf_width_scale,
    )


def critic_feature_map(config: ExperimentConfig, include_s: bool) -> OptStopCriticFeatures:
    return OptStopCriticFeatures(
        config.env_params(),
        centers_per_dim=config.features_critic_centers,
        include_s=include_s,
        s_range=config.s_range(),
        width_scale=config.features_rbf_width_scale,
    )


def warmup_quantile(config: ExperimentConfig, seed: int, alpha: float) -> float:
    """Empirical alpha-quantile of losses under the untrained policy."""
    env = OptStopEnv(config.env_params())
    feats = policy_feature_map(config, include_s=False)
    theta0 = np.zeros(feats.dim)
    batch = rollout_batch(env, feats, theta0, seed, ("warmup",), config.train_warmup_rollouts,
                          with_scores=False)
    return value_at_risk(EmpiricalDistribution(batch.losses), alpha)


def train_policy(config: ExperimentConfig, seed: int) -> TrainedPolicy:
    algorithm = config.algorithm
    risk = config.risk_spec()
    env = OptStopEnv(config.env_params())

    if algorithm in ("PG", "PG_CVAR"):
        risk_neutral = algorithm == "PG"
        feats = policy_feature_map(config, include_s=False)
        theta0 = np.zeros(feats.dim)
        nu0 = 0.0 if risk_neutral else warmup_quantile(config, seed, risk.alpha)
        lam0 = 0.0 if risk_neutral else 1.0
        n = config.pg_batch_size

        def sampler(theta, round_idx, iter_idx):
            batch = rollout_batch(env, feats, theta, seed, ("pg", round_idx, iter_idx), n)
            return batch.losses, batch.scores

        stack = config.pg_stack()
        result: PgResult = pg_train(
            sampler,
            SaddleIterate(theta0, nu0, lam0),
            risk,
            tuple(stack.slow_to_fast),
            config.theta_box(),
            config.nu_box(),
            config.pg_tuning_iterations,
            config.pg_iteration_cap,
            window=config.train_window,
            rel_tol=config.train_rel_tol,
            lambda_margin=config.train_lambda_margin,
            risk_neutral=risk_neutral,
        )
        it = result.iterate
        return TrainedPolicy(algorithm, it.theta, it.nu, it.lam, None, None,
                             result.converged, result.lambda_max, result.doublings,
                             result.history)

    if algorithm == "AC" or algorithm in _AC_VARIANTS:
        risk_neutral = algorithm == "AC"
        include_s = not risk_neutral
        feats = policy_feature_map(config, include_s=include_s, incremental=True)
        cfeats = critic_feature_map(config, include_s=include_s)
        variant = _AC_VARIANTS.get(algorithm, AcVariant.SPSA_INCREMENTAL)
        theta0 = np.zeros(feats.dim)
        nu0 = 0.0 if risk_neutral else warmup_quantile(config, seed, risk.alpha)
        lam0 = 0.0 if risk_neutral else 1.0
        stack = config.ac_stack()
        orig_cfeats = None
        if variant is AcVariant.ALTERNATIVE_TWO_CRITIC:
            orig_cfeats = critic_feature_map(config, include_s=False)
        result: AcResult = ac_train(
            env,
            feats,
            cfeats,
            AcIterate(theta0, nu0, lam0, np.zeros(cfeats.dim)),
            risk,
            tuple(stack.slow_to_fast),
            stack.perturbation,
            config.theta_box(),
            config.nu_box(),
            substream(seed, "ac"),
            variant,
            config.ac_tuning_episodes,
            config.ac_episode_cap,
            horizon_cap=config.env_T + 2,
            original_critic_features=orig_cfeats,
            risk_neutral=risk_neutral,
            window=config.train_window,
            rel_tol=config.train_rel_tol,
            lambda_margin=config.train_lambda_margin,
            semi_nu_schedule=(
                stack.slow_to_fast[2] if config.ac_semi_nu_schedule == "zeta3" else None
            ),
            critic_warmup_episodes=config.ac_critic_warmup_episodes,
        )
        it = result.iterate
        return TrainedPolicy(algorithm, it.theta, it.nu, it.lam, it.v, it.u,
                             result.converged, result.lambda_max, result.doublings,
                             result.history)

    raise InputError(f"unknown algorithm {algorithm!r}")


def evaluate_policy(config: ExperimentConfig, trained: TrainedPolicy, seed: int,
                    episodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Roll the learned policy out; returns (losses, episode lengths)."""
    env = OptStopEnv(config.env_params())
    if trained.algorithm in ("PG", "PG_CVAR"):
        feats = policy_feature_map(config, include_s=False)
        batch = rollout_batch(env, feats, trained.theta, seed, ("eval",), episodes,
                              with_scores=False)
    else:
        include_s = trained.algorithm != "AC"
        feats = policy_feature_map(config, include_s=include_s, incremental=True)
        s0 = trained.nu if include_s else 0.0
        batch = rollout_batch_augmented(env, feats, trained.theta, s0, seed, ("eval",), episodes,
                                        with_scores=False)
    return batch.losses, batch.lengths


def build_report(config: ExperimentConfig, trained: TrainedPolicy, losses: np.ndarray,
                 seed: int) -> EvaluationReport:
    dist = EmpiricalDistribution(losses)
    alpha, beta = config.risk_alpha, config.risk_beta
    bins = config.output_histogram_bins
    envelope = config.env_params().loss_upper_bound()
    edges = np.linspace(0.0, envelope, bins + 1)
    counts, _ = np.histogram(losses, bins=edges)
    max_loss = float(losses.max())
    tail_hi = max_loss if max_loss > beta else beta + 1.0
    tail_edges = np.linspace(beta, tail_hi, bins + 1)
    tail_counts, _ = np.histogram(losses, bins=tail_edges)
    return EvaluationReport(
        algorithm=trained.algorithm,
        seed=seed,
        env_fingerprint=config.env_fingerprint(),
        alpha=alpha,
        beta=beta,
        episodes=len(losses),
        mean=dist.mean(),
        variance=dist.variance(),
        cvar_alpha=cvar(dist, alpha),
        tail_prob_beta=tail_probability(dist, beta),
        converged=trained.converged,
        nu=trained.nu,
        lam=trained.lam,
        theta_norm=float(np.linalg.norm(trained.theta)),
        lambda_max_final=trained.lambda_max_final,
        doublings=trained.doublings,
        histogram_edges=edges,
        histogram_counts=counts,
        tail_histogram_edges=tail_edges,
        tail_histogram_counts=tail_counts,
    )


def run_experiment(config: ExperimentConfig, seed: int, out_dir: str | None = None,
                   eval_episodes: int | None = None):
    """Train, evaluate, and optionally write all artifacts.

    Returns (report, trained, losses, lengths). A non-converged run still
    produces a full report; the caller decides how to surface it.
    """
    trained = train_policy(config, seed)
    episodes = eval_episodes if eval_episodes is not None else config.eval_episodes
    losses, lengths = evaluate_policy(config, trained, seed, episodes)
    report = build_report(config, trained, losses, seed)
    if out_dir is not None:
        write_artifacts(Path(out_dir), config, trained, report, losses, lengths, seed)
    return report, trained, losses, lengths


# ---- artifact files --------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_losses_csv(path: Path, losses: np.ndarray, lengths: np.ndarray) -> None:
    # repr of a Python float is what _fmt writes for a loss
    losses = np.asarray(losses, dtype=float).tolist()
    lengths = np.asarray(lengths, dtype=np.int64).tolist()
    rows = [f"{j},{loss!r},{t}" for j, loss, t in zip(range(len(losses)), losses, lengths)]
    path.write_text("\n".join(["episode,loss,T", *rows]) + "\n", encoding="utf-8")


def write_history_csv(path: Path, history: list[dict]) -> None:
    lines = ["iter,nu,lambda,theta_norm,mean_batch_loss"]
    for rec in history:
        lines.append(
            f"{rec['iter']},{_fmt(rec['nu'])},{_fmt(rec['lambda'])},"
            f"{_fmt(rec['theta_norm'])},{_fmt(rec['mean_batch_loss'])}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_histogram_csv(path: Path, edges: np.ndarray, counts: np.ndarray) -> None:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, cnt in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{_fmt(lo)},{_fmt(hi)},{int(cnt)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_REPORT_KEYS = (
    "algorithm", "seed", "env_fingerprint", "alpha", "beta", "episodes",
    "mean", "variance", "cvar_alpha", "tail_prob_beta", "converged",
    "nu", "lam", "theta_norm", "lambda_max_final", "doublings",
)


def report_to_text(report: EvaluationReport) -> str:
    lines = []
    for key in _REPORT_KEYS:
        value = getattr(report, key)
        if isinstance(value, str):
            lines.append(f"{key} = {value}")
        else:
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> EvaluationReport:
    raw: dict[str, str] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        key, _, value = line.partition(" = ")
        raw[key] = value
    def fget(k):
        return float(raw[k])
    return EvaluationReport(
        algorithm=raw["algorithm"], seed=int(raw["seed"]),
        env_fingerprint=raw["env_fingerprint"],
        alpha=fget("alpha"), beta=fget("beta"), episodes=int(raw["episodes"]),
        mean=fget("mean"), variance=fget("variance"), cvar_alpha=fget("cvar_alpha"),
        tail_prob_beta=fget("tail_prob_beta"), converged=raw["converged"] == "true",
        nu=fget("nu"), lam=fget("lam"), theta_norm=fget("theta_norm"),
        lambda_max_final=fget("lambda_max_final"), doublings=int(raw["doublings"]),
    )


def write_artifacts(out_dir: Path, config: ExperimentConfig, trained: TrainedPolicy,
                    report: EvaluationReport, losses: np.ndarray, lengths: np.ndarray,
                    seed: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    params = {
        "algorithm": trained.algorithm,
        "seed": seed,
        "converged": bool(trained.converged),
        "lambda_max_final": trained.lambda_max_final,
        "doublings": trained.doublings,
        "theta": [float(t) for t in trained.theta],
        "nu": float(trained.nu),
        "lambda": float(trained.lam),
        "v": None if trained.v is None else [float(x) for x in trained.v],
        "u": None if trained.u is None else [float(x) for x in trained.u],
        "config": {k: v for k, v in config.to_dict().items()},
    }
    (out_dir / "params.json").write_text(
        json.dumps(params, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_history_csv(out_dir / "training_history.csv", trained.history)
    write_losses_csv(out_dir / "losses.csv", losses, lengths)
    (out_dir / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    write_histogram_csv(out_dir / "histogram.csv", report.histogram_edges,
                        report.histogram_counts)
    write_histogram_csv(out_dir / "histogram_tail.csv", report.tail_histogram_edges,
                        report.tail_histogram_counts)


def load_params(path: str) -> tuple[ExperimentConfig, TrainedPolicy]:
    from .config import config_from_mapping

    with open(path, "r", encoding="utf-8") as fh:
        params = json.load(fh)
    config = config_from_mapping({k: v for k, v in params["config"].items()})
    trained = TrainedPolicy(
        algorithm=params["algorithm"],
        theta=np.asarray(params["theta"], dtype=float),
        nu=float(params["nu"]),
        lam=float(params["lambda"]),
        v=None if params["v"] is None else np.asarray(params["v"], dtype=float),
        u=None if params["u"] is None else np.asarray(params["u"], dtype=float),
        converged=bool(params["converged"]),
        lambda_max_final=float(params["lambda_max_final"]),
        doublings=int(params["doublings"]),
        history=[],
    )
    return config, trained


_COMPARE_METRICS = ("mean", "variance", "cvar_alpha", "tail_prob_beta")


def compare(reports: list[EvaluationReport]) -> str:
    """Side-by-side metric table; deltas are taken against the first report."""
    if len(reports) < 2:
        raise InputError("compare needs at least two reports")
    fp = reports[0].env_fingerprint
    for rep in reports[1:]:
        if rep.env_fingerprint != fp:
            raise InputError(
                f"environment mismatch: {rep.env_fingerprint!r} vs {fp!r}"
            )
    labels = [rep.algorithm for rep in reports]
    width = max(12, *(len(lbl) + 2 for lbl in labels))
    header = "metric".ljust(16) + "".join(lbl.rjust(width) for lbl in labels)
    header += "".join((f"d({lbl})").rjust(width) for lbl in labels[1:])
    lines = [header]
    for metric in _COMPARE_METRICS:
        base = getattr(reports[0], metric)
        row = metric.ljust(16)
        row += "".join(f"{getattr(r, metric):.6f}".rjust(width) for r in reports)
        row += "".join(
            f"{getattr(r, metric) - base:+.6f}".rjust(width) for r in reports[1:]
        )
        lines.append(row)
    return "\n".join(lines) + "\n"
