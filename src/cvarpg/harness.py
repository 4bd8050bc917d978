"""Experiment orchestration: train, evaluate, report, compare.

Training dispatches on the configured algorithm, evaluation rolls the
learned policy out for a fixed number of episodes, and the report holds
the loss statistics plus two histograms (full range and right tail).
Every artifact is written with round-trip float formatting so identical
runs produce byte-identical files.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .ac import AcVariant, ac_train
from .config import (ExperimentConfig, algorithm_spec, config_from_mapping, parse_config_text,
                     read_field, read_text)
from .errors import InputError
from .optstop import (
    OptStopCriticFeatures,
    OptStopEnv,
    OptStopPolicyFeatures,
    rollout_batch,
    rollout_batch_augmented,
)
from .pg import pg_train
from .risk import EmpiricalDistribution, cvar, tail_probability, value_at_risk
from .schedules import CapController, Iterate
from .seeding import substream, substream_uniforms

# rows of uniforms a PG run draws in one call, at most (or one batch, if larger):
# iterations [i, i + K) of a round at once, K doubling from 1 until K batches fill these rows
_PG_DRAW_ROWS = 1000


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
    feats = policy_feature_map(config, include_s=False)
    theta0 = np.zeros(feats.dim)
    u = substream_uniforms(seed, ("warmup",), config.train_warmup_rollouts, 2 * config.env_T)
    batch = rollout_batch(feats, theta0, u, with_scores=False)
    return value_at_risk(EmpiricalDistribution(batch.losses), alpha)


def train_policy(config: ExperimentConfig, seed: int) -> TrainedPolicy:
    spec = algorithm_spec(config.algorithm)
    risk_neutral = spec.risk_neutral
    risk = config.risk_spec()
    nu0 = 0.0 if risk_neutral else warmup_quantile(config, seed, risk.alpha)
    lam0 = 0.0 if risk_neutral else 1.0
    controller = CapController(risk.lambda_max, config.train_window, config.train_rel_tol,
                               config.train_lambda_margin, risk_neutral)
    feats = policy_feature_map(config, include_s=spec.budget_aware,
                               incremental=spec.ac_variant is not None)

    if spec.ac_variant is None:
        n, tuning = config.pg_batch_size, config.pg_tuning_iterations
        # iteration i's batch reads the uniforms of substream(seed, "pg", round, i, j),
        # which never depend on theta, so they are drawn ahead:
        # (round, iteration) -> that iteration's (n, 2T) uniforms
        drawn = {}

        def sampler(theta, round_idx, iter_idx):
            if (round_idx, iter_idx) not in drawn:
                k = min(iter_idx, max(1, _PG_DRAW_ROWS // n), tuning - iter_idx + 1)
                runs = range(iter_idx, iter_idx + k)
                u = substream_uniforms(seed, ("pg", round_idx, runs), n, 2 * config.env_T)
                drawn.clear()
                drawn.update(((round_idx, i), u_i) for i, u_i in zip(runs, u))
            batch = rollout_batch(feats, theta, drawn[round_idx, iter_idx])
            return batch.losses, batch.scores

        result = pg_train(
            sampler,
            Iterate(np.zeros(feats.dim), nu0, lam0),
            risk,
            config.pg_stack(),
            config.theta_box(),
            config.nu_box(),
            config.pg_tuning_iterations,
            config.pg_iteration_cap,
            controller,
        )
    else:
        cfeats = critic_feature_map(config, include_s=spec.budget_aware)
        zetas, delta = config.ac_stack()
        orig_cfeats = None
        if spec.ac_variant is AcVariant.ALTERNATIVE_TWO_CRITIC:
            orig_cfeats = critic_feature_map(config, include_s=False)
        result = ac_train(
            OptStopEnv(config.env_params()),
            feats,
            cfeats,
            Iterate(np.zeros(feats.dim), nu0, lam0, np.zeros(cfeats.dim)),
            risk,
            zetas,
            delta,
            config.theta_box(),
            config.nu_box(),
            substream(seed, "ac"),
            spec.ac_variant,
            config.ac_tuning_episodes,
            config.ac_episode_cap,
            controller,
            horizon_cap=config.env_T + 2,
            original_critic_features=orig_cfeats,
            semi_nu_schedule=zetas[2] if config.ac_semi_nu_schedule == "zeta3" else None,
            critic_warmup_episodes=config.ac_critic_warmup_episodes,
        )

    it = result.iterate
    return TrainedPolicy(config.algorithm, it.theta, it.nu, it.lam, it.v, it.u, result.converged,
                         result.lambda_max, result.doublings, result.history)


def evaluate_policy(config: ExperimentConfig, trained: TrainedPolicy, seed: int,
                    episodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Roll the learned policy out; returns (losses, episode lengths)."""
    spec = algorithm_spec(trained.algorithm)
    feats = policy_feature_map(config, include_s=spec.budget_aware,
                               incremental=spec.ac_variant is not None)
    if trained.theta.shape != (feats.dim,):
        raise InputError(f"theta has shape {trained.theta.shape}; the config's policy map "
                         f"needs ({feats.dim},)")
    u = substream_uniforms(seed, ("eval",), episodes, 2 * config.env_T)
    if spec.budget_aware:
        batch = rollout_batch_augmented(feats, trained.theta, trained.nu, u, with_scores=False)
    else:
        batch = rollout_batch(feats, trained.theta, u, with_scores=False)
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


def evaluate_and_write(config: ExperimentConfig, trained: TrainedPolicy, seed: int,
                       out_dir: str | None, episodes: int | None):
    """Evaluate and report; given ``out_dir``, also write every artifact and print a summary.

    ``episodes`` None means ``config.eval_episodes``. Returns (report, losses, lengths)."""
    episodes = episodes if episodes is not None else config.eval_episodes
    losses, lengths = evaluate_policy(config, trained, seed, episodes)
    report = build_report(config, trained, losses, seed)
    if out_dir is not None:
        write_artifacts(Path(out_dir), config, trained, report, losses, lengths, seed)
        print(f"wrote artifacts to {out_dir}")
        print(f"mean={report.mean:.6f} variance={report.variance:.6f} "
              f"cvar={report.cvar_alpha:.6f} tail_prob={report.tail_prob_beta:.6f}")
    return report, losses, lengths


def run_experiment(config: ExperimentConfig, seed: int, out_dir: str | None = None,
                   eval_episodes: int | None = None):
    """Train, then ``evaluate_and_write``.

    Returns (report, trained, losses, lengths). A non-converged run still
    produces a full report; the caller decides how to surface it.
    """
    trained = train_policy(config, seed)
    report, losses, lengths = evaluate_and_write(config, trained, seed, out_dir, eval_episodes)
    return report, trained, losses, lengths


# ---- artifact files --------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_losses_csv(path: Path, losses: np.ndarray, lengths: np.ndarray) -> None:
    # repr of a Python float is what _fmt writes for a loss; it runs once per
    # distinct bit pattern, so 0.0 and -0.0 keep their own text
    bits, loss_of = np.unique(np.ascontiguousarray(losses, dtype=float).view(np.int64),
                              return_inverse=True)
    text = [repr(x) for x in bits.view(float).tolist()]
    lengths = np.asarray(lengths, dtype=np.int64).tolist()
    rows = [f"{j},{text[i]},{t}" for j, i, t in zip(range(len(lengths)), loss_of.tolist(), lengths)]
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


# report.txt holds the scalar fields of EvaluationReport, one `key = value`
# line each in declaration order, read back as a config file is
_REPORT_FIELDS = {f.name: f.type for f in fields(EvaluationReport)
                  if f.type in ("str", "int", "float", "bool")}


def report_to_text(report: EvaluationReport) -> str:
    lines = []
    for key in _REPORT_FIELDS:
        value = getattr(report, key)
        lines.append(f"{key} = {value if isinstance(value, str) else _fmt(value)}")
    return "\n".join(lines) + "\n"


def report_from_text(text: str) -> EvaluationReport:
    raw = parse_config_text(text)
    return EvaluationReport(**{key: read_field(raw, key, kind)
                               for key, kind in _REPORT_FIELDS.items()})


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
    """The config and trained policy of a ``params.json``; a malformed file is an ``InputError``."""
    text = read_text(path, "params")
    try:
        params = json.loads(text)
        mapping = params["config"]
        if not isinstance(mapping, dict) or not isinstance(params["algorithm"], str):
            raise TypeError("'config' must be an object and 'algorithm' a string")
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
    except KeyError as exc:
        raise InputError(f"params {path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # not JSON, or a value of the wrong type
        raise InputError(f"params {path}: {exc}") from exc
    return config_from_mapping(mapping), trained


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
