"""Command-line entry points.

Subcommands: train (train + evaluate + write artifacts), eval
(re-evaluate saved parameters), compare (tabulate reports), and
enumerate-oracle (exact loss distribution of a fixed policy, from the
recombining cost lattice, at any horizon).

Exit codes: 0 success, 2 configuration or input error, 3 training did
not converge (artifacts are still written), 4 runtime or numeric error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, InputError, SimulationError
from .harness import (
    compare,
    evaluate_and_write,
    load_params,
    policy_feature_map,
    report_from_text,
    run_experiment,
)
from .optstop import enumerate_loss_distribution
from .risk import cvar, tail_probability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_RUNTIME = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvarpg",
                                     description="Risk-constrained policy optimization harness")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a policy, evaluate it, write artifacts")
    train.add_argument("--config", required=True, help="path to key=value config file")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--algorithm", default=None, help="override the configured algorithm")
    train.add_argument("--eval-episodes", type=int, default=None)

    ev = sub.add_parser("eval", help="re-evaluate saved parameters")
    ev.add_argument("--params", required=True, help="params.json from a train run")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.add_argument("--eval-episodes", type=int, default=None)

    cmp_p = sub.add_parser("compare", help="side-by-side table of report files")
    cmp_p.add_argument("reports", nargs="+", help="two or more report.txt files")

    oracle = sub.add_parser("enumerate-oracle",
                            help="exact loss distribution of a fixed policy, from the cost lattice")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--policy", default="uniform", choices=["uniform", "accept", "wait"])
    oracle.add_argument("--out", default=None, help="optional CSV path for the atoms")
    return parser


def _cmd_train(args) -> int:
    config = load_config(args.config)
    if args.algorithm is not None:
        config.algorithm = args.algorithm
        config.validate()
    report, _, _, _ = run_experiment(
        config, args.seed, out_dir=args.out, eval_episodes=args.eval_episodes
    )
    if not report.converged:
        print("warning: training did not meet the convergence test", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_eval(args) -> int:
    config, trained = load_params(args.params)
    evaluate_and_write(config, trained, args.seed, args.out, args.eval_episodes)
    return EXIT_OK


def _cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        with open(path, "r", encoding="utf-8") as fh:
            reports.append(report_from_text(fh.read()))
    print(compare(reports), end="")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    params = config.env_params()
    feats = policy_feature_map(config, include_s=False)
    policy = "boltzmann" if args.policy == "uniform" else args.policy
    dist = enumerate_loss_distribution(feats, np.zeros(feats.dim), params, policy=policy)
    alpha, beta = config.risk_alpha, config.risk_beta
    print(f"atoms={len(dist)} mean={dist.mean():.9f} variance={dist.variance():.9f}")
    print(f"cvar_{alpha}={cvar(dist, alpha):.9f} tail_prob_{beta}={tail_probability(dist, beta):.9f}")
    if args.out:
        lines = ["loss,weight"]
        for loss, weight in zip(dist.samples, dist.weights):
            lines.append(f"{float(loss)!r},{float(weight)!r}")
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote atoms to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "compare": _cmd_compare,
        "enumerate-oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
