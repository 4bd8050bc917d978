"""Command-line entry points.

Subcommands: train (train + evaluate + write artifacts), eval
(re-evaluate saved parameters), compare (tabulate reports), and
enumerate-oracle (exact loss distribution of a fixed policy, from the
recombining cost lattice, at any horizon).

Exit codes: 0 success, 2 configuration or input error, 3 training did
not converge (artifacts are still written), 4 runtime or numeric error.
Every bad config, ``params.json``, ``report.txt`` or ``--eval-episodes``
is refused with exit 2 before any rollout runs or output is written:
argparse refuses the count, and the rest raise ``InputError``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_config, read_text
from .errors import InputError, SimulationError
from .harness import compare, evaluate_and_write, load_params, report_from_text, run_experiment
from .lattice import StoppingLattice
from .risk import cvar, tail_probability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_CONVERGED = 3
EXIT_RUNTIME = 4

# enumerate-oracle's stop rules, as the acceptance probability at every node;
# uniform is the theta = 0 Boltzmann policy, whose softmax gives exactly 0.5
_ORACLE_ACCEPTANCE = {"uniform": 0.5, "accept": 1.0, "wait": 0.0}


def _episode_count(text: str) -> int:
    """argparse type of ``--eval-episodes``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvarpg",
                                     description="Risk-constrained policy optimization harness")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train a policy, evaluate it, write artifacts")
    train.add_argument("--config", required=True, help="path to key=value config file")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--algorithm", default=None, help="override the configured algorithm")
    train.add_argument("--eval-episodes", type=_episode_count, default=None)

    ev = sub.add_parser("eval", help="re-evaluate saved parameters")
    ev.add_argument("--params", required=True, help="params.json from a train run")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True)
    ev.add_argument("--eval-episodes", type=_episode_count, default=None)

    cmp_p = sub.add_parser("compare", help="side-by-side table of report files")
    cmp_p.add_argument("reports", nargs="+", help="two or more report.txt files")

    oracle = sub.add_parser("enumerate-oracle",
                            help="exact loss distribution of a fixed policy, from the cost lattice")
    oracle.add_argument("--config", required=True)
    oracle.add_argument("--policy", default="uniform", choices=list(_ORACLE_ACCEPTANCE))
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
    reports = [report_from_text(read_text(path, "report")) for path in args.reports]
    print(compare(reports), end="")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    config = load_config(args.config)
    lattice = StoppingLattice(config.env_params())
    dist = lattice.distribution(np.full(lattice.loss.shape, _ORACLE_ACCEPTANCE[args.policy]))
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SimulationError, FloatingPointError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
