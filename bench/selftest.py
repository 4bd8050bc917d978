"""Show that every output check passes on a real output and fails on a corrupted copy.

    python3 bench/selftest.py

Runs one small operation of each workload, checks its outputs, then feeds
each check a copy with one output corrupted. Exits 1 if a check lets a
corrupted copy through or rejects a real output.
"""
import dataclasses
import os
import sys
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
os.environ["CVAR_MDP_THREADS"] = "1"
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

failures = 0


def expect(name: str, check, good: tuple, bad: tuple) -> None:
    global failures
    try:
        check(*good)
    except checks.CheckFailed as exc:
        print(f"FAIL {name}: rejects the real output: {exc}")
        failures += 1
        return
    try:
        check(*bad)
    except checks.CheckFailed as exc:
        print(f"ok   {name}: {exc}")
        return
    print(f"FAIL {name}: accepts the corrupted copy")
    failures += 1


def with_item(array: np.ndarray, index: int, value) -> np.ndarray:
    out = np.array(array, copy=True)
    out[index] = value
    return out


def main() -> int:
    out = BENCH / "out" / "selftest"

    # training: one PG run on the certified instance
    pg = workloads.PgTrain(0, out)
    op = pg.round(0)[0]
    report, trained, losses, lengths = op.run()[1]
    cfg = pg.configs[0]
    lattice = pg.lattice(cfg.env_params())
    optimum = lattice.mean_optimum()
    box = cfg.nu_box()
    args = (trained, cfg.policy_theta_bound, (box.lo, box.hi), losses, optimum)
    expect("trained theta finite", checks.check_trained, args,
           (dataclasses.replace(trained, theta=with_item(trained.theta, 0, np.nan)),) + args[1:])
    expect("trained nu in its box", checks.check_trained, args,
           (dataclasses.replace(trained, nu=-1.0),) + args[1:])
    expect("trained lambda in its box", checks.check_trained, args,
           (dataclasses.replace(trained, lam=2.0 * trained.lambda_max_final + 1.0),) + args[1:])
    expect("evaluated mean not below the optimum", checks.check_trained, args,
           args[:3] + (0.5 * losses, optimum))
    expect("losses are node losses", checks.check_node_losses, (lattice, losses, lengths),
           (lattice, with_item(losses, 3, losses[3] + 1e-6), lengths))
    expect("lengths within the horizon", checks.check_node_losses, (lattice, losses, lengths),
           (lattice, losses, with_item(lengths, 0, cfg.env_T + 2)))
    beta, alpha = cfg.risk_beta, cfg.risk_alpha
    for field in ("mean", "cvar_alpha", "tail_prob_beta"):
        bad = dataclasses.replace(report, **{field: getattr(report, field) + 1e-6})
        expect(f"report {field} matches a sort of the losses", checks.check_report,
               (report, losses, alpha, beta), (bad, losses, alpha, beta))

    # evaluation: one generated budget-augmented policy, 50k episodes
    ev = workloads.EvalLarge(0, out)
    op = ev.round(0)[1]
    report, losses, lengths = op.run()
    exact = ev.exact(*op.policy)
    alpha = op.policy[0].risk_alpha
    top = np.argsort(losses)[-len(losses) // 100:]
    expect("sample mean and CVaR near the exact ones", checks.check_monte_carlo,
           (losses, exact, alpha), (with_item(losses, top, np.median(losses)), exact, alpha))

    # exact enumeration at T = 12
    orc = workloads.Oracle(0, out)
    op = orc.round(0)[0]
    dist, cvar_value, _, tail_value = op.run()
    cfg = op.policy[0]
    good = (dist, cvar_value, tail_value, orc.exact(*op.policy), cfg.risk_alpha, cfg.risk_beta)
    expect("enumerated mean matches the lattice", checks.check_exact_distribution, good,
           (SimpleNamespace(samples=dist.samples, weights=dist.weights[::-1]),) + good[1:])
    expect("enumerated weights sum to 1", checks.check_exact_distribution, good,
           (SimpleNamespace(samples=dist.samples, weights=dist.weights * (1 + 1e-9)),) + good[1:])
    expect("enumerated CVaR matches the lattice", checks.check_exact_distribution, good,
           (dist, cvar_value + 1e-6) + good[2:])
    expect("enumerated P(D >= beta) matches the lattice", checks.check_exact_distribution, good,
           (dist, cvar_value, tail_value + 1e-6) + good[3:])
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
