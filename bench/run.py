"""Benchmark of the cvarpg library: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload pg_train --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ``src/``. The
timed mode (``--trace 0``) runs whole rounds of the workload, stopping at
the round boundary nearest to ``--seconds``, and prints the end-to-end
metrics; the traced mode (``--trace 1``) runs one round with every layer
wrapped and prints the per-layer metrics. Every operation's outputs are
checked off the clock. See bench/README.md.
"""
import time

STARTED = time.perf_counter()

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 4   # extra set-ups, each in a fresh process, besides the run's own


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="CVAR_MDP_THREADS for the run (reference figures only)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cvarpg" / "__init__.py").is_file():
        print(f"no library source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.trace and args.threads != 1:
        print("the tracer is single-threaded: --trace 1 needs --threads 1", file=sys.stderr)
        return 2
    os.environ["CVAR_MDP_THREADS"] = str(args.threads)
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        import cvarpg.harness  # noqa: F401  (binds every module the tracer rewires)
        spans.install(tracer)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / f"{args.workload}-{args.seed}"
    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    workload.counter.install()
    first_round = workload.round(0)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    attempted = 0
    rates = []   # decisions per second of each round
    steps = busy = 0
    r = 0
    ops = first_round
    clock_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_steps, round_busy = 0, 0.0
        for op in ops:
            attempted += 1
            with tracer.span("bench.op") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = op.run()
                round_busy += time.perf_counter() - t0
            round_steps += op.steps(result)
            try:
                op.check(result)
            except workloads.checks.CheckFailed as exc:
                print(f"check failed on {args.workload} {op.name}: {exc}", file=sys.stderr)
                return 1
            del result
        rates.append(round_steps / round_busy)
        steps, busy = steps + round_steps, busy + round_busy
        r += 1
        # stop at the round boundary nearest to --seconds
        now = time.perf_counter()
        if tracer is not None or now + (now - round_start) / 2 - clock_start > args.seconds:
            break
        ops = workload.round(r)

    steps_per_s = statistics.median(rates)
    print(f"{args.workload} seed {args.seed}: {r} rounds, {attempted} operations, "
          f"{steps} decisions in {busy:.3f} s, median round {steps_per_s:.1f} decisions/s"
          + (" (traced)" if tracer else ""))
    if tracer is not None:
        tracer.write(BENCH / "out" / f"trace-{args.workload}-{args.seed}.npz")
        metrics = spans.layer_metrics(tracer)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median([setup_s] + repeat_setup(args)), "unit": "s"},
            "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


def repeat_setup(args) -> list[float]:
    """Set-up times of fresh processes doing this run's set-up, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return times


if __name__ == "__main__":
    sys.exit(main())
