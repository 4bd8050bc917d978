"""Span tracing of the library's layers, for the benchmark's traced mode.

``install`` replaces each traced function, in every ``cvarpg`` module that
bound it (``harness.rollout_batch`` as well as ``optstop.rollout_batch``),
and each traced method on its class, by a wrapper that records one span:
layer, start, end and the enclosing span. Spans live in flat arrays in
memory and are written out when the run ends. A layer's self time is the
duration of its spans minus the time their child spans cover; a layer's
call count counts only spans whose parent is another layer, so
``sample_action`` calling ``action_probabilities`` is one softmax call.

The tracer keeps one span stack, so it serves single-threaded runs only.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MIB = float(1 << 20)

# harness functions whose callers read only losses and lengths, so the
# per-episode likelihood-ratio scores a rollout returns to them are dropped
_SCORE_DISCARDING = ("harness.eval", "harness.warmup")


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.cvar_inputs: list[np.ndarray] = []

    def layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def count(self, metric: str, amount: float) -> None:
        self.counts[metric] = self.counts.get(metric, 0.0) + amount

    def enclosing(self, prefix: str) -> str | None:
        """Layer of the innermost open span whose layer starts with ``prefix``."""
        for i in reversed(self.stack):
            name = self.layers[self.layer[i]]
            if name.startswith(prefix):
                return name
        return None

    def wrap(self, fn, layer: str, after=None):
        lid = self.layer_id(layer)
        layers, parents, starts, ends, stack = self.layer, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            layers.append(lid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def span(self, layer: str):
        """Context manager recording one span around the benchmark's own code."""
        return _Span(self, self.layer_id(layer))

    # ---- summaries ----------------------------------------------------------

    def arrays(self):
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return layer, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per layer: outermost calls, their inclusive time, and self time."""
        layer, parent, dur = self.arrays()
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        parent_layer = np.where(nested, layer[np.maximum(parent, 0)], -1)
        out = {}
        for lid, name in enumerate(self.layers):
            mine = layer == lid
            outer = mine & (parent_layer != lid)
            out[name] = {
                "calls": float(np.count_nonzero(outer)),
                "total_s": float(dur[outer].sum()),
                "self_s": float((dur[mine] - child[mine]).sum()),
            }
        return out

    def write(self, path: Path) -> None:
        layer, parent, _ = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.layers), layer=layer, parent=parent,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))


class _Span:
    def __init__(self, tracer: Tracer, lid: int):
        self.tracer, self.lid = tracer, lid

    def __enter__(self):
        t = self.tracer
        self.i = len(t.start)
        t.layer.append(self.lid)
        t.parent.append(t.stack[-1] if t.stack else -1)
        t.start.append(time.perf_counter())
        t.end.append(0.0)
        t.stack.append(self.i)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.end[self.i] = time.perf_counter()
        t.stack.pop()
        return False


def replace_everywhere(original, replacement) -> None:
    """Rebind every ``cvarpg`` module-level name that refers to ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "cvarpg" or name.startswith("cvarpg.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the public functions and methods of every traced layer."""
    from cvarpg import ac, config, features, harness, optstop, pg, policy, risk, schedules, seeding

    def rollout_counts(args, result):
        tracer.count("optstop.rollout.episodes", len(result.lengths))
        tracer.count("optstop.rollout.steps", int(result.lengths.sum()))
        if tracer.enclosing("harness.") in _SCORE_DISCARDING:
            tracer.count("optstop.rollout.discarded_score_mb", result.scores.nbytes / MIB)

    def rows(metric, of_arg=None):
        if of_arg is None:
            return lambda args, result: tracer.count(metric, 1)
        return lambda args, result: tracer.count(metric, len(args[of_arg]))

    def atoms(args, result):
        tracer.count("optstop.enumerate.atoms", len(result))

    def cvar_input(args, result):
        # the unique x n matrix is sized after the run, off the clock
        tracer.cvar_inputs.append(args[0].samples)

    def written(args, result):
        out_dir = Path(args[0])
        tracer.count("harness.write_mb",
                     sum(f.stat().st_size for f in out_dir.iterdir() if f.is_file()) / MIB)

    functions = [
        (seeding, "substream", "seeding.substream", None),
        (optstop, "rollout_batch", "optstop.rollout", rollout_counts),
        (optstop, "rollout_batch_augmented", "optstop.rollout", rollout_counts),
        (optstop, "enumerate_loss_distribution", "optstop.enumerate", atoms),
        (policy, "action_probabilities", "policy.softmax", None),
        (policy, "sample_action", "policy.softmax", None),
        (policy, "grad_log_prob", "policy.softmax", None),
        (pg, "estimate_batch_gradients", "pg.gradients", None),
        (pg, "pg_iteration", "pg.update", None),
        (pg, "pg_train", "pg.train", None),
        (ac, "ac_train", "ac.train", None),
        (schedules, "relative_change", "schedules.relative_change", None),
        (schedules, "lambda_max_controller", "schedules.controller", None),
        (risk, "cvar", "risk.cvar", cvar_input),
        (risk, "value_at_risk", "risk.quantile", None),
        (harness, "warmup_quantile", "harness.warmup", None),
        (harness, "train_policy", "harness.train", None),
        (harness, "evaluate_policy", "harness.eval", None),
        (harness, "build_report", "harness.report", None),
        (harness, "write_artifacts", "harness.write", written),
        (config, "parse_config_text", "config.load", None),
        (config, "config_from_mapping", "config.load", None),
    ]
    for name in ("spsa_nu_gradient", "spsa_nu_update", "ac_theta_update",
                 "ac_lambda_update_incremental", "ac_lambda_update_alternative",
                 "semi_trajectory_updates"):
        functions.append((ac, name, "ac.updates", None))
    for module, name, layer, after in functions:
        original = getattr(module, name)
        replace_everywhere(original, tracer.wrap(original, layer, after))

    methods = [
        (optstop.OptStopPolicyFeatures, "per_action", "optstop.policy_features",
         rows("optstop.policy_features.rows")),
        (optstop.OptStopPolicyFeatures, "per_action_batch", "optstop.policy_features",
         rows("optstop.policy_features.rows", of_arg=1)),
        (optstop.OptStopCriticFeatures, "__call__", "optstop.critic_features", None),
        (optstop.OptStopCriticFeatures, "at_initial", "optstop.critic_features", None),
        (optstop.OptStopEnv, "step", "optstop.env_step", None),
        # RbfGrid.__call__ delegates to batch, so this catches both
        (features.RbfGrid, "batch", "features.rbf", rows("features.rbf.rows", of_arg=1)),
    ]
    for cls, name, layer, after in methods:
        setattr(cls, name, tracer.wrap(getattr(cls, name), layer, after))


# (metric, unit) in the order BENCHMARK.json lists them
LAYER_METRICS = [
    ("seeding.substream.calls", "count"), ("seeding.substream.self_s", "s"),
    ("optstop.rollout.calls", "count"), ("optstop.rollout.episodes", "count"),
    ("optstop.rollout.steps", "count"), ("optstop.rollout.self_s", "s"),
    ("optstop.rollout.discarded_score_mb", "MB"),
    ("optstop.policy_features.calls", "count"), ("optstop.policy_features.rows", "count"),
    ("optstop.policy_features.self_s", "s"),
    ("optstop.critic_features.calls", "count"), ("optstop.critic_features.self_s", "s"),
    ("optstop.env_step.calls", "count"),
    ("optstop.enumerate.calls", "count"), ("optstop.enumerate.atoms", "count"),
    ("optstop.enumerate.self_s", "s"),
    ("features.rbf.calls", "count"), ("features.rbf.rows", "count"),
    ("features.rbf.self_s", "s"),
    ("policy.softmax.calls", "count"), ("policy.softmax.self_s", "s"),
    ("pg.gradients.calls", "count"), ("pg.gradients.self_s", "s"),
    ("pg.update.self_s", "s"), ("pg.train.self_s", "s"),
    ("ac.train.self_s", "s"), ("ac.updates.self_s", "s"),
    ("schedules.relative_change.calls", "count"), ("schedules.relative_change.self_s", "s"),
    ("schedules.controller.calls", "count"), ("schedules.controller.self_s", "s"),
    ("risk.cvar.calls", "count"), ("risk.cvar.self_s", "s"), ("risk.cvar.matrix_mb", "MB"),
    ("risk.quantile.self_s", "s"),
    ("harness.warmup_s", "s"), ("harness.train_s", "s"), ("harness.eval_s", "s"),
    ("harness.report_s", "s"), ("harness.write_s", "s"), ("harness.write_mb", "MB"),
    ("config.load_s", "s"),
]


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every metric of LAYER_METRICS; layers the run never entered read 0."""
    summary = tracer.summary()
    values = dict(tracer.counts)
    for layer, stats in summary.items():
        values[f"{layer}.calls"] = stats["calls"]
        values[f"{layer}.self_s"] = stats["self_s"]
        if layer.startswith(("harness.", "config.")):
            values[f"{layer}_s"] = stats["total_s"]
    values["risk.cvar.matrix_mb"] = sum(
        np.unique(x).size * x.size * 8 / MIB for x in tracer.cvar_inputs
    )
    out = {}
    for name, unit in LAYER_METRICS:
        value = values.get(name, 0.0)
        out[name] = {"value": int(value) if unit == "count" else value, "unit": unit}
    return out
