"""The benchmark's four workloads.

Each workload builds its configs and feature maps once, then yields rounds.
Round r takes its inputs from ``numpy.random.default_rng([seed, r])``, so a
seed fixes every input and a run consumes as many rounds as its time allows.
A round is a list of operations; each returns its environment decisions
and the outputs its check reads. Everything runs on criterion 6's certified
trade-off instance (c0 1, p_h 0.01, T 20, f_u 1.5, f_d 0.7, p 0.4,
gamma 0.95).

The library is reached only through public names of ``cvarpg.config``,
``cvarpg.harness``, ``cvarpg.optstop`` and ``cvarpg.risk``.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from cvarpg import harness, optstop, risk
from cvarpg.config import config_from_mapping, parse_config_text

import checks

CERTIFIED = """
env.p_h = 0.01
env.f_d = 0.7
env.p = 0.4
"""

# The tuning budget equals the cap and the tolerance is one the convergence
# test never meets, so the work of a training run does not hang on when that
# test fires. 60 iterations / episodes run the 50-wide convergence window.
PG_BUDGET = 60
AC_BUDGET = 60
TRAINING_SEEDS = (0, 1, 2, 3)
PG_ALGORITHMS = (("PG", 1.9), ("PG_CVAR", 1.9))
AC_ALGORITHMS = (("AC", 2.5), ("AC_CVAR_SPSA", 2.5), ("AC_CVAR_SEMI", 2.5), ("AC_CVAR_ALT", 2.5))

EVAL_EPISODES = 50_000
# wait logit minus accept logit of the generated evaluation policies: they
# accept with probability about 1 % a step, so most episodes reach T
EVAL_WAIT_GAP = 4.5
ORACLE_HORIZONS = (12, 13, 14, 15)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], object]
    steps: Callable[[object], int]
    check: Callable[[object], None]
    policy: tuple = ()   # (config, feature map, theta, initial budget) of a given policy


class StepCounter:
    """Sums ``BatchRollouts.lengths`` of every rollout the harness runs.

    Training batches are not returned to the caller, so the count is taken
    where the harness calls the rollout kernels.
    """

    def __init__(self):
        self.steps = 0

    def install(self) -> None:
        for name in ("rollout_batch", "rollout_batch_augmented"):
            setattr(harness, name, self._counting(getattr(harness, name)))

    def _counting(self, kernel):
        def counted(*args, **kwargs):
            batch = kernel(*args, **kwargs)
            self.steps += int(batch.lengths.sum())
            return batch
        return counted


def _config(**keys):
    text = CERTIFIED + "".join(f"{k} = {v}\n" for k, v in keys.items())
    return config_from_mapping(parse_config_text(text))


class _Workload:
    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.counter = StepCounter()
        self._lattice = None

    def lattice(self, params) -> checks.Lattice:
        if self._lattice is None or self._lattice.params != params:
            self._lattice = checks.Lattice(params)
        return self._lattice

    def rng(self, r: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, r])

    def exact(self, cfg, feats, theta, s0=None) -> tuple[np.ndarray, np.ndarray]:
        """Exact loss distribution of a Boltzmann policy, from the lattice."""
        lattice = self.lattice(cfg.env_params())
        accept = checks.boltzmann_accept(lattice, theta, cfg.features_policy_centers, feats.scale,
                                         cfg.features_rbf_width_scale, s0, cfg.s_range())
        return lattice.distribution(accept)


class _Training(_Workload):
    """Train, evaluate, report and write, as ``cvarpg train`` does.

    Every round trains each algorithm on the fixed TRAINING_SEEDS and
    evaluates on a seed drawn for the round. A learner's first batches decide
    whether it ends up accepting at once or waiting to T, which changes the
    decisions of a training run up to 20-fold, so training seeds drawn at
    random would make the work of a run a draw of that coin.
    """

    algorithms: tuple = ()

    def __init__(self, seed, out_dir, budget_keys):
        super().__init__(seed, out_dir)
        self.configs = [
            _config(algorithm=alg, **{"risk.beta": beta, "train.rel_tol": 0}, **budget_keys)
            for alg, beta in self.algorithms
        ]
        self.mean_optimum = None

    def round(self, r: int) -> list[Op]:
        eval_seed = int(self.rng(r).integers(2**31))
        return [self._op(cfg, train_seed, eval_seed)
                for train_seed in TRAINING_SEEDS for cfg in self.configs]

    def _op(self, cfg, train_seed: int, eval_seed: int) -> Op:
        out = self.out_dir / f"{cfg.algorithm}-{train_seed}"

        def run():
            before = self.counter.steps
            trained = harness.train_policy(cfg, train_seed)
            losses, lengths = harness.evaluate_policy(cfg, trained, eval_seed, cfg.eval_episodes)
            report = harness.build_report(cfg, trained, losses, eval_seed)
            harness.write_artifacts(out, cfg, trained, report, losses, lengths, eval_seed)
            decisions = self.counter.steps - before
            decisions += sum(rec.get("episode_steps", 0) for rec in trained.history)
            return decisions, (report, trained, losses, lengths)

        def check(result):
            report, trained, losses, lengths = result[1]
            lattice = self.lattice(cfg.env_params())
            if self.mean_optimum is None:
                self.mean_optimum = lattice.mean_optimum()
            box = cfg.nu_box()
            checks.check_trained(trained, cfg.policy_theta_bound, (box.lo, box.hi), losses,
                                 self.mean_optimum)
            checks.check_node_losses(lattice, losses, lengths)
            checks.check_report(report, losses, cfg.risk_alpha, cfg.risk_beta)

        return Op(f"{cfg.algorithm}@{train_seed}", run, lambda res: res[0], check)


class PgTrain(_Training):
    algorithms = PG_ALGORITHMS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir, {"pg.tuning_iterations": PG_BUDGET,
                                         "pg.iteration_cap": PG_BUDGET})


class AcTrain(_Training):
    algorithms = AC_ALGORITHMS

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir, {"ac.tuning_episodes": AC_BUDGET,
                                         "ac.episode_cap": AC_BUDGET})


class EvalLarge(_Workload):
    """Evaluate, report and write for generated wait-biased policies; no learner."""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.raw_cfg = _config(algorithm="PG", **{"eval.episodes": EVAL_EPISODES})
        self.aug_cfg = _config(algorithm="AC_CVAR_SPSA", **{"eval.episodes": EVAL_EPISODES,
                                                             "risk.beta": 2.5})
        self.raw_feats = harness.policy_feature_map(self.raw_cfg, include_s=False)
        self.aug_feats = harness.policy_feature_map(self.aug_cfg, include_s=True,
                                                    incremental=True)

    def _theta(self, rng, feats) -> np.ndarray:
        """Small random logits plus a wait bias of EVAL_WAIT_GAP on the bias feature."""
        half = feats.dim // 2
        theta = rng.normal(0.0, 0.3 / (feats.scale * np.sqrt(half)), feats.dim)
        theta[-1] += EVAL_WAIT_GAP / feats.scale
        return theta

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        eval_seed = int(rng.integers(2**31))
        raw = self._trained("PG", self._theta(rng, self.raw_feats), 0.0)
        aug = self._trained("AC_CVAR_SPSA", self._theta(rng, self.aug_feats),
                            float(rng.uniform(1.0, 3.0)))
        return [self._op(self.raw_cfg, self.raw_feats, raw, eval_seed),
                self._op(self.aug_cfg, self.aug_feats, aug, eval_seed)]

    @staticmethod
    def _trained(algorithm, theta, nu):
        return harness.TrainedPolicy(algorithm, theta, nu, 0.0, None, None, False, 1000.0, 0, [])

    def _op(self, cfg, feats, trained, eval_seed) -> Op:
        out = self.out_dir / cfg.algorithm

        def run():
            losses, lengths = harness.evaluate_policy(cfg, trained, eval_seed, cfg.eval_episodes)
            report = harness.build_report(cfg, trained, losses, eval_seed)
            harness.write_artifacts(out, cfg, trained, report, losses, lengths, eval_seed)
            return report, losses, lengths

        policy = (cfg, feats, trained.theta, trained.nu if feats.include_s else None)

        def check(result):
            report, losses, lengths = result
            checks.check_node_losses(self.lattice(cfg.env_params()), losses, lengths)
            checks.check_report(report, losses, cfg.risk_alpha, cfg.risk_beta)
            checks.check_monte_carlo(losses, self.exact(*policy), cfg.risk_alpha)

        return Op(f"{cfg.algorithm}@{eval_seed}", run, lambda res: int(res[2].sum()), check,
                  policy)


class Oracle(_Workload):
    """Exact loss distributions of generated Boltzmann policies by path enumeration."""

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.configs = [_config(**{"env.T": T}) for T in ORACLE_HORIZONS]
        self.feats = [harness.policy_feature_map(cfg, include_s=False) for cfg in self.configs]

    def round(self, r: int) -> list[Op]:
        rng = self.rng(r)
        ops = []
        for cfg, feats in zip(self.configs, self.feats):
            theta = rng.normal(0.0, 0.1, feats.dim)
            theta[-1] += rng.uniform(0.0, 3.0) / feats.scale   # lean to wait by 0-3 logits
            ops.append(self._op(cfg, feats, theta))
        return ops

    def _op(self, cfg, feats, theta) -> Op:
        params = cfg.env_params()
        alpha, beta = cfg.risk_alpha, cfg.risk_beta

        def run():
            dist = optstop.enumerate_loss_distribution(feats, theta, params,
                                                       max_horizon=params.T)
            return (dist, risk.cvar(dist, alpha), risk.value_at_risk(dist, alpha),
                    risk.tail_probability(dist, beta))

        policy = (cfg, feats, theta, None)

        def check(result):
            dist, cvar_value, _, tail_value = result
            checks.check_exact_distribution(dist, cvar_value, tail_value, self.exact(*policy),
                                            alpha, beta)

        # every decision node of the full tree: 2^(T+1) - 1
        return Op(f"T{params.T}", run, lambda res: 2 ** (params.T + 1) - 1, check, policy)


WORKLOADS = {"pg_train": PgTrain, "ac_train": AcTrain, "eval_large": EvalLarge, "oracle": Oracle}
