"""Flat key=value experiment configuration.

One ``key = value`` pair per line, ``#`` starts a comment, dotted
prefixes group sections (``env.T = 20``). Unknown keys are rejected so
typos fail loudly; so are NaN and infinite floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .ac import AcVariant
from .errors import ConfigError, InputError
from .optstop import OptStopParams
from .risk import RiskSpec
from .schedules import Box, PerturbationSchedule, StepSchedule, check_separation


class Algorithm(NamedTuple):
    """What an algorithm name selects: its learner and its objective."""

    ac_variant: AcVariant | None  # the actor-critic loop's variant; None: trajectory PG
    risk_neutral: bool            # nu and lambda stay frozen; the mean loss is the objective

    @property
    def budget_aware(self) -> bool:
        """Features read the budget s: the risk-sensitive actor-critics only."""
        return self.ac_variant is not None and not self.risk_neutral


ALGORITHMS = {
    "PG": Algorithm(None, True),
    "PG_CVAR": Algorithm(None, False),
    "AC": Algorithm(AcVariant.SPSA_INCREMENTAL, True),
    "AC_CVAR_SPSA": Algorithm(AcVariant.SPSA_INCREMENTAL, False),
    "AC_CVAR_SEMI": Algorithm(AcVariant.SEMI_TRAJECTORY, False),
    "AC_CVAR_ALT": Algorithm(AcVariant.ALTERNATIVE_TWO_CRITIC, False),
}


def algorithm_spec(name: str) -> Algorithm:
    if name not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {name!r}; choose from {tuple(ALGORITHMS)}")
    return ALGORITHMS[name]


@dataclass
class ExperimentConfig:
    algorithm: str = "PG_CVAR"

    env_c0: float = 1.0
    env_p_h: float = 0.1
    env_T: int = 20
    env_f_u: float = 1.5
    env_f_d: float = 0.8
    env_p: float = 0.65
    env_gamma: float = 0.95
    env_c_max: float = 4000.0

    risk_alpha: float = 0.9
    risk_beta: float = 1.9
    risk_lambda_max: float = 1000.0

    pg_zeta1_c: float = 0.1
    pg_zeta1_p: float = 1.0
    pg_zeta2_c: float = 0.05
    pg_zeta2_p: float = 0.8
    pg_zeta3_c: float = 0.01
    pg_zeta3_p: float = 0.55
    pg_batch_size: int = 100
    pg_tuning_iterations: int = 1000
    pg_iteration_cap: int = 10000

    ac_zeta1_c: float = 1.0
    ac_zeta1_p: float = 1.0
    ac_zeta2_c: float = 1.0
    ac_zeta2_p: float = 0.85
    ac_zeta3_c: float = 0.5
    ac_zeta3_p: float = 0.7
    ac_zeta4_c: float = 0.5
    ac_zeta4_p: float = 0.55
    ac_delta_c: float = 0.5
    ac_delta_p: float = 0.1
    ac_semi_nu_schedule: str = "zeta2"  # timescale of the per-episode quantile step
    ac_critic_warmup_episodes: int = 100
    ac_tuning_episodes: int = 1000
    ac_episode_cap: int = 10000

    features_policy_centers: int = 4
    features_policy_scale: float = 8.0    # trajectory-family policy features
    features_ac_policy_scale: float = 0.125  # incremental-family policy features
    features_critic_centers: int = 4
    features_rbf_width_scale: float = 1.0
    features_s_min: float = -20.0
    features_s_max: float = 20.0
    policy_theta_bound: float = 60.0

    train_window: int = 50
    train_rel_tol: float = 1e-4
    train_lambda_margin: float = 0.01
    train_warmup_rollouts: int = 100

    eval_episodes: int = 1000
    output_histogram_bins: int = 60

    # ---- derived builders -------------------------------------------------

    def validate(self) -> "ExperimentConfig":
        spec = algorithm_spec(self.algorithm)
        try:
            self.env_params()
            self.risk_spec()
            if spec.ac_variant is None:
                self.pg_stack()
            else:
                self.ac_stack()
        except InputError as exc:  # env, risk and schedule checks, check_separation among them
            raise ConfigError(str(exc)) from exc
        for name in ("pg_batch_size", "pg_tuning_iterations", "pg_iteration_cap",
                     "ac_tuning_episodes", "ac_episode_cap", "eval_episodes",
                     "train_warmup_rollouts", "output_histogram_bins", "train_window"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.ac_critic_warmup_episodes < 0:
            raise ConfigError("ac_critic_warmup_episodes must be >= 0")
        if not self.features_s_min < self.features_s_max:
            raise ConfigError("features.s_min must be below features.s_max")
        if self.ac_semi_nu_schedule not in ("zeta2", "zeta3"):
            raise ConfigError("ac.semi_nu_schedule must be 'zeta2' or 'zeta3'")
        return self

    def env_params(self) -> OptStopParams:
        return OptStopParams(
            c0=self.env_c0, p_h=self.env_p_h, T=self.env_T,
            f_u=self.env_f_u, f_d=self.env_f_d, p=self.env_p, gamma=self.env_gamma,
        )

    def risk_spec(self) -> RiskSpec:
        return RiskSpec(self.risk_alpha, self.risk_beta, self.risk_lambda_max, self.env_gamma)

    def pg_stack(self) -> tuple[StepSchedule, StepSchedule, StepSchedule]:
        """PG's (zeta1 lambda, zeta2 theta, zeta3 nu), checked by ``check_separation``."""
        zetas = (
            StepSchedule(self.pg_zeta1_c, self.pg_zeta1_p),
            StepSchedule(self.pg_zeta2_c, self.pg_zeta2_p),
            StepSchedule(self.pg_zeta3_c, self.pg_zeta3_p),
        )
        check_separation(zetas)
        return zetas

    def ac_stack(self) -> tuple[tuple[StepSchedule, ...], PerturbationSchedule]:
        """((zeta1, ..., zeta4), SPSA width delta), checked by ``check_separation``."""
        zetas = (
            StepSchedule(self.ac_zeta1_c, self.ac_zeta1_p),
            StepSchedule(self.ac_zeta2_c, self.ac_zeta2_p),
            StepSchedule(self.ac_zeta3_c, self.ac_zeta3_p),
            StepSchedule(self.ac_zeta4_c, self.ac_zeta4_p),
        )
        delta = PerturbationSchedule(self.ac_delta_c, self.ac_delta_p)
        check_separation(zetas, delta)
        return zetas, delta

    def theta_box(self) -> Box:
        return Box(-self.policy_theta_bound, self.policy_theta_bound)

    def nu_box(self) -> Box:
        # a loss sums nonnegative costs of at most c_max, discounted, and
        # stays below the environment's envelope; so does any loss quantile
        hi = min(self.env_c_max / (1.0 - self.env_gamma), self.env_params().loss_upper_bound())
        return Box(0.0, hi)

    def s_range(self) -> tuple[float, float]:
        return (self.features_s_min, self.features_s_max)

    def env_fingerprint(self) -> str:
        return (
            f"optstop,c0={self.env_c0},p_h={self.env_p_h},T={self.env_T},"
            f"f_u={self.env_f_u},f_d={self.env_f_d},p={self.env_p},gamma={self.env_gamma}"
        )

    def to_dict(self) -> dict:
        return {_attr_to_key(f.name): getattr(self, f.name) for f in fields(self)}


def _attr_to_key(attr: str) -> str:
    head, _, tail = attr.partition("_")
    return f"{head}.{tail}" if tail and head in _SECTIONS else attr


_SECTIONS = {"env", "risk", "pg", "ac", "features", "policy", "train", "eval", "output"}
_KEY_TO_ATTR = {}
_ATTR_TYPES = {}
for f in fields(ExperimentConfig):
    _KEY_TO_ATTR[_attr_to_key(f.name)] = f.name
    _ATTR_TYPES[f.name] = f.type


def parse_config_text(text: str) -> dict:
    """Raw key -> string value mapping from config file text."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key, value in mapping.items():
        attr = _KEY_TO_ATTR.get(key)
        if attr is None:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _ATTR_TYPES[attr]
        try:
            if kind in ("int", int):
                parsed: object = int(str(value))
            elif kind in ("float", float):
                parsed = float(str(value))
            else:
                parsed = str(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} as {kind}") from exc
        if isinstance(parsed, float) and not math.isfinite(parsed):
            raise ConfigError(f"key {key!r}: {value!r} is not a finite number")
        setattr(cfg, attr, parsed)
    return cfg.validate()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_mapping(parse_config_text(text))
