"""Flat key=value experiment configuration, and the reader of every input file.

One ``key = value`` pair per line, ``#`` starts a comment, dotted
prefixes group sections (``env.T = 20``). Unknown keys are rejected so
typos fail loudly; so are NaN and infinite floats. ``report.txt`` is read
by the same two parsers, and any file that will not read, parse or
validate raises ``InputError``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

from .ac import AcVariant
from .errors import InputError
from .optstop import OptStopParams
from .risk import RiskSpec
from .schedules import MIN_WINDOW, Box, PerturbationSchedule, StepSchedule, check_separation


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
        raise InputError(f"unknown algorithm {name!r}; choose from {tuple(ALGORITHMS)}")
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
        self.env_params()
        self.risk_spec()
        if spec.ac_variant is None:
            self.pg_stack()
        else:
            self.ac_stack()
        for name in ("pg_batch_size", "pg_tuning_iterations", "pg_iteration_cap",
                     "ac_tuning_episodes", "ac_episode_cap", "eval_episodes",
                     "train_warmup_rollouts", "output_histogram_bins",
                     "features_policy_centers", "features_critic_centers"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be >= 1")
        for name in ("train_rel_tol", "policy_theta_bound", "env_c_max"):
            if getattr(self, name) < 0.0:
                raise InputError(f"{name} must be >= 0")
        if not 0.0 <= self.train_lambda_margin < 1.0:
            raise InputError("train_lambda_margin must be in [0, 1)")
        if self.train_window < MIN_WINDOW:
            raise InputError(f"train_window must be >= {MIN_WINDOW}")
        if self.ac_critic_warmup_episodes < 0:
            raise InputError("ac_critic_warmup_episodes must be >= 0")
        if not self.features_s_min < self.features_s_max:
            raise InputError("features.s_min must be below features.s_max")
        if self.ac_semi_nu_schedule not in ("zeta2", "zeta3"):
            raise InputError("ac.semi_nu_schedule must be 'zeta2' or 'zeta3'")
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
_FIELDS = {_attr_to_key(f.name): f for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> dict:
    """Raw key -> string value mapping of a config file's text, or of a report's."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise InputError(f"line {lineno}: empty key or value")
        if key in out:
            raise InputError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


# a report's bool is "true" or "false"; tuple.index refuses anything else with ValueError
_KINDS = {"int": int, "float": float, "str": str,
          "bool": lambda text: ("false", "true").index(text) == 1}


def read_field(mapping: dict, key: str, kind: str):
    """``mapping[key]``, text or a JSON scalar, parsed as "int", "float", "str" or "bool"."""
    if key not in mapping:
        raise InputError(f"missing key {key!r}")
    value = mapping[key]
    try:
        parsed = _KINDS[kind](str(value))
    except ValueError as exc:
        raise InputError(f"key {key!r}: cannot parse {value!r} as {kind}") from exc
    if isinstance(parsed, float) and not math.isfinite(parsed):
        raise InputError(f"key {key!r}: {value!r} is not a finite number")
    return parsed


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for key in mapping:
        if key not in _FIELDS:
            raise InputError(f"unknown config key {key!r}")
        setattr(cfg, _FIELDS[key].name, read_field(mapping, key, _FIELDS[key].type))
    return cfg.validate()


def read_text(path: str, what: str) -> str:
    """The text of a user-named file; one that will not read as UTF-8 is an ``InputError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(read_text(path, "config")))
