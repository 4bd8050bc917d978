"""Shared exception types."""


class InputError(ValueError):
    """Caller supplied an argument outside an operation's contract."""


class ConfigError(ValueError):
    """Experiment configuration failed to parse or validate."""


class SimulationError(RuntimeError):
    """An environment produced a non-finite cost or violated its contract."""
