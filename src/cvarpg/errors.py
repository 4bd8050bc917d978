"""Shared exception types."""


class InputError(ValueError):
    """An argument outside an operation's contract, or an input file that will not read,
    parse or validate; the CLI exits 2 on it."""


class SimulationError(RuntimeError):
    """An environment produced a non-finite cost or violated its contract."""
