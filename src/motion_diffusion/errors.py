"""Exception types shared across the package, and the two rules that check
every count and every frame rate, each raising its caller's error type."""

import math
import numbers


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class DimensionError(ValueError):
    """Array extents incompatible with the requested operation."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class NumericsError(FloatingPointError):
    """A computation produced NaN or Inf."""


class ParseError(ValueError):
    """Malformed file content. `offset` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class IntegrityError(ValueError):
    """Checkpoint blob failed its length or checksum validation."""


class TrainingDivergedError(RuntimeError):
    """A training step diverged: its loss exploded or a value became non-finite.

    `iteration` is the failing step.  From `train`, `checkpoint` is the last
    good training snapshot, at worst the one the run started from.
    """

    def __init__(self, message: str, iteration: int, checkpoint=None):
        super().__init__(f"{message} (iteration {iteration})")
        self.message, self.iteration, self.checkpoint = message, iteration, checkpoint


class SamplingDivergedError(RuntimeError):
    """Reverse process produced a non-finite state.

    `step` is the diffusion step; `task` is the index of the task being
    sampled, where the caller knows it, else None.
    """

    def __init__(self, message: str, step: int, task: int | None = None):
        where = f"diffusion step k={step}"
        if task is not None:
            where = f"task {task}, {where}"
        super().__init__(f"{message} ({where})")
        self.message, self.step, self.task = message, step, task


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given sample count."""


def check_count(value, minimum: int, what: str, error: type[Exception]) -> int:
    """`value` as an int if it is an integer, Python or NumPy but never a
    bool, of at least `minimum`; else raise `error`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")
        raise error(f"{what} must be {kind}, got {value!r}")
    return int(value)


def check_frame_rate(value, what: str, error: type[Exception]) -> float:
    """`value` as a float if it is a real number, never a bool, that is
    positive and finite as a float; else raise `error`."""
    try:
        rate = float(value) if isinstance(value, numbers.Real) else math.nan
    except OverflowError:  # an integer that no float holds
        rate = math.inf
    if isinstance(value, bool) or not 0 < rate < math.inf:  # NaN fails too
        raise error(f"{what} must be a positive, finite number, got {value!r}")
    return rate
