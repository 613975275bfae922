"""Exception types shared across the package."""


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

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class IntegrityError(ValueError):
    """Checkpoint blob failed its length or checksum validation."""


class TrainingDivergedError(RuntimeError):
    """Training loss became non-finite or exploded.

    `iteration` is the failing step.  From `train`, `checkpoint` is the last
    good training snapshot, at worst the one the run started from.
    """

    def __init__(self, message: str, iteration: int, checkpoint=None):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration
        self.checkpoint = checkpoint


class SamplingDivergedError(RuntimeError):
    """Reverse process produced a non-finite state. `step` is the diffusion step."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} (diffusion step k={step})")
        self.step = step


class UndefinedMetricError(ValueError):
    """Metric is undefined for the given sample count."""
