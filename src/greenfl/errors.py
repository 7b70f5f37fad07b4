"""Exception types shared across the simulator."""


class GreenflError(Exception):
    """Base class for all simulator errors."""


class ConfigError(GreenflError):
    """Run configuration failed validation.

    `field_path` is a dotted path to the offending field, e.g. "partition.alpha".
    """

    def __init__(self, field_path, message):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


class EmptyDataset(GreenflError):
    """Partitioning requested on a dataset with no samples."""


class InvalidAlpha(GreenflError):
    """Dirichlet concentration must be strictly positive."""


class EmptyClientData(GreenflError):
    """Training or evaluation invoked with no samples."""


class Diverged(GreenflError, ValueError):
    """Training produced non-finite model parameters.

    `round_index` names the FedAvg round, when the caller knows it.
    """

    def __init__(self, round_index=None):
        self.round_index = round_index
        where = "" if round_index is None else f"training diverged in round {round_index}: "
        super().__init__(f"{where}model parameters must be finite")


class WorkerFailed(GreenflError):
    """A client group's worker process failed, other than by divergence, or exited."""


class ShapeMismatch(GreenflError):
    """Model updates with inconsistent parameter shapes."""


class EmptyUpdateSet(GreenflError):
    """Aggregation invoked with no updates."""


class SchemaViolation(GreenflError):
    """A round record does not conform to the reporting schema.

    `field` names the offending schema field.
    """

    def __init__(self, field, message=None):
        self.field = field
        super().__init__(message or field)


class NonFiniteTotal(GreenflError):
    """A run-level total overflowed the float range, although every record is finite.

    `field` names the offending summary field.
    """

    def __init__(self, field, value):
        self.field = field
        super().__init__(f"{field} is {value}: a run total overflows the float range")


class UnknownRegion(GreenflError):
    """Grid remapping referenced a region with no configured intensity."""


class CalibrationFailed(GreenflError):
    """Tier calibration could not reach the requested targets."""
