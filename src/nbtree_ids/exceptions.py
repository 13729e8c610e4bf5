"""Exception types shared across the toolkit."""


class NbtreeIdsError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NbtreeIdsError):
    """Bad run configuration or command-line usage."""


class DataFormatError(NbtreeIdsError):
    """Malformed record, schema file, or model file.

    ``reason`` names the fault of a rejected record (``bad-encoding``,
    ``field-count``, ``bad-number``, ``unknown-attack``, ``unknown-class``
    or ``out-of-domain``); it is ``None`` for every other error.
    """

    def __init__(self, *args, reason: str | None = None):
        super().__init__(*args)
        self.reason = reason


class TaxonomyError(DataFormatError):
    """An attack name has no class mapping."""


class EmptyDatasetError(DataFormatError):
    """A record source yielded no usable examples."""


class SchemaError(NbtreeIdsError):
    """Schema violation: unknown attribute, class, or structural mismatch."""


class TrainingError(NbtreeIdsError):
    """Model construction failed."""


class DegenerateTreeError(TrainingError):
    """Attribute weighting produced a single-leaf tree: no attribute would
    survive. Loosen the tree parameters or inspect the data."""


class EvaluationError(NbtreeIdsError):
    """Evaluation failed (for instance a model/test schema mismatch)."""
