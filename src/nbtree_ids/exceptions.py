"""Exception types shared across the toolkit, and the one rule that turns
a fault the toolkit did not expect into its stage's error."""

from contextlib import contextmanager
from typing import Iterator


class NbtreeIdsError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NbtreeIdsError):
    """Bad run configuration or command-line usage."""


class EmptyPartError(ConfigError, ValueError):
    """A fraction whose per-class draw leaves a part of a split, or a
    sample or its complement, with no rows."""


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


@contextmanager
def unexpected_as(error: type[NbtreeIdsError], prefix: str = "") -> Iterator[None]:
    """Raise an exception of the block that is no :class:`NbtreeIdsError`
    as ``error``: ``prefix``, then the exception's type and message. A
    toolkit error, or a ``BaseException`` such as ``KeyboardInterrupt``,
    passes as it is."""
    try:
        yield
    except NbtreeIdsError:
        raise
    except Exception as exc:  # a fault the toolkit did not expect
        raise error(f"{prefix}{type(exc).__name__}: {exc}") from exc
