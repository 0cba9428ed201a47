"""Exception hierarchy shared across the toolkit."""

from contextlib import contextmanager


class AuditError(Exception):
    """Base class for all toolkit errors."""


class ParseError(AuditError):
    """Malformed input file; message carries the offending line or entry."""


class LabelError(AuditError):
    """A label outside the corpus label set."""


class DuplicateIdError(AuditError):
    """Two excerpts share an id."""


class UnknownExcerptError(AuditError):
    """An id that does not exist in the corpus."""


class FormatError(AuditError):
    """Audio file violates the expected format (channels, rate, dtype)."""


class IoError(AuditError):
    """Missing or unreadable file."""


class TooShortError(AuditError):
    """A signal too short for the requested analysis."""


class EmptyTagsError(AuditError):
    """No tag-count pairs to work with."""


class DegenerateRowError(AuditError):
    """A score row whose spread is zero; no margin can be derived."""


class EmptyClassError(AuditError):
    """A class with no training vectors."""


class DegenerateClassError(AuditError):
    """A class with no test observations."""


class ArtistLeakError(AuditError):
    """An artist assigned to both folds of a partition."""


class IncompleteVerdictError(AuditError):
    """A mislabel verdict missing its per-label score vector."""


class IncompleteFeaturesError(AuditError):
    """Features that cannot be classified: an excerpt in the partition with no
    cached feature vectors or one that holds a nan or an infinity, a feature
    file with no feature column, or MMD training vectors whose every feature is
    constant (a zero covariance)."""


@contextmanager
def in_file(path, errors=AuditError):
    """Prefix the message of any toolkit error of the class ``errors`` raised
    inside with ``path``."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from None


@contextmanager
def reading(path, what: str):
    """Turn an ``OSError`` raised inside into an ``IoError`` naming ``path``."""
    try:
        yield
    except FileNotFoundError:
        raise IoError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise IoError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


@contextmanager
def writing(path, what: str):
    """Turn an ``OSError`` raised inside into an ``IoError`` naming ``path``."""
    try:
        yield
    except OSError as exc:
        raise IoError(f"cannot write {what} {path}: {exc.strerror or exc}") from None
