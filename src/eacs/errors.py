"""Exception types shared across the pipeline.

Every stage raises a subclass of :class:`EacsError` so the CLI can turn any
failure into a one-line diagnostic with a nonzero exit code.
"""


class EacsError(Exception):
    """Base class for all pipeline errors."""


class IoError(EacsError):
    """A file could not be read or written."""


class FormatError(EacsError):
    """A corpus line is not a well-formed record."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyComment(EacsError):
    """Comment text is empty after preprocessing."""


class EmptySnippet(EacsError):
    """No statements remain after segmentation."""


class EmptyInput(EacsError):
    """A metric or encoder received an empty token sequence."""


class EmptyCorpus(EacsError):
    """Training was started on a corpus with no usable pairs."""


class NonFiniteLoss(EacsError):
    """A training loss became NaN or infinite."""


class ShapeError(EacsError):
    """Tensor or sequence shapes are incompatible."""


class VocabMismatch(EacsError):
    """Two checkpoints carry different vocabularies."""


class VersionError(EacsError):
    """Checkpoint format version is not supported."""


class CorruptCheckpoint(EacsError):
    """Checkpoint file is truncated or structurally invalid."""


class UsageError(EacsError):
    """Bad command, flag, or config key (CLI exit code 2)."""


class TruncationWarning(UserWarning):
    """A snippet exceeded a configured statement or token limit."""
