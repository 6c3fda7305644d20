"""The one place eacs opens its text inputs and writes its outputs.

Every text input is UTF-8 with an optional leading BOM, and a failure to read
it is an :class:`IoError` naming the path. Whole-file writes never leave a
partial file behind, and a failure to write is an :class:`IoError` naming the
target. Checkpoints are read by :mod:`eacs.checkpoint` itself, as bytes.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from typing import Iterator

from .errors import IoError


def read_lines(path: str) -> Iterator[str]:
    """The lines of ``path``, or of stdin for ``-``, newlines kept, read as they are used."""
    try:
        # stdin (fd 0) stays open for whoever reads it next.
        with open(0 if path == "-" else path, encoding="utf-8-sig", closefd=path != "-") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        # An OSError's own text repeats the path; a decode error has no strerror.
        raise IoError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_text(path: str) -> str:
    """The whole text of ``path``, or of stdin for ``-``."""
    return "".join(read_lines(path))


@contextmanager
def replace_on_success(path: str, mode: str):
    """Open a new file beside ``path`` that replaces ``path`` once the block succeeds.

    ``mode`` is ``"w"`` (UTF-8 text) or ``"wb"``. If the block raises, the new
    file is removed and ``path`` keeps its old contents; an ``OSError``, from
    the block or from the file itself, becomes one :class:`IoError` naming
    ``path``, never the temporary file.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp",
    )
    try:
        with open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
