"""Whole-file writes that never leave a partial file behind."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def replace_on_success(path: str, mode: str, encoding: str | None = None):
    """Open a new file beside ``path`` that replaces ``path`` once the block succeeds.

    If the block raises, the new file is removed and ``path`` keeps its old
    contents. ``mode`` is ``"w"`` or ``"wb"``.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp",
    )
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise
