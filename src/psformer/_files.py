"""Atomic file replacement: a reader of `path` sees the old file or the whole
new one, never a torn write."""

from __future__ import annotations

import contextlib
import os
import tempfile


@contextlib.contextmanager
def atomic_write(path: str, prefix: str):
    """Yield a binary file beside `path`. On a clean exit it replaces `path`;
    on any error it is removed and `path` is left as it was."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=prefix)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
