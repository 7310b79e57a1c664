"""Atomic file replacement: a write lands whole or not at all."""

import os

import pytest

from psformer._files import atomic_write


def test_atomic_write_replaces_whole_or_leaves_the_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(str(path), ".t-") as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(str(path), ".t-") as fh:
            fh.write(b"torn")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"new"
    assert os.listdir(tmp_path) == ["out.bin"]    # no temp file left behind
