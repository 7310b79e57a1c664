"""Checkpoints: one uncompressed numpy ``.npz`` archive with the members
``format`` (uint8 marker b"psformer-checkpoint-2"), ``config`` (uint8 utf-8
text of `serialize_config`), ``step`` (int64 optimizer step, 0 without one),
``param/<name>`` (float64, one per parameter) and, when an optimizer is saved,
``adam.m/<name>`` and ``adam.v/<name>`` (float64 Adam moments).

zip keeps a CRC-32 of every member, checked on read, so a flipped bit or a
truncated file raises `CheckpointError`, as does a header whose dtype, order or
byte count differs from the writer's. Raw float64 weights round-trip bit-exactly.
"""

from __future__ import annotations

import collections
import math
import os
import zipfile

import numpy as np

from ._files import atomic_write
from .config import ConfigError, parse_config, serialize_config
from .model import PSFormer

_FORMAT = b"psformer-checkpoint-2"
_DTYPES = {"format": "|u1", "config": "|u1", "step": "<i8"}   # others "<f8"
_CHUNK = 1 << 18   # bytes per read: zipfile would copy a whole-member read twice more
# zipfile's and numpy's errors on bad bytes; stored members need no decompressor
_DECODE_ERRORS = (zipfile.BadZipFile, EOFError, OSError, KeyError, RuntimeError,
                  ValueError)


class CheckpointError(ValueError):
    pass


def save_checkpoint(path: str, model, optimizer=None) -> None:
    arrays = {f"param/{n}": p.data for n, p in model.parameters().items()}
    if optimizer is not None:
        arrays.update((f"adam.m/{n}", a) for n, a in optimizer.m.items())
        arrays.update((f"adam.v/{n}", a) for n, a in optimizer.v.items())
    members = {"format": np.frombuffer(_FORMAT, np.uint8),
               "config": np.frombuffer(serialize_config(model.config).encode(), np.uint8),
               "step": np.int64(0 if optimizer is None else optimizer.t),
               **{n: np.ascontiguousarray(a, "<f8") for n, a in arrays.items()}}
    with atomic_write(path, ".ckpt-") as fh:
        np.savez(fh, **members)


def _array(zf: zipfile.ZipFile, name: str, path: str) -> np.ndarray:
    """Member `name` read into a fresh writable array, to its end so zip checks its CRC-32."""
    want = np.dtype(_DTYPES.get(name, "<f8"))
    try:
        with zf.open(name + ".npy") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                raise ValueError("not a version 1.0 .npy header")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            size = zf.getinfo(name + ".npy").file_size - fh.tell()
            if fortran or dtype != want or math.prod(shape) * want.itemsize != size:
                raise ValueError(f"implausible header: {dtype.str} {shape} "
                                 f"fortran_order={fortran} for {size} data bytes")
            flat = np.empty(size, np.uint8)
            if sum(fh.readinto(flat[lo:lo + _CHUNK]) for lo in range(0, size, _CHUNK)) != size:
                raise EOFError(f"member ends before its {size} data bytes")
        return flat.view(want).reshape(shape)
    except _DECODE_ERRORS as e:
        raise CheckpointError(f"{path}: member {name!r}: {e!r}") from e


def load_checkpoint(path: str):
    """Returns (config, arrays, optim_state_or_None, step)."""
    with open(path, "rb") as fh:
        if fh.read(8) == b"PSFCKPT1":
            raise CheckpointError(f"{path}: the v1 checkpoint format is no "
                                  "longer read; commit ecebfcd is the last that reads it")
    try:
        zf = zipfile.ZipFile(path)
    except _DECODE_ERRORS as e:
        raise CheckpointError(f"{path}: not a checkpoint archive: {e!r}") from e
    with zf:
        # A member's stated sizes are allocated up front; bound them by the file.
        size = os.path.getsize(path)
        big = [i.filename for i in zf.infolist() if i.compress_type != zipfile.ZIP_STORED
               or max(i.compress_size, i.file_size) > size]
        if big:
            raise CheckpointError(f"{path}: members {big} compressed or larger than the file")
        names = [n.removesuffix(".npy") for n in zf.namelist()]
        params = [n[len("param/"):] for n in names if n.startswith("param/")]
        groups = ["param"] + ["adam.m", "adam.v"] * any(n.startswith("adam.") for n in names)
        known = {"format", "config", "step", *(f"{g}/{p}" for g in groups for p in params)}
        extra = sorted(collections.Counter(names) - collections.Counter(known))
        if extra:
            raise CheckpointError(f"{path}: unexpected or repeated members {extra}")
        if _array(zf, "format", path).tobytes() != _FORMAT:
            raise CheckpointError(f"{path}: member 'format' is not {_FORMAT!r}")
        try:
            config = parse_config(_array(zf, "config", path).tobytes().decode())
        except (UnicodeDecodeError, ConfigError) as e:
            raise CheckpointError(f"{path}: member 'config': bad config text: {e}") from e
        step = int(_array(zf, "step", path))
        read = {g: {p: _array(zf, f"{g}/{p}", path) for p in params} for g in groups}
    optim = {"t": step, "m": read["adam.m"], "v": read["adam.v"]} if "adam.m" in read else None
    return config, read["param"], optim, step


def model_from_checkpoint(path: str):
    """Rebuild the model stored at path; returns (model, optim_state, step)."""
    config, arrays, optim_state, step = load_checkpoint(path)
    return PSFormer(config, weights=arrays), optim_state, step
