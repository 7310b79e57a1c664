"""PLY point-cloud reading and writing.

Supports ASCII and binary little-endian files with float32/float64
coordinates, optional uint8 red/green/blue (mapped to [0,1]), an optional
uint8 label, and arbitrary extra scalar vertex properties (skipped on read).
Writing emits float64 coordinates so a round-trip reproduces them bit-exactly;
colors round-trip exactly when they sit on the uint8 grid.
"""

from __future__ import annotations

import numpy as np

from ._files import atomic_write
from .pointcloud import PointCloud, normalize_cloud


class PlyParseError(ValueError):
    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        where = ""
        if line is not None:
            where = f" (header line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        super().__init__(message + where)
        self.line = line
        self.offset = offset


_SCALAR_TYPES = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}

_HEADER_KEYWORDS = {"ply", "format", "comment", "obj_info", "element",
                    "property", "end_header"}


def _read_header(blob: bytes, path: str):
    """Split the header into parsed element descriptions plus the body."""
    end = blob.find(b"end_header")
    if end < 0:
        raise PlyParseError(f"{path}: no end_header marker")
    nl = blob.find(b"\n", end)
    if nl < 0:
        raise PlyParseError(f"{path}: end_header line not terminated")
    try:
        header_text = blob[:nl].decode("ascii")
    except UnicodeDecodeError as e:
        raise PlyParseError(f"{path}: non-ASCII header byte") from e
    lines = [ln.rstrip("\r") for ln in header_text.split("\n")]

    if not lines or lines[0].strip() != "ply":
        raise PlyParseError(f"{path}: missing ply magic", line=1)

    fmt = None
    elements = []   # (name, count, [(prop_name, dtype_code or None for list)])
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        keyword = parts[0]
        if keyword not in _HEADER_KEYWORDS:
            raise PlyParseError(f"{path}: unknown header keyword {keyword!r}", line=lineno)
        if keyword in ("comment", "obj_info"):
            continue
        if keyword == "ply":
            raise PlyParseError(f"{path}: repeated ply magic", line=lineno)
        if keyword == "end_header":
            break
        if keyword == "format":
            if fmt is not None:
                raise PlyParseError(f"{path}: repeated format line", line=lineno)
            if len(parts) != 3 or parts[2] != "1.0":
                raise PlyParseError(f"{path}: malformed format line {line!r}", line=lineno)
            if parts[1] not in ("ascii", "binary_little_endian"):
                raise PlyParseError(
                    f"{path}: unsupported format {parts[1]!r} "
                    "(ascii and binary_little_endian only)", line=lineno)
            fmt = parts[1]
            continue
        if keyword == "element":
            if len(parts) != 3:
                raise PlyParseError(f"{path}: malformed element line {line!r}", line=lineno)
            try:
                count = int(parts[2])
            except ValueError:
                raise PlyParseError(
                    f"{path}: bad element count {parts[2]!r}", line=lineno) from None
            if count < 0:
                raise PlyParseError(f"{path}: negative element count", line=lineno)
            elements.append((parts[1], count, []))
            continue
        # property
        if not elements:
            raise PlyParseError(f"{path}: property before any element", line=lineno)
        props = elements[-1][2]
        if len(parts) >= 2 and parts[1] == "list":
            if len(parts) != 5:
                raise PlyParseError(f"{path}: malformed list property {line!r}", line=lineno)
            props.append((parts[4], None))
            continue
        if len(parts) != 3:
            raise PlyParseError(f"{path}: malformed property line {line!r}", line=lineno)
        ptype, pname = parts[1], parts[2]
        if ptype not in _SCALAR_TYPES:
            raise PlyParseError(f"{path}: unsupported property type {ptype!r}", line=lineno)
        if any(existing == pname for existing, _ in props):
            raise PlyParseError(f"{path}: duplicate property {pname!r}", line=lineno)
        props.append((pname, _SCALAR_TYPES[ptype]))

    if fmt is None:
        raise PlyParseError(f"{path}: header has no format line")
    return fmt, elements, blob[nl + 1:]


def _vertex_dtype(props, path: str) -> np.dtype:
    fields = []
    for name, code in props:
        if code is None:
            raise PlyParseError(f"{path}: list property {name!r} in vertex element")
        fields.append((name, "<" + code))
    return np.dtype(fields)


def parse_ply(path: str) -> PointCloud:
    with open(path, "rb") as fh:
        blob = fh.read()
    fmt, elements, body = _read_header(blob, path)

    vidx = next((i for i, (name, _, _) in enumerate(elements) if name == "vertex"), None)
    if vidx is None:
        raise PlyParseError(f"{path}: no vertex element")
    _, vcount, vprops = elements[vidx]
    if vcount < 1:
        raise PlyParseError(f"{path}: vertex element is empty")

    prop_names = [p for p, _ in vprops]
    for axis in ("x", "y", "z"):
        if axis not in prop_names:
            raise PlyParseError(f"{path}: vertex element lacks property {axis!r}")
    coord_codes = {p: c for p, c in vprops}
    for axis in ("x", "y", "z"):
        if coord_codes[axis] not in ("f4", "f8"):
            raise PlyParseError(
                f"{path}: coordinate {axis!r} must be float32 or float64")
    color_present = [c in prop_names for c in ("red", "green", "blue")]
    if any(color_present) and not all(color_present):
        raise PlyParseError(f"{path}: red/green/blue must appear together")
    if all(color_present):
        for c in ("red", "green", "blue"):
            if coord_codes[c] != "u1":
                raise PlyParseError(f"{path}: color {c!r} must be uchar")
    if "label" in prop_names and coord_codes["label"] != "u1":
        raise PlyParseError(f"{path}: label must be uchar")

    dtype = _vertex_dtype(vprops, path)
    # Elements before vertex are skipped: by row in ascii, by byte in binary.
    skip_rows = skip_bytes = 0
    for name, count, props in elements[:vidx]:
        if any(code is None for _, code in props):
            raise PlyParseError(f"{path}: cannot skip list-typed element {name!r}")
        skip_rows += count
        skip_bytes += count * sum(np.dtype("<" + code).itemsize for _, code in props)
    if fmt == "ascii":
        rows = _ascii_rows(body, skip_rows, vcount, dtype, path)
    else:
        rows = _binary_rows(body, skip_bytes, vcount, dtype, path)

    coords = np.column_stack([rows[a].astype(np.float64) for a in ("x", "y", "z")])
    colors = None
    if all(color_present):
        colors = np.column_stack([rows[c] for c in ("red", "green", "blue")]
                                 ).astype(np.float64) / 255.0
    labels = rows["label"] != 0 if "label" in prop_names else None
    return normalize_cloud(coords, colors, labels)


def _ascii_rows(body: bytes, skip: int, vcount: int, dtype: np.dtype,
                path: str) -> np.ndarray:
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError as e:
        raise PlyParseError(f"{path}: non-ASCII body in ascii file") from e
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if len(lines) < skip + vcount:
        raise PlyParseError(
            f"{path}: expected {skip + vcount} data rows, found {len(lines)}")
    out = np.zeros(vcount, dtype=dtype)
    names = dtype.names
    for i in range(vcount):
        tokens = lines[skip + i].split()
        if len(tokens) != len(names):
            raise PlyParseError(
                f"{path}: vertex row {i} has {len(tokens)} values, expected {len(names)}")
        for name, tok in zip(names, tokens):
            try:
                kind = dtype[name].kind
                out[name][i] = float(tok) if kind == "f" else int(tok)
            except (ValueError, OverflowError):
                raise PlyParseError(
                    f"{path}: bad value {tok!r} in vertex row {i}") from None
    return out


def _binary_rows(body: bytes, offset: int, vcount: int, dtype: np.dtype,
                 path: str) -> np.ndarray:
    need = offset + dtype.itemsize * vcount
    if len(body) < need:
        raise PlyParseError(
            f"{path}: truncated body, need {need} bytes, have {len(body)}",
            offset=len(body))
    return np.frombuffer(body, dtype=dtype, count=vcount, offset=offset)


def write_ply(cloud: PointCloud, path: str, probabilities=None,
              binary: bool = False) -> None:
    """Emit the cloud; with probabilities, add a float64 saliency property and
    heat-color the points (red channel tracks p, blue tracks 1-p)."""
    n = cloud.n
    if probabilities is not None:
        probabilities = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        if probabilities.size != n:
            raise ValueError(
                f"write_ply: {probabilities.size} probabilities for {n} points")
        rgb = np.zeros((n, 3), dtype=np.uint8)
        rgb[:, 0] = np.round(255.0 * probabilities).astype(np.uint8)
        rgb[:, 2] = np.round(255.0 * (1.0 - probabilities)).astype(np.uint8)
    else:
        rgb = np.round(np.clip(cloud.colors, 0.0, 1.0) * 255.0).astype(np.uint8)

    fields = [("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
              ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    if cloud.labels is not None:
        fields.append(("label", "u1"))
    if probabilities is not None:
        fields.append(("saliency", "<f8"))
    rows = np.zeros(n, dtype=np.dtype(fields))
    rows["x"], rows["y"], rows["z"] = cloud.coords.T
    rows["red"], rows["green"], rows["blue"] = rgb.T
    if cloud.labels is not None:
        rows["label"] = cloud.labels.astype(np.uint8)
    if probabilities is not None:
        rows["saliency"] = probabilities

    type_names = {"<f8": "double", "u1": "uchar"}
    header = ["ply",
              "format binary_little_endian 1.0" if binary else "format ascii 1.0",
              f"element vertex {n}"]
    for name, code in fields:
        header.append(f"property {type_names[code]} {name}")
    header.append("end_header")

    with atomic_write(path, ".ply-") as fh:
        fh.write(("\n".join(header) + "\n").encode("ascii"))
        if binary:
            fh.write(rows.tobytes())
        else:
            np.savetxt(fh, np.column_stack([rows[name].astype(np.float64)
                                            for name, _ in fields]),
                       fmt=["%.17g" if code == "<f8" else "%d" for _, code in fields])
