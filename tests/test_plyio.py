"""PLY reader/writer tests: bit-exact round-trips, color conventions, error
reporting, and a header fuzz corpus that must never escape PlyParseError."""

import numpy as np
import pytest

from psformer.plyio import PlyParseError, parse_ply, write_ply
from psformer.pointcloud import PointCloud, normalize_cloud


def _cloud(rng, n=20, labels=True):
    coords = rng.uniform(-3, 7, (n, 3))
    colors = np.round(rng.uniform(0, 1, (n, 3)) * 255.0) / 255.0  # uint8 grid
    lab = rng.random(n) < 0.4 if labels else None
    return normalize_cloud(coords, colors, lab)


# -------------------------------------------------------------- round trips

@pytest.mark.parametrize("binary", [False, True])
def test_round_trip_bit_exact(tmp_path, binary):
    rng = np.random.default_rng(0)
    cloud = _cloud(rng)
    path = str(tmp_path / "c.ply")
    write_ply(cloud, path, binary=binary)
    back = parse_ply(path)
    assert np.array_equal(back.coords, cloud.coords)       # float64 exact
    assert np.array_equal(back.colors, cloud.colors)       # uint8-grid exact
    assert np.array_equal(back.labels, cloud.labels)


@pytest.mark.parametrize("binary", [False, True])
def test_round_trip_without_labels(tmp_path, binary):
    rng = np.random.default_rng(1)
    cloud = _cloud(rng, labels=False)
    path = str(tmp_path / "c.ply")
    write_ply(cloud, path, binary=binary)
    back = parse_ply(path)
    assert back.labels is None
    assert np.array_equal(back.coords, cloud.coords)


def test_ascii_and_binary_agree(tmp_path):
    rng = np.random.default_rng(2)
    cloud = _cloud(rng)
    a, b = str(tmp_path / "a.ply"), str(tmp_path / "b.ply")
    write_ply(cloud, a, binary=False)
    write_ply(cloud, b, binary=True)
    ca, cb = parse_ply(a), parse_ply(b)
    assert np.array_equal(ca.coords, cb.coords)
    assert np.array_equal(ca.colors, cb.colors)
    assert np.array_equal(ca.labels, cb.labels)


def test_saliency_round_trip_and_heat_colors(tmp_path):
    rng = np.random.default_rng(3)
    cloud = _cloud(rng, n=5)
    probs = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    path = str(tmp_path / "s.ply")
    write_ply(cloud, path, probabilities=probs, binary=True)

    back = parse_ply(path)
    # heat map: red tracks p, green stays 0, blue tracks 1-p
    want_red = np.round(255.0 * probs) / 255.0
    want_blue = np.round(255.0 * (1.0 - probs)) / 255.0
    assert np.array_equal(back.colors[:, 0], want_red)
    assert np.all(back.colors[:, 1] == 0.0)
    assert np.array_equal(back.colors[:, 2], want_blue)
    # p = 0.5 lands on 128, 0, 128
    assert np.array_equal(np.round(back.colors[2] * 255.0), [128, 0, 128])

    # the saliency column itself survives bit-exactly
    with open(path, "rb") as fh:
        raw = fh.read()
    assert b"property double saliency" in raw
    body = raw.split(b"end_header\n", 1)[1]
    dtype = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                      ("red", "u1"), ("green", "u1"), ("blue", "u1"),
                      ("label", "u1"), ("saliency", "<f8")])
    rows = np.frombuffer(body, dtype=dtype)
    assert np.array_equal(rows["saliency"], probs)


def test_ascii_saliency_survives_17g(tmp_path):
    rng = np.random.default_rng(4)
    cloud = _cloud(rng, n=6, labels=False)
    probs = rng.uniform(0, 1, 6)
    path = str(tmp_path / "s.ply")
    write_ply(cloud, path, probabilities=probs, binary=False)
    with open(path) as fh:
        text = fh.read()
    tail = [float(line.split()[-1]) for line in
            text.split("end_header\n", 1)[1].strip().splitlines()]
    assert np.array_equal(np.array(tail), probs)


def test_ascii_body_text_is_pinned(tmp_path):
    # Doubles print as %.17g, so they parse back bit-exactly; uchar columns
    # print as plain integers; one space-separated row a line.
    coords = np.array([[0.1, 1e-300, 1.0],
                       [-0.0, 2.0 / 3.0, -123456.789],
                       [5e-324, 0.3, 1.0 / 3.0]])
    colors = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.2, 1.0 / 255.0]])
    cloud = normalize_cloud(coords, colors, np.array([True, False, True]))
    plain, heat = str(tmp_path / "plain.ply"), str(tmp_path / "heat.ply")
    write_ply(cloud, plain)
    write_ply(cloud, heat, probabilities=np.array([0.1, 1.0, 1e-300]))

    def body(path):
        with open(path) as fh:
            return fh.read().split("end_header\n", 1)[1]

    assert body(plain) == (
        "0.10000000000000001 1e-300 1 0 0 0 1\n"
        "-0 0.66666666666666663 -123456.789 255 255 255 0\n"
        "4.9406564584124654e-324 0.29999999999999999 0.33333333333333331 128 51 1 1\n")
    assert body(heat) == (
        "0.10000000000000001 1e-300 1 26 0 230 1 0.10000000000000001\n"
        "-0 0.66666666666666663 -123456.789 255 0 0 0 1\n"
        "4.9406564584124654e-324 0.29999999999999999 0.33333333333333331 "
        "0 0 255 1 1e-300\n")


def test_uint8_color_mapping(tmp_path):
    path = str(tmp_path / "m.ply")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\nelement vertex 2\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "property uchar red\nproperty uchar green\nproperty uchar blue\n"
                 "end_header\n"
                 "0 0 0 255 0 0\n"
                 "1 1 1 0 128 255\n")
    cloud = parse_ply(path)
    assert np.array_equal(cloud.colors[0], [1.0, 0.0, 0.0])
    assert cloud.colors[1, 1] == 128 / 255.0
    assert cloud.colors[1, 2] == 1.0


def test_float32_coords_accepted(tmp_path):
    path = str(tmp_path / "f.ply")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property float x\nproperty float y\nproperty float z\n"
                 "end_header\n0.5 0.25 -1.5\n")
    cloud = parse_ply(path)
    assert np.array_equal(cloud.coords[0], [0.5, 0.25, -1.5])
    assert cloud.colors.shape == (1, 3)    # default colors fill in


def test_extra_scalar_properties_skipped(tmp_path):
    path = str(tmp_path / "x.ply")
    with open(path, "w") as fh:
        fh.write("ply\nformat ascii 1.0\nelement vertex 2\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "property float intensity\n"
                 "end_header\n"
                 "0 0 0 9.5\n1 1 1 8.5\n")
    cloud = parse_ply(path)
    assert cloud.n == 2


def test_scalar_elements_before_vertex_skipped(tmp_path):
    for fmt, body in (("ascii", "7 7 7\n0 0 0\n1 0 0\n"), ):
        path = str(tmp_path / "pre.ply")
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n"
                     "element camera 1\n"
                     "property double cx\nproperty double cy\nproperty double cz\n"
                     "element vertex 2\n"
                     "property double x\nproperty double y\nproperty double z\n"
                     "end_header\n" + body)
        cloud = parse_ply(path)
        assert cloud.n == 2
        assert np.array_equal(cloud.coords[1], [1, 0, 0])


def test_binary_skips_leading_elements(tmp_path):
    path = str(tmp_path / "pre.ply")
    pre = np.array([(7.0, 7.0)], dtype=[("a", "<f8"), ("b", "<f8")])
    verts = np.array([(0, 0, 0), (2, 0, 0)],
                     dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8")])
    with open(path, "wb") as fh:
        fh.write(b"ply\nformat binary_little_endian 1.0\n"
                 b"element camera 1\nproperty double a\nproperty double b\n"
                 b"element vertex 2\n"
                 b"property double x\nproperty double y\nproperty double z\n"
                 b"end_header\n")
        fh.write(pre.tobytes())
        fh.write(verts.tobytes())
    cloud = parse_ply(path)
    assert np.array_equal(cloud.coords[:, 0], [0.0, 2.0])


# ------------------------------------------------------------------ errors

def _write(tmp_path, text, name="e.ply"):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        fh.write(text)
    return path

_VALID_HEADER = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "end_header\n")


def test_error_no_magic(tmp_path):
    with pytest.raises(PlyParseError, match="magic"):
        parse_ply(_write(tmp_path, "plx\nformat ascii 1.0\nend_header\n"))


def test_error_no_end_header(tmp_path):
    with pytest.raises(PlyParseError, match="end_header"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\n"))


def test_error_unknown_keyword_names_line(tmp_path):
    try:
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "banana yes\nend_header\n0 0 0\n"))
        assert False
    except PlyParseError as e:
        assert "banana" in str(e)
        assert e.line == 4


def test_error_unsupported_format(tmp_path):
    with pytest.raises(PlyParseError, match="binary_big_endian"):
        parse_ply(_write(tmp_path,
                         "ply\nformat binary_big_endian 1.0\nelement vertex 1\n"
                         "property double x\nproperty double y\nproperty double z\n"
                         "end_header\n"))


def test_error_missing_axis(tmp_path):
    with pytest.raises(PlyParseError, match="'z'"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property double x\nproperty double y\n"
                                   "end_header\n0 0\n"))


def test_error_integer_coordinates(tmp_path):
    with pytest.raises(PlyParseError, match="float32 or float64"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property int x\nproperty double y\nproperty double z\n"
                                   "end_header\n0 0 0\n"))


def test_error_partial_colors(tmp_path):
    with pytest.raises(PlyParseError, match="together"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "property uchar red\n"
                                   "end_header\n0 0 0 5\n"))


def test_error_non_uchar_colors(tmp_path):
    with pytest.raises(PlyParseError, match="uchar"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "property float red\nproperty uchar green\nproperty uchar blue\n"
                                   "end_header\n0 0 0 1 1 1\n"))


def test_error_duplicate_property(tmp_path):
    with pytest.raises(PlyParseError, match="duplicate"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property double x\nproperty double x\nproperty double z\n"
                                   "end_header\n0 0 0\n"))


def test_error_list_property_in_vertex(tmp_path):
    with pytest.raises(PlyParseError, match="list"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 1\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "property list uchar int vertex_indices\n"
                                   "end_header\n0 0 0 0\n"))


def test_error_empty_vertex_element(tmp_path):
    with pytest.raises(PlyParseError, match="empty"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 0\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "end_header\n"))


def test_error_no_vertex_element(tmp_path):
    with pytest.raises(PlyParseError, match="vertex"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement face 1\n"
                                   "property double x\n"
                                   "end_header\n0\n"))


def test_error_row_shortfall(tmp_path):
    with pytest.raises(PlyParseError, match="rows"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 3\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "end_header\n0 0 0\n1 1 1\n"))


def test_error_bad_token_names_row(tmp_path):
    with pytest.raises(PlyParseError, match="row 1"):
        parse_ply(_write(tmp_path, "ply\nformat ascii 1.0\nelement vertex 2\n"
                                   "property double x\nproperty double y\nproperty double z\n"
                                   "end_header\n0 0 0\n0 zap 0\n"))


def test_error_wrong_column_count(tmp_path):
    with pytest.raises(PlyParseError, match="values"):
        parse_ply(_write(tmp_path, _VALID_HEADER + "0 0\n"))


def test_error_binary_truncation_reports_offset(tmp_path):
    path = str(tmp_path / "t.ply")
    verts = np.zeros(3, dtype=[("x", "<f8"), ("y", "<f8"), ("z", "<f8")])
    with open(path, "wb") as fh:
        fh.write(b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                 b"property double x\nproperty double y\nproperty double z\n"
                 b"end_header\n")
        fh.write(verts.tobytes()[:-8])   # drop the last value
    try:
        parse_ply(path)
        assert False
    except PlyParseError as e:
        assert "truncated" in str(e)
        assert e.offset is not None


def test_error_non_ascii_header(tmp_path):
    path = str(tmp_path / "n.ply")
    with open(path, "wb") as fh:
        fh.write("ply\nformat ascii 1.0\ncomment café\nelement vertex 1\n"
                 "property double x\nproperty double y\nproperty double z\n"
                 "end_header\n0 0 0\n".encode("utf-8"))
    with pytest.raises(PlyParseError, match="ASCII"):
        parse_ply(path)


def test_write_rejects_length_mismatch(tmp_path):
    rng = np.random.default_rng(5)
    cloud = _cloud(rng, n=4)
    with pytest.raises(ValueError, match="probabilities"):
        write_ply(cloud, str(tmp_path / "w.ply"), probabilities=np.zeros(3))


# -------------------------------------------------------------- header fuzz

def test_header_fuzz_never_escapes_parse_error(tmp_path):
    """Random mutations of a valid file must either parse into a PointCloud
    or raise PlyParseError; no other exception may escape."""
    rng = np.random.default_rng(6)
    base = (_VALID_HEADER + "0.5 0.25 0.125\n").encode("ascii")
    path = str(tmp_path / "fuzz.ply")
    outcomes = {"ok": 0, "parse_error": 0}
    for trial in range(300):
        blob = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            op = rng.integers(0, 4)
            if op == 0 and len(blob) > 1:            # delete a byte
                del blob[int(rng.integers(0, len(blob)))]
            elif op == 1:                            # flip a byte
                blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            elif op == 2:                            # insert a byte
                blob.insert(int(rng.integers(0, len(blob) + 1)),
                            int(rng.integers(0, 256)))
            else:                                    # duplicate a random slice
                lo = int(rng.integers(0, len(blob)))
                hi = min(len(blob), lo + int(rng.integers(1, 16)))
                blob[lo:lo] = blob[lo:hi]
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        try:
            cloud = parse_ply(path)
            assert isinstance(cloud, PointCloud)
            outcomes["ok"] += 1
        except PlyParseError:
            outcomes["parse_error"] += 1
    # mutations must actually exercise the error paths
    assert outcomes["parse_error"] > 100, outcomes
