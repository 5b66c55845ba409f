import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultron.errors import (
    IndexOutOfRangeError,
    InvalidMeshError,
    MeshParseError,
    UnsupportedElementError,
)
from ultron.mesh import FORMATS, Mesh, load_mesh, parse_mesh, serialize_mesh
from ultron.mesh.obj_io import parse_obj


def test_minimal_obj():
    mesh = parse_mesh(b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "obj")
    assert mesh.vertex_count == 3
    assert mesh.triangle_count == 1
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])


def test_obj_index_out_of_range():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 5\n"
    with pytest.raises(IndexOutOfRangeError):
        parse_mesh(data, "obj")


def test_obj_reports_line_numbers():
    with pytest.raises(MeshParseError) as err:
        parse_mesh(b"v 0 0 0\nv bad 0 0\n", "obj")
    assert err.value.line == 2


def test_obj_quads_fan_triangulated():
    data = b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
    mesh = parse_mesh(data, "obj")
    assert mesh.triangle_count == 2
    assert np.array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])


def test_obj_polyline_rejected():
    with pytest.raises(UnsupportedElementError):
        parse_mesh(b"v 0 0 0\nv 1 0 0\nl 1 2\n", "obj")


def test_obj_vertex_colors():
    data = b"v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1\nf 1 2 3\n"
    mesh = parse_mesh(data, "obj")
    assert mesh.colors is not None
    assert np.array_equal(mesh.colors, np.eye(3))


def test_obj_attrs_roundtrip_records(rng):
    mesh = Mesh(
        vertices=rng.normal(size=(5, 3)),
        triangles=[[0, 1, 2], [2, 3, 4]],
        uvs=rng.random((5, 2)),
        normals=rng.normal(size=(5, 3)),
    )
    text = serialize_mesh(mesh, "obj").decode()
    assert text.count("vt ") == 5
    assert text.count("vn ") == 5
    back = parse_mesh(text.encode(), "obj")
    assert np.array_equal(back.uvs, mesh.uvs)
    assert np.array_equal(back.normals, mesh.normals)


_TRIANGLE = b"v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def test_obj_face_texcoords_gathered_per_vertex():
    # as many vt records as vertices, but not in vertex order
    data = _TRIANGLE + b"vt 0.1 0.2\nvt 0.3 0.4\nvt 0.5 0.6\nf 1/2 2/3 3/1\n"
    mesh = parse_mesh(data, "obj")
    assert np.array_equal(mesh.uvs, [[0.3, 0.4], [0.5, 0.6], [0.1, 0.2]])
    assert mesh.normals is None
    # fewer records than vertices; a vertex no face names reads zeros
    data = (_TRIANGLE + b"v 1 1 0\nvt 0.1 0.2\nvt 0.3 0.4\nf 1/2 2/1 3/2\n")
    mesh = parse_mesh(data, "obj")
    assert np.array_equal(mesh.uvs, [[0.3, 0.4], [0.1, 0.2], [0.3, 0.4], [0.0, 0.0]])


def test_obj_vertex_normal_corners():
    data = _TRIANGLE + b"vn 0 0 1\nvn 0 1 0\nf 1//2 2//1 3//1\n"
    mesh = parse_mesh(data, "obj")
    assert np.array_equal(mesh.normals, [[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    assert mesh.uvs is None
    assert np.array_equal(mesh.triangles, [[0, 1, 2]])


@pytest.mark.parametrize("faces,error,match,line", [
    (b"f -1 -2 -3\n", UnsupportedElementError,
     "relative \\(negative\\) OBJ indices are not supported", 4),
    (b"f 0 1 2\n", MeshParseError, "OBJ indices are 1-based; 0 is invalid", 4),
    (b"f 1 2 3\nf 1 /2 3\n", MeshParseError, "bad face corner '/2'", 5),
    (b"vt 0 0\nvt 1 0\nf 1/1 2/1 3/1\nf 1/2 3/1 2/1\n", UnsupportedElementError,
     "vertex 1 referenced with conflicting uv indices", 7),
], ids=["negative", "zero", "corner_without_vertex", "conflicting_vt"])
def test_obj_face_index_refusals(faces, error, match, line):
    with pytest.raises(error, match=match) as err:
        parse_mesh(_TRIANGLE + faces, "obj")
    assert err.value.line == line


def test_ply_binary_cube_roundtrip():
    verts = np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
        [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
    ], dtype=np.float64)
    tris = np.array([
        [0, 2, 1], [0, 3, 2], [4, 5, 6], [4, 6, 7],
        [0, 1, 5], [0, 5, 4], [1, 2, 6], [1, 6, 5],
        [2, 3, 7], [2, 7, 6], [3, 0, 4], [3, 4, 7],
    ])
    cube = Mesh(vertices=verts, triangles=tris)
    back = parse_mesh(serialize_mesh(cube, "ply-binary"), "ply-binary")
    assert np.array_equal(back.vertices, cube.vertices)
    assert np.array_equal(back.triangles, cube.triangles)


def test_ply_foreign_float32_with_uchar_colors():
    # a typical third-party binary PLY: float32 coords, uchar colors
    header = (
        b"ply\nformat binary_little_endian 1.0\n"
        b"element vertex 3\n"
        b"property float x\nproperty float y\nproperty float z\n"
        b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
        b"element face 1\n"
        b"property list uchar int vertex_indices\n"
        b"end_header\n"
    )
    vdt = np.dtype([("xyz", "<f4", (3,)), ("rgb", "u1", (3,))])
    body = np.zeros(3, dtype=vdt)
    body["xyz"] = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    body["rgb"] = [[255, 0, 0], [0, 255, 0], [0, 0, 255]]
    face = np.zeros(1, dtype=np.dtype([("n", "u1"), ("idx", "<i4", (3,))]))
    face["n"] = 3
    face["idx"] = [0, 1, 2]
    mesh = parse_mesh(header + body.tobytes() + face.tobytes(), "ply-binary")
    assert np.allclose(mesh.colors, np.eye(3))
    assert mesh.vertex_count == 3


def test_ply_big_endian_rejected():
    with pytest.raises(UnsupportedElementError):
        parse_mesh(
            b"ply\nformat binary_big_endian 1.0\nelement vertex 0\n"
            b"property float x\nproperty float y\nproperty float z\n"
            b"element face 0\nproperty list uchar int vertex_indices\n"
            b"end_header\n",
            "ply-binary",
        )


def test_ply_truncated_reports_offset():
    good = serialize_mesh(
        Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]]),
        "ply-binary",
    )
    with pytest.raises(MeshParseError) as err:
        parse_mesh(good[:-5], "ply-binary")
    assert err.value.offset is not None


TRIANGLE = Mesh(vertices=[[0, 0, 0], [1, 0, 0], [0, 1, 0]], triangles=[[0, 1, 2]])


@pytest.mark.parametrize("name,data", [
    ("tri.obj", serialize_mesh(TRIANGLE, "obj")),
    ("tri.ply", serialize_mesh(TRIANGLE, "ply-ascii")),
    ("tri.ply", serialize_mesh(TRIANGLE, "ply-binary")),
    # header comments push the format line past the first 512 bytes
    ("tri.ply", serialize_mesh(TRIANGLE, "ply-ascii").replace(
        b"ply\n", b"ply\ncomment " + b"x" * 600 + b"\n", 1)),
], ids=["obj", "ply-ascii", "ply-binary", "ply-ascii-long-header"])
def test_load_mesh_reads_declared_format(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    mesh = load_mesh(path)
    assert np.array_equal(mesh.vertices, TRIANGLE.vertices)
    assert np.array_equal(mesh.triangles, TRIANGLE.triangles)


def _binary_ply_with_normals(normals):
    """A binary PLY triangle of double x/y/z/nx/ny/nz vertices."""
    header = (b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
              + b"".join(b"property double %s\n" % p
                         for p in (b"x", b"y", b"z", b"nx", b"ny", b"nz"))
              + b"element face 1\nproperty list uchar int vertex_indices\n"
              b"end_header\n")
    rows = np.hstack([TRIANGLE.vertices, normals]).astype("<f8")
    return header + rows.tobytes() + np.array([3], "u1").tobytes() \
        + np.array([0, 1, 2], "<i4").tobytes()


@pytest.mark.parametrize("data,fmt,attr", [
    (b"v 0 0 0 nan 0.5 0.5\nv 1 0 0 0.1 0.2 0.3\nv 0 1 0 0.1 0.2 0.3\nf 1 2 3\n",
     "obj", "colors"),
    (b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvt nan 0\nvt 1 0\nf 1/1 2/2 3/2\n",
     "obj", "uvs"),
    (_binary_ply_with_normals([[np.inf, 0, 0], [0, 0, 1], [0, 0, 1]]),
     "ply-binary", "normals"),
], ids=["obj-color", "obj-uv", "ply-normal"])
def test_non_finite_attributes_refused(data, fmt, attr):
    with pytest.raises(InvalidMeshError, match=f"{attr} contain non-finite values"):
        parse_mesh(data, fmt)


def ply_with_faces(fmt, vertices, faces):
    """A PLY file of x/y/z vertices and arbitrary index lists."""
    encoding = "ascii" if fmt == "ply-ascii" else "binary_little_endian"
    head = (
        f"ply\nformat {encoding} 1.0\nelement vertex {len(vertices)}\n"
        "property double x\nproperty double y\nproperty double z\n"
        f"element face {len(faces)}\nproperty list uchar int vertex_indices\n"
        "end_header\n"
    ).encode()
    if fmt == "ply-ascii":
        rows = [" ".join(map(repr, v)) for v in vertices]
        rows += [" ".join(map(str, [len(f), *f])) for f in faces]
        return head + ("\n".join(rows) + "\n").encode()
    return head + np.asarray(vertices, "<f8").tobytes() + b"".join(
        bytes([len(f)]) + np.asarray(f, "<i4").tobytes() for f in faces
    )


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary"])
def test_ply_polygons_fan_triangulated(fmt, caplog):
    vertices = [[float(i), float(i * i % 5), 0.0] for i in range(7)]
    faces = [[0, 1, 2, 3], [1, 2, 4], [0, 2, 3, 5, 6], [4, 5, 6]]
    mesh = parse_mesh(ply_with_faces(fmt, vertices, faces), fmt)
    fan = [(f[0], f[i], f[i + 1]) for f in faces for i in range(1, len(f) - 1)]
    assert np.array_equal(mesh.triangles, fan)
    assert "fan-triangulated 2 polygonal faces" in caplog.text


def assert_same_mesh(a, b):
    for attr in ("vertices", "triangles", "uvs", "normals", "colors"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary"])
def test_ply_crlf_header(fmt):
    mesh = pinned_mesh(True)
    head, body = serialize_mesh(mesh, fmt).split(b"end_header\n")
    if fmt == "ply-ascii":
        body = body.replace(b"\n", b"\r\n")
    data = (head + b"end_header\n").replace(b"\n", b"\r\n") + body
    assert_same_mesh(parse_mesh(data, fmt), mesh)


@pytest.mark.parametrize("fmt", ["ply-ascii", "ply-binary"])
def test_ply_end_header_in_a_comment_does_not_end_the_header(fmt):
    mesh = pinned_mesh(True)
    data = serialize_mesh(mesh, fmt).replace(
        b"ply\n", b"ply\ncomment written up to end_header\n", 1)
    assert_same_mesh(parse_mesh(data, fmt), mesh)


@st.composite
def random_meshes(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    coords = draw(
        st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False, width=64,
            ),
            min_size=3 * n, max_size=3 * n,
        )
    )
    m = draw(st.integers(min_value=1, max_value=60))
    tris = []
    for _ in range(m):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        c = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b and b != c and a != c:
            tris.append([a, b, c])
    if not tris:
        tris = [[0, 1, 2]]
    with_uv = draw(st.booleans())
    with_normals = draw(st.booleans())
    with_colors = draw(st.booleans())
    r = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    return Mesh(
        vertices=np.asarray(coords).reshape(n, 3),
        triangles=tris,
        uvs=r.random((n, 2)) if with_uv else None,
        normals=r.normal(size=(n, 3)) if with_normals else None,
        colors=r.random((n, 3)) if with_colors else None,
    )


@settings(max_examples=40, deadline=None)
@given(mesh=random_meshes(), fmt=st.sampled_from(FORMATS))
def test_parse_serialize_identity(mesh, fmt):
    back = parse_mesh(serialize_mesh(mesh, fmt), fmt)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    for attr in ("uvs", "normals", "colors"):
        a = getattr(mesh, attr)
        b = getattr(back, attr)
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b)


def pinned_mesh(with_attributes):
    """Eight vertices with awkward doubles (-0.0, 1e22, the smallest
    subnormal, 0.1, 1/3), optionally with normals, UVs and colors."""
    r = np.random.default_rng(2024)
    vertices = r.random((8, 3)) * 20.0 - 10.0
    vertices[0] = [-0.0, 1e22, 5e-324]
    vertices[1] = [0.1, 1.0 / 3.0, -123456789.0]
    triangles = [[0, 1, 2], [0, 2, 3], [4, 5, 6], [5, 7, 6], [1, 7, 3]]
    if not with_attributes:
        return Mesh(vertices=vertices, triangles=triangles)
    colors = r.random((8, 3))
    colors[0] = [0.0, 1.0, 0.5]
    return Mesh(vertices=vertices, triangles=triangles,
                normals=r.random((8, 3)) - 0.5, uvs=r.random((8, 2)), colors=colors)


# SHA-256 of serialize_mesh(pinned_mesh(with_attributes), format)
PINNED_FILES = {
    (False, "obj"): "ed5fe05781c6eef1573acda9a828c41ea17d7752282f2023782bdaf3aa22c4f7",
    (False, "ply-ascii"): "71ef9a1915cd8a81dce38cc74e38c21340e3c5f5652887d30b7a7aae5bbe42c4",
    (False, "ply-binary"): "6f001f81e3385f85f4b2c87dfe45dd1eb42b22e1b2ecef269d0fcef803689f5d",
    (True, "obj"): "d54491fe61a7da29204d94437ac559a2223bee802e2d45c68cdf8e2449ada75d",
    (True, "ply-ascii"): "9e33247e043888dcea45eecf3b687b9c3fef348096f6bd8fbd6b0404f08f7ee9",
    (True, "ply-binary"): "25745d60762c204f887c2c9009c543bcba0769b7f76157ae63f1e8d990d48706",
}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("with_attributes", [False, True], ids=["bare", "attributes"])
def test_writer_bytes_pinned(with_attributes, fmt):
    data = serialize_mesh(pinned_mesh(with_attributes), fmt)
    assert hashlib.sha256(data).hexdigest() == PINNED_FILES[with_attributes, fmt]


_PLY_ASCII_TRIANGLE = (
    b"ply\nformat ascii 1.0\nelement vertex 3\n"
    b"property double x\nproperty double y\nproperty double z\n"
    b"element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    b"0 0 0\n1 0 0\n0 1 0\n"
)


@pytest.mark.parametrize("fmt,data", [
    ("ply-ascii", b"ply\nformat ascii 1.0\nelement vertex 0\nproperty\nend_header\n"),
    ("ply-binary",
     b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
     b"property double x\nproperty double x\nproperty double z\nend_header\n"
     + bytes(24)),
    ("ply-ascii", _PLY_ASCII_TRIANGLE + b"3 0 1 99999999999999999999\n"),
    ("obj", b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf /2 2 3\n"),
    ("ply-ascii",
     b"ply\nformat ascii 1.0\nelement vertex -2\n"
     b"property double x\nproperty double y\nproperty double z\nend_header\n"),
    ("ply-ascii",
     b"ply\nformat ascii 1.0\nelement vertex 1\n"
     b"property double x\nproperty double x\nproperty double z\nend_header\n"
     b"0 0 0\n"),
    ("ply-ascii", _PLY_ASCII_TRIANGLE + b"3 0 1 2\n7 7 7\n"),
], ids=["property_without_type", "property_named_twice", "index_above_2_63",
        "corner_without_vertex", "negative_element_count",
        "ascii_property_named_twice", "ascii_trailing_tokens"])
def test_malformed_files_raise_parse_errors(fmt, data):
    with pytest.raises(MeshParseError):
        parse_mesh(data, fmt)



def _ply_ascii_two_faces(body):
    """An ascii PLY of 3 vertices and 2 faces; body starts on line 10."""
    return _PLY_ASCII_TRIANGLE.replace(b"element face 1", b"element face 2")[
        :-len(b"0 0 0\n1 0 0\n0 1 0\n")] + body


@pytest.mark.parametrize("body,line,match", [
    (b"0 0 0\n1 0 0\n0 1 zz\n3 0 1 2\n3 0 2 1\n", 12, "vertex number"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\nx 0 2 1\n", 14, "face size"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n2 0 2\n", 14, "2 corners"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 y 1\n", 14, "face index"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n3 0 2 1\n", 13,
     "out of range"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n\n\n3 0 2\n", 16, "truncated"),
    (b"0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n\n7 7 7\n", 16, "trailing"),
], ids=["vertex_number", "face_size", "face_corners", "face_index",
        "index_above_2_63", "truncated_face", "trailing_tokens"])
def test_ply_ascii_errors_name_the_failing_line(body, line, match):
    with pytest.raises(MeshParseError, match=match) as err:
        parse_mesh(_ply_ascii_two_faces(body), "ply-ascii")
    assert err.value.line == line

@st.composite
def mutated_files(draw):
    """A serialized mesh with one to three bit flips, truncations, inserted
    bytes or deleted runs."""
    fmt = draw(st.sampled_from(FORMATS))
    data = bytearray(serialize_mesh(pinned_mesh(draw(st.booleans())), fmt))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(data) - 1))
        kind = draw(st.sampled_from(["flip", "truncate", "insert", "delete"]))
        if kind == "flip":
            data[at] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif kind == "truncate":
            del data[at:]
        elif kind == "insert":
            data.insert(at, draw(st.sampled_from(b"-0123456789 ./ef\n")))
        else:
            del data[at:at + draw(st.integers(min_value=1, max_value=16))]
        if not data:
            break
    return fmt, bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=mutated_files())
def test_mutated_files_raise_only_parse_errors(case):
    fmt, data = case
    try:
        parse_mesh(data, fmt)
    except (MeshParseError, InvalidMeshError):
        pass


def reference_parse_obj(data: bytes) -> Mesh:
    """A line-by-line OBJ reader: each record's numbers and each face
    corner go through float() and int() one at a time, and the first check
    that fails raises. parse_obj must give the same mesh and fan warning, or
    the same error, line and message."""
    text = data.decode("utf-8", errors="replace")
    positions, vertex_colors, texcoords, raw_normals = [], [], [], []
    faces = []  # (lineno, ((v, vt, vn), (v, vt, vn), (v, vt, vn)))
    fan_count = 0

    def floats(parts, count, lineno, record):
        if len(parts) < count:
            raise MeshParseError(
                f"'{record}' record needs {count} values, got {len(parts)}", line=lineno
            )
        try:
            return [float(p) for p in parts[:count]]
        except ValueError as exc:
            raise MeshParseError(f"bad number in '{record}' record: {exc}", line=lineno)

    def corner(token, lineno):
        fields = token.split("/")
        if len(fields) > 3 or fields[0] == "":
            raise MeshParseError(f"bad face corner {token!r}", line=lineno)
        out = []
        for f in fields:
            if f == "":
                out.append(None)
                continue
            try:
                idx = int(f)
            except ValueError:
                raise MeshParseError(f"bad face corner {token!r}", line=lineno)
            if idx < 0:
                raise UnsupportedElementError(
                    "relative (negative) OBJ indices are not supported", line=lineno
                )
            if idx == 0:
                raise MeshParseError("OBJ indices are 1-based; 0 is invalid", line=lineno)
            out.append(idx - 1)
        return tuple(out + [None] * (3 - len(out)))

    for lineno, line in enumerate(text.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        key, args = parts[0], parts[1:]
        if key == "v":
            if len(args) not in (3, 6):
                raise MeshParseError(
                    f"'v' record needs 3 or 6 values, got {len(args)}", line=lineno
                )
            positions.append(floats(args, 3, lineno, "v"))
            if len(args) == 6:
                vertex_colors.append(floats(args[3:], 3, lineno, "v"))
            elif vertex_colors:
                raise MeshParseError(
                    "mixed presence of per-vertex colors on 'v' records", line=lineno
                )
        elif key == "vt":
            texcoords.append(floats(args, 2, lineno, "vt"))
        elif key == "vn":
            raw_normals.append(floats(args, 3, lineno, "vn"))
        elif key == "f":
            if len(args) < 3:
                raise MeshParseError("face with fewer than 3 corners", line=lineno)
            corners = [corner(tok, lineno) for tok in args]
            fan_count += len(corners) > 3
            for i in range(1, len(corners) - 1):
                faces.append((lineno, (corners[0], corners[i], corners[i + 1])))
        elif key in ("l", "p", "curv", "curv2", "surf"):
            raise UnsupportedElementError(
                f"'{key}' records (non-triangle geometry) are not supported",
                line=lineno,
            )

    if vertex_colors and len(vertex_colors) != len(positions):
        raise MeshParseError("some 'v' records carry colors and some do not")
    if fan_count:
        logging.getLogger("ultron.mesh.obj_io").warning(
            "fan-triangulated %d polygonal faces", fan_count)

    nv = len(positions)
    triangles = np.zeros((len(faces), 3), dtype=np.int32)
    attributes = (("uv", "vt", texcoords), ("normal", "vn", raw_normals))
    rows_of = [np.full(nv, -1, dtype=np.int64) for _ in attributes]
    for row, (lineno, tri) in enumerate(faces):
        for col, (v, *refs) in enumerate(tri):
            if v >= nv:
                raise IndexOutOfRangeError(
                    f"vertex index {v + 1} exceeds vertex count {nv}", line=lineno
                )
            triangles[row, col] = v
            for (what, record, table), of_vertex, ref in zip(attributes, rows_of, refs):
                if ref is None:
                    continue
                if ref >= len(table):
                    raise IndexOutOfRangeError(
                        f"{what} index {ref + 1} exceeds {record} count {len(table)}",
                        line=lineno,
                    )
                if of_vertex[v] == -1:
                    of_vertex[v] = ref
                elif of_vertex[v] != ref:
                    raise UnsupportedElementError(
                        f"vertex {v + 1} referenced with conflicting {what} indices; "
                        "only per-vertex attributes are representable",
                        line=lineno,
                    )

    def per_vertex(table, of_vertex):
        assigned = of_vertex >= 0
        if table and len(table) == nv and np.all(
            of_vertex[assigned] == np.flatnonzero(assigned)
        ):
            return np.asarray(table, dtype=np.float64)
        if not assigned.any():
            return None
        out = np.zeros((nv, len(table[0])), dtype=np.float64)
        out[assigned] = np.asarray(table, dtype=np.float64)[of_vertex[assigned]]
        return out

    uvs, normals = (per_vertex(table, of_vertex)
                    for (_, _, table), of_vertex in zip(attributes, rows_of))
    return Mesh(
        vertices=np.asarray(positions, dtype=np.float64).reshape(nv, 3),
        triangles=triangles,
        normals=normals,
        uvs=uvs,
        colors=np.asarray(vertex_colors, dtype=np.float64) if vertex_colors else None,
    )


# odd spellings float() and int() accept or refuse, and numbers past the
# ranges of a double and of int64
_ODD_NUMBERS = ("nan", "-inf", "1e999", "1_0", "99999999999999999999", "1__0",
                "x", "+2", "\u0663", "0x1")
_ODD_INDICES = ("0", "-1", "-99999999999999999999", "99999999999999999999", "1_0",
                "x", "", "\u0663", "1", "2", "7")


@st.composite
def obj_files(draw):
    """A small OBJ file of colored or plain vertices, vt and vn records and
    triangles and polygons, with CRLF or CR line ends, tabs and comments.
    Unless the file is clean, odd numbers and indices, other record sizes,
    corner forms and byte edits turn up about once in `odd` draws."""
    odd = draw(st.sampled_from([None, 80, 25, 8]))

    def rare(options, common):
        if odd is None or draw(st.integers(0, odd - 1)):
            return common
        return draw(st.sampled_from(options))

    def number():
        return rare(_ODD_NUMBERS, repr(draw(st.floats(-4, 4))))

    n = draw(st.integers(min_value=3, max_value=6))
    colors = draw(st.sampled_from(["none", "all", "mixed"]))
    records = []
    for _ in range(n):
        width = 6 if colors == "all" or (colors == "mixed" and draw(st.booleans())) else 3
        records.append(["v"] + [number() for _ in range(rare(range(8), width))])
    n_vt, n_vn = (draw(st.integers(min_value=0, max_value=n + 1)) for _ in "tn")
    records += [["vt"] + [number() for _ in range(rare(range(4), 2))]
                for _ in range(n_vt)]
    records += [["vn"] + [number() for _ in range(rare(range(5), 3))]
                for _ in range(n_vn)]
    style = draw(st.sampled_from(["{v}", "{v}/{t}", "{v}//{n}", "{v}/{t}/{n}"]))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        size = min(n, draw(st.sampled_from([3, 3, 4, 5])))
        corners = []
        for v in draw(st.permutations(range(1, n + 1)))[:rare([1, 2], size)]:
            # a vertex names the vt and vn of its own number, wrapped
            t, m = ((v - 1) % k + 1 if k else 1 for k in (n_vt, n_vn))
            corner = rare(["{v}", "/{v}", "{v}/", "{v}/{t}/{n}/{v}", "{v}/{t}//"], style)
            corners.append(corner.format(
                v=rare(_ODD_INDICES, str(v)), t=rare(_ODD_INDICES, str(t)),
                n=rare(_ODD_INDICES, str(m))))
        records.append(["f"] + corners)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        records.insert(draw(st.integers(0, len(records))), draw(st.sampled_from(
            [["#", "note"], ["#v", "1"], ["o", "x"], ["g"], [], ["s", "1"], ["V", "1"]])))
    if odd is not None and draw(st.integers(0, 9)) == 0:
        records.insert(draw(st.integers(0, len(records))), ["l", "1", "2"])
    if draw(st.integers(0, 4)) == 0:
        records = draw(st.permutations(records))
    sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = bytearray(end.join(sep.join(r) for r in records).encode())
    for _ in range(rare([1, 2], 0)):
        if data:
            at = draw(st.integers(min_value=0, max_value=len(data) - 1))
            data[at:at + draw(st.integers(0, 3))] = draw(
                st.sampled_from([b"", b"/", b"-", b"0", b"\n", b" ", b"e", b"\xff"]))
    return bytes(data)


def _outcome(parse, data):
    """parse(data)'s mesh or error, and the warnings it logs."""
    logged = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = lambda record: logged.append(record.getMessage())
    logger = logging.getLogger("ultron.mesh.obj_io")
    logger.addHandler(handler)
    try:
        return parse(data), logged
    except (MeshParseError, InvalidMeshError) as exc:
        return exc, logged
    finally:
        logger.removeHandler(handler)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=obj_files())
def test_obj_reader_agrees_with_line_by_line_reference(data):
    got, got_logged = _outcome(parse_obj, data)
    want, want_logged = _outcome(reference_parse_obj, data)
    assert got_logged == want_logged
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert (got.args, getattr(got, "line", None)) == (
            want.args, getattr(want, "line", None))
        return
    for attr in ("vertices", "triangles", "uvs", "normals", "colors"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), attr


def test_obj_face_index_above_int64_is_out_of_range():
    data = _TRIANGLE + b"f 1 2 3\nf 1 2 99999999999999999999\n"
    with pytest.raises(IndexOutOfRangeError, match="99999999999999999999") as err:
        parse_mesh(data, "obj")
    assert err.value.line == 5

