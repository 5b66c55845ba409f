"""Format dispatch for mesh parsing and serialization."""

from __future__ import annotations

from pathlib import Path

from ..errors import MeshParseError
from .model import Mesh
from .obj_io import parse_obj, serialize_obj
from .ply_io import parse_ply, serialize_ply

FORMATS = ("obj", "ply-ascii", "ply-binary")


def parse_mesh(data: bytes, format: str) -> Mesh:
    """Parse a mesh file held in memory. format is one of FORMATS."""
    if format == "obj":
        return parse_obj(data)
    if format == "ply-ascii":
        return parse_ply(data, expect_format="ascii")
    if format == "ply-binary":
        return parse_ply(data, expect_format="binary_little_endian")
    raise ValueError(f"unknown mesh format {format!r}")


def serialize_mesh(mesh: Mesh, format: str) -> bytes:
    if format == "obj":
        return serialize_obj(mesh)
    if format == "ply-ascii":
        return serialize_ply(mesh, binary=False)
    if format == "ply-binary":
        return serialize_ply(mesh, binary=True)
    raise ValueError(f"unknown mesh format {format!r}")


def load_mesh(path: str | Path) -> Mesh:
    """Read a .obj or .ply file; a PLY header's format line picks the
    encoding. A MeshParseError's message starts with the path."""
    data = Path(path).read_bytes()
    suffix = Path(path).suffix.lower()
    if suffix not in (".obj", ".ply"):
        raise MeshParseError(f"cannot infer mesh format from {path!r}")
    try:
        return parse_obj(data) if suffix == ".obj" else parse_ply(data)
    except MeshParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def save_mesh(mesh: Mesh, path: str | Path, format: str | None = None) -> None:
    if format is None:
        suffix = Path(path).suffix.lower()
        if suffix == ".obj":
            format = "obj"
        elif suffix == ".ply":
            format = "ply-binary"
        else:
            raise ValueError(f"cannot infer output format from {path!r}")
    Path(path).write_bytes(serialize_mesh(mesh, format))
