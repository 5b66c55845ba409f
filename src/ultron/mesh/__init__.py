from .model import Aabb, Mesh, vertex_normals
from .io import FORMATS, load_mesh, parse_mesh, save_mesh, serialize_mesh
from .corner_table import BOUNDARY, CornerTable, NonManifoldReport, build_corner_table
from .closest import (
    NeighbourList,
    TriangleBvh,
    closest_point_on_triangles,
    closest_points,
)

__all__ = [
    "Aabb",
    "Mesh",
    "vertex_normals",
    "FORMATS",
    "load_mesh",
    "parse_mesh",
    "save_mesh",
    "serialize_mesh",
    "BOUNDARY",
    "CornerTable",
    "NonManifoldReport",
    "build_corner_table",
    "NeighbourList",
    "TriangleBvh",
    "closest_point_on_triangles",
    "closest_points",
]
