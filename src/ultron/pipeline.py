"""Per-frame keyframe loop: track, register, assess, segment.

Frame 0 keys the first segment. A later frame with the key's vertex count
and triangle array is first assessed as itself, the key's connectivity at
its own positions: E_d is 0 by construction and E_c compares the key's
colors with the frame's per vertex, with no closest-point query. If that
passes, the frame is coded as itself, without tracking or registration: it
joins the segment when the unmoved latest accepted frame also covers it,
and otherwise keys a new segment. Its stats row reads 0 iterations. The
cover test is the gate's verdict on the latest frame against the frame,
taken term by term (the directed distance from the latest frame, E_c at
those closest points, the reverse distance) and stopped at the first term
that fails. The latest accepted frame is held as a mesh, earlier ones as
positions, and a frame joined as itself keeps its own index.

Every other frame is matched against the segment's last two accepted
frames (the latest, moved on by its last step), the key (at the latest) is
registered onto the frame, and the deformation quality is assessed against
the original. Passing frames join the segment as new vertex positions on
the key's connectivity; failing frames (or solver divergence) start a new
segment keyed by the original frame, which has no step yet.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import InvalidMeshError
from .mesh import Mesh, closest_points, vertex_normals
from .registration import RegistrationConfig, register
from .tracking import match_frames


@dataclass(frozen=True)
class QualityThresholds:
    """Acceptance gate for deformed frames.

    geometry_tol bounds the symmetric RMS point-to-surface distance as a
    fraction of the original frame's bbox diagonal; color_tol bounds the
    RMS RGB distance between each deformed vertex's color and the original's
    color interpolated at that vertex's closest point on the original.
    """

    geometry_tol: float = 0.002
    color_tol: float = 0.02

    def __post_init__(self):
        for name in ("geometry_tol", "color_tol"):
            value = getattr(self, name)
            if not value >= 0:  # inf is allowed: it turns that gate off
                raise ValueError(f"{name} must be nonnegative and not NaN, got {value}")


@dataclass(frozen=True)
class QualityReport:
    E_d_rms: float
    E_c_rms: float | None
    passed: bool


@dataclass(frozen=True)
class Segment:
    """A keyframe plus every frame sharing its connectivity.

    frames is (F, n, 3) with frame 0 equal to the key's own vertices;
    frame_ids are the source sequence indices, consecutive by construction.
    normal_frames, when present, stores per-frame normals (F, n, 3).
    """

    key: Mesh
    frames: np.ndarray
    frame_ids: tuple
    normal_frames: np.ndarray | None = None

    def __post_init__(self):
        frames = np.array(self.frames, dtype=np.float64, copy=True)
        if frames.ndim != 3 or frames.shape[2] != 3:
            raise InvalidMeshError("frames must be (F, n, 3)")
        if frames.shape[0] == 0:
            raise InvalidMeshError("segment must hold at least one frame")
        if frames.shape[1] != self.key.vertex_count:
            raise InvalidMeshError("frame width != key vertex count")
        if not np.array_equal(frames[0], self.key.vertices):
            raise InvalidMeshError("frame 0 must be the key's own vertices")
        ids = tuple(int(i) for i in self.frame_ids)
        if len(ids) != frames.shape[0]:
            raise InvalidMeshError("frame_ids length mismatch")
        if any(b - a != 1 for a, b in zip(ids, ids[1:])):
            raise InvalidMeshError("frame_ids must be consecutive")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "frame_ids", ids)
        if self.normal_frames is not None:
            nf = np.array(self.normal_frames, dtype=np.float64, copy=True)
            if nf.shape != frames.shape:
                raise InvalidMeshError("normal_frames shape mismatch")
            nf.setflags(write=False)
            object.__setattr__(self, "normal_frames", nf)

    @property
    def frame_count(self) -> int:
        return len(self.frames)

    def frame_mesh(self, i: int, *, recompute_normals: bool = False) -> Mesh:
        """Materialize frame i as a mesh on the key's connectivity."""
        normals = None if self.normal_frames is None else self.normal_frames[i]
        if normals is None and recompute_normals:
            normals = vertex_normals(self.key.with_vertices(self.frames[i]))
        return Mesh(vertices=self.frames[i], triangles=self.key.triangles,
                    normals=normals, uvs=self.key.uvs, colors=self.key.colors)


def _surface_colors(mesh: Mesh, points, tris) -> np.ndarray:
    """mesh's colors interpolated barycentrically at points on triangles
    tris; a zero-area triangle gives the mean of its corners."""
    corners = mesh.triangles[tris]
    a, b, c = (mesh.vertices[corners[:, k]] for k in range(3))
    e0, e1, ep = b - a, c - a, points - a
    d00 = np.einsum("ij,ij->i", e0, e0)
    d01 = np.einsum("ij,ij->i", e0, e1)
    d11 = np.einsum("ij,ij->i", e1, e1)
    dp0 = np.einsum("ij,ij->i", ep, e0)
    dp1 = np.einsum("ij,ij->i", ep, e1)
    denom = d00 * d11 - d01 * d01
    flat = denom == 0.0
    safe = np.where(flat, 1.0, denom)
    v = np.where(flat, 1.0 / 3.0, (d11 * dp0 - d01 * dp1) / safe)
    w = np.where(flat, 1.0 / 3.0, (d00 * dp1 - d01 * dp0) / safe)
    bary = np.stack([1.0 - v - w, v, w], axis=1)
    return np.einsum("nk,nkc->nc", bary, mesh.colors[corners])


def surface_errors(deformed: Mesh, original: Mesh):
    """The max of the two directed RMS point-to-surface distances, and, when
    both meshes carry colors, the RMS RGB distance between each deformed
    vertex's color and the original's color at that vertex's closest point
    on the original, interpolated over the closest triangle (None
    otherwise). That point comes from the geometry term's own query, so
    vertex indices are never paired."""
    pts, d_do, tris = closest_points(original, deformed.vertices)
    _, d_od, _ = closest_points(deformed, original.vertices)
    return max(_rms(d_do), _rms(d_od)), _color_rms(deformed, original, pts, tris)


def _rms(distances) -> float:
    """RMS of point-to-surface distances."""
    return float(np.sqrt(np.mean(distances * distances)))


def _color_rms(deformed: Mesh, original: Mesh, points, tris):
    """surface_errors' color term, at deformed's closest points on original."""
    if deformed.colors is None or original.colors is None:
        return None
    return _rgb_rms(deformed.colors, _surface_colors(original, points, tris))


def _rgb_rms(colors, reference) -> float:
    """RMS over vertices of the RGB distance between two (n, 3) arrays."""
    diff = colors - reference
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def _judged(e_d: float, e_c: float | None, thresholds: QualityThresholds):
    """The gate's verdict on a frame's E_d and E_c."""
    return QualityReport(e_d, e_c, e_d <= thresholds.geometry_tol
                         and (e_c is None or e_c <= thresholds.color_tol))


def _diagonal(deformed: Mesh, original: Mesh) -> float:
    """The original's bounding-box diagonal, which normalizes E_d; meshes
    the gate cannot judge are refused."""
    if deformed.triangle_count == 0 or original.triangle_count == 0:
        raise InvalidMeshError("meshes must be nonempty")
    diag = original.bounds().diagonal
    if diag <= 0:
        raise InvalidMeshError("original mesh has a degenerate bounding box")
    return diag


def assess_quality(
    deformed: Mesh,
    original: Mesh,
    thresholds: QualityThresholds,
) -> QualityReport:
    """Geometric (and, when colors exist, color) fidelity of a deformed
    frame relative to the original (surface_errors), normalized for the
    pass decision."""
    diag = _diagonal(deformed, original)
    rms, e_c = surface_errors(deformed, original)
    return _judged(rms / diag, e_c, thresholds)


def _covers(latest: Mesh, frame: Mesh, thresholds: QualityThresholds) -> bool:
    """assess_quality(latest, frame, thresholds).passed, term by term: the
    directed distance from latest to frame, E_c at those closest points,
    then the reverse distance, stopping at the first term that fails. The
    gate bounds the max of the two distances over the diagonal, and that
    quotient rounds to the max of the two quotients, so the verdict is the
    AND of the three terms, bit for bit."""
    diag = _diagonal(latest, frame)
    pts, d, tris = closest_points(frame, latest.vertices)
    if not _rms(d) / diag <= thresholds.geometry_tol:
        return False
    e_c = _color_rms(latest, frame, pts, tris)
    if not (e_c is None or e_c <= thresholds.color_tol):
        return False
    _, d, _ = closest_points(latest, frame.vertices)
    return _rms(d) / diag <= thresholds.geometry_tol


def _identity_quality(key: Mesh, frame: Mesh, thresholds: QualityThresholds):
    """assess_quality of the key's connectivity at frame's own positions
    against frame, or None when frame is not on the key's vertex count and
    triangle array. Each vertex is its own closest point, so E_d is 0 and
    E_c compares colors per vertex; the surface formula differs only where
    a vertex's winning triangle has zero area or is a lower-id triangle
    through the vertex at a T-junction."""
    if (frame.vertex_count != key.vertex_count
            or not np.array_equal(frame.triangles, key.triangles)):
        return None
    e_c = None if key.colors is None else _rgb_rms(key.colors, frame.colors)
    return _judged(0.0, e_c, thresholds)


@dataclass(frozen=True)
class FrameRecord:
    frame_id: int
    segment_id: int
    is_keyframe: bool
    E_d_rms: float | None
    E_c_rms: float | None
    registration_iterations: int


@dataclass
class PipelineStats:
    records: list = field(default_factory=list)

    @property
    def keyframes(self) -> list:
        return [r.frame_id for r in self.records if r.is_keyframe]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(
            "frame-id,segment-id,is-keyframe,E_d_rms,E_c_rms,"
            "registration-iterations\n"
        )
        for r in self.records:
            e_d = "" if r.E_d_rms is None else repr(r.E_d_rms)
            e_c = "" if r.E_c_rms is None else repr(r.E_c_rms)
            out.write(
                f"{r.frame_id},{r.segment_id},{int(r.is_keyframe)},"
                f"{e_d},{e_c},{r.registration_iterations}\n"
            )
        return out.getvalue()


class _OpenSegment:
    def __init__(self, key: Mesh, frame_id: int):
        self.key = key
        self.latest = key  # the latest accepted frame, on the key's connectivity
        self.frames = [key.vertices]  # accepted positions, one per frame
        self.first_id = frame_id

    def accept(self, mesh: Mesh):
        self.latest = mesh
        self.frames.append(mesh.vertices)

    def close(self, store_normals: bool) -> Segment:
        normals = None
        if store_normals:  # frame 0 keeps the key's own normals if it has them
            # built one at a time, each freed once its normals are taken
            meshes = chain([self.key], map(self.key.with_vertices, self.frames[1:]))
            normals = [vertex_normals(m) if m.normals is None else m.normals
                       for m in meshes]
        ids = range(self.first_id, self.first_id + len(self.frames))
        return Segment(self.key, self.frames, ids, normals)


def _check_attribute_consistency(key: Mesh, frame: Mesh, index: int):
    """Refuse a frame whose attributes differ in presence from the open
    segment's key, and so from frame 0's."""
    for attr in ("uvs", "colors", "normals"):
        if (getattr(key, attr) is None) != (getattr(frame, attr) is None):
            raise InvalidMeshError(
                f"frame {index} {attr} presence differs from frame 0"
            )


def run_pipeline(
    frames,
    thresholds: QualityThresholds = QualityThresholds(),
    *,
    registration_cfg: RegistrationConfig = RegistrationConfig(),
    max_residual: float | None = None,
    store_normals: bool = False,
) -> tuple[list[Segment], PipelineStats]:
    """Consume a mesh sequence and emit segments plus per-frame stats.

    Deterministic: identical frames and configuration produce identical
    segmentation and identical stats.
    """
    segments: list[Segment] = []
    stats = PipelineStats()
    current: _OpenSegment | None = None

    for idx, frame in enumerate(frames):
        if frame.triangle_count == 0:
            raise InvalidMeshError(f"frame {idx} has no triangles")
        if current is None:
            current = _OpenSegment(frame, idx)
            stats.records.append(FrameRecord(idx, len(segments), True, None, None, 0))
            continue
        _check_attribute_consistency(current.key, frame, idx)

        latest = current.latest
        quality = _identity_quality(current.key, frame, thresholds)
        if quality is not None and quality.passed:
            # The key's connectivity at the frame's own positions is the
            # frame: code it as itself, in this segment only if the unmoved
            # latest frame already covers it.
            accepted = _covers(latest, frame, thresholds)
            iterations = 0
            if accepted:  # the frame's geometry, so its index serves again
                current.accept(frame.with_attributes(uvs=current.key.uvs,
                                                     colors=current.key.colors))
        else:
            previous = current.frames[-2] if len(current.frames) > 1 else None
            matches = match_frames(current.frames[-1], frame, max_residual,
                                   previous=previous)
            deformed, _field, report = register(latest, frame, matches,
                                                registration_cfg)
            quality = assess_quality(deformed, frame, thresholds)
            accepted = quality.passed and not report.diverged
            iterations = report.iterations_used
            if accepted:
                current.accept(deformed)

        if not accepted:
            segments.append(current.close(store_normals))
            current = _OpenSegment(frame, idx)
        stats.records.append(FrameRecord(
            idx, len(segments), not accepted,
            quality.E_d_rms, quality.E_c_rms, iterations,
        ))

    if current is None:
        raise InvalidMeshError("pipeline needs at least one frame")
    segments.append(current.close(store_normals))
    return segments, stats
