"""Per-frame keyframe loop: track, register, assess, segment.

Frame 0 keys the first segment. Each later frame is matched against the
segment's latest accepted state, the key (at that state) is registered
onto the frame, and the deformation quality is assessed against the
original. Passing frames join the segment as new vertex positions on the
key's connectivity; failing frames (or solver divergence) start a new
segment keyed by the original frame, resetting motion state.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidMeshError
from .mesh import Mesh, closest_points, vertex_normals
from .registration import RegistrationConfig, register
from .tracking import (
    CorrespondenceSet,
    DescriptorConfig,
    MotionState,
    match_frames,
    update_motion_state,
)


@dataclass(frozen=True)
class QualityThresholds:
    """Acceptance gate for deformed frames.

    geometry_tol bounds the symmetric RMS point-to-surface distance as a
    fraction of the original frame's bbox diagonal; color_tol bounds the
    RMS per-vertex RGB distance over matched vertices.
    """

    geometry_tol: float = 0.002
    color_tol: float = 0.02

    def __post_init__(self):
        if self.geometry_tol < 0 or self.color_tol < 0:
            raise ValueError("tolerances must be nonnegative")


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
        normals = None
        if self.normal_frames is not None:
            normals = self.normal_frames[i]
        mesh = Mesh(
            vertices=self.frames[i],
            triangles=self.key.triangles,
            normals=normals,
            uvs=self.key.uvs,
            colors=self.key.colors,
        )
        if normals is None and recompute_normals:
            mesh = Mesh(
                vertices=self.frames[i],
                triangles=self.key.triangles,
                normals=vertex_normals(mesh),
                uvs=self.key.uvs,
                colors=self.key.colors,
            )
        return mesh


def symmetric_rms_distance(a: Mesh, b: Mesh) -> float:
    """Max of the two directed RMS point-to-surface distances."""
    _, d_ab, _ = closest_points(b, a.vertices)
    _, d_ba, _ = closest_points(a, b.vertices)
    rms_ab = float(np.sqrt(np.mean(d_ab * d_ab)))
    rms_ba = float(np.sqrt(np.mean(d_ba * d_ba)))
    return max(rms_ab, rms_ba)


def assess_quality(
    deformed: Mesh,
    original: Mesh,
    matches: CorrespondenceSet | None,
    thresholds: QualityThresholds,
) -> QualityReport:
    """Geometric (and, when colors exist, color) fidelity of a deformed
    frame relative to the original, normalized for the pass decision."""
    if deformed.triangle_count == 0 or original.triangle_count == 0:
        raise InvalidMeshError("meshes must be nonempty")
    diag = original.bounds().diagonal
    if diag <= 0:
        raise InvalidMeshError("original mesh has a degenerate bounding box")
    e_d = symmetric_rms_distance(deformed, original) / diag

    e_c = None
    if (
        deformed.colors is not None
        and original.colors is not None
        and matches is not None
        and len(matches)
    ):
        diff = (
            deformed.colors[matches.source_indices]
            - original.colors[matches.target_indices]
        )
        e_c = float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))

    passed = e_d <= thresholds.geometry_tol and (
        e_c is None or e_c <= thresholds.color_tol
    )
    return QualityReport(E_d_rms=e_d, E_c_rms=e_c, passed=passed)


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
    def __init__(self, key: Mesh, frame_id: int, store_normals: bool):
        self.key = key
        self.source = key  # latest accepted deformed state
        self.frames = [key.vertices]
        self.frame_ids = [frame_id]
        self.state = MotionState.rest(key.vertices)
        self.normals = [vertex_normals(key) if key.normals is None else key.normals] \
            if store_normals else None

    def accept(self, deformed: Mesh):
        self.frames.append(deformed.vertices)
        self.frame_ids.append(self.frame_ids[-1] + 1)
        if self.normals is not None:
            self.normals.append(vertex_normals(deformed))
        dense = CorrespondenceSet.identity(deformed.vertex_count)
        self.state = update_motion_state(self.state, dense, deformed, dt=1.0)
        self.source = deformed

    def close(self) -> Segment:
        return Segment(
            key=self.key,
            frames=np.stack(self.frames),
            frame_ids=tuple(self.frame_ids),
            normal_frames=np.stack(self.normals) if self.normals is not None else None,
        )


def _check_attribute_consistency(first: Mesh, frame: Mesh, index: int):
    for attr in ("uvs", "colors", "normals"):
        if (getattr(first, attr) is None) != (getattr(frame, attr) is None):
            raise InvalidMeshError(
                f"frame {index} {attr} presence differs from frame 0"
            )


def run_pipeline(
    frames,
    thresholds: QualityThresholds = QualityThresholds(),
    descriptor: DescriptorConfig = DescriptorConfig(),
    registration_cfg: RegistrationConfig = RegistrationConfig(),
    *,
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
    first_frame: Mesh | None = None

    for idx, frame in enumerate(frames):
        if frame.triangle_count == 0:
            raise InvalidMeshError(f"frame {idx} has no triangles")
        if first_frame is None:
            first_frame = frame
        else:
            _check_attribute_consistency(first_frame, frame, idx)

        if current is None:
            current = _OpenSegment(frame, idx, store_normals)
            stats.records.append(FrameRecord(idx, len(segments), True, None, None, 0))
            continue

        source_normals = None
        if descriptor.kind == "normal-gated":
            source_normals = vertex_normals(current.source)
        matches = match_frames(
            current.state, frame, descriptor, max_residual,
            source_normals=source_normals,
        )
        deformed, _field, report = register(
            current.source, frame, matches, registration_cfg
        )
        quality = assess_quality(deformed, frame, matches, thresholds)

        if quality.passed and not report.diverged:
            current.accept(deformed)
            stats.records.append(FrameRecord(
                idx, len(segments), False,
                quality.E_d_rms, quality.E_c_rms, report.iterations_used,
            ))
        else:
            segments.append(current.close())
            current = _OpenSegment(frame, idx, store_normals)
            stats.records.append(FrameRecord(
                idx, len(segments), True,
                quality.E_d_rms, quality.E_c_rms, report.iterations_used,
            ))

    if current is None:
        raise InvalidMeshError("pipeline needs at least one frame")
    segments.append(current.close())
    return segments, stats
