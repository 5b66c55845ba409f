"""Benchmark workloads: seeded inputs and one encode/decode round trip.

Each workload is a synthetic sphere sequence from ``ultron.synth``, moved
by a rigid motion drawn from the benchmark seed and serialized in the
workload's file format. ultron sees only those bytes. Why each workload
exists is in README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

import ultron
from ultron.codec import QuantizationParams, container_frames, half_step, widen_to_f32
from ultron.mesh import Aabb, vertex_normals
from ultron.synth import SynthConfig, synth_frames


@dataclass(frozen=True)
class Workload:
    name: str
    synth: SynthConfig
    format: str
    pipeline: bool  # False: build one Segment directly, bypassing tracking/registration
    stored_normals: bool
    min_round_trips: int  # also fixes the tail percentile, see tail_percentile
    decode_repeats: int  # decodes right after each encode, so short decodes still give steady timings
    # also decode the run's bytes (the same for every round trip) at every
    # frame pull, so that decode samples spread over the whole run instead of
    # bunching after each long encode
    decode_between_frames: bool

    @property
    def tail_percentile(self) -> int:
        """Highest whole percentile with at least ten samples beyond it at
        the minimum sample count; fixed per workload so that runs that
        manage more round trips still report the same statistic."""
        samples = self.min_round_trips * self.synth.frames
        return max(50, int(100 * (1 - 10 / samples)))


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "churn",
            # the remesh tessellations are fixed (synth seed 5) so that the
            # keyframe pattern, and with it the rate, does not depend on the
            # benchmark seed
            SynthConfig(shape="sphere", frames=12, motion="bend", amplitude=0.4,
                        resolution=3, remesh_every=5, colors=True, seed=5),
            "obj", pipeline=True, stored_normals=False,
            min_round_trips=2, decode_repeats=3, decode_between_frames=True,
        ),
        Workload(
            "codec40k",
            SynthConfig(shape="sphere", frames=4, motion="bend", amplitude=0.4,
                        resolution=6, colors=True),
            "ply-binary", pipeline=False, stored_normals=True,
            min_round_trips=6, decode_repeats=2, decode_between_frames=False,
        ),
    )
}

# minimal sizes for the harness smoke test
SMOKE = {
    "churn": dict(frames=6),
    "codec40k": dict(frames=2, resolution=2),
}


def smoke_variant(w: Workload) -> Workload:
    return replace(w, synth=replace(w.synth, **SMOKE[w.name]),
                   min_round_trips=2, decode_repeats=1)


def _placement(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seeded rigid motion: one of the 24 rotations that map the coordinate
    axes onto each other, and an offset. Every coordinate ultron reads
    changes with the seed, while bounding boxes stay axis-aligned, so the
    quantization grid, the rate and the work per frame do not."""
    rng = np.random.default_rng(seed)
    rot = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=3)
    if np.linalg.det(rot) < 0:
        rot[2] = -rot[2]
    return rot, rng.uniform(-1.0, 1.0, size=3)


def make_inputs(w: Workload, seed: int) -> list[bytes]:
    """The workload's frames as serialized files; same seed, same bytes."""
    rot, offset = _placement(seed)
    out = []
    for mesh in synth_frames(w.synth):
        mesh = mesh.with_vertices(mesh.vertices @ rot.T + offset)
        if w.stored_normals:
            mesh = ultron.Mesh(vertices=mesh.vertices, triangles=mesh.triangles,
                               normals=vertex_normals(mesh), colors=mesh.colors)
        out.append(ultron.serialize_mesh(mesh, w.format))
    return out


@dataclass
class RoundTrip:
    blob: bytes
    segments: list
    stats: object  # PipelineStats, or None when the pipeline is bypassed
    encode_s: float
    frame_gaps_s: list[float]
    decode_s: list[float] = field(default_factory=list)
    decoded_segments: list = field(default_factory=list)  # of the last decode
    decoded_frames: int = 0

    def drop_meshes(self):
        """Free the frame arrays once checked; a run keeps one round trip's."""
        self.segments = self.decoded_segments = []


def encode(w: Workload, inputs: list[bytes], tracer, between=None) -> RoundTrip:
    """Parse, then run_pipeline (or build the Segment), then encode_container.

    Per-frame latency is the gap between successive pulls of the frame
    iterator handed to the encoder, taken from outside. If given, between()
    runs at each pull before the frame is parsed; its time is taken out of
    the gaps and of encode_s.
    """
    pulled, resumed = [], []

    def frames():
        for data in inputs:
            pulled.append(time.perf_counter())
            if between is not None:
                between()
            resumed.append(time.perf_counter())
            with tracer.span("mesh.io:parse"):
                mesh = ultron.parse_mesh(data, w.format)
            yield mesh
        pulled.append(time.perf_counter())

    start = time.perf_counter()
    stats = None
    if w.pipeline:
        with tracer.span("pipeline:run"):
            segments, stats = ultron.run_pipeline(frames())
    else:
        meshes = list(frames())
        normals = np.stack([m.normals for m in meshes]) if w.stored_normals else None
        segments = [ultron.Segment(
            key=meshes[0], frames=np.stack([m.vertices for m in meshes]),
            frame_ids=range(len(meshes)), normal_frames=normals,
        )]
    with tracer.span("codec.container:encode"):
        blob = ultron.encode_container(segments)
    aside = sum(r - p for p, r in zip(pulled, resumed))
    encode_s = time.perf_counter() - start - aside
    gaps = [p - r for r, p in zip(resumed, pulled[1:])]
    return RoundTrip(blob, segments, stats, encode_s, gaps)


def decode(w: Workload, rt: RoundTrip, tracer) -> None:
    """decode_container, container_frames, serialize_mesh; all in memory."""
    start = time.perf_counter()
    with tracer.span("codec.container:decode"):
        segments, flags = ultron.decode_container(rt.blob)
        meshes = list(container_frames(segments, flags))
    files = []
    for mesh in meshes:
        with tracer.span("mesh.io:serialize"):
            files.append(ultron.serialize_mesh(mesh, w.format))
    rt.decode_s.append(time.perf_counter() - start)
    rt.decoded_segments = segments
    rt.decoded_frames = len(files)


def check(w: Workload, rt: RoundTrip, first_blob: bytes) -> list[str]:
    """Round-trip correctness gate; returns the failures found."""
    problems = []
    if rt.decoded_frames != w.synth.frames:
        problems.append(f"decoded {rt.decoded_frames} frames, expected {w.synth.frames}")
    if rt.blob != first_blob:
        problems.append("container bytes differ from the run's first encode")
    decoded = rt.decoded_segments
    if len(decoded) != len(rt.segments):
        problems.append(f"decoded {len(decoded)} segments, encoded {len(rt.segments)}")
        return problems
    qp = QuantizationParams().qp
    for i, (seg, dec) in enumerate(zip(rt.segments, decoded)):
        if dec.frames.shape != seg.frames.shape:
            problems.append(f"segment {i}: frame array shape {dec.frames.shape}")
            continue
        # acceptance criterion 2: within half a lattice step of the input
        grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
        slack = half_step(grid, qp) + 1e-12 * np.maximum(grid.extent, 1.0)
        worst = np.abs(dec.frames - seg.frames) - slack
        if np.any(worst > 0):
            problems.append(f"segment {i}: position error beyond half a step")
    return problems
