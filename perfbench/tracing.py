"""In-memory spans around ultron's layer entry points, for the traced run.

The benchmark never edits ultron. In a traced round trip it replaces module
attributes that one layer uses to call the next (for example
``ultron.pipeline.register``) with wrappers that record a span, and puts
the originals back afterwards. Spans stay in memory and are written out
when the run ends. A layer's self time is its spans' durations minus the
parts covered by their direct children.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import ultron.codec.connectivity
import ultron.codec.container
import ultron.codec.segments
import ultron.mesh.closest
import ultron.pipeline
import ultron.registration


@dataclass
class Span:
    id: int
    name: str  # "<layer>:<operation>"
    parent: int | None
    run: str
    start: int  # perf_counter_ns
    end: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


class Tracer:
    """Collects nested spans for one process; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.run = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.run, time.perf_counter_ns())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(s, args, result)
                return result
        return traced

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for s in self.spans:
                out.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "run": s.run, "start_ns": s.start, "end_ns": s.end,
                    **s.attrs,
                }) + "\n")


class NullTracer:
    """Stand-in for untraced round trips: a span costs one call."""

    def span(self, name: str):
        return contextlib.nullcontext()


# --- what each wrapper counts -------------------------------------------------

def _count_matches(span, args, matches):
    span.attrs["matches"] = len(matches)
    span.attrs["sources"] = len(args[0])


def _registration_report(span, args, result):
    report = result[2]
    span.attrs["iterations"] = report.iterations_used
    span.attrs["converged"] = bool(report.converged)
    span.attrs["diverged"] = bool(report.diverged)


def _count_points(span, args, result):
    span.attrs["points"] = len(result[1])


def _count_connectivity(span, args, blob):
    source = args[0]
    tris = source.triangle_count if hasattr(source, "triangle_count") else len(source)
    span.attrs["bytes"] = len(blob)
    span.attrs["triangles"] = int(tris)


def _count_encoded_block(span, args, blob):
    span.attrs["symbols"] = len(args[0])
    span.attrs["bytes"] = len(blob)


def _count_decoded_block(span, args, result):
    span.attrs["symbols"] = len(result[0])


def _cg_with_counter(tracer: Tracer, cg):
    def traced_cg(*args, **kwargs):
        with tracer.span("registration:cg") as s:
            s.attrs["iterations"] = 0
            user_callback = kwargs.pop("callback", None)

            def count(xk):
                s.attrs["iterations"] += 1
                if user_callback is not None:
                    user_callback(xk)

            return cg(*args, callback=count, **kwargs)
    return traced_cg


def _bvh_build(tracer: Tracer, cls):
    def traced_build(*args, **kwargs):
        with tracer.span("mesh.closest:bvh_build"):
            return cls(*args, **kwargs)
    return traced_build


# (module, attribute, span name, observer); the attribute is the name through
# which the calling layer reaches the callee, so patching it traces exactly
# the calls ultron makes.
_PATCHES = (
    (ultron.pipeline, "match_frames", "tracking:match", _count_matches),
    (ultron.pipeline, "register", "registration:register", _registration_report),
    (ultron.pipeline, "assess_quality", "pipeline:assess", None),
    (ultron.pipeline, "closest_points", "mesh.closest:query", _count_points),
    (ultron.registration, "closest_points", "mesh.closest:query", _count_points),
    (ultron.codec.container, "encode_segment", "codec.segments:encode", None),
    (ultron.codec.container, "decode_segment", "codec.segments:decode", None),
    (ultron.codec.segments, "build_corner_table", "mesh.corner_table:build", None),
    (ultron.codec.segments, "encode_connectivity", "codec.connectivity:encode",
     _count_connectivity),
    (ultron.codec.segments, "decode_connectivity", "codec.connectivity:decode", None),
    (ultron.codec.segments, "quantize_array", "codec.quantization:quantize", None),
    (ultron.codec.segments, "dequantize_array", "codec.quantization:dequantize", None),
    (ultron.codec.segments, "encode_block", "codec.rans:encode", _count_encoded_block),
    (ultron.codec.segments, "decode_block", "codec.rans:decode", _count_decoded_block),
    (ultron.codec.connectivity, "encode_block", "codec.rans:encode",
     _count_encoded_block),
    (ultron.codec.connectivity, "decode_block", "codec.rans:decode",
     _count_decoded_block),
)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route ultron's inter-layer calls through the tracer, then restore."""
    saved = []
    try:
        for module, attr, name, observe in _PATCHES:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, observe))
        saved.append((ultron.registration, "cg", ultron.registration.cg))
        ultron.registration.cg = _cg_with_counter(tracer, ultron.registration.cg)
        saved.append((ultron.mesh.closest, "TriangleBvh", ultron.mesh.closest.TriangleBvh))
        ultron.mesh.closest.TriangleBvh = _bvh_build(tracer, ultron.mesh.closest.TriangleBvh)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# --- per-layer metrics from one traced round trip ------------------------------

PIPELINE_LAYERS = ("tracking", "registration", "mesh.closest", "pipeline")
CODEC_LAYERS = ("mesh.io", "mesh.corner_table", "codec.connectivity", "codec.rans",
                "codec.quantization", "codec.segments", "codec.container")
ALL_LAYERS = PIPELINE_LAYERS + CODEC_LAYERS


def working_layers(pipeline: bool) -> tuple[str, ...]:
    """Layers that must fire on a workload: the codec ones always, the
    pipeline ones unless the workload bypasses the pipeline."""
    return ALL_LAYERS if pipeline else CODEC_LAYERS


# spans whose metrics are reported per calling layer
_SPLIT_BY_PARENT = ("mesh.closest:query", "codec.rans:encode", "codec.rans:decode")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.seconds
    return own


def layer_metrics(spans: list[Span], pipeline_stats) -> dict[str, float]:
    """Per-layer counts and self times of one traced round trip.

    pipeline_stats is the PipelineStats run_pipeline returned, or None when
    the workload bypasses the pipeline.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    sums: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    attr: dict[str, float] = defaultdict(float)

    for s in spans:
        key = s.name
        if s.name in _SPLIT_BY_PARENT and s.parent in by_id:
            key = f"{s.name}@{by_id[s.parent].layer}"
        sums[key] += own[s.id]
        counts[key] += 1
        for k, v in s.attrs.items():
            attr[f"{key}.{k}"] += float(v)

    def ratio(num, den):
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["mesh.io.parse_s"] = sums["mesh.io:parse"]
    m["mesh.io.serialize_s"] = sums["mesh.io:serialize"]

    m["tracking.match_s"] = sums["tracking:match"]
    m["tracking.match_ratio"] = ratio(attr["tracking:match.matches"],
                                      attr["tracking:match.sources"])

    calls = counts["registration:register"]
    m["registration.register_self_s"] = sums["registration:register"]
    m["registration.calls"] = calls
    m["registration.outer_iters_mean"] = ratio(
        attr["registration:register.iterations"], calls)
    m["registration.converged_ratio"] = ratio(
        attr["registration:register.converged"], calls)
    m["registration.diverged_ratio"] = ratio(
        attr["registration:register.diverged"], calls)
    m["registration.cg_s"] = sums["registration:cg"]
    m["registration.cg_calls"] = counts["registration:cg"]
    m["registration.cg_iters"] = attr["registration:cg.iterations"]

    # assess_quality runs inside the pipeline layer, so its queries are the
    # ones whose parent layer is "pipeline"
    query_calls = 0
    points = 0.0
    for parent, label in (("registration", "registration"), ("pipeline", "assess")):
        key = f"mesh.closest:query@{parent}"
        m[f"mesh.closest.{label}_query_s"] = sums[key]
        m[f"mesh.closest.{label}_calls"] = counts[key]
        query_calls += counts[key]
        points += attr[f"{key}.points"]
    m["mesh.closest.points"] = points
    m["mesh.closest.bvh_build_s"] = sums["mesh.closest:bvh_build"]
    m["mesh.closest.bvh_builds"] = counts["mesh.closest:bvh_build"]
    m["mesh.closest.bvh_hit_ratio"] = ratio(
        query_calls - counts["mesh.closest:bvh_build"], query_calls)

    m["pipeline.assess_s"] = sums["pipeline:assess"]
    m["pipeline.self_s"] = sums["pipeline:run"]
    if pipeline_stats is not None:
        records = pipeline_stats.records
        keyframes = len(pipeline_stats.keyframes)
        m["pipeline.accept_ratio"] = ratio(len(records) - keyframes, len(records) - 1)
        m["pipeline.keyframes"] = keyframes
        m["pipeline.segment_frames_mean"] = ratio(len(records), keyframes)
    else:
        m["pipeline.accept_ratio"] = 0.0
        m["pipeline.keyframes"] = 0
        m["pipeline.segment_frames_mean"] = 0.0

    m["mesh.corner_table.build_s"] = sums["mesh.corner_table:build"]

    m["codec.connectivity.encode_s"] = sums["codec.connectivity:encode"]
    m["codec.connectivity.decode_s"] = sums["codec.connectivity:decode"]
    m["codec.connectivity.bytes"] = attr["codec.connectivity:encode.bytes"]
    m["codec.connectivity.bits_per_triangle"] = ratio(
        8.0 * attr["codec.connectivity:encode.bytes"],
        attr["codec.connectivity:encode.triangles"])

    for label in ("segments", "connectivity"):
        enc = f"codec.rans:encode@codec.{label}"
        m[f"codec.rans.{label}_encode_s"] = sums[enc]
        m[f"codec.rans.{label}_decode_s"] = sums[f"codec.rans:decode@codec.{label}"]
        m[f"codec.rans.{label}_blocks"] = counts[enc]
        m[f"codec.rans.{label}_symbols"] = attr[f"{enc}.symbols"]
        m[f"codec.rans.{label}_bits_per_symbol"] = ratio(
            8.0 * attr[f"{enc}.bytes"], attr[f"{enc}.symbols"])

    m["codec.quantization.quantize_s"] = sums["codec.quantization:quantize"]
    m["codec.quantization.dequantize_s"] = sums["codec.quantization:dequantize"]
    m["codec.segments.encode_self_s"] = sums["codec.segments:encode"]
    m["codec.segments.decode_self_s"] = sums["codec.segments:decode"]
    m["codec.container.encode_self_s"] = sums["codec.container:encode"]
    m["codec.container.decode_self_s"] = sums["codec.container:decode"]
    return m
