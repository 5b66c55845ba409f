#!/usr/bin/env python3
"""ultron benchmark: encode/decode round trips on fixed synthetic workloads.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; ultron is imported from ./src.
With --trace 0 the run prints every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. End-to-end timings are scaled to a
nominal host speed (see reference.py); the wall-clock ones are printed on a
comment line. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Spans of a
traced run are written to perfbench/out/. See perfbench/README.md.
"""

import os

# BLAS/OpenMP pools are pinned before numpy is first imported; 1 <= nproc.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
GAUGE_AFTER_SETUP = 5  # reference timings that scale one set-up sample


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("churn", "codec40k"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimal inputs, for the harness smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import ultron, then generate and serialize the inputs; timed.

    Returns the wall seconds and the same scaled to the nominal host, with
    the reference computation timed right after.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    w = workloads.WORKLOADS[args.workload]
    if args.smoke:
        w = workloads.smoke_variant(w)
    inputs = workloads.make_inputs(w, args.seed)
    wall = time.perf_counter() - start
    import reference
    factor = reference.scale([reference.time_once() for _ in range(GAUGE_AFTER_SETUP)])
    return workloads, w, inputs, (wall, wall * factor)


def setup_in_fresh_interpreter(args) -> tuple[float, float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    wall, scaled = done.stdout.split()[-2:]
    return float(wall), float(scaled)


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ultron" / "__init__.py").is_file():
        print(f"error: no ultron sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(*setup(args)[3])
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads, w, inputs, own_setup = setup(args)
    import reference
    import tracing
    setup_samples = [own_setup] + [setup_in_fresh_interpreter(args)
                                   for _ in range(SETUP_SAMPLES - 1)]

    deadline = time.perf_counter() + args.seconds
    tracer = tracing.Tracer()
    attempted = 0
    untraced, traced, problems = [], [], []
    first_blob = None
    # the run's bytes, decoded again between the frames of later encodes
    aside = None

    gauge = []  # reference timings of the run, taken between frames

    def between_frames():
        gauge.append(reference.time_once())
        if aside is None:
            return
        workloads.decode(w, aside, tracing.NullTracer())
        if aside.decoded_frames != w.synth.frames:
            raise RuntimeError(f"decoded {aside.decoded_frames} frames between "
                               f"encodes, expected {w.synth.frames}")

    while True:
        began = time.perf_counter()
        is_traced = bool(args.trace) and attempted % 2 == 1
        tracer.run = f"rt{attempted}"
        attempted += 1
        try:
            with tracing.patched(tracer) if is_traced else contextlib.nullcontext():
                trip_tracer = tracer if is_traced else tracing.NullTracer()
                rt = workloads.encode(w, inputs, trip_tracer,
                                      None if is_traced else between_frames)
                for _ in range(1 if is_traced else w.decode_repeats):
                    workloads.decode(w, rt, trip_tracer)
                if aside is not None and not is_traced:
                    rt.decode_s += aside.decode_s
                    aside.decode_s = []
            first_blob = first_blob or rt.blob
            found = workloads.check(w, rt, first_blob)
            if not found and aside is None and w.decode_between_frames:
                aside = workloads.RoundTrip(first_blob, [], None, 0.0, [])
        except Exception:
            traceback.print_exc()
            found = [f"{tracer.run} raised"]
        if found:
            problems += found
        elif is_traced:
            rt.drop_meshes()
            traced.append((tracer.run, rt))
        else:
            if untraced:
                rt.drop_meshes()
            untraced.append(rt)
        took = time.perf_counter() - began
        if attempted >= w.min_round_trips and time.perf_counter() + took > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = attempted - len(untraced) - len(traced)

    env = environment()
    print("# env " + json.dumps(env))
    metrics = {}
    if untraced and (traced or not args.trace):
        if args.trace:
            metrics = traced_metrics(tracing, w, tracer, traced, untraced, problems)
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                     "env": env})
            print(f"# spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end_metrics(w, inputs, untraced, setup_samples,
                                         reference.scale(gauge), peak_rss_mb)
        wanted = spec["per_layer" if args.trace else "end_to_end"]
        if sorted(metrics) != sorted(m["name"] for m in wanted):
            print("error: harness metrics disagree with BENCHMARK.json",
                  file=sys.stderr)
            return 3
    else:
        wanted = []
        problems.append("no round trip of the required kind succeeded")
    for p in problems:
        print(f"# FAILED {p}")
    print(f"# {args.workload}: error_rate {failed / attempted} ratio "
          f"(lower is better); {failed} failed of {attempted} round trips")
    result = {}
    for m in wanted:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"# {args.workload}: {m['name']} {metrics[m['name']]} {m['unit']} "
              f"({m['better']} is better)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


def timing_metrics(w, trips, factor: float) -> dict[str, float]:
    """Round-trip timings of the run, with wall seconds multiplied by factor."""
    import numpy

    frames = w.synth.frames
    gaps_ms = [g * factor * 1e3 for t in trips for g in t.frame_gaps_s]
    return {
        # all encode time of the run, so that drift within the run averages out
        "encode_fps": frames * len(trips) / (factor * sum(t.encode_s for t in trips)),
        "decode_fps": statistics.median(frames / (factor * d)
                                        for t in trips for d in t.decode_s),
        "frame_ms_p50": statistics.median(gaps_ms),
        "frame_ms_tail": float(numpy.percentile(gaps_ms, w.tail_percentile)),
    }


def end_to_end_metrics(w, inputs, trips, setup_samples, factor, peak_rss_mb):
    import ultron
    from ultron.cli import _geometry_psnr  # the definition `ultron eval` reports

    gaps = sum(len(t.frame_gaps_s) for t in trips)
    decodes = sum(len(t.decode_s) for t in trips)
    print(f"# frame_ms_tail is p{w.tail_percentile} of {gaps} per-frame samples "
          f"from {len(trips)} round trips; decode_fps is the median of "
          f"{decodes} decodes")
    wall = timing_metrics(w, trips, 1.0)
    wall["setup_s"] = statistics.median(wall_s for wall_s, _ in setup_samples)
    print("# wall-clock timings, not scaled to the nominal host: "
          + ", ".join(f"{k} {v}" for k, v in wall.items()))
    print(f"# host speed factor (nominal / measured reference time): {factor}")

    # rate and fidelity are the same for every round trip of a run (the
    # bytes are checked identical), so they are measured once, untimed
    rt = trips[0]
    decoded = [seg.frame_mesh(i) for seg in rt.decoded_segments
               for i in range(seg.frame_count)]
    vertex_frames = sum(m.vertex_count for m in decoded)
    originals = [ultron.parse_mesh(data, w.format) for data in inputs]
    psnr = statistics.fmean(_geometry_psnr(o, d) for o, d in zip(originals, decoded))
    return {
        **timing_metrics(w, trips, factor),
        "setup_s": statistics.median(scaled for _, scaled in setup_samples),
        "bits_per_vertex_frame": 8.0 * len(rt.blob) / vertex_frames,
        "geometry_psnr_db": psnr,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_metrics(tracing, w, tracer, traced, untraced, problems):
    """Per-layer metrics: medians over the traced round trips of the run."""
    spans_of = {}
    for s in tracer.spans:
        spans_of.setdefault(s.run, []).append(s)
    fired = {s.layer for run, _ in traced for s in spans_of[run]}
    missing = sorted(set(tracing.ALL_LAYERS) - fired)
    print(f"# layers without spans, reported as missing: {', '.join(missing) or 'none'}")
    for layer in tracing.working_layers(w.pipeline):
        if layer not in fired:
            problems.append(f"layer {layer} works on {w.name} but no span fired")

    per_trip = []
    for run, rt in traced:
        spans = spans_of[run]
        m = tracing.layer_metrics(spans, rt.stats)
        m["trace.self_sum_s"] = sum(tracing.self_times(spans).values())
        m["trace.spans"] = len(spans)
        m["trace.traced_round_trip_s"] = rt.encode_s + rt.decode_s[0]
        per_trip.append(m)
    out = {k: statistics.median(m[k] for m in per_trip) for k in per_trip[0]}
    frames = w.synth.frames
    untraced_fps = statistics.median(frames / t.encode_s for t in untraced)
    traced_fps = statistics.median(frames / t.encode_s for _, t in traced)
    out["trace.untraced_encode_fps"] = untraced_fps
    out["trace.encode_fps_delta"] = traced_fps - untraced_fps
    out["trace.untraced_round_trip_s"] = statistics.median(
        t.encode_s + t.decode_s[0] for t in untraced)
    out["trace.missing_layers"] = len(missing)
    return out


if __name__ == "__main__":
    sys.exit(main())
