"""Command-line front end: encode, decode, eval and synth.

Exit codes: 0 success, 2 usage, 3 mesh/parse errors, 4 solver errors,
5 container errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from pathlib import Path

import numpy as np

from .codec import (
    QuantizationParams,
    container_frames,
    decode_container,
    encode_container,
)
from .errors import (
    ContainerError,
    InvalidMeshError,
    MeshParseError,
    SolverError,
    UltronError,
)
from .mesh import Mesh, load_mesh, save_mesh, serialize_mesh
from .pipeline import QualityThresholds, run_pipeline, symmetric_rms_distance
from .registration import RegistrationConfig
from .synth import MOTIONS, SHAPES, SynthConfig, generate_sequence
from .tracking import DescriptorConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_SOLVER = 4
EXIT_CONTAINER = 5


def resolve_inputs(inputs: list[str], manifest: str | None) -> list[Path]:
    """Input frames from an explicit list, a printf pattern, or a manifest."""
    if manifest:
        if inputs:
            raise MeshParseError("give either input paths or --manifest, not both")
        lines = Path(manifest).read_text().splitlines()
        paths = [Path(l.strip()) for l in lines if l.strip() and not l.startswith("#")]
    elif len(inputs) == 1 and "%" in inputs[0]:
        paths = []
        i = 0
        while True:
            p = Path(inputs[0] % i)
            if not p.exists():
                break
            paths.append(p)
            i += 1
    else:
        paths = [Path(p) for p in inputs]
    if not paths:
        raise MeshParseError("no input frames found")
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        raise MeshParseError(f"missing input file(s): {', '.join(missing[:5])}")
    return paths


def _load_frames(paths: list[Path]):
    for p in paths:
        yield load_mesh(p)


def _encode_configs(args):
    """The library configurations an `encode` command line asks for."""
    return (
        QualityThresholds(geometry_tol=args.geometry_tol, color_tol=args.color_tol),
        DescriptorConfig(
            kind=args.descriptor, normal_angle_limit=args.normal_angle_limit
        ),
        RegistrationConfig(
            alpha=args.alpha, beta=args.beta, gamma=args.gamma,
            outer_iterations=args.outer_iterations,
        ),
        QuantizationParams(qp=args.qp, qt=args.qt, qn=args.qn),
    )


def cmd_encode(args) -> int:
    paths = resolve_inputs(args.inputs, args.manifest)
    thresholds, descriptor, reg_cfg, qparams = _encode_configs(args)

    segments, stats = run_pipeline(
        _load_frames(paths),
        thresholds=thresholds,
        descriptor=descriptor,
        registration_cfg=reg_cfg,
        max_residual=args.max_residual,
        store_normals=args.store_normals,
    )
    data = encode_container(segments, qparams)

    out = Path(args.output)
    out.write_bytes(data)
    stats_path = Path(args.stats) if args.stats else out.with_suffix(
        out.suffix + ".stats.csv"
    )
    stats_path.write_text(stats.to_csv())
    print(
        f"encoded {len(paths)} frames into {len(segments)} segment(s), "
        f"{len(data)} bytes -> {out}"
    )
    return EXIT_OK


def _output_path(pattern: str, index: int, fmt: str) -> Path:
    ext = "obj" if fmt == "obj" else "ply"
    if "%" in pattern:
        return Path(pattern % index)
    p = Path(pattern)
    return p / f"frame_{index:06d}.{ext}"


def cmd_decode(args) -> int:
    data = Path(args.input).read_bytes()
    segments, flags = decode_container(data)
    out_pattern = args.output
    if "%" not in out_pattern:
        Path(out_pattern).mkdir(parents=True, exist_ok=True)
    written = []
    try:
        idx = 0
        for mesh in container_frames(segments, flags):
            path = _output_path(out_pattern, idx, args.format)
            path.write_bytes(serialize_mesh(mesh, args.format))
            written.append(path)
            idx += 1
    except Exception:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    print(f"decoded {len(written)} frame(s) from {args.input}")
    return EXIT_OK


def _geometry_psnr(original: Mesh, decoded: Mesh) -> float:
    rms = symmetric_rms_distance(original, decoded)
    peak = max(original.bounds().diagonal, decoded.bounds().diagonal)
    if rms == 0.0:
        return math.inf
    return 20.0 * math.log10(peak / rms)


def _color_rms(original: Mesh, decoded: Mesh) -> float | None:
    if original.colors is None or decoded.colors is None:
        return None
    if decoded.vertex_count == original.vertex_count:
        diff = decoded.colors - original.colors
    else:
        from scipy.spatial import cKDTree

        _, nearest = cKDTree(original.vertices).query(decoded.vertices)
        diff = decoded.colors - original.colors[nearest]
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def cmd_eval(args) -> int:
    orig_paths = resolve_inputs(args.original, args.original_manifest)
    orig_bytes = sum(p.stat().st_size for p in orig_paths)

    segment_count = ""
    keyframes = ""
    if len(args.decoded) == 1 and args.decoded[0].endswith(".ultn"):
        ultn = Path(args.decoded[0])
        data = ultn.read_bytes()
        segments, flags = decode_container(data)
        decoded = list(container_frames(segments, flags))
        comp_bytes = ultn.stat().st_size
        segment_count = str(len(segments))
        keyframes = ";".join(str(s.frame_ids[0]) for s in segments)
    else:
        dec_paths = resolve_inputs(args.decoded, None)
        decoded = [load_mesh(p) for p in dec_paths]
        comp_bytes = sum(p.stat().st_size for p in dec_paths)

    if len(decoded) != len(orig_paths):
        raise InvalidMeshError(
            f"frame count mismatch: {len(orig_paths)} original vs "
            f"{len(decoded)} decoded"
        )

    psnrs = []
    color_rms_values = []
    for path, dec in zip(orig_paths, decoded):
        orig = load_mesh(path)
        psnrs.append(_geometry_psnr(orig, dec))
        c = _color_rms(orig, dec)
        if c is not None:
            color_rms_values.append(c)

    mean_psnr = sum(psnrs) / len(psnrs)
    psnr_text = "inf" if math.isinf(mean_psnr) else f"{mean_psnr:.4f}"
    color_text = (
        f"{float(np.mean(color_rms_values)):.6f}" if color_rms_values else ""
    )
    ratio = orig_bytes / comp_bytes if comp_bytes else 0.0

    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([
        "original-bytes", "compressed-bytes", "ratio", "geometry-psnr-db",
        "color-rms", "segment-count", "keyframes",
    ])
    writer.writerow([
        orig_bytes, comp_bytes, f"{ratio:.4f}", psnr_text, color_text,
        segment_count, keyframes,
    ])
    text = out.getvalue()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = SynthConfig(
        shape=args.shape,
        frames=args.frames,
        motion=args.motion,
        amplitude=args.amplitude,
        resolution=args.resolution,
        remesh_every=args.remesh_every,
        seed=args.seed,
        colors=args.colors,
    )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "obj" if args.format == "obj" else "ply"
    truth_rows = []
    for i, (mesh, vel, acc) in enumerate(generate_sequence(cfg)):
        save_mesh(mesh, out_dir / f"frame_{i:04d}.{ext}", args.format)
        for v in range(mesh.vertex_count):
            truth_rows.append((
                i, v, *mesh.vertices[v], *vel[v], *acc[v],
            ))
    with open(out_dir / "ground_truth.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "frame", "vertex", "px", "py", "pz",
            "vx", "vy", "vz", "ax", "ay", "az",
        ])
        for row in truth_rows:
            writer.writerow([row[0], row[1]] + [repr(float(x)) for x in row[2:]])
    print(f"wrote {cfg.frames} frame(s) to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultron",
        description="Temporal compression for triangle-mesh sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compress a mesh sequence to .ultn")
    enc.add_argument("inputs", nargs="*", help="frame files or a %%d pattern")
    enc.add_argument("--manifest", help="file listing one frame path per line")
    enc.add_argument("--output", required=True, help="output .ultn path")
    enc.add_argument("--stats", help="stats CSV path (default <output>.stats.csv)")
    # defaults come from the library's own configurations
    q, gate, reg, desc = (QuantizationParams(), QualityThresholds(),
                          RegistrationConfig(), DescriptorConfig())
    enc.add_argument("--qp", type=int, default=q.qp, help="position bits")
    enc.add_argument("--qt", type=int, default=q.qt, help="uv bits")
    enc.add_argument("--qn", type=int, default=q.qn, help="normal bits")
    enc.add_argument("--geometry-tol", type=float, default=gate.geometry_tol)
    enc.add_argument("--color-tol", type=float, default=gate.color_tol)
    enc.add_argument("--alpha", type=float, default=reg.alpha)
    enc.add_argument("--beta", type=float, default=reg.beta)
    enc.add_argument("--gamma", type=float, default=reg.gamma)
    enc.add_argument("--outer-iterations", type=int, default=reg.outer_iterations)
    enc.add_argument(
        "--descriptor", choices=("identity", "normal-gated"), default=desc.kind
    )
    enc.add_argument("--normal-angle-limit", type=float,
                     default=desc.normal_angle_limit)
    enc.add_argument("--max-residual", type=float, default=None)
    enc.add_argument("--store-normals", action="store_true",
                     help="store per-frame normals instead of recomputing")
    enc.set_defaults(func=cmd_encode)

    dec = sub.add_parser("decode", help="decode .ultn into mesh files")
    dec.add_argument("input", help=".ultn file")
    dec.add_argument("--output", required=True,
                     help="output directory or printf pattern")
    dec.add_argument(
        "--format", choices=("obj", "ply", "ply-binary"), default="obj"
    )
    dec.set_defaults(func=cmd_decode)

    ev = sub.add_parser("eval", help="fidelity and rate report")
    ev.add_argument("--original", nargs="+", required=True)
    ev.add_argument("--original-manifest", default=None)
    ev.add_argument("--decoded", nargs="+", required=True,
                    help="decoded frames or a .ultn file")
    ev.add_argument("--output", help="CSV output path (default stdout)")
    ev.set_defaults(func=cmd_eval)

    syn = sub.add_parser("synth", help="generate a synthetic sequence")
    synth_cfg = SynthConfig()
    syn.add_argument("shape", choices=SHAPES)
    syn.add_argument("--frames", type=int, default=synth_cfg.frames)
    syn.add_argument("--motion", choices=MOTIONS, default=synth_cfg.motion)
    syn.add_argument("--amplitude", type=float, default=synth_cfg.amplitude)
    syn.add_argument("--resolution", type=int, default=synth_cfg.resolution)
    syn.add_argument("--remesh-every", type=int, default=synth_cfg.remesh_every)
    syn.add_argument("--seed", type=int, default=synth_cfg.seed)
    syn.add_argument("--colors", action="store_true")
    syn.add_argument(
        "--format", choices=("obj", "ply", "ply-binary"), default="obj"
    )
    syn.add_argument("--output-dir", required=True)
    syn.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # normalize cli format names to internal ones ("ply" means ascii)
    if getattr(args, "format", None) == "ply":
        args.format = "ply-ascii"

    try:
        return args.func(args)
    except (UltronError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SolverError):
            return EXIT_SOLVER
        if isinstance(exc, ContainerError):
            return EXIT_CONTAINER
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
