"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from conftest import canonical_triangles
from ultron.mesh import Aabb, Mesh, save_mesh
from ultron.pipeline import (
    QualityThresholds,
    Segment,
    run_pipeline,
    surface_errors,
)
from ultron.registration import RegistrationConfig, register
from ultron.codec import (
    QuantizationParams,
    decode_container,
    encode_block,
    encode_container,
    quantize_array,
    widen_to_f32,
)
from ultron.codec.rans import PROB_TOTAL, decode_blocks, read_block
from ultron.codec.segments import MODE_EDGEBREAKER, _HEADER as _SEG_HEADER
from ultron.synth import (
    SynthConfig,
    make_cylinder,
    make_icosphere,
    make_slab,
    synth_frames,
)
from ultron.tracking import CorrespondenceSet, match_frames


def _verdict(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {state} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _random_segment(rng, shapes):
    mesh = shapes[int(rng.integers(0, len(shapes)))]
    if rng.random() < 0.15:
        # vertex soup: non-manifold, forces the raw connectivity mode
        verts = rng.normal(size=(max(12, mesh.vertex_count // 4), 3))
        cand = rng.integers(0, len(verts), (len(verts) * 2, 3))
        ok = (
            (cand[:, 0] != cand[:, 1])
            & (cand[:, 1] != cand[:, 2])
            & (cand[:, 0] != cand[:, 2])
        )
        mesh = Mesh(vertices=verts, triangles=cand[ok])
    n = mesh.vertex_count
    n_frames = int(rng.integers(1, 11))
    velocity = rng.normal(scale=0.004, size=(n, 3))
    frames = np.stack([mesh.vertices + velocity * k for k in range(n_frames)])
    with_attrs = rng.random() < 0.5
    key = Mesh(
        vertices=frames[0],
        triangles=mesh.triangles,
        colors=rng.random((n, 3)) if with_attrs else None,
        uvs=rng.random((n, 2)) if with_attrs else None,
    )
    return Segment(key=key, frames=frames, frame_ids=tuple(range(n_frames)))


@pytest.fixture(scope="module")
def random_segment_suite():
    rng = np.random.default_rng(2024)
    shapes = [
        make_icosphere(1), make_icosphere(2), make_icosphere(3),
        make_cylinder(16, 12), make_cylinder(24, 18), make_slab(20, 12),
        make_cylinder(50, 40),  # 2000 vertices
    ]
    start = time.time()
    suite = []
    for _ in range(100):
        seg = _random_segment(rng, shapes)
        blob = encode_container([seg], QuantizationParams())
        decoded, _flags = decode_container(blob)
        suite.append((seg, decoded[0], blob))
    return suite, time.time() - start


def test_criterion_1_lossless_plumbing(random_segment_suite):
    suite, build_seconds = random_segment_suite
    start = time.time()
    qp = QuantizationParams()
    for seg, dec, blob in suite:
        grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
        for k in range(seg.frame_count):
            q_orig = quantize_array(seg.frames[k], grid.min, grid.max, qp.qp)
            q_back = quantize_array(dec.frames[k], grid.min, grid.max, qp.qp)
            assert np.array_equal(q_orig, q_back), "quantized indices differ"
        # connectivity-mode is the segment header's last byte
        (mode,) = struct.unpack_from("<B", blob, 12 + _SEG_HEADER.size - 1)
        if mode == MODE_EDGEBREAKER:
            assert np.array_equal(
                canonical_triangles(dec.key.triangles),
                canonical_triangles(seg.key.triangles),
            ), "edgebreaker connectivity not isomorphic"
        else:
            assert np.array_equal(dec.key.triangles, seg.key.triangles), \
                "raw connectivity not bit-exact"
    elapsed = build_seconds + (time.time() - start)
    _verdict(1, "lossless plumbing", elapsed < 60.0,
             f"(100 segments coded and verified in {elapsed:.1f}s)")


def test_criterion_2_quantization_bound(random_segment_suite):
    suite, _build = random_segment_suite
    qp = QuantizationParams()
    violations = 0
    worst = 0.0
    for seg, dec, _blob in suite:
        grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
        bound = grid.extent / (2.0 * ((1 << qp.qp) - 1))
        err = np.abs(dec.frames - seg.frames)
        slack = bound + 1e-12 * np.maximum(grid.extent, 1.0)
        violations += int(np.sum(err > slack))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.where(bound > 0, err / np.where(bound > 0, bound, 1), 0.0)
        worst = max(worst, float(ratio.max()))
    _verdict(2, "quantization bound", violations == 0,
             f"(worst error = {worst:.6f} of the half-step bound)")


def _quantization_probe_mesh(n=40, D=1.0, h=0.1):
    """Two gently tilted sheets normal to x, plus anchors pinning the grid
    to [0, D]: per-axis quantization noise maps into surface distance with
    an (almost) exactly uniform distribution."""
    step = D / 1023.0
    eps_y = 3.7 * step / h
    eps_z = 2.3 * step / h
    verts = []
    tris = []
    for x0 in (0.3137 * D, 0.7219 * D):
        base = len(verts)
        ys = np.linspace(0.004 * h, 0.996 * h, n)
        zs = np.linspace(0.004 * h, 0.996 * h, n)
        for z in zs:
            for y in ys:
                verts.append([x0 + eps_y * y + eps_z * z, y, z])
        for j in range(n - 1):
            for i in range(n - 1):
                a = base + j * n + i
                c = base + (j + 1) * n + i
                tris += [[a, a + 1, c + 1], [a, c + 1, c]]
    for x_anchor in (0.0, D):
        base = len(verts)
        verts += [
            [x_anchor, 0.45 * h, 0.45 * h],
            [x_anchor, 0.55 * h, 0.45 * h],
            [x_anchor, 0.45 * h, 0.55 * h],
        ]
        tris.append([base, base + 1, base + 2])
    return Mesh(vertices=np.asarray(verts), triangles=np.asarray(tris))


def test_criterion_3_quality_metric_sanity():
    mesh = _quantization_probe_mesh()
    seg = Segment(
        key=mesh, frames=np.stack([mesh.vertices] * 3), frame_ids=(0, 1, 2)
    )
    blob = encode_container([seg], QuantizationParams())
    decoded, _ = decode_container(blob)
    psnrs = []
    for k in range(3):
        dec = decoded[0].frame_mesh(k)
        rms = surface_errors(dec, mesh)[0]
        peak = max(mesh.bounds().diagonal, dec.bounds().diagonal)
        psnrs.append(20.0 * math.log10(peak / rms))
    mean_psnr = float(np.mean(psnrs))
    ok = 70.0 <= mean_psnr <= 72.0
    _verdict(3, "quality-metric sanity", ok,
             f"(mean PSNR {mean_psnr:.2f} dB, model band 71.0 +/- 1.0)")


def _per_frame_baseline(frames, qparams):
    """The same coder applied to every frame independently."""
    singles = []
    for i, mesh in enumerate(frames):
        singles.append(Segment(
            key=mesh, frames=np.stack([mesh.vertices]), frame_ids=(i,),
        ))
    total = 12  # shared container header
    for seg in singles:
        blob = encode_container([Segment(
            key=seg.key, frames=seg.frames, frame_ids=(0,),
        )], qparams)
        total += len(blob) - 12
    return total


def test_criterion_4_temporal_gain():
    start = time.time()
    qparams = QuantizationParams()

    smooth = synth_frames(SynthConfig(
        shape="sphere", frames=60, motion="translate", amplitude=0.12,
        resolution=3,
    ))
    segments, stats = run_pipeline(smooth)
    with_t = len(encode_container(segments, qparams))
    without_t = _per_frame_baseline(smooth, qparams)
    gain_ok = with_t < 0.5 * without_t
    assert len(segments) == 1, f"expected one segment, got {len(segments)}"

    remeshed = synth_frames(SynthConfig(
        shape="sphere", frames=60, motion="translate", amplitude=0.12,
        resolution=3, remesh_every=10, seed=5,
    ))
    segments_r, _ = run_pipeline(remeshed)
    with_t_r = len(encode_container(segments_r, qparams))
    without_t_r = _per_frame_baseline(remeshed, qparams)
    degrade_ok = with_t_r <= 1.05 * without_t_r
    elapsed = time.time() - start
    _verdict(
        4, "temporal gain", gain_ok and degrade_ok and elapsed < 300.0,
        f"(smooth {with_t}/{without_t}={with_t/without_t:.2f}x, remesh "
        f"{with_t_r}/{without_t_r}={with_t_r/without_t_r:.2f}x, {elapsed:.0f}s)",
    )


def test_criterion_5_registration_correctness(rng):
    # translation recovery at the module example's stated weights
    sphere = make_icosphere(3)
    shift = np.array([0.1, 0.0, 0.0])
    target = Mesh(vertices=sphere.vertices + shift, triangles=sphere.triangles)
    anchors = rng.choice(sphere.vertex_count, 20, replace=False)
    matches = CorrespondenceSet(anchors, anchors, np.zeros(20))
    cfg = RegistrationConfig(alpha=10.0, beta=1.0, gamma=1.0,
                             outer_iterations=30)
    deformed, _f, rep = register(sphere, target, matches, cfg)
    diag = target.bounds().diagonal
    t_err = np.abs(deformed.vertices - target.vertices).max() / diag
    translate_ok = t_err <= 1e-3 and rep.iterations_used <= 30

    # bend recovery with dense exact matches
    cyl = make_cylinder(48, 36)
    height = cyl.vertices[:, 2].max()
    bent = cyl.vertices.copy()
    bent[:, 0] += 0.05 * height * np.sin(np.pi * cyl.vertices[:, 2] / height)
    btarget = Mesh(vertices=bent, triangles=cyl.triangles)
    bcfg = RegistrationConfig(alpha=0.05, beta=1.0, gamma=1.0,
                              beta_decay=0.9, outer_iterations=30)
    bdeformed, _bf, brep = register(
        cyl, btarget, CorrespondenceSet.identity(cyl.vertex_count), bcfg
    )
    b_err = np.abs(bdeformed.vertices - btarget.vertices).max() \
        / btarget.bounds().diagonal
    bend_ok = b_err <= 1e-3 and brep.iterations_used <= 30

    # analytic gradient vs central differences, 20 random instances
    from test_registration import random_quadratic

    grad_ok = True
    worst_rel = 0.0
    for _ in range(20):
        quad, *_ = random_quadratic(rng)
        x = rng.normal(size=quad.b.shape)
        g = quad.gradient(x)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in np.ndindex(x.shape):
            xp = x.copy()
            xm = x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (quad.value(xp) - quad.value(xm)) / (2 * h)
        rel = float(np.max(np.abs(g - fd) / np.maximum(np.abs(g) + np.abs(fd), 1.0)))
        worst_rel = max(worst_rel, rel)
        grad_ok &= rel <= 1e-5
    _verdict(
        5, "registration correctness",
        translate_ok and bend_ok and grad_ok,
        f"(translate {t_err:.2e}, bend {b_err:.2e} of diagonal; "
        f"gradient worst rel {worst_rel:.2e})",
    )


def test_criterion_6_tracking_oracle(rng):
    agree = total = 0
    for _ in range(50):
        gx, gy = np.meshgrid(np.arange(10), np.arange(5))
        base = np.stack([gx.ravel(), gy.ravel(), np.zeros(50)], axis=1)
        base = base.astype(np.float64)
        # separation 1.0 on the grid; perturbation < 0.25 each side
        target_pts = base + rng.uniform(-0.2, 0.2, size=(50, 3))
        perm = rng.permutation(50)
        target_pts = target_pts[perm]
        target = Mesh(vertices=target_pts, triangles=[[0, 1, 2]])
        matches = match_frames(base, target, max_residual=np.inf)
        cost = np.linalg.norm(base[:, None, :] - target_pts[None, :, :], axis=2)
        ri, ci = linear_sum_assignment(cost)
        optimal = dict(zip(ri, ci))
        total += len(matches)
        agree += sum(
            1 for s, t in zip(matches.source_indices, matches.target_indices)
            if optimal[s] == t
        )
    rate = agree / total
    _verdict(6, "tracking oracle", rate >= 0.95,
             f"(mutual-NN agrees with optimal assignment on {rate:.1%})")


def test_criterion_7_segmentation_behavior():
    fast = RegistrationConfig(outer_iterations=10)

    moving = synth_frames(SynthConfig(
        shape="sphere", frames=5, motion="translate", amplitude=0.05,
        resolution=2,
    ))
    segs_zero, _ = run_pipeline(
        moving, QualityThresholds(geometry_tol=0.0, color_tol=0.0),
        registration_cfg=fast,
    )
    zero_ok = len(segs_zero) == 5

    static = synth_frames(SynthConfig(
        shape="sphere", frames=6, motion="translate", amplitude=0.0,
        resolution=2,
    ))
    segs_static, _ = run_pipeline(static, registration_cfg=fast)
    static_ok = len(segs_static) == 1

    remeshed = synth_frames(SynthConfig(
        shape="sphere", frames=20, motion="translate", amplitude=0.0,
        resolution=2, remesh_every=7, seed=5,
    ))
    _, stats = run_pipeline(
        remeshed, QualityThresholds(geometry_tol=0.0, color_tol=0.0),
        registration_cfg=fast,
    )
    remesh_ok = stats.keyframes == [0, 7, 14]
    _verdict(
        7, "segmentation behavior", zero_ok and static_ok and remesh_ok,
        f"(zero-tol {len(segs_zero)}/5 segments, static "
        f"{len(segs_static)}/1, remesh keyframes {stats.keyframes})",
    )


def test_criterion_8_entropy_coder(rng):
    total_symbols = 0
    size_ok = True
    details = []
    streams = [
        ("degenerate", np.zeros(200_000, dtype=np.int64)),
        ("uniform", rng.integers(0, 256, 400_000)),
        ("skewed", rng.geometric(0.2, 400_000) % 256),
    ]
    for name, symbols in streams:
        block, _ = read_block(encode_block(symbols), 0, len(symbols))
        back = decode_blocks([block])[0]
        assert np.array_equal(back, symbols), f"{name} roundtrip failed"
        total_symbols += len(symbols)
        # cross entropy of the symbols under the block's quantized table
        probs = block.frequencies[symbols] / PROB_TOTAL
        bound = float(-np.log2(probs).sum() / 8.0)
        if len(symbols) >= 10_000 and bound > 0:
            ratio = len(block.payload) / bound
            size_ok &= ratio <= 1.05
            details.append(f"{name} {ratio:.4f}x")
    _verdict(
        8, "entropy coder", total_symbols >= 1_000_000 and size_ok,
        f"({total_symbols} symbols; size vs bound: {', '.join(details)})",
    )


def test_criterion_9_determinism(tmp_path):
    frames = synth_frames(SynthConfig(
        shape="sphere", frames=6, motion="translate", amplitude=0.06,
        resolution=2,
    ))
    seq = tmp_path / "seq"
    seq.mkdir()
    for i, mesh in enumerate(frames):
        save_mesh(mesh, seq / f"f_{i:03d}.obj")

    def encode(out):
        proc = subprocess.run(
            [sys.executable, "-m", "ultron.cli", "encode",
             str(seq / "f_%03d.obj"), "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    first = encode(tmp_path / "a.ultn")
    second = encode(tmp_path / "b.ultn")

    from ultron.cli import main as cli_main
    assert cli_main([
        "encode", str(seq / "f_%03d.obj"),
        "--output", str(tmp_path / "c.ultn"),
    ]) == 0
    third = (tmp_path / "c.ultn").read_bytes()

    same = first == second == third
    _verdict(9, "determinism", same,
             f"(three runs, {len(first)} bytes, bit-identical={same})")
