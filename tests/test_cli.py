import csv
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from ultron.cli import _encode_configs, build_parser, main
from ultron.codec import QuantizationParams
from ultron.mesh import load_mesh, save_mesh
from ultron.pipeline import QualityThresholds
from ultron.registration import RegistrationConfig
from ultron.synth import SynthConfig, make_slab, synth_frames
from ultron.tracking import DescriptorConfig


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def static_sequence(tmp_path):
    frames = synth_frames(SynthConfig(shape="sphere", frames=5,
                                      motion="translate", amplitude=0.0,
                                      resolution=2))
    paths = []
    for i, mesh in enumerate(frames):
        p = tmp_path / f"frame_{i:04d}.obj"
        save_mesh(mesh, p)
        paths.append(p)
    return tmp_path, paths


def test_parser_defaults_are_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["encode", "a.obj", "--output", "o"])
    assert _encode_configs(args) == (
        QualityThresholds(), DescriptorConfig(), RegistrationConfig(),
        QuantizationParams(),
    )
    args = parser.parse_args(["synth", "sphere", "--output-dir", "d"])
    synth_cfg = SynthConfig()
    for f in fields(SynthConfig):
        assert getattr(args, f.name) == getattr(synth_cfg, f.name), f.name


def test_synth_writes_frames_and_truth(tmp_path):
    out = tmp_path / "seq"
    code = run_cli("synth", "sphere", "--frames", 4, "--resolution", 1,
                   "--motion", "accelerate", "--amplitude", 0.1,
                   "--output-dir", out)
    assert code == 0
    files = sorted(out.glob("frame_*.obj"))
    assert len(files) == 4
    with open(out / "ground_truth.csv") as fh:
        rows = list(csv.DictReader(fh))
    mesh0 = load_mesh(files[0])
    assert len(rows) == 4 * mesh0.vertex_count
    # recurrence check on the CSV itself: p[t+1] == p[t] + v[t]
    by_frame = {}
    for r in rows:
        by_frame.setdefault(int(r["frame"]), []).append(r)
    for t in range(3):
        for r_now, r_next in zip(by_frame[t], by_frame[t + 1]):
            for axis in "xyz":
                now = float(r_now[f"p{axis}"]) + float(r_now[f"v{axis}"])
                nxt = float(r_next[f"p{axis}"])
                assert now == nxt


def test_encode_decode_eval_static(static_sequence, tmp_path):
    seq_dir, paths = static_sequence
    out = tmp_path / "out.ultn"
    code = run_cli("encode", seq_dir / "frame_%04d.obj", "--output", out)
    assert code == 0
    assert out.exists()
    stats = (tmp_path / "out.ultn.stats.csv").read_text()
    lines = stats.strip().splitlines()
    assert len(lines) == 6
    seg_ids = {line.split(",")[1] for line in lines[1:]}
    assert seg_ids == {"0"}  # one segment for a static sequence

    dec_dir = tmp_path / "decoded"
    code = run_cli("decode", out, "--output", dec_dir, "--format", "obj")
    assert code == 0
    decoded = sorted(dec_dir.glob("frame_*.obj"))
    assert len(decoded) == 5
    a = load_mesh(paths[0])
    b = load_mesh(decoded[0])
    assert np.array_equal(a.triangles.shape, b.triangles.shape)

    report = tmp_path / "eval.csv"
    code = run_cli("eval", "--original", seq_dir / "frame_%04d.obj",
                   "--decoded", out, "--output", report)
    assert code == 0
    with open(report) as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["segment-count"] == "1"
    assert row["keyframes"] == "0"
    assert float(row["ratio"]) > 1.0
    assert float(row["geometry-psnr-db"]) > 55.0


def test_zero_tolerance_gives_per_frame_segments(tmp_path):
    frames = synth_frames(SynthConfig(shape="sphere", frames=4,
                                      motion="translate", amplitude=0.05,
                                      resolution=1))
    for i, mesh in enumerate(frames):
        save_mesh(mesh, tmp_path / f"f_{i:02d}.obj")
    out = tmp_path / "zero.ultn"
    code = run_cli("encode", tmp_path / "f_%02d.obj", "--output", out,
                   "--geometry-tol", 0, "--color-tol", 0,
                   "--outer-iterations", 5)
    assert code == 0
    stats = (tmp_path / "zero.ultn.stats.csv").read_text().strip().splitlines()
    keyframes = [line.split(",")[2] for line in stats[1:]]
    assert keyframes == ["1", "1", "1", "1"]


def test_manifest_input(static_sequence, tmp_path):
    seq_dir, paths = static_sequence
    manifest = tmp_path / "list.txt"
    manifest.write_text("\n".join(str(p) for p in paths[:3]) + "\n")
    out = tmp_path / "m.ultn"
    code = run_cli("encode", "--manifest", manifest, "--output", out)
    assert code == 0


def test_eval_identical_reports_inf(static_sequence, tmp_path):
    seq_dir, paths = static_sequence
    report = tmp_path / "eval.csv"
    code = run_cli("eval", "--original", *paths, "--decoded", *paths,
                   "--output", report)
    assert code == 0
    with open(report) as fh:
        row = list(csv.DictReader(fh))[0]
    assert row["geometry-psnr-db"] == "inf"


def test_eval_psnr_closed_form_flat_slab(tmp_path):
    # a slab displaced by diagonal / 2^10 scores 20 log10(2^10) dB
    slab = make_slab(12, 8)
    diag = slab.bounds().diagonal
    moved = slab.with_vertices(slab.vertices + np.array([0, 0, diag / 1024]))
    a = tmp_path / "orig.obj"
    b = tmp_path / "dec.obj"
    save_mesh(slab, a)
    save_mesh(moved, b)
    report = tmp_path / "r.csv"
    assert run_cli("eval", "--original", a, "--decoded", b,
                   "--output", report) == 0
    with open(report) as fh:
        row = list(csv.DictReader(fh))[0]
    expected = 20 * math.log10(1024)
    assert float(row["geometry-psnr-db"]) == pytest.approx(expected, abs=0.05)


def test_eval_is_symmetric(tmp_path, rng):
    slab = make_slab(10, 6)
    noisy = slab.with_vertices(
        slab.vertices + rng.normal(scale=1e-3, size=slab.vertices.shape)
    )
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    save_mesh(slab, a)
    save_mesh(noisy, b)
    r1 = tmp_path / "r1.csv"
    r2 = tmp_path / "r2.csv"
    run_cli("eval", "--original", a, "--decoded", b, "--output", r1)
    run_cli("eval", "--original", b, "--decoded", a, "--output", r2)
    v1 = list(csv.DictReader(open(r1)))[0]["geometry-psnr-db"]
    v2 = list(csv.DictReader(open(r2)))[0]["geometry-psnr-db"]
    assert v1 == v2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0\n")
    assert run_cli("encode", bad, "--output", tmp_path / "x.ultn") == 3
    assert "bad.obj" in capsys.readouterr().err


def test_container_error_exit_code_and_cleanup(tmp_path):
    bogus = tmp_path / "bogus.ultn"
    bogus.write_bytes(b"NOT A CONTAINER AT ALL")
    out_dir = tmp_path / "dec"
    assert run_cli("decode", bogus, "--output", out_dir) == 5
    assert not list(out_dir.glob("*.obj")) if out_dir.exists() else True


def test_truncated_container_removes_partial_outputs(static_sequence, tmp_path):
    seq_dir, _ = static_sequence
    out = tmp_path / "o.ultn"
    assert run_cli("encode", seq_dir / "frame_%04d.obj", "--output", out) == 0
    data = out.read_bytes()
    (tmp_path / "trunc.ultn").write_bytes(data[:-40])
    dec = tmp_path / "partial"
    assert run_cli("decode", tmp_path / "trunc.ultn", "--output", dec) == 5
    leftovers = list(dec.glob("*.obj")) if dec.exists() else []
    assert leftovers == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["encode"])  # missing --output
    assert err.value.code == 2


def test_cli_runs_as_subprocess(static_sequence, tmp_path):
    seq_dir, _ = static_sequence
    out = tmp_path / "sub.ultn"
    proc = subprocess.run(
        [sys.executable, "-m", "ultron.cli", "encode",
         str(seq_dir / "frame_%04d.obj"), "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
