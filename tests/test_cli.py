import csv
import math
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from ultron.cli import _encode_configs, build_parser, main
from ultron.codec import (
    QuantizationParams,
    container_frames,
    decode_container,
    encode_container,
)
from ultron.mesh import Mesh, load_mesh, save_mesh
from ultron.pipeline import QualityThresholds, run_pipeline
from ultron.registration import RegistrationConfig
from ultron.synth import SynthConfig, make_slab, synth_frames


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
        QualityThresholds(), RegistrationConfig(), QuantizationParams(),
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
    # blank and comment lines are skipped, indented comments too
    manifest.write_text("# frames\n\n  # first three\n"
                        + "\n".join(str(p) for p in paths[:3]) + "\n")
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


def test_eval_color_rms_is_measured_on_the_surface(tmp_path):
    """Every frame is a new 642-vertex tessellation, so a frame carried on
    its keyframe's connectivity has as many vertices as its original but
    no vertex in common with it: colors must not be paired by index."""
    frames = list(synth_frames(SynthConfig(shape="sphere", frames=6,
                                           resolution=3, remesh_every=1,
                                           colors=True, seed=5)))
    segments, stats = run_pipeline(iter(frames))
    carried = [r.frame_id for r in stats.records if not r.is_keyframe]
    assert carried
    decoded = list(container_frames(*decode_container(encode_container(segments))))
    tol = QualityThresholds().color_tol
    for i, (orig, dec) in enumerate(zip(frames, decoded)):
        assert dec.vertex_count == orig.vertex_count
        a, b, report = (tmp_path / f"{name}{i}.{ext}" for name, ext in
                        (("orig", "obj"), ("dec", "obj"), ("r", "csv")))
        save_mesh(orig, a)
        save_mesh(dec, b)
        assert run_cli("eval", "--original", a, "--decoded", b,
                       "--output", report) == 0
        with open(report) as fh:
            row = list(csv.DictReader(fh))[0]
        assert float(row["color-rms"]) <= tol, i


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


def test_existing_input_with_percent_is_a_file(tmp_path):
    save_mesh(make_slab(4, 3), tmp_path / "scan 100%.obj")
    out = tmp_path / "one.ultn"
    assert run_cli("encode", tmp_path / "scan 100%.obj", "--output", out) == 0
    segments, flags = decode_container(out.read_bytes())
    assert len(list(container_frames(segments, flags))) == 1


def test_unfillable_input_pattern_is_a_parse_error(tmp_path, capsys):
    code = run_cli("encode", tmp_path / "f_%d_%d.obj", "--output", tmp_path / "x.ultn")
    assert code == 3
    assert "cannot fill" in capsys.readouterr().err


def test_unfillable_output_pattern_is_refused_before_decoding(tmp_path, capsys):
    frames = synth_frames(SynthConfig(shape="sphere", frames=2, resolution=1))
    segments, _ = run_pipeline(iter(frames))
    ultn = tmp_path / "in.ultn"
    ultn.write_bytes(encode_container(segments))
    with pytest.raises(SystemExit) as err:
        run_cli("decode", ultn, "--output", tmp_path / "o_%d_%d.obj")
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ultron decode ")
    assert "ultron decode: error: argument --output: cannot fill" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ultn"]


def test_input_pattern_ignoring_the_frame_number_is_a_parse_error(tmp_path, capsys):
    # every fill is frame_.obj: listing frames until one is missing would
    # never end
    save_mesh(make_slab(4, 3), tmp_path / "frame_.obj")
    pattern = tmp_path / "frame_%.0s.obj"
    for command in (("encode", pattern, "--output", tmp_path / "x.ultn"),
                    ("eval", "--original", pattern, "--decoded", tmp_path / "x.ultn")):
        assert run_cli(*command) == 3
        assert "names the same file for every frame" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frame_.obj"]


def test_input_pattern_repeating_a_file_is_a_parse_error(tmp_path, capsys):
    # %.0e fills 10 through 14 to f_1e+01.obj: that one file would be
    # listed as five frames
    for name in [f"f_{i}e+00.obj" for i in range(10)] + ["f_1e+01.obj"]:
        save_mesh(make_slab(4, 3), tmp_path / name)
    assert run_cli("encode", tmp_path / "f_%.0e.obj",
                   "--output", tmp_path / "x.ultn") == 3
    err = capsys.readouterr().err
    assert "f_1e+01.obj" in err and "for frames 10 and 11" in err
    assert not (tmp_path / "x.ultn").exists()


def test_output_pattern_ignoring_the_frame_number_is_refused_before_decoding(
        tmp_path, capsys):
    ultn = tmp_path / "in.ultn"
    ultn.write_bytes(b"not a container")
    with pytest.raises(SystemExit) as err:
        run_cli("decode", ultn, "--output", tmp_path / "out_%.0s.obj")
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ultron decode ")
    assert "argument --output: " in err and "names the same file for every frame" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ultn"]


def test_decode_ply_to_an_output_pattern(static_sequence, tmp_path):
    seq_dir, _ = static_sequence
    ultn = tmp_path / "seq.ultn"
    assert run_cli("encode", seq_dir / "frame_%04d.obj", "--output", ultn) == 0
    out = tmp_path / "out"
    out.mkdir()
    assert run_cli("decode", ultn, "--format", "ply", "--output", out / "f%02d.ply") == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == [f"f{i:02d}.ply" for i in range(5)]
    segments, flags = decode_container(ultn.read_bytes())
    for name, mesh in zip(names, container_frames(segments, flags)):
        data = (out / name).read_bytes()
        assert data.startswith(b"ply\nformat ascii 1.0\n")
        back = load_mesh(out / name)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.triangles, mesh.triangles)


def test_output_pattern_in_a_missing_directory_is_refused_before_decoding(
        static_sequence, tmp_path, capsys, monkeypatch):
    seq_dir, _ = static_sequence
    ultn = tmp_path / "seq.ultn"
    assert run_cli("encode", seq_dir / "frame_%04d.obj", "--output", ultn) == 0
    capsys.readouterr()

    def no_decode(data):
        raise AssertionError("the container was decoded before the output was checked")

    monkeypatch.setattr("ultron.cli.decode_container", no_decode)
    before = sorted(tmp_path.rglob("*"))
    assert run_cli("decode", ultn, "--output", tmp_path / "missing" / "f%d.obj") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no such directory" in err
    assert sorted(tmp_path.rglob("*")) == before


def test_existing_output_directory_with_percent_is_a_directory(tmp_path):
    frames = synth_frames(SynthConfig(shape="sphere", frames=2, resolution=1))
    segments, _ = run_pipeline(iter(frames))
    ultn = tmp_path / "in.ultn"
    ultn.write_bytes(encode_container(segments))
    out = tmp_path / "out 100%"
    out.mkdir()
    assert run_cli("decode", ultn, "--output", out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "frame_000000.obj", "frame_000001.obj"]


def test_os_errors_exit_3_with_an_error_line(static_sequence, tmp_path, capsys,
                                             monkeypatch):
    seq_dir, paths = static_sequence
    pattern = seq_dir / "frame_%04d.obj"
    ultn = tmp_path / "seq.ultn"
    assert run_cli("encode", pattern, "--output", ultn) == 0
    capsys.readouterr()
    existing_dir = tmp_path / "a dir"
    existing_dir.mkdir()
    for argv in (
        ("encode", pattern, "--output", existing_dir),
        ("encode", existing_dir, "--output", tmp_path / "x.ultn"),
        ("decode", ultn, "--output", paths[0]),
        ("eval", "--original", pattern, "--decoded", ultn, "--output", existing_dir),
    ):
        assert run_cli(*argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv

    # files that cannot be written are refused before any frame is read
    def no_pipeline(*args, **kwargs):
        raise AssertionError("run_pipeline ran before the outputs were checked")

    monkeypatch.setattr("ultron.cli.run_pipeline", no_pipeline)
    missing = tmp_path / "missing"
    (tmp_path / "y.ultn.stats.csv").mkdir()
    for argv in (
        ("encode", pattern, "--output", missing / "x.ultn"),
        ("encode", pattern, "--output", tmp_path / "x.ultn", "--stats", existing_dir),
        ("encode", pattern, "--output", tmp_path / "x.ultn",
         "--stats", missing / "x.csv"),
        ("encode", pattern, "--output", tmp_path / "y.ultn"),  # default stats path
    ):
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv
        assert sorted(tmp_path.rglob("*")) == before, argv


@pytest.mark.parametrize("x", ["1e39", "1e100", "1e160", "1e300"])
def test_coordinate_beyond_float32_exits_3(tmp_path, capsys, x):
    """A container stores its grid as float32, so one larger coordinate in
    the middle frame is refused as input, before it reaches registration."""
    for i, mesh in enumerate(synth_frames(SynthConfig(shape="sphere", frames=3,
                                                      resolution=1))):
        save_mesh(mesh, tmp_path / f"frame_{i:04d}.obj")
    middle = tmp_path / "frame_0001.obj"
    lines = middle.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.startswith("v "))
    lines[first] = f"v {x} " + " ".join(lines[first].split()[2:])
    middle.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x.ultn"
    assert run_cli("encode", tmp_path / "frame_%04d.obj", "--output", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "float32" in err
    assert not out.exists()


def test_encode_options_reach_the_library(static_sequence, tmp_path, monkeypatch):
    seq_dir, _ = static_sequence
    stats = tmp_path / "elsewhere.csv"
    argv = [str(a) for a in (
        "encode", seq_dir / "frame_%04d.obj", "--output", tmp_path / "o.ultn",
        "--alpha", 5, "--beta", 0.5, "--gamma", 2, "--qt", 8, "--qn", 9,
        "--max-residual", 0.05, "--store-normals", "--stats", stats,
    )]
    reg_cfg = RegistrationConfig(alpha=5.0, beta=0.5, gamma=2.0)
    qparams = QuantizationParams(qt=8, qn=9)
    assert _encode_configs(build_parser().parse_args(argv)) == (
        QualityThresholds(), reg_cfg, qparams,
    )
    calls = []

    def recording(frames, *args, **kwargs):
        calls.append(kwargs)
        return run_pipeline(frames, *args, **kwargs)

    monkeypatch.setattr("ultron.cli.run_pipeline", recording)
    assert main(argv) == 0
    assert len(calls) == 1
    assert calls[0]["registration_cfg"] == reg_cfg
    assert calls[0]["max_residual"] == 0.05
    assert calls[0]["store_normals"] is True
    assert stats.read_text().startswith("frame-id,segment-id,")
    assert not (tmp_path / "o.ultn.stats.csv").exists()
    segments, _ = decode_container((tmp_path / "o.ultn").read_bytes())
    assert all(s.normal_frames is not None for s in segments)


ENCODE = ("encode", "missing.obj", "--output", "x.ultn")


@pytest.mark.parametrize("argv", [
    (*ENCODE, "--qp", "0"),
    (*ENCODE, "--outer-iterations", "0"),
    (*ENCODE, "--geometry-tol", "-1"),
    (*ENCODE, "--max-residual", "-1"),
    (*ENCODE, "--max-residual", "nan"),
    ("synth", "sphere", "--output-dir", "never", "--frames", "0"),
    (*ENCODE, "--geometry-tol", "nan"),
    (*ENCODE, "--color-tol", "nan"),
    (*ENCODE, "--alpha", "nan"),
    (*ENCODE, "--alpha", "inf"),
    (*ENCODE, "--beta", "nan"),
    (*ENCODE, "--beta", "inf"),
    (*ENCODE, "--gamma", "nan"),
    (*ENCODE, "--gamma", "inf"),
    *(("synth", shape, "--output-dir", "never", "--resolution", r)
      for shape, r in (("sphere", "-1"), ("cylinder", "0"), ("cylinder", "2"),
                       ("slab", "-1"), ("slab", "0"), ("slab", "1"))),
    ("synth", "sphere", "--output-dir", "never", "--amplitude", "nan"),
    ("synth", "sphere", "--output-dir", "never", "--amplitude", "inf"),
], ids=["qp", "outer-iterations", "geometry-tol", "max-residual-negative",
        "max-residual-nan", "frames", "geometry-tol-nan", "color-tol-nan",
        "alpha-nan", "alpha-inf", "beta-nan", "beta-inf", "gamma-nan",
        "gamma-inf", "sphere-resolution-negative", "cylinder-resolution-0",
        "cylinder-resolution-2", "slab-resolution-negative", "slab-resolution-0",
        "slab-resolution-1", "amplitude-nan", "amplitude-inf"])
def test_values_the_configs_refuse_are_usage_errors(argv, tmp_path, monkeypatch,
                                                    capsys):
    # refused before any frame is read: the missing input would exit 3
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    err = capsys.readouterr().err
    # the command's own usage, and the refused flag (the next to last word)
    assert err.startswith(f"usage: ultron {argv[0]} ")
    assert f"ultron {argv[0]}: error: argument {argv[-2]}: " in err
    assert "must" in err
    assert list(tmp_path.iterdir()) == []


def test_an_infinite_tolerance_turns_its_gate_off(tmp_path):
    # a new tessellation every frame: the default gate keys every frame
    for i, mesh in enumerate(synth_frames(SynthConfig(
            shape="sphere", frames=3, resolution=1, remesh_every=1,
            colors=True))):
        save_mesh(mesh, tmp_path / f"frame_{i:04d}.obj")
    out = tmp_path / "x.ultn"
    counts = []
    for tols in ((), ("--geometry-tol", "inf", "--color-tol", "inf")):
        assert run_cli("encode", tmp_path / "frame_%04d.obj", "--output", out,
                       *tols) == 0
        counts.append(len(decode_container(out.read_bytes())[0]))
    assert counts[0] == 3 and counts[1] < 3


def test_an_overflowing_gamma_is_a_solver_error(tmp_path, capsys):
    # frame 1's triangle rows are rolled, so it leaves the key's triangle
    # array and must be registered
    for i, mesh in enumerate(synth_frames(SynthConfig(shape="sphere", frames=2,
                                                      resolution=1))):
        mesh = Mesh(vertices=mesh.vertices,
                    triangles=np.roll(mesh.triangles, i, axis=0))
        save_mesh(mesh, tmp_path / f"frame_{i:04d}.obj")
    out = tmp_path / "x.ultn"
    assert run_cli("encode", tmp_path / "frame_%04d.obj", "--output", out,
                   "--gamma", "1e200") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "singular" in err
    assert not out.exists()
