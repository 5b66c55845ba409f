import hashlib
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultron.mesh.closest
import ultron.pipeline
from ultron.codec import decode_container, encode_container
from ultron.codec.quantization import QuantizationParams, half_step, widen_to_f32
from ultron.mesh import Aabb, Mesh, vertex_normals
from ultron.pipeline import (
    QualityThresholds,
    Segment,
    _identity_quality,
    _surface_colors,
    assess_quality,
    run_pipeline,
    surface_errors,
)
from ultron.registration import RegistrationConfig
from ultron.synth import (
    SynthConfig,
    make_cylinder,
    make_icosphere,
    make_slab,
    synth_frames,
)
from ultron.tracking import CorrespondenceSet, match_frames


FAST_REG = RegistrationConfig(outer_iterations=10)


def _retessellated(frames):
    """frames with frame i's triangle rows rolled by i: the same surfaces,
    but no two consecutive frames share a triangle array, so every later
    frame takes the registration path."""
    return [Mesh(vertices=f.vertices, triangles=np.roll(f.triangles, i, axis=0),
                 normals=f.normals, uvs=f.uvs, colors=f.colors)
            for i, f in enumerate(frames)]


class TestAssessQuality:
    def test_identity_passes_any_tolerance(self, sphere_162):
        report = assess_quality(
            sphere_162, sphere_162, QualityThresholds(geometry_tol=0.0)
        )
        assert report.E_d_rms == 0.0
        assert report.passed

    def test_flat_slab_uniform_offset(self):
        slab = make_slab(12, 8)
        diag = slab.bounds().diagonal
        offset = 0.01 * diag
        moved = slab.with_vertices(slab.vertices + np.array([0, 0, offset]))
        report = assess_quality(
            moved, slab, QualityThresholds(geometry_tol=1.0)
        )
        assert report.E_d_rms == pytest.approx(0.01, rel=1e-9)

    def test_symmetry_catches_coverage_gaps(self):
        # deformed covers only half the original: one-sided distance from
        # deformed to original is ~0, the reverse direction is not
        slab = make_slab(20, 6, width=2.0)
        half = make_slab(10, 6, width=0.95)
        d_forward = surface_errors(half, slab)[0]
        _, d_once, _ = __import__("ultron.mesh", fromlist=["closest_points"]) \
            .closest_points(slab, half.vertices)
        assert float(np.sqrt(np.mean(d_once ** 2))) < 1e-12
        assert d_forward > 0.1

    def test_color_rms_constant_offset(self, rng):
        base = make_icosphere(1)
        n = base.vertex_count
        colors = rng.random((n, 3)) * 0.5
        a = Mesh(vertices=base.vertices, triangles=base.triangles, colors=colors)
        shifted = np.clip(colors + np.array([0.1, 0.0, 0.0]), 0, 1)
        b = Mesh(vertices=base.vertices, triangles=base.triangles, colors=shifted)
        report = assess_quality(b, a, QualityThresholds())
        assert report.E_c_rms == pytest.approx(0.1, rel=1e-9)

    def test_linear_colors_interpolate_exactly(self):
        # colors affine in position, sampled on another tessellation of the
        # same plane, are reproduced exactly
        def colored(mesh):
            x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
            rgb = np.stack([x, y / 0.6, np.full_like(x, 0.5)], axis=1)
            return Mesh(vertices=mesh.vertices, triangles=mesh.triangles,
                        colors=rgb)

        report = assess_quality(
            colored(make_slab(7, 5)), colored(make_slab(12, 8)),
            QualityThresholds(),
        )
        assert report.E_d_rms < 1e-12
        assert report.E_c_rms < 1e-12

    def test_zero_area_triangle_gives_corner_mean(self):
        colors = np.array([[0.0, 0.0, 0.0], [0.3, 0.6, 0.9], [0.6, 0.0, 0.3]])
        line = Mesh(vertices=[[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]],
                    triangles=[[0, 1, 2]], colors=colors)
        sampled = _surface_colors(line, np.array([[0.5, 0.0, 0.0]]), np.array([0]))
        assert np.allclose(sampled, colors.mean(axis=0), rtol=0, atol=1e-15)

    def test_colors_compared_on_the_surface(self):
        # a static colored sphere under a new tessellation: no vertex of
        # frame 1 lies on a vertex of frame 0, but colors sampled on the
        # surface still agree, so frame 1 joins segment 0
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=2, amplitude=0.0, resolution=3,
            remesh_every=1, colors=True, seed=5,
        ))
        assert not np.array_equal(frames[0].vertices, frames[1].vertices)
        segments, stats = run_pipeline(frames)
        assert stats.keyframes == [0]
        assert len(segments) == 1
        assert stats.records[1].E_c_rms < QualityThresholds().color_tol

    def test_color_absent_when_either_side_lacks_colors(self, sphere_162):
        report = assess_quality(sphere_162, sphere_162, QualityThresholds())
        assert report.E_c_rms is None

    @settings(max_examples=40, deadline=None)
    @given(shape=st.sampled_from(["icosphere", "cylinder", "slab"]),
           seed=st.integers(0, 2**32 - 1),
           colored=st.booleans(),
           color_noise=st.floats(1e-3, 1e-1),
           tol_scale=st.sampled_from([0.99, 1.0, 1.01]))
    def test_identity_quality_equals_the_surface_computation(
        self, shape, seed, colored, color_noise, tol_scale
    ):
        # a frame on the key's triangle array, its positions perturbed far
        # less than an edge so that no triangle degenerates or folds: the
        # direct identity gate reads what the surface queries read
        base = {"icosphere": make_icosphere(2), "cylinder": make_cylinder(12, 6),
                "slab": make_slab(8, 5)}[shape]
        rng = np.random.default_rng(seed)
        moved = base.vertices + rng.normal(scale=1e-3, size=base.vertices.shape)
        key_colors = frame_colors = None
        if colored:
            key_colors = rng.random((base.vertex_count, 3))
            frame_colors = key_colors + rng.uniform(-color_noise, color_noise,
                                                    size=key_colors.shape)
        key = Mesh(vertices=base.vertices, triangles=base.triangles,
                   colors=key_colors)
        frame = Mesh(vertices=moved, triangles=base.triangles, colors=frame_colors)
        e_c = assess_quality(key.with_vertices(moved), frame,
                             QualityThresholds()).E_c_rms
        thresholds = QualityThresholds(
            color_tol=0.02 if e_c is None else tol_scale * e_c)
        reference = assess_quality(key.with_vertices(moved), frame, thresholds)
        direct = _identity_quality(key, frame, thresholds)
        assert direct.E_d_rms == reference.E_d_rms == 0.0
        assert direct.E_c_rms == reference.E_c_rms
        assert direct.passed == reference.passed


class TestRunPipeline:
    def test_identical_frames_single_segment(self, sphere_162):
        frames = [sphere_162] * 6
        segments, stats = run_pipeline(frames, registration_cfg=FAST_REG)
        assert len(segments) == 1
        assert segments[0].frame_count == 6
        assert all(
            r.E_d_rms in (None, 0.0) for r in stats.records
        )
        assert stats.keyframes == [0]

    def test_identical_frames_pass_zero_tolerance(self, sphere_162):
        frames = [sphere_162] * 4
        segments, _ = run_pipeline(
            frames,
            QualityThresholds(geometry_tol=0.0, color_tol=0.0),
            registration_cfg=FAST_REG,
        )
        assert len(segments) == 1

    def test_zero_tolerance_on_moving_frames_gives_all_keyframes(self):
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=5, motion="translate",
            amplitude=0.05, resolution=1,
        ))
        segments, stats = run_pipeline(
            frames,
            QualityThresholds(geometry_tol=0.0, color_tol=0.0),
            registration_cfg=FAST_REG,
        )
        assert len(segments) == 5
        assert stats.keyframes == [0, 1, 2, 3, 4]

    def test_smooth_motion_single_segment(self):
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=10, motion="translate",
            amplitude=0.05, resolution=2,
        ))
        segments, stats = run_pipeline(frames, registration_cfg=FAST_REG)
        assert len(segments) == 1
        assert segments[0].frame_count == 10

    def test_remesh_forces_keyframes_exactly(self):
        # static shape, independently retessellated every 3rd frame, zero
        # tolerance: keyframes exactly at the remesh epochs
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=9, motion="translate", amplitude=0.0,
            resolution=2, remesh_every=3, seed=7,
        ))
        segments, stats = run_pipeline(
            frames,
            QualityThresholds(geometry_tol=0.0, color_tol=0.0),
            registration_cfg=FAST_REG,
        )
        assert stats.keyframes == [0, 3, 6]
        assert [s.frame_count for s in segments] == [3, 3, 3]

    def test_frame_ids_partition_sequence(self):
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=8, motion="translate", amplitude=0.2,
            resolution=1, remesh_every=4, seed=3,
        ))
        segments, _ = run_pipeline(
            frames,
            QualityThresholds(geometry_tol=0.001),
            registration_cfg=FAST_REG,
        )
        collected = [i for s in segments for i in s.frame_ids]
        assert collected == list(range(8))
        for s in segments:
            assert np.array_equal(s.frames[0], s.key.vertices)

    def test_monotone_thresholds(self):
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=8, motion="bend", amplitude=0.05,
            resolution=2,
        ))
        counts = []
        for tol in (0.0, 1e-5, 1e-3, 1e-1):
            segments, _ = run_pipeline(
                frames,
                QualityThresholds(geometry_tol=tol, color_tol=tol),
                registration_cfg=FAST_REG,
            )
            counts.append(len(segments))
        assert counts == sorted(counts, reverse=True)

    def test_one_index_per_registered_frame(self, sphere_162, monkeypatch):
        # registration and the quality gate query the frame through one
        # index; the deformed mesh gets the other
        builds = []

        class Counting(ultron.mesh.closest.TriangleBvh):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        monkeypatch.setattr(ultron.mesh.closest, "TriangleBvh", Counting)
        shift = 0.01 * sphere_162.bounds().diagonal
        moved = sphere_162.with_vertices(sphere_162.vertices + shift)
        segments, stats = run_pipeline(
            _retessellated([sphere_162, moved]), registration_cfg=FAST_REG
        )
        assert stats.keyframes == [0]
        assert len(builds) == 2

    def test_tracked_matches_reach_registration(self, monkeypatch):
        # on a twisting sphere the tracker's matches are what keep frames
        # in their segments: without them nearly every frame is a keyframe
        frames = _retessellated(synth_frames(SynthConfig(
            shape="sphere", frames=12, motion="twist", amplitude=1.0,
            resolution=3, colors=True, seed=5)))
        _, tracked = run_pipeline(frames)
        monkeypatch.setattr(ultron.pipeline, "match_frames",
                            lambda *_, **__: CorrespondenceSet([], [], []))
        _, untracked = run_pipeline(frames)
        assert len(tracked.keyframes) <= 4
        assert len(untracked.keyframes) >= 8

    def test_tracker_gets_the_last_two_accepted_frames(self, monkeypatch):
        # on a translating sphere, registered at every frame, the
        # tracker's arguments show whether it gets the step
        calls = []

        def recording(positions, target, max_residual=None, *, previous=None):
            calls.append((np.array(positions),
                          None if previous is None else np.array(previous)))
            return match_frames(positions, target, max_residual,
                                previous=previous)

        monkeypatch.setattr(ultron.pipeline, "match_frames", recording)
        frames = _retessellated(synth_frames(SynthConfig(
            shape="sphere", frames=12, motion="translate", amplitude=0.12,
            resolution=3, colors=True, seed=5)))
        segments, _ = run_pipeline(frames)
        assert len(segments) == 1
        accepted = segments[0].frames
        assert len(calls) == len(accepted) - 1 == 11
        for k, (positions, previous) in enumerate(calls, start=1):
            assert np.array_equal(positions, accepted[k - 1])
            if k == 1:
                assert previous is None
            else:
                assert np.array_equal(previous, accepted[k - 2])

    def _counted(self, monkeypatch):
        calls = {"register": 0, "match_frames": 0}
        for name in calls:
            original = getattr(ultron.pipeline, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(ultron.pipeline, name, counting)
        return calls

    def test_one_tessellation_is_coded_as_itself(self, monkeypatch):
        # every frame of a twisting sphere shares frame 0's triangle array:
        # none is matched or registered, and each decodes to its own
        # positions within half a lattice step
        frames = synth_frames(SynthConfig(shape="sphere", frames=12,
                                          motion="twist", amplitude=1.0,
                                          resolution=3, colors=True, seed=5))
        calls = self._counted(monkeypatch)
        segments, _ = run_pipeline(frames)
        assert calls == {"register": 0, "match_frames": 0}
        back, _ = decode_container(encode_container(segments))
        qp = QuantizationParams().qp
        assert [s.frame_ids for s in back] == [s.frame_ids for s in segments]
        for seg, dec in zip(segments, back):
            grid = widen_to_f32(Aabb.of_points(seg.frames.reshape(-1, 3)))
            slack = half_step(grid, qp) + 1e-12 * np.maximum(grid.extent, 1.0)
            for j, frame_id in enumerate(seg.frame_ids):
                err = np.abs(dec.frames[j] - frames[frame_id].vertices)
                assert np.all(err <= slack)

    def test_identity_frame_queries_only_the_unmoved_latest(self, monkeypatch):
        # a frame on the key's triangle array is gated without a query of
        # its own: the one assess_quality against the unmoved latest frame
        # makes two, through the frame's index and the latest frame's
        builds, queries = [], []

        class Counting(ultron.mesh.closest.TriangleBvh):
            def __init__(self, *args):
                builds.append(1)
                super().__init__(*args)

        def counting(*args, _original=ultron.pipeline.closest_points):
            queries.append(1)
            return _original(*args)

        frames = synth_frames(SynthConfig(shape="sphere", frames=6,
                                          motion="twist", amplitude=1.0,
                                          resolution=2, colors=True, seed=5))
        monkeypatch.setattr(ultron.mesh.closest, "TriangleBvh", Counting)
        monkeypatch.setattr(ultron.pipeline, "closest_points", counting)
        calls = self._counted(monkeypatch)
        run_pipeline(frames)
        assert calls == {"register": 0, "match_frames": 0}
        assert len(queries) == 2 * (len(frames) - 1)
        assert len(builds) == 2 * (len(frames) - 1)

    def test_triangle_array_with_another_vertex_count_is_registered(self):
        # the key's triangle array on one vertex more or less is not the
        # key's own deformation: the frame reaches registration and is
        # keyed, and the sequence encodes and decodes
        base = make_icosphere(1)
        rgb = (base.vertices + 1.0) / 2.0

        def with_extra(mesh, attr, value):
            attrs = {"uvs": mesh.uvs, "colors": mesh.colors}
            attrs[attr] = np.vstack([attrs[attr], value])
            return Mesh(vertices=np.vstack([mesh.vertices, [0.0, 0.0, 1.2]]),
                        triangles=mesh.triangles, **attrs)

        colored = Mesh(vertices=base.vertices, triangles=base.triangles, colors=rgb)
        textured = Mesh(vertices=base.vertices, triangles=base.triangles,
                        uvs=rgb[:, :2])
        for frames in ([colored, with_extra(colored, "colors", [0.5, 0.5, 0.5])],
                       [textured, with_extra(textured, "uvs", [0.5, 0.5])],
                       [with_extra(colored, "colors", [0.5, 0.5, 0.5]), colored]):
            segments, stats = run_pipeline(frames)
            assert stats.keyframes == [0, 1]
            assert stats.records[1].registration_iterations > 0
            back, _ = decode_container(encode_container(segments))
            assert [s.frames.shape for s in back] == [
                (1, f.vertex_count, 3) for f in frames]

    def test_resampled_frame_on_the_same_array_is_registered(self, monkeypatch):
        # synth's remesh keeps the triangle array but moves the vertices to
        # other surface points: the identity's color gate fails, so the
        # frame still reaches registration
        frames = synth_frames(SynthConfig(
            shape="sphere", frames=2, amplitude=0.0, resolution=3,
            remesh_every=1, colors=True, seed=5,
        ))
        assert np.array_equal(frames[0].triangles, frames[1].triangles)
        calls = self._counted(monkeypatch)
        _, stats = run_pipeline(frames)
        assert calls == {"register": 1, "match_frames": 1}
        assert stats.records[1].registration_iterations > 0

    def test_identity_rows_read_zero_iterations(self):
        frames = synth_frames(SynthConfig(shape="sphere", frames=6,
                                          motion="twist", amplitude=1.0,
                                          resolution=2, colors=True, seed=5))
        _, stats = run_pipeline(frames)
        rows = [line.split(",") for line in stats.to_csv().splitlines()[2:]]
        assert len(rows) == 5
        for row in rows:
            assert row[3] == "0.0" and float(row[4]) < 1e-12
            assert row[5] == "0"

    def test_stats_csv_shape(self, sphere_162):
        _, stats = run_pipeline([sphere_162] * 3, registration_cfg=FAST_REG)
        lines = stats.to_csv().strip().splitlines()
        assert lines[0] == (
            "frame-id,segment-id,is-keyframe,E_d_rms,E_c_rms,"
            "registration-iterations"
        )
        assert len(lines) == 4
        assert lines[1].startswith("0,0,1,")

    def test_deterministic(self):
        cfg = SynthConfig(shape="sphere", frames=6, motion="translate",
                          amplitude=0.05, resolution=2)
        seg_a, stats_a = run_pipeline(synth_frames(cfg), registration_cfg=FAST_REG)
        seg_b, stats_b = run_pipeline(synth_frames(cfg), registration_cfg=FAST_REG)
        assert len(seg_a) == len(seg_b)
        for a, b in zip(seg_a, seg_b):
            assert np.array_equal(a.frames, b.frames)
        assert stats_a.to_csv() == stats_b.to_csv()

    def test_registration_config_is_keyword_only(self, sphere_162):
        with pytest.raises(TypeError):
            run_pipeline([sphere_162], QualityThresholds(), FAST_REG)

    def test_store_normals_flows_into_segments(self, sphere_162):
        segments, _ = run_pipeline(
            [sphere_162] * 3, registration_cfg=FAST_REG, store_normals=True
        )
        assert segments[0].normal_frames is not None
        assert segments[0].normal_frames.shape == (3, 162, 3)
        norms = np.linalg.norm(segments[0].normal_frames[1], axis=1)
        assert np.allclose(norms, 1.0)

    def test_stored_normals_are_the_inputs_then_recomputed(self):
        # frame 0 stores the key's input normals; every later frame the
        # normals of its own positions on the key's connectivity
        frames = [Mesh(vertices=f.vertices, triangles=f.triangles,
                       normals=f.vertices / np.linalg.norm(f.vertices, axis=1,
                                                           keepdims=True))
                  for f in synth_frames(SynthConfig(shape="sphere", frames=6,
                                                    amplitude=0.05, resolution=2))]
        segments, _ = run_pipeline(frames, store_normals=True)
        assert len(segments) == 1
        normal_frames = segments[0].normal_frames
        assert np.array_equal(normal_frames[0], frames[0].normals)
        assert not np.array_equal(normal_frames[0], vertex_normals(frames[0]))
        for k in range(1, len(frames)):
            assert np.array_equal(normal_frames[k], vertex_normals(frames[k]))


class TestSegmentInvariants:
    def test_frame_zero_must_match_key(self, sphere_162):
        from ultron.errors import InvalidMeshError

        with pytest.raises(InvalidMeshError):
            Segment(
                key=sphere_162,
                frames=np.stack([sphere_162.vertices + 1.0]),
                frame_ids=(0,),
            )

    def test_frame_ids_must_be_consecutive(self, sphere_162):
        from ultron.errors import InvalidMeshError

        with pytest.raises(InvalidMeshError):
            Segment(
                key=sphere_162,
                frames=np.stack([sphere_162.vertices] * 2),
                frame_ids=(0, 2),
            )


# SHA-256 of the container and of the stats CSV that the keyframe loop
# gives two of the CI sequences, and of the decoded frames, key colors and
# triangle arrays; a change to the first two changes what `ultron encode`
# writes for them, a change to the third what `ultron decode` gives back
PINNED_ENCODES = [
    (SynthConfig(frames=12, motion="bend", amplitude=0.4, resolution=3,
                 remesh_every=5, colors=True, seed=5),
     "125d6526ea91fab85f4a5fbe9d3a6f49f4878284110a2b566f284942b52de9d4",
     "c9272100896f99de05aec9ba07a512a9fd9562ccb15df5fdc705ac668db3b288",
     "9cd654071a8f7ee43f62c4d2e8ca69955bee3781e7ca699885653436090e26ef"),
    (SynthConfig(frames=12, motion="translate", amplitude=0.12, resolution=3,
                 remesh_every=1, colors=True, seed=5),
     "612c8e55cba378d3342fc74cc0b51c0a475937e49a63ad5e506b4defe5edb320",
     "5ad39259cf3ede7908311443b791fff5677f2f71ae2fcb3e7b3ce888e5dccb6c",
     "398208a9c0cdfc573ac0544860dcd2d848c6b889280b21cbd721accafec390f7"),
]


@pytest.mark.parametrize("cfg,container,csv,decoded", PINNED_ENCODES,
                         ids=["bend", "capture"])
def test_keyframe_loop_bytes_pinned(cfg, container, csv, decoded):
    segments, stats = run_pipeline(synth_frames(cfg))
    assert hashlib.sha256(encode_container(segments)).hexdigest() == container
    assert hashlib.sha256(stats.to_csv().encode()).hexdigest() == csv


@pytest.mark.parametrize("cfg,container,csv,decoded", PINNED_ENCODES,
                         ids=["bend", "capture"])
def test_decoded_arrays_pinned(cfg, container, csv, decoded):
    # prediction from the segment before changes the bytes, never what
    # they decode to; the keyframes, and so the decoded arrays, change
    # only with the keyframe loop
    segments, _ = run_pipeline(synth_frames(cfg))
    back, _ = decode_container(encode_container(segments))
    digest = hashlib.sha256()
    for seg in back:
        for arr in (seg.frames, seg.key.colors, seg.key.triangles):
            digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == decoded


def test_bend_encode_logs_no_warning(caplog):
    # predictions from the previous segment's grid leave this segment's
    # grid by design; they are clamped without a warning
    with caplog.at_level(logging.WARNING):
        segments, _ = run_pipeline(synth_frames(PINNED_ENCODES[0][0]))
        encode_container(segments)
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
