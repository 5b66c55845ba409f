import numpy as np
import pytest

from ultron.mesh import CornerTable, build_corner_table
from ultron.synth import (
    SynthConfig,
    generate_sequence,
    make_cylinder,
    make_icosphere,
    make_slab,
    synth_frames,
)


def test_icosphere_is_closed_manifold():
    sphere = make_icosphere(2)
    table = build_corner_table(sphere)
    assert isinstance(table, CornerTable)
    assert table.boundary_corner_count() == 0
    v, f = sphere.vertex_count, sphere.triangle_count
    e = len(sphere.edges())
    assert v - e + f == 2
    assert np.allclose(np.linalg.norm(sphere.vertices, axis=1), 1.0)


def test_cylinder_and_slab_are_manifold_with_boundary():
    for mesh in (make_cylinder(16, 9), make_slab(9, 5)):
        table = build_corner_table(mesh)
        assert isinstance(table, CornerTable)
        assert table.boundary_corner_count() > 0


def test_translate_positions_exact():
    frames = 7
    amp = 0.21
    cfg = SynthConfig(shape="sphere", frames=frames, motion="translate",
                      amplitude=amp, resolution=1)
    meshes = synth_frames(cfg)
    base = meshes[0].vertices
    step = np.array([amp / (frames - 1), 0.0, 0.0])
    for i, mesh in enumerate(meshes):
        # the generator promises the closed form exactly
        assert np.array_equal(mesh.vertices, base + step * i)


def test_accelerate_recurrence_bit_exact():
    cfg = SynthConfig(shape="sphere", frames=10, motion="accelerate",
                      amplitude=0.3, resolution=1)
    rows = list(generate_sequence(cfg))
    for t in range(len(rows) - 1):
        mesh_t, vel_t, _acc_t = rows[t]
        mesh_next, vel_next, acc_next = rows[t + 1]
        assert np.array_equal(mesh_next.vertices, mesh_t.vertices + vel_t)
        assert np.array_equal(vel_next, vel_t + acc_next)


def test_bend_and_twist_are_deterministic_and_bounded():
    for motion in ("bend", "twist"):
        cfg = SynthConfig(shape="cylinder", frames=5, motion=motion,
                          amplitude=0.05, resolution=12, seed=4)
        a = synth_frames(cfg)
        b = synth_frames(cfg)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.vertices, mb.vertices)
        disp = np.linalg.norm(a[-1].vertices - a[0].vertices, axis=1).max()
        assert 0 < disp < 0.2


def test_remesh_changes_tessellation_only_at_epochs():
    cfg = SynthConfig(shape="sphere", frames=9, motion="translate",
                      amplitude=0.0, resolution=2, remesh_every=3, seed=11)
    meshes = synth_frames(cfg)
    for i in (0, 3, 6):
        assert np.array_equal(meshes[i].vertices, meshes[i + 1].vertices)
        assert np.array_equal(meshes[i].vertices, meshes[i + 2].vertices)
    assert not np.array_equal(meshes[0].vertices, meshes[3].vertices)
    assert not np.array_equal(meshes[3].vertices, meshes[6].vertices)


def test_colors_optional():
    plain = synth_frames(SynthConfig(shape="slab", frames=2, resolution=5))
    colored = synth_frames(SynthConfig(shape="slab", frames=2, resolution=5,
                                       colors=True))
    assert plain[0].colors is None
    assert colored[0].colors is not None
    assert colored[0].colors.min() >= 0 and colored[0].colors.max() <= 1


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(shape="cube")
    with pytest.raises(ValueError):
        SynthConfig(motion="wobble")
    with pytest.raises(ValueError):
        SynthConfig(frames=0)
