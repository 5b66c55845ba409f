import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ultron.mesh import Mesh
from ultron.tracking import (
    CorrespondenceSet,
    MotionState,
    match_frames,
    predict,
    update_motion_state,
)


def plane_mesh(points):
    """Any vertex soup with a dummy triangle so it passes Mesh invariants."""
    pts = np.asarray(points, dtype=np.float64)
    return Mesh(vertices=pts, triangles=[[0, 1, 2]])


class TestPredict:
    def test_zero_motion(self):
        s = MotionState(positions=[[0, 0, 0]], velocities=[[0, 0, 0]],
                        accelerations=[[0, 0, 0]])
        p = predict(s, 1.0)
        assert np.array_equal(p.positions, [[0, 0, 0]])

    def test_velocity_and_acceleration(self):
        s = MotionState(positions=[[0, 0, 0]], velocities=[[1, 0, 0]],
                        accelerations=[[0, 2, 0]])
        p = predict(s, 1.0)
        assert np.array_equal(p.positions, [[1, 0, 0]])
        assert np.array_equal(p.velocities, [[1, 2, 0]])
        assert np.array_equal(p.accelerations, [[0, 2, 0]])

    def test_two_frame_step(self):
        s = MotionState(positions=[[1, 1, 1]], velocities=[[0.5, 0, -0.5]],
                        accelerations=[[0, 0, 0]])
        p = predict(s, 2.0)
        assert np.allclose(p.positions, [[2, 1, 0]])

    def test_rejects_nonpositive_dt(self):
        s = MotionState.rest([[0, 0, 0]])
        with pytest.raises(ValueError):
            predict(s, 0.0)

    @given(dt=st.floats(min_value=0.1, max_value=4.0),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, dt, seed):
        r = np.random.default_rng(seed)
        a = MotionState(positions=r.normal(size=(5, 3)),
                        velocities=r.normal(size=(5, 3)),
                        accelerations=r.normal(size=(5, 3)))
        b = MotionState(positions=r.normal(size=(5, 3)),
                        velocities=r.normal(size=(5, 3)),
                        accelerations=r.normal(size=(5, 3)))
        both = MotionState(positions=a.positions + b.positions,
                           velocities=a.velocities + b.velocities,
                           accelerations=a.accelerations + b.accelerations)
        pa, pb, pab = predict(a, dt), predict(b, dt), predict(both, dt)
        assert np.allclose(pab.positions, pa.positions + pb.positions)
        assert np.allclose(pab.velocities, pa.velocities + pb.velocities)


class TestMatchFrames:
    def test_self_match_is_identity(self, sphere_162):
        state = MotionState.rest(sphere_162.vertices)
        matches = match_frames(state, sphere_162)
        assert len(matches) == sphere_162.vertex_count
        assert np.array_equal(matches.source_indices, matches.target_indices)
        assert np.all(matches.residuals == 0.0)

    def test_motion_predicted_match_exact(self, rng):
        base = rng.normal(size=(40, 3))
        delta = np.array([0.05, 0.0, 0.0])
        # source sits at base + delta moving delta/frame; the target uses the
        # same float path the prediction takes, so residuals are exactly 0
        positions = base + delta
        state = MotionState(
            positions=positions,
            velocities=np.broadcast_to(delta, base.shape),
            accelerations=np.zeros_like(base),
        )
        target = plane_mesh(positions + delta)
        matches = match_frames(state, target)
        assert len(matches) == 40
        assert np.array_equal(matches.source_indices, matches.target_indices)
        assert np.all(matches.residuals == 0.0)

    def test_translation_invariance(self, rng):
        base = rng.normal(size=(30, 3))
        target_pts = base + rng.normal(scale=0.01, size=base.shape)
        shift = np.array([17.0, -4.0, 2.5])
        m1 = match_frames(MotionState.rest(base), plane_mesh(target_pts),
                          max_residual=np.inf)
        m2 = match_frames(MotionState.rest(base + shift),
                          plane_mesh(target_pts + shift), max_residual=np.inf)
        assert np.array_equal(m1.source_indices, m2.source_indices)
        assert np.array_equal(m1.target_indices, m2.target_indices)
        assert np.allclose(m1.residuals, m2.residuals, atol=1e-12)

    def test_max_residual_filters(self, rng):
        base = rng.normal(size=(20, 3))
        target = plane_mesh(base + np.array([0.5, 0, 0]))
        none = match_frames(MotionState.rest(base), target, max_residual=0.1)
        assert len(none) == 0

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_injective_both_ways(self, seed):
        r = np.random.default_rng(seed)
        src = MotionState.rest(r.normal(size=(25, 3)))
        tgt = plane_mesh(r.normal(size=(17, 3)))
        m = match_frames(src, tgt, max_residual=np.inf)
        assert len(np.unique(m.source_indices)) == len(m)
        assert len(np.unique(m.target_indices)) == len(m)

    def test_agrees_with_hungarian_oracle(self, rng):
        agree = total = 0
        for trial in range(50):
            # well-separated points: grid + jitter < half spacing
            gx, gy = np.meshgrid(np.arange(10), np.arange(5))
            base = np.stack(
                [gx.ravel(), gy.ravel(), np.zeros(50)], axis=1
            ).astype(float)
            perturb = rng.uniform(-0.2, 0.2, size=(50, 3))
            perm = rng.permutation(50)
            target_pts = (base + perturb)[perm]
            m = match_frames(
                MotionState.rest(base), plane_mesh(target_pts),
                max_residual=np.inf,
            )
            cost = np.linalg.norm(
                base[:, None, :] - target_pts[None, :, :], axis=2
            )
            ri, ci = linear_sum_assignment(cost)
            optimal = dict(zip(ri, ci))
            total += len(m)
            agree += sum(
                1 for s, t in zip(m.source_indices, m.target_indices)
                if optimal[s] == t
            )
        assert total > 0
        assert agree / total >= 0.95


class TestUpdateMotionState:
    def test_stationary(self):
        prev = MotionState.rest([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        target = plane_mesh([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        new = update_motion_state(prev, CorrespondenceSet.identity(3), target)
        assert np.array_equal(new.velocities, np.zeros((3, 3)))
        assert np.array_equal(new.accelerations, np.zeros((3, 3)))

    def test_finite_differences(self):
        prev = MotionState.rest([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        target = plane_mesh([[1, 0, 0], [1, 1, 0], [1, 2, 0]])
        new = update_motion_state(prev, CorrespondenceSet.identity(3), target)
        assert np.array_equal(new.positions, target.vertices)
        assert np.allclose(new.velocities, [[1, 0, 0]] * 3)
        assert np.allclose(new.accelerations, [[1, 0, 0]] * 3)

    def test_constant_velocity_acceleration_settles(self):
        step = np.array([0.25, -0.5, 0.125])
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        state = MotionState.rest(pts)
        for k in range(1, 6):
            target = plane_mesh(pts + k * step)
            state = update_motion_state(
                state, CorrespondenceSet.identity(3), target
            )
            if k >= 2:
                assert np.allclose(state.accelerations, 0.0, atol=1e-12)
            assert np.allclose(state.velocities, np.broadcast_to(step, (3, 3)))

    def test_unmatched_coast_with_damping(self):
        prev = MotionState(
            positions=[[0, 0, 0], [5, 5, 5]],
            velocities=[[1, 0, 0], [2, 0, 0]],
            accelerations=[[0, 0, 0], [0, 4, 0]],
        )
        target = plane_mesh([[9, 9, 9], [9, 9, 10], [9, 10, 9]])
        matches = CorrespondenceSet([0], [0], [0.0])
        new = update_motion_state(prev, matches, target)
        # vertex 1 coasts: position advanced, velocity halved, accel zeroed
        assert np.array_equal(new.positions[1], [7, 5, 5])
        assert np.array_equal(new.velocities[1], [1, 2, 0])
        assert np.array_equal(new.accelerations[1], [0, 0, 0])
