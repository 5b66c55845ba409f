import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ultron.mesh import Mesh
from ultron.tracking import MotionState, match_frames


def plane_mesh(points):
    """Any vertex soup with a dummy triangle so it passes Mesh invariants."""
    pts = np.asarray(points, dtype=np.float64)
    return Mesh(vertices=pts, triangles=[[0, 1, 2]])


class TestPredict:
    """The prediction match_frames makes: positions plus velocities."""

    def test_zero_motion(self):
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        s = MotionState(positions=pts, velocities=np.zeros((3, 3)))
        m = match_frames(s, plane_mesh(pts), max_residual=0.0)
        assert np.array_equal(m.source_indices, [0, 1, 2])
        assert np.array_equal(m.target_indices, [0, 1, 2])


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

    @pytest.mark.parametrize("bound", [-1.0, -np.inf, np.nan])
    def test_refuses_a_bound_no_match_can_meet(self, rng, bound):
        base = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="max_residual must"):
            match_frames(MotionState.rest(base), plane_mesh(base),
                         max_residual=bound)

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
    """MotionState.advance: the state after an accepted frame."""

    def test_stationary(self):
        prev = MotionState.rest([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        new = prev.advance([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert np.array_equal(new.velocities, np.zeros((3, 3)))

    def test_finite_differences(self):
        prev = MotionState.rest([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
        target = [[1, 0, 0], [1, 1, 0], [1, 2, 0]]
        new = prev.advance(target)
        assert np.array_equal(new.positions, target)
        assert np.array_equal(new.velocities, [[1, 0, 0]] * 3)
        # the next prediction is one more step of the same motion
        ahead = plane_mesh([[2, 0, 0], [2, 1, 0], [2, 2, 0]])
        m = match_frames(new, ahead, max_residual=0.0)
        assert np.array_equal(m.target_indices, [0, 1, 2])

    def test_constant_velocity_acceleration_settles(self):
        step = np.array([0.25, -0.5, 0.125])
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        state = MotionState.rest(pts)
        for k in range(1, 6):
            state = state.advance(pts + k * step)
            assert np.allclose(state.velocities, np.broadcast_to(step, (3, 3)))
            # constant velocity: the prediction lands on the next frame
            ahead = plane_mesh(pts + (k + 1) * step)
            assert len(match_frames(state, ahead, max_residual=1e-12)) == 3
