import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from ultron.errors import InvalidMeshError
from ultron.mesh import Mesh
from ultron.tracking import match_frames


def plane_mesh(points):
    """Any vertex soup with a dummy triangle so it passes Mesh invariants."""
    pts = np.asarray(points, dtype=np.float64)
    return Mesh(vertices=pts, triangles=[[0, 1, 2]])


class TestPredict:
    """The prediction match_frames makes: positions, moved on by the step
    from previous when it is given."""

    def test_zero_motion(self):
        # no previous frame (a segment's key): the prediction is positions
        pts = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        m = match_frames(pts, plane_mesh(pts), max_residual=0.0)
        assert np.array_equal(m.source_indices, [0, 1, 2])
        assert np.array_equal(m.target_indices, [0, 1, 2])


class TestMatchFrames:
    def test_self_match_is_identity(self, sphere_162):
        matches = match_frames(sphere_162.vertices, sphere_162)
        assert len(matches) == sphere_162.vertex_count
        assert np.array_equal(matches.source_indices, matches.target_indices)
        assert np.all(matches.residuals == 0.0)

    def test_motion_predicted_match_exact(self, rng):
        base = rng.normal(size=(40, 3))
        delta = np.array([0.05, 0.0, 0.0])
        # source moved from base to base + delta; the target uses the same
        # float path the prediction takes, so residuals are exactly 0
        positions = base + delta
        target = plane_mesh(positions + (positions - base))
        matches = match_frames(positions, target, previous=base)
        assert len(matches) == 40
        assert np.array_equal(matches.source_indices, matches.target_indices)
        assert np.all(matches.residuals == 0.0)

    def test_translation_invariance(self, rng):
        base = rng.normal(size=(30, 3))
        target_pts = base + rng.normal(scale=0.01, size=base.shape)
        shift = np.array([17.0, -4.0, 2.5])
        m1 = match_frames(base, plane_mesh(target_pts), max_residual=np.inf)
        m2 = match_frames(base + shift, plane_mesh(target_pts + shift),
                          max_residual=np.inf)
        assert np.array_equal(m1.source_indices, m2.source_indices)
        assert np.array_equal(m1.target_indices, m2.target_indices)
        assert np.allclose(m1.residuals, m2.residuals, atol=1e-12)

    def test_max_residual_filters(self, rng):
        base = rng.normal(size=(20, 3))
        target = plane_mesh(base + np.array([0.5, 0, 0]))
        none = match_frames(base, target, max_residual=0.1)
        assert len(none) == 0

    @pytest.mark.parametrize("bound", [-1.0, -np.inf, np.nan])
    def test_refuses_a_bound_no_match_can_meet(self, rng, bound):
        base = rng.normal(size=(20, 3))
        with pytest.raises(ValueError, match="max_residual must"):
            match_frames(base, plane_mesh(base), max_residual=bound)

    @pytest.mark.parametrize("positions, previous", [
        (np.zeros((4, 2)), None),
        (np.zeros((4, 3)), np.zeros((3, 3))),
        (np.full((4, 3), np.nan), None),
        (np.zeros((4, 3)), np.full((4, 3), np.inf)),
    ], ids=["not-3d", "previous-shape", "nan", "inf-step"])
    def test_refuses_malformed_positions(self, positions, previous):
        with pytest.raises(InvalidMeshError):
            match_frames(positions, plane_mesh(np.eye(3)), previous=previous)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_injective_both_ways(self, seed):
        r = np.random.default_rng(seed)
        src = r.normal(size=(25, 3))
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
            m = match_frames(base, plane_mesh(target_pts), max_residual=np.inf)
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


class TestPreviousFrame:
    """match_frames(..., previous=...): the step from the frame before."""

    def test_stationary(self):
        # a previous frame equal to positions is a zero step
        pts = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        m = match_frames(pts, plane_mesh(pts), max_residual=0.0, previous=pts)
        assert np.array_equal(m.target_indices, [0, 1, 2])
        assert np.all(m.residuals == 0.0)

    def test_finite_differences(self):
        prev = [[0, 0, 0], [0, 1, 0], [0, 2, 0]]
        positions = [[1, 0, 0], [1, 1, 0], [1, 2, 0]]
        # the prediction is one more step of the same motion ...
        ahead = plane_mesh([[2, 0, 0], [2, 1, 0], [2, 2, 0]])
        m = match_frames(positions, ahead, max_residual=0.0, previous=prev)
        assert np.array_equal(m.target_indices, [0, 1, 2])
        # ... which positions alone do not reach
        assert len(match_frames(positions, ahead, max_residual=0.0)) == 0

    def test_constant_velocity_lands_on_the_next_frame(self):
        step = np.array([0.25, -0.5, 0.125])
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        for k in range(1, 6):
            ahead = plane_mesh(pts + (k + 1) * step)
            m = match_frames(pts + k * step, ahead, max_residual=1e-12,
                             previous=pts + (k - 1) * step)
            assert len(m) == 3
