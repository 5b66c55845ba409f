import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultron.mesh import Aabb
from ultron.codec import (
    QuantizationParams,
    dequantize_array,
    half_step,
    quantize_array,
    widen_to_f32,
)


def unit_grid():
    return Aabb([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])


def test_range_endpoints():
    grid = unit_grid()
    q = quantize_array(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                       grid.min, grid.max, 10)
    assert np.array_equal(q, [[0, 0, 0], [1023, 1023, 1023]])


def test_pinned_half_up_rounding():
    # x=0.5 at 10 bits: 0.5 * 1023 = 511.5 rounds UP to 512
    grid = unit_grid()
    q = quantize_array(np.array([[0.5, 0.5, 0.5]]), grid.min, grid.max, 10)
    assert np.array_equal(q, [[512, 512, 512]])
    back = dequantize_array(q, grid.min, grid.max, 10)
    assert back[0, 0] == pytest.approx(512 / 1023)
    assert abs(back[0, 0] - 0.5) < (1.0 / (2 * 1023))


def test_degenerate_axis_lossless():
    grid = Aabb([0.0, 2.5, 0.0], [1.0, 2.5, 1.0])
    pts = np.array([[0.3, 2.5, 0.9]])
    q = quantize_array(pts, grid.min, grid.max, 10)
    assert q[0, 1] == 0
    back = dequantize_array(q, grid.min, grid.max, 10)
    assert back[0, 1] == 2.5


def test_out_of_grid_clamped_with_warning(caplog):
    grid = unit_grid()
    with caplog.at_level("WARNING"):
        q = quantize_array(np.array([[1.5, -0.2, 0.5]]), grid.min, grid.max, 8)
    assert q[0, 0] == 255 and q[0, 1] == 0
    assert any("clamped" in r.message for r in caplog.records)


@given(seed=st.integers(min_value=0, max_value=2**31),
       bits=st.integers(min_value=1, max_value=16))
@settings(max_examples=50, deadline=None)
def test_reconstruction_bound(seed, bits):
    r = np.random.default_rng(seed)
    lo = r.normal(scale=10, size=3)
    hi = lo + r.random(3) * 20 + 1e-9
    grid = Aabb(lo, hi)
    pts = lo + r.random((1000, 3)) * (hi - lo)
    back = dequantize_array(quantize_array(pts, grid.min, grid.max, bits),
                            grid.min, grid.max, bits)
    bound = half_step(grid, bits)
    assert np.all(np.abs(back - pts) <= bound + 1e-12 * (hi - lo))


def test_requantization_is_identity(rng):
    grid = Aabb(rng.normal(size=3) - 5, rng.normal(size=3) + 5)
    pts = grid.min + rng.random((500, 3)) * grid.extent
    q1 = quantize_array(pts, grid.min, grid.max, 12)
    q2 = quantize_array(dequantize_array(q1, grid.min, grid.max, 12),
                        grid.min, grid.max, 12)
    assert np.array_equal(q1, q2)


def test_widen_to_f32_contains_grid(rng):
    for _ in range(200):
        lo = rng.normal(scale=1e3, size=3)
        hi = lo + rng.random(3) * 1e-3 + 1e-12
        w = widen_to_f32(Aabb(lo, hi))
        assert np.all(w.min <= lo)
        assert np.all(w.max >= hi)
        assert np.array_equal(w.min.astype(np.float32).astype(np.float64), w.min)


def test_params_validation():
    p = QuantizationParams()
    assert (p.qp, p.qt, p.qn) == (10, 11, 8)
    with pytest.raises(ValueError):
        QuantizationParams(qp=0)
    with pytest.raises(ValueError):
        QuantizationParams(qn=31)
