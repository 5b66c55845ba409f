"""Uniform scalar quantization onto per-segment grids.

Rounding is pinned to round-half-up (floor(t + 0.5)) so encoder and
decoder lattices agree bit-exactly. A degenerate axis (zero extent) maps
every value to index 0 and reconstructs losslessly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..mesh import Aabb

logger = logging.getLogger(__name__)

DEFAULT_QP = 10
DEFAULT_QT = 11
DEFAULT_QN = 8


@dataclass(frozen=True)
class QuantizationParams:
    qp: int = DEFAULT_QP  # position bits
    qt: int = DEFAULT_QT  # uv bits
    qn: int = DEFAULT_QN  # normal bits

    def __post_init__(self):
        for name in ("qp", "qt", "qn"):
            bits = getattr(self, name)
            if not 1 <= bits <= 30:
                raise ValueError(f"{name} must be in [1, 30], got {bits}")


def quantize_array(values, mins, maxs, bits: int) -> np.ndarray:
    """Map values in [mins, maxs] (per column) to integer lattice indices;
    values outside are clamped with a warning."""
    vals = np.asarray(values, dtype=np.float64)
    outside = (vals < mins) | (vals > maxs)
    if outside.any():
        logger.warning(
            "%d coordinate(s) outside the quantization grid were clamped",
            int(outside.sum()),
        )
    return snap_to_lattice(vals, mins, maxs, bits)


def snap_to_lattice(values, mins, maxs, bits: int) -> np.ndarray:
    """Map values to lattice indices on [mins, maxs] (per column), clamping
    values outside silently: for values that may leave the grid by design,
    such as predictions from another segment's grid."""
    vals = np.asarray(values, dtype=np.float64)
    mins = np.asarray(mins, dtype=np.float64)
    extent = np.asarray(maxs, dtype=np.float64) - mins
    vals = np.clip(vals, mins, mins + extent)
    n_steps = (1 << bits) - 1
    safe_extent = np.where(extent > 0, extent, 1.0)
    t = (vals - mins) / safe_extent
    t = np.where(extent > 0, t, 0.0)
    idx = np.floor(t * n_steps + 0.5).astype(np.int64)
    return np.clip(idx, 0, n_steps).astype(np.int32)


def dequantize_array(indices, mins, maxs, bits: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.float64)
    mins = np.asarray(mins, dtype=np.float64)
    extent = np.asarray(maxs, dtype=np.float64) - mins
    n_steps = (1 << bits) - 1
    return mins + idx / n_steps * extent


def half_step(grid: Aabb, bits: int) -> np.ndarray:
    """Per-axis worst-case reconstruction error bound."""
    return grid.extent / (2.0 * ((1 << bits) - 1))


def widen_to_f32(grid: Aabb) -> Aabb:
    """Round the grid corners outward to float32 values.

    Containers store grids as f32; widening outward keeps every input point
    inside the stored grid so the reconstruction bound survives the cast.
    """
    mn32 = grid.min.astype(np.float32)
    mx32 = grid.max.astype(np.float32)
    mn_bad = mn32.astype(np.float64) > grid.min
    mx_bad = mx32.astype(np.float64) < grid.max
    mn32 = np.where(mn_bad, np.nextafter(mn32, np.float32(-np.inf)), mn32)
    mx32 = np.where(mx_bad, np.nextafter(mx32, np.float32(np.inf)), mx32)
    return Aabb(mn32.astype(np.float64), mx32.astype(np.float64))
