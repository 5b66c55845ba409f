"""A fixed computation, independent of ultron, that gauges the host's speed.

The benchmark runs on shared virtual machines whose speed drifts: the same
round trip ran 1.5 to 1.9 times faster in one run than in another a few
minutes later, and every timing of a run moved together. So the run times
this computation between frames and reports each timing scaled by
NOMINAL_S / (the computation's median time in the same run): the
timing the round trip would have shown on a host where the computation
takes NOMINAL_S. Wall-clock timings are printed next to the scaled ones.

The computation mixes what ultron's hot paths do: an interpreter loop, many
numpy calls on arrays the size of a 642-vertex mesh (what registration and
closest-point queries spend their time on), small dense matrix products and
a sort of a mid-sized array.
"""

import time

import numpy as np

# a typical time of the computation on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, 1 BLAS thread); it sets only the scale of scaled timings
NOMINAL_S = 0.015

_rng = np.random.default_rng(0)
_MATRIX = _rng.random((128, 128))
_VALUES = _rng.random(80_000)
_POINTS = _rng.random((642, 3))
_TARGETS = _rng.random((642, 3))


def time_once() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    for _ in range(300):
        d = _POINTS - _TARGETS
        np.argmin(np.sqrt((d * d).sum(axis=1)))
        np.minimum(_POINTS, _TARGETS)
    m = _MATRIX
    for _ in range(6):
        m = m @ _MATRIX
        m /= m.max()
    np.sort(_VALUES)
    return time.perf_counter() - start


def scale(samples: list[float]) -> float:
    """Factor that turns wall seconds measured alongside samples into
    seconds on the nominal host."""
    return NOMINAL_S / float(np.median(samples))
