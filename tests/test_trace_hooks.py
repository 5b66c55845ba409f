"""Every ultron attribute the benchmark's traced run patches still exists.

perfbench/tracing.py wraps module attributes by name; a rename would only
show as a crash of the traced benchmark run, so it is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import ultron.mesh.closest
import ultron.registration
from ultron.mesh import closest_points
from ultron.synth import make_icosphere

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_patched_attributes_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # its dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    targets = [(module, attr) for module, attr, _, _ in tracing._PATCHES]
    targets += [(ultron.registration, "cg"), (ultron.mesh.closest, "TriangleBvh")]
    missing = [f"{module.__name__}.{attr}" for module, attr in targets
               if not callable(getattr(module, attr, None))]
    assert not missing


def test_index_built_once_per_mesh(monkeypatch):
    """The bench counts index builds by wrapping TriangleBvh; each mesh must
    build through that name exactly once, however often it is queried."""
    builds = []

    class Counting(ultron.mesh.closest.TriangleBvh):
        def __init__(self, *args):
            builds.append(1)
            super().__init__(*args)

    monkeypatch.setattr(ultron.mesh.closest, "TriangleBvh", Counting)
    first, second = make_icosphere(1), make_icosphere(1)
    closest_points(first, first.vertices)
    closest_points(first, first.vertices * 2.0)
    assert len(builds) == 1
    closest_points(second, second.vertices)
    assert len(builds) == 2
