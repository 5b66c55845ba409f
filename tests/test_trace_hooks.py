"""Every ultron attribute the benchmark's traced run patches still exists.

perfbench/tracing.py wraps module attributes by name; a rename would only
show as a crash of the traced benchmark run, so it is checked here.
"""

import importlib.util
import sys
from pathlib import Path

import ultron.mesh.closest
import ultron.registration

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
