"""The benchmark tracer must still find every package binding it wraps.

``perfbench/tracing.py`` replaces module-level names of the package (for
example ``uecsm.tracetests.word_trace``) with counting or timing wrappers.
A renamed or removed binding makes every traced benchmark run fail, so
this test installs and uninstalls a tracer as part of the package's own
suite.
"""

import importlib.util
import sys
from pathlib import Path

import uecsm.tracetests

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    targets = [(o, a) for o, a, _, _ in tracing.SPAN_TARGETS]
    targets += [(o, a) for o, a, _ in tracing.COUNT_TARGETS]
    assert (uecsm.tracetests, "word_trace") in targets
    before = {(id(o), a): o.__dict__[a] for o, a in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(o.__dict__[a] is not before[id(o), a] for o, a in targets)
    finally:
        tracer.uninstall()
    assert {(id(o), a): o.__dict__[a] for o, a in targets} == before
