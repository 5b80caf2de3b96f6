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

import numpy as np

import uecsm.cli
import uecsm.tracetests
from uecsm.gallery import GALLERY

from _util import random_unitary, rng

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


def test_traced_analyze_is_one_root_span(monkeypatch):
    # ``cli.analyze`` is the root span of the traced one-matrix workloads
    tracing = _load_tracing(monkeypatch)
    matrix, _ = GALLERY["su22-lsat-example"]
    expected = uecsm.cli.analyze(matrix, "x").to_dict()
    with tracing.Tracer() as tracer:
        report = uecsm.cli.analyze(matrix, "x")
    assert report.to_dict() == expected
    last = tracer.spans[-1]
    assert (last.name, last.parent) == ("cli.analyze", None)


def test_traced_search_records_lm_steps(monkeypatch):
    # every Re(cT) of Q diag(1, 1, 2) Q* has a repeated eigenvalue, so the
    # closed form declines and the LM search runs from the identity
    tracing = _load_tracing(monkeypatch)
    q = random_unitary(rng(103), 3)
    t = q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T
    with tracing.Tracer() as tracer:
        result = uecsm.cli.find_symmetrizer(t)
    assert result.found
    spans = [s for s in tracer.spans if s.name == "oracle.find_symmetrizer"]
    assert [(s.outcome, s.iterations) for s in spans] == [("witness", result.iterations)]
    assert result.iterations > 0
