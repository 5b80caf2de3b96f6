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

import uecsm.analysis
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


def test_traced_search_records_the_second_stage(monkeypatch):
    # every Re(cT) of Q diag(1, 1, 2) Q* has a repeated eigenvalue, so the
    # closed form declines and the second stage, which does not iterate, runs
    tracing = _load_tracing(monkeypatch)
    q = random_unitary(rng(103), 3)
    t = q @ np.diag([1.0, 1.0, 2.0]).astype(complex) @ q.conj().T
    with tracing.Tracer() as tracer:
        result = uecsm.cli.find_symmetrizer(t)
    assert result.found
    spans = [s for s in tracer.spans if s.name == "oracle.find_symmetrizer"]
    assert [(s.outcome, s.iterations) for s in spans] == [("witness", 0)]
    assert (result.iterations, result.restarts_used) == (0, 1)


def _load_tool(monkeypatch, name):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_alternates_and_summarizes(monkeypatch):
    bench = _load_tool(monkeypatch, "bench_pairs")
    spec = {
        "end_to_end": [
            {"name": "p50_ms", "better": "lower", "bound": 0.05},
            {"name": "matrices_per_s", "better": "higher", "bound": 0.2},
        ]
    }
    # the change is faster on every seed but the last; its failure count is 1 op
    speeds = {"parent": [100, 104, 96, 102], "change": [110, 112, 108, 101]}
    calls = []

    def runner(checkout, argv):
        side = checkout.name
        seed = int(argv[argv.index("--seed") + 1])
        calls.append((seed, side))
        rate = speeds[side][seed - 1]
        metrics = {"p50_ms": 1000 / rate, "matrices_per_s": rate}
        return {
            "correct": True,
            "attempted": rate,
            "failed": int(side == "change" and seed == 4),
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
        }

    checkouts = {side: Path(side) for side in bench.SIDES}
    pairs = bench.run_pairs(checkouts, "batch", [1, 2, 3, 4], 1.0, runner=runner)
    assert calls == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change"), (4, "change"), (4, "parent"),
    ]  # fmt: skip
    record = bench.summarize(pairs, spec)
    assert record["failed_ops"] == {"parent": 0, "change": 1}
    rate = record["metrics"]["matrices_per_s"]
    assert rate["parent"] == {"q25": 99.0, "median": 101.0, "q75": 102.5, "runs": speeds["parent"]}
    assert rate["change"]["median"] == 109.0
    assert rate["change_wins"] == 3
    assert rate["relative_change_of_median"] == round(8 / 101, 4) and rate["within_bound"]
    # the parent's rates span 8 % of their median, inside a 20 % bound
    assert rate["resolved"]
    latency = record["metrics"]["p50_ms"]
    assert latency["change_wins"] == 3 and latency["within_bound"]
    # its latencies span 8 % too, wider than a 5 % bound, and one change run
    # (seed 4) is slower than the parent's fastest
    assert not latency["resolved"]
    assert bench.resolved([10.0, 9.0, 11.0], [8.9, 8.0, 8.5], True, 0.05)
    assert not bench.resolved([10.0, 9.0, 11.0], [9.1, 8.0, 8.5], True, 0.05)
    assert bench.resolved([100, 120, 90], [121, 130], False, 0.05)
    claimed = bench.claim("batch", record, "matrices_per_s", spec)
    assert (claimed["wins"], claimed["median_gap"], claimed["parent_iqr"]) == (3, 8.0, 3.5)
    assert not claimed["met"]  # 3 of 4 pairs is fewer than 9 in 10
    assert bench._seeds(["9601-9603", "7"]) == [9601, 9602, 9603, 7]


def test_stage_costs_prints_every_layer(monkeypatch, capsys):
    # one round of each workload's probe; the layers are put back afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(sys.modules, "perfbench_corpus", None)  # loaded afresh, removed afterwards
    module = _load_tool(monkeypatch, "stage_costs")
    layers = {name: getattr(uecsm.analysis, name) for name in module.LAYERS}
    for workload, timed in (("decide", module.LAYERS[:-1]), ("oracle", module.LAYERS)):
        assert module.main(["--workload", workload, "--rounds", "1"]) == 0
        assert {name: getattr(uecsm.analysis, name) for name in module.LAYERS} == layers
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"{workload}, seed 0, 1 rounds: us per matrix"
        rows = {line.split()[0]: float(line.split()[1]) for line in lines[2:]}
        assert list(rows) == ["analyze", *timed, "rest"]
        assert all(value > 0 for value in rows.values())
        # every row is timed in the one pass, so the layers and the rest add
        # up to analyze, up to the rounding of each printed value
        assert abs(sum(list(rows.values())[1:]) - rows["analyze"]) <= 0.05 * len(rows)


def test_import_costs_prints_every_module(monkeypatch, capsys):
    # one round: one fresh interpreter per module and one ``uecsm test`` run
    module = _load_tool(monkeypatch, "import_costs")
    assert module.main(["--rounds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 rounds, PYTHONDONTWRITEBYTECODE=1: medians, each import after numpy"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:5]}
    assert list(rows) == list(module.MODULES)
    assert rows["uecsm"][2:] == ["-"]  # the package root loads no submodule
    assert {"constructors", "nilpotent4", "gallery"}.isdisjoint(rows["uecsm.cli"][2:])
    assert all(float(row[0]) >= 0 and float(row[1]) > 0 for row in rows.values())
    assert lines[5].startswith("uecsm test fixtures/wat_counterexample.json: ")
    assert float(lines[5].split()[-3]) > 0


CODE_LINES_SAMPLE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment


def f(a,
      b):
    """Function docstring."""

    total = (a +
             b)
    return total


class C:
    """Class docstring."""

    x = """a string,
    not a docstring"""
'''


def test_code_lines_counts_code_only(monkeypatch, tmp_path, capsys):
    # docstrings, comment-only and blank lines drop out; a multi-line
    # expression or string counts every line it spans: import 1, def 2,
    # total 2, return 1, class 1, x 2
    code_lines = _load_tool(monkeypatch, "code_lines")
    (tmp_path / "sample.py").write_text(CODE_LINES_SAMPLE)
    assert code_lines.code_lines(tmp_path / "sample.py") == 9
    (tmp_path / "blank.py").write_text("\n# only a comment\n")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    code_lines.main()
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["blank.py", "0"], ["sample.py", "9"], ["total", "9"],
    ]  # fmt: skip
