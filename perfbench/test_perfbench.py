"""Tests of the benchmark itself: certificates, tracing and output format.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from uecsm import gallery  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_certificate_separates_gallery_statuses():
    for label, (matrix, is_uecsm) in gallery.GALLERY.items():
        score = corpus.word_certificate(np.asarray(matrix))
        if is_uecsm:
            assert score == 0.0, label
        else:
            assert score >= 9e-5, (label, score)
    assert {k for k, (_, ok) in gallery.GALLERY.items() if ok} == {
        "nilpotent-e6",
        "scalar-plus-shift-22",
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corpus_is_certified_and_seeded(seed):
    mix = {kind: 6 for kind in corpus.KINDS}
    cases = corpus.make_corpus(seed, mix)
    assert len(cases) == sum(mix.values())
    for case in cases:
        if case.uecsm:
            unitarity, symmetry = corpus.witness_defect(case.matrix, case.witness)
            assert unitarity <= corpus.UECSM_MAX and symmetry <= corpus.UECSM_MAX, case.label
            assert case.certificate <= corpus.UECSM_MAX, case.label
        else:
            assert case.witness is None
            assert case.certificate >= corpus.CERT_MIN, case.label
    again = corpus.make_corpus(seed, mix)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(cases, again))
    other = corpus.make_corpus(seed + 1, mix)
    assert not any(np.array_equal(a.matrix, b.matrix) for a, b in zip(cases, other))


def test_phase_rotation_keeps_certificates():
    cases = corpus.make_corpus(3, {kind: 3 for kind in corpus.KINDS})
    for before, after in zip(cases, corpus.rotate_phases(cases, 7)):
        assert not np.allclose(before.matrix, after.matrix)
        if after.uecsm:
            assert max(corpus.witness_defect(after.matrix, after.witness)) <= corpus.UECSM_MAX
        else:
            assert after.certificate == pytest.approx(before.certificate, rel=1e-9)


def _originals():
    targets = [(o, a) for o, a, _, _ in tracing.SPAN_TARGETS] + [
        (o, a) for o, a, _ in tracing.COUNT_TARGETS
    ]
    return {(id(o), a): o.__dict__[a] for o, a in targets}


def test_tracer_restores_every_original():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert all(_originals()[key] is not fn for key, fn in before.items())
            1 / 0
    assert _originals() == before


def test_traced_spans_nest_and_count():
    workload = run.Decide()
    cases = corpus.make_corpus(5, {"gauss3": 1, "uecsm4": 1, "palin4": 1})
    state = workload.prepare(cases, HERE)
    tracer = tracing.Tracer()
    with tracer:
        m = run.measure(workload, state, 0.0, 0, tracer)
    assert (m.attempted, m.failed, m.passes) == (3, 0, 1)
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.analyze"] * 3
    ids = {s.id for s in tracer.spans}
    assert all(s.parent in ids for s in tracer.spans if s.parent is not None)
    assert tracer.counts["matcore.word_trace"] == 14 + 40 + 40
    metrics = tracing.layer_metrics(tracer, m.matrices, m.passes)
    assert metrics["spectra.eigensystem.refused"] == 1.0
    assert metrics["matcore.word_trace.calls"] == pytest.approx(94 / 3)
    assert metrics["oracle.witness_ms"] == 0.0


def test_covered_merges_overlaps():
    assert tracing._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert tracing._covered([]) == 0.0


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    def refuse(self):
        raise AssertionError("untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.main(["--workload", "decide", "--seed", "1", "--seconds", "0", "--trace", "0"])
    assert result["correct"] and result["failed"] == 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys, monkeypatch, tmp_path):
    before = _originals()
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.main(["--workload", "decide", "--seed", "2", "--seconds", "0", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last == json.loads(json.dumps(result))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert _originals() == before


def test_batch_output_is_checked(tmp_path):
    workload = run.Batch()
    state = workload.prepare(corpus.make_corpus(4, {"uecsm3": 1, "gauss4": 1}), tmp_path / "batch")
    m = run.measure(workload, state, 0.0, 0)
    assert (m.attempted, m.failed, m.matrices) == (1, 0, 2)
    mismatched = json.dumps(
        {
            "reports": {},
            "summary": {"files": 2, "uecsm": 1, "not_uecsm": 1, "conflicts": 0, "errors": 0},
        }
    )
    assert "do not match" in workload.check(state, 0, mismatched)
    assert "exit code" in workload.check(state, 1, mismatched)


def test_witness_check():
    from types import SimpleNamespace

    yes, no = corpus.make_corpus(6, {"uecsm4": 1, "gauss4": 1})

    def report(u):
        return SimpleNamespace(oracle=SimpleNamespace(found=u is not None, u=u))

    assert run.check_witness(report(yes.witness), yes) is None
    assert run.check_witness(report(None), no) is None
    assert "non-UECSM" in run.check_witness(report(np.eye(4)), no)
    assert "defects" in run.check_witness(report(np.eye(4)), yes)


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decide", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
