"""The analysis module: its one decision rule and its boundary with the CLI.

``uecsm.analysis`` decides each report by one rule: the first deciding
verdict is the anchor, and each later one that differs from it is a
conflict pair.  These tests pin the rule to the hand-written branches it
replaced (``_report_reference.py``) on every combination of deciding
verdicts, check that ``det3``, which the rule leaves out, never
disagrees with the trace verdict on a report without a conflict, and
check that importing the package, the analysis or the CLI loads only what
each needs.
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uecsm.analysis
from uecsm import DegenerateSpectrum, OracleResult, Verdict, analyze_stack

import _report_reference as reference
from _util import near_parallel_inputs

TOL = 1e-8
#: The residual rows of a verdict that passes at TOL and of one that fails.
PASSING, FAILING = ((0.0,), (1.0,))
ORACLE_STATUSES = (None, "witness", "refuted", "inconclusive")


def _verdict(key, passed):
    return Verdict(key, ("r",), PASSING if passed else FAILING, TOL)


def test_rule_matches_the_reference_on_every_combination(monkeypatch):
    # trace pass/fail x SAT absent/pass/fail x WAT absent/pass/fail x oracle
    # absent/witness/refuted/inconclusive, run through analyze_stack with each
    # layer replaced by the outcome it is to give
    cases = list(itertools.product((True, False), (None, True, False), (None, True, False), ORACLE_STATUSES))
    assert len(cases) == 72
    angles = []
    for trace, sat, wat, _ in cases:
        if sat is None and wat is None:
            angles.append(DegenerateSpectrum("no angle tests"))
            continue
        outcome = {key: _verdict(key, v) for key, v in (("wat", wat), ("sat", sat)) if v is not None}
        # lsat and det3 are out of the rule: they disagree with the trace verdict everywhere
        outcome.update(lsat=_verdict("lsat", not trace), det3=_verdict("det_criterion_3", not trace))
        angles.append(outcome)
    oracles = iter(None if status is None else OracleResult(status, None, 0.0, 0, 0) for *_, status in cases)
    traces = [_verdict("uecsm", trace) for trace, *_ in cases]
    monkeypatch.setattr(uecsm.analysis, "trace_verdicts", lambda reps, tol: traces)
    monkeypatch.setattr(uecsm.analysis, "eigensystem_stack", lambda reps, mu, s: None)
    monkeypatch.setattr(uecsm.analysis, "angle_verdicts", lambda spectral, tol: angles)
    monkeypatch.setattr(uecsm.analysis, "_symmetrizer", lambda *args: next(oracles))

    stack = np.eye(3, dtype=complex)[None].repeat(len(cases), 0)
    reports = analyze_stack(stack, [str(case) for case in cases], run_oracle=True)
    pairs = set()
    for case, report in zip(cases, reports):
        assert (report.conflicts, report.uecsm) == reference.decide(report), case
        pairs.update(report.conflicts)
    # every pair the reference can give is given
    assert pairs == {("uecsm", "sat"), ("uecsm", "wat"), ("uecsm", "oracle")}


def test_det3_disagrees_only_where_a_conflict_is_reported():
    # det3 is a two-sided verdict left out of the rule; on the near-parallel
    # corpus it disagrees with the trace verdict, always beside a SAT or WAT conflict
    inputs = near_parallel_inputs(600)
    reports = analyze_stack(np.stack([t for _, t in inputs]), [str(b) for b in range(len(inputs))])
    disagree = [
        r for r in reports if "det3" in r.verdicts and r.verdicts["det3"].passed != r.verdicts["uecsm"].passed
    ]
    assert disagree
    assert all(r.conflicts for r in disagree)


@pytest.mark.parametrize("tol", [0.0, -0.0, -1.0, math.nan, math.inf], ids=repr)
def test_tolerance_must_be_finite_and_positive(tol):
    # the rule of --tol: a report's tol is a finite positive number, and no
    # tolerance passes or fails every matrix
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        analyze_stack(np.eye(3, dtype=complex)[None], ["eye"], tol=tol)


def test_analysis_loads_none_of_the_cli():
    # each import loads only what it needs, and the package root resolves
    # every public name from its submodule on first access
    script = (
        "import importlib, sys\n"
        "import uecsm\n"
        "loaded = [m for m in sys.modules if m.startswith('uecsm.')]\n"
        "assert not loaded, loaded\n"
        "missing = set(uecsm.__all__) - set(dir(uecsm))\n"
        "assert not missing, missing\n"
        "import uecsm.analysis\n"
        "loaded = {'argparse', 'orjson', 'uecsm.cli'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "import uecsm.cli\n"
        "loaded = {'logging', 'uecsm.constructors', 'uecsm.nilpotent4', 'uecsm.gallery'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "star = {}\n"
        "exec('from uecsm import *', star)\n"
        "assert set(star) - {'__builtins__'} == set(uecsm.__all__)\n"
        "for name in uecsm.__all__:\n"
        "    module = importlib.import_module('uecsm.' + uecsm._EXPORTS[name])\n"
        "    assert star[name] is getattr(uecsm, name) is getattr(module, name), name\n"
        "assert uecsm.oracle is sys.modules['uecsm.oracle']\n"
        "assert uecsm.analyze is uecsm.cli.analyze is uecsm.analysis.analyze\n"
        "assert uecsm.analyze_stack is uecsm.cli.analyze_stack is uecsm.analysis.analyze_stack\n"
        "assert uecsm.Report is uecsm.cli.Report is uecsm.analysis.Report\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
