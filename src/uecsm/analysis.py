"""The analysis: every criterion on a stack of matrices, and one report each.

:func:`analyze_stack` is the one analysis: it normalizes a stack of
matrices of one size once and runs every criterion on the whole stack.
:func:`analyze` is its one-matrix case.  This module reads no file and
writes no output; :mod:`uecsm.cli` renders its reports.

Every report is decided by one rule.  :data:`_DECIDERS` lists the
verdicts that decide, in order, and the answers each decides by: the
trace verdict ``uecsm`` and SAT decide by passing or by failing, WAT
only by failing, since it is a necessary condition.  The oracle comes
after them: a ``witness`` or a ``refuted`` search decides, and an
``inconclusive`` one does not.  The first decision is the anchor, and
each later decision that differs from it is the conflict pair
``(anchor, key)``.  A report with no conflict takes the anchor's answer.
Conflicts are never auto-resolved: disagreement between the exact trace
criteria and the numerical angle tests or oracle is the most interesting
output this tool can produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .angletests import angle_verdicts
from .errors import ConsistencyError, DegenerateSpectrum, UecsmError, UnsupportedDimension
from .matcore import CMatrix, _require_square, _require_tol, normalize_stack
from .oracle import OracleResult, _symmetrizer
from .spectra import eigensystem_stack
from .tracetests import DEFAULT_TOL, Verdict, trace_verdicts

#: The verdicts that decide, in the order of their conflict pairs, each
#: with the values of ``passed`` by which it decides.
_DECIDERS = {"uecsm": (True, False), "sat": (True, False), "wat": (False,)}


def _verdict_dict(v: Verdict) -> dict:
    # every criterion names its residuals uniquely, so the dict keeps them all
    return {
        "criterion": v.criterion,
        "passed": v.passed,
        "tol": v.tol,
        "max_residual": v.max_residual,
        "residuals": dict(zip(v.names, v.row)),
    }


@dataclass
class Report:
    """Everything the analysis learned about one matrix."""

    label: str
    dimension: int
    tol: float
    verdicts: dict[str, Verdict] = field(default_factory=dict)
    spectral_status: str = "ok"
    uecsm: Optional[bool] = None
    oracle: Optional[OracleResult] = None
    conflicts: list[tuple[str, str]] = field(default_factory=list)
    error: Optional[str] = None
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        oracle = None
        if self.oracle is not None:
            oracle = {
                "status": self.oracle.status,
                "residual": self.oracle.residual,
                "iterations": self.oracle.iterations,
                "restarts_used": self.oracle.restarts_used,
            }
        return {
            "label": self.label,
            "dimension": self.dimension,
            "tol": self.tol,
            "verdicts": {k: _verdict_dict(v) for k, v in self.verdicts.items()},
            "spectral_status": self.spectral_status,
            "uecsm": self.uecsm,
            "oracle": oracle,
            "conflicts": [list(pair) for pair in self.conflicts],
            "error": self.error,
            "notes": list(self.notes),
        }


def _decide(report: Report) -> None:
    """Set the conflicts and the answer of a report that holds the trace verdict."""
    verdicts = report.verdicts
    decisions = []
    for key, answers in _DECIDERS.items():
        passed = verdicts[key].passed if key in verdicts else None
        if passed in answers:
            decisions.append((key, passed))
    if report.oracle is not None and report.oracle.status != "inconclusive":
        decisions.append(("oracle", report.oracle.found))
    (anchor, answer), *later = decisions
    report.conflicts = [(anchor, key) for key, found in later if found != answer]
    if not report.conflicts:
        report.uecsm = answer


def _spectral_refusal(exc: UecsmError) -> tuple[str, str]:
    """The spectral status and note of a report whose angle tests did not run."""
    if isinstance(exc, DegenerateSpectrum):
        return "degenerate", f"angle tests inapplicable: {exc}"
    return "no_convergence", f"eigensolver failed, angle tests skipped: {exc}"


def analyze(t: CMatrix, label: str, **options) -> Report:
    """Run every applicable criterion on one matrix and collect conflicts.

    This is the one-matrix case of :func:`analyze_stack`: ``options``
    are its keyword arguments, and the report is that of the stack
    ``t[None]``.
    """
    _require_square(t)
    return analyze_stack(t[None], [label], **options)[0]


def analyze_stack(
    ts: np.ndarray,
    labels: Sequence[str],
    tol: float = DEFAULT_TOL,
    run_oracle: bool = False,
) -> list[Report]:
    """Run every applicable criterion on each matrix of a ``(B, n, n)`` stack.

    ``tol`` governs the trace and angle criteria; it must be finite and
    positive, else ``ValueError``.  The trace criterion is the
    UECSM verdict of :func:`~uecsm.tracetests.trace_verdicts`; transpose
    equivalence is not reported, since for n <= 4 its non-trivial
    reversal gaps are the same traces.  Each
    matrix is normalized once, and every criterion runs on the whole
    stack at once; the reports equal those each matrix gets alone.  A
    matrix whose angle tests refuse it gets its spectral
    status and a note; one whose determinant identity cross-check
    fails (:class:`~uecsm.errors.ConsistencyError`) gets a report with
    ``error`` set.  With ``run_oracle`` the search runs matrix by
    matrix after the criteria, with the oracle's witness tolerance
    :data:`~uecsm.oracle.WITNESS_TOL`.
    Nothing in the analysis is random: each report depends only on its
    matrix and ``tol``.  Every entry must be finite: a NaN or
    infinite entry raises ``ValueError``, as in
    :func:`~uecsm.matcore.normalize_stack`.
    """
    n = _require_square(ts, stacked=True)
    _require_tol(tol)
    if len(labels) != len(ts):
        raise ValueError(f"{len(labels)} labels for {len(ts)} matrices")
    reps, mu, s = normalize_stack(ts)
    try:
        traces = trace_verdicts(reps, tol)
    except UnsupportedDimension as exc:
        return [Report(label=label, dimension=n, tol=tol, error=str(exc)) for label in labels]
    angles = angle_verdicts(eigensystem_stack(reps, mu, s), tol)

    reports = []
    for b, label in enumerate(labels):
        report = Report(label=label, dimension=n, tol=tol)
        reports.append(report)
        outcome = angles[b]
        if isinstance(outcome, ConsistencyError):
            report.error = str(outcome)
            continue
        report.verdicts["uecsm"] = traces[b]
        if isinstance(outcome, UecsmError):
            report.spectral_status, note = _spectral_refusal(outcome)
            report.notes.append(note)
        else:
            report.verdicts.update(outcome)
        if run_oracle:
            report.oracle = _symmetrizer(reps[b], s[b])
        _decide(report)
    return reports


def _outcome(report: Report) -> str:
    """What a report decided: ``error``, ``conflict``, ``uecsm`` or ``not_uecsm``."""
    if report.error is not None:
        return "error"
    if report.conflicts:
        return "conflict"
    return "uecsm" if report.uecsm else "not_uecsm"
