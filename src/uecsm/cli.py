"""Command-line interface: criteria dispatch, matrix I/O, batch reports.

Matrix files are JSON documents of the form::

    {"label": "optional name", "n": 4, "entries": [[[re, im], ...], ...]}

Subcommands:

* ``uecsm test FILE`` runs every applicable criterion and exits 0 when
  the matrix is UECSM, 1 when it is not, 2 on errors or when the
  criteria disagree;
* ``uecsm classify-nilpotent --params a,b,c,d,e,f`` runs the
  closed-form classification and cross-checks it against the trace
  test;
* ``uecsm construct --sig K,M --diag ... --seed N`` builds an example
  matrix from the indefinite-unitary machinery;
* ``uecsm batch DIR`` processes a directory of documents and exits 1
  when any file shows a conflict between criteria, else 2 when any file
  could not be read or analyzed, else 0.  It parses every file, then
  runs :func:`analyze_stack` once per matrix size, so each criterion
  runs once on the stack of that size's matrices.  With ``--json`` it
  prints one compact JSON document, and every field except the
  top-level ``timings`` block is the same on every run.

:func:`analyze` runs the one-matrix criteria; :func:`analyze_stack`
gives a stack of matrices the same reports, and both fill their
reports through one helper.

The ``UECSM_TOL`` environment variable overrides the default tolerance
of 1e-8; ``--tol`` overrides both.  Every tolerance must be a finite
positive number: a bad ``--tol*`` value is a usage error (exit 2), a
bad ``UECSM_TOL`` is ignored with a warning.  Conflicts are never
auto-resolved: disagreement between the exact trace criteria and the
numerical angle tests or oracle is the most interesting output this
tool can produce.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import gallery
from .angletests import angle_suite, angle_verdicts
from .constructors import (
    Signature,
    conjugated_diagonal,
    generate_wat_not_sat,
    random_su,
    sat_obstruction,
    su_membership,
)
from .errors import (
    ConsistencyError,
    DegenerateSpectrum,
    NoConvergence,
    ParseError,
    UecsmError,
    UnsupportedDimension,
)
from .matcore import CMatrix, _require_square, cmatrix, normalize_stack
from .nilpotent4 import NilpotentParams, build_matrix, classify, psi_closed_forms
from .oracle import WITNESS_TOL, OracleResult, find_symmetrizer
from .spectra import eigensystem, eigensystem_stack
from .tracetests import (
    DEFAULT_TOL,
    Verdict,
    transpose_equivalence,
    transpose_verdicts,
    uecsm_verdict,
    uecsm_verdicts,
)

EXIT_UECSM = 0
EXIT_NOT_UECSM = 1
EXIT_INCONCLUSIVE = 2


# --------------------------------------------------------------------------
# matrix documents


@dataclass(frozen=True)
class MatrixDocument:
    """A labeled matrix as read from or written to a JSON file."""

    matrix: CMatrix
    label: Optional[str] = None


def parse_document_text(text: str) -> MatrixDocument:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers longer than
        # Python's digit limit; RecursionError is nesting too deep to decode
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError("label must be a string")
    n = raw.get("n")
    entries = raw.get("entries")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("field 'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseError(f"'entries' must be a list of {n} rows")
    data = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries")
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in cell
                )
            ):
                raise ParseError(f"entry ({i},{j}) must be a [re, im] pair")
            try:
                data[i, j] = complex(float(cell[0]), float(cell[1]))
            except OverflowError as exc:
                raise ParseError(f"entry ({i},{j}) is too large for a float") from exc
    try:
        matrix = cmatrix(data)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return MatrixDocument(matrix=matrix, label=label)


def document_to_text(doc: MatrixDocument) -> str:
    """Canonical serialization; parse followed by write is byte-stable."""
    n = doc.matrix.shape[0]
    payload: dict = {
        "n": n,
        "entries": [
            [[float(doc.matrix[i, j].real), float(doc.matrix[i, j].imag)] for j in range(n)]
            for i in range(n)
        ],
    }
    if doc.label is not None:
        payload["label"] = doc.label
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load_matrix_document(path: Path) -> MatrixDocument:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    doc = parse_document_text(text)
    if doc.label is None:
        doc = MatrixDocument(matrix=doc.matrix, label=path.stem)
    return doc


def write_matrix_document(doc: MatrixDocument, path: Path) -> None:
    path.write_text(document_to_text(doc), encoding="utf-8")


def write_gallery_fixtures(directory: Path) -> list[Path]:
    """Write every gallery matrix as a fixture document; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, (matrix, _) in gallery.GALLERY.items():
        path = directory / f"{label.replace('-', '_')}.json"
        write_matrix_document(MatrixDocument(matrix=matrix, label=label), path)
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# reports


def _verdict_dict(v: Verdict) -> dict:
    return {
        "criterion": v.criterion,
        "passed": v.passed,
        "tol": v.tol,
        "max_residual": v.max_residual,
        "residuals": {name: value for name, value in v.residuals},
    }


@dataclass
class Report:
    """Everything the CLI learned about one matrix."""

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


def _find_conflicts(report: Report) -> list[tuple[str, str]]:
    conflicts = []
    verdicts = report.verdicts
    trace = verdicts.get("uecsm")
    if trace is None:
        return conflicts
    transpose = verdicts.get("transpose_equivalence")
    if transpose is not None and transpose.passed != trace.passed:
        conflicts.append(("uecsm", "transpose_equivalence"))
    sat_v = verdicts.get("sat")
    if sat_v is not None and sat_v.passed != trace.passed:
        conflicts.append(("uecsm", "sat"))
    wat_v = verdicts.get("wat")
    if wat_v is not None and trace.passed and not wat_v.passed:
        conflicts.append(("uecsm", "wat"))
    if report.oracle is not None and report.oracle.found and not trace.passed:
        conflicts.append(("uecsm", "oracle"))
    return conflicts


def _spectral_refusal(exc: UecsmError) -> tuple[str, str]:
    """The spectral status and note of a report whose angle tests did not run."""
    if isinstance(exc, DegenerateSpectrum):
        return "degenerate", f"angle tests inapplicable: {exc}"
    return "no_convergence", f"eigensolver failed, angle tests skipped: {exc}"


def _finish(
    report: Report,
    trace: Verdict,
    transpose: Verdict,
    angles: Union[dict[str, Verdict], tuple[str, str]],
    oracle: Optional[OracleResult],
) -> Report:
    """Fill ``report`` from one matrix's outcomes; shared by :func:`analyze` and :func:`analyze_stack`.

    ``angles`` holds the angle verdicts by key, or the spectral status
    and note of :func:`_spectral_refusal` when they did not run.
    """
    report.verdicts["uecsm"] = trace
    report.verdicts["transpose_equivalence"] = transpose
    if isinstance(angles, tuple):
        report.spectral_status, note = angles
        report.notes.append(note)
    else:
        report.verdicts.update(angles)
    report.oracle = oracle
    report.conflicts = _find_conflicts(report)
    if not report.conflicts:
        report.uecsm = trace.passed
    return report


def analyze(
    t: CMatrix,
    label: str,
    tol: float = DEFAULT_TOL,
    run_oracle: bool = False,
    oracle_restarts: int = 20,
    oracle_tol: float = WITNESS_TOL,
    seed: int = 0,
    trace_tol: Optional[float] = None,
    angle_tol: Optional[float] = None,
    transpose_tol: Optional[float] = None,
) -> Report:
    """Run every applicable criterion on one matrix and collect conflicts.

    ``tol`` governs everything unless a per-criterion override is given.
    """
    report = Report(label=label, dimension=_require_square(t), tol=tol)
    try:
        trace = uecsm_verdict(t, tol if trace_tol is None else trace_tol)
        transpose = transpose_equivalence(t, tol if transpose_tol is None else transpose_tol)
    except UnsupportedDimension as exc:
        report.error = str(exc)
        return report

    angles: Union[dict[str, Verdict], tuple[str, str]]
    try:
        angles = angle_suite(t, tol if angle_tol is None else angle_tol).verdicts()
    except (DegenerateSpectrum, NoConvergence) as exc:
        angles = _spectral_refusal(exc)
    oracle = None
    if run_oracle:
        oracle = find_symmetrizer(t, restarts=oracle_restarts, witness_tol=oracle_tol, seed=seed)
    return _finish(report, trace, transpose, angles, oracle)


def analyze_stack(
    ts: np.ndarray,
    labels: Sequence[str],
    tol: float = DEFAULT_TOL,
    run_oracle: bool = False,
    oracle_restarts: int = 20,
    oracle_tol: float = WITNESS_TOL,
    seed: int = 0,
    trace_tol: Optional[float] = None,
    angle_tol: Optional[float] = None,
    transpose_tol: Optional[float] = None,
) -> list[Report]:
    """:func:`analyze` of every matrix of a ``(B, n, n)`` stack, one report per matrix.

    Each matrix is normalized once, and every criterion runs on the
    whole stack at once.  The reports equal those of :func:`analyze`
    with the same arguments; where :func:`analyze` raises a
    :class:`~uecsm.errors.ConsistencyError` from the determinant
    criterion, that matrix's report carries the error instead.  With
    ``run_oracle`` the search runs matrix by matrix after the criteria.
    """
    n = _require_square(ts, stacked=True)
    if len(labels) != len(ts):
        raise ValueError(f"{len(labels)} labels for {len(ts)} matrices")
    reps, mu, s = normalize_stack(ts)
    try:
        traces = uecsm_verdicts(reps, tol if trace_tol is None else trace_tol)
        transposes = transpose_verdicts(reps, tol if transpose_tol is None else transpose_tol)
    except UnsupportedDimension as exc:
        return [Report(label=label, dimension=n, tol=tol, error=str(exc)) for label in labels]
    angles = angle_verdicts(eigensystem_stack(reps, mu, s), tol if angle_tol is None else angle_tol)

    reports = []
    for b, label in enumerate(labels):
        report = Report(label=label, dimension=n, tol=tol)
        outcome = angles[b]
        if isinstance(outcome, ConsistencyError):
            report.error = str(outcome)
        else:
            if isinstance(outcome, UecsmError):
                outcome = _spectral_refusal(outcome)
            oracle = None
            if run_oracle:
                oracle = find_symmetrizer(
                    ts[b], restarts=oracle_restarts, witness_tol=oracle_tol, seed=seed
                )
            _finish(report, traces[b], transposes[b], outcome, oracle)
        reports.append(report)
    return reports


def exit_code_for(report: Report) -> int:
    """Pure mapping from a report to the process exit code."""
    if report.error is not None:
        return EXIT_INCONCLUSIVE
    if report.conflicts:
        return EXIT_INCONCLUSIVE
    return EXIT_UECSM if report.uecsm else EXIT_NOT_UECSM


# --------------------------------------------------------------------------
# rendering


def _print_report(report: Report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    print(f"matrix   : {report.label} ({report.dimension}x{report.dimension})")
    if report.error is not None:
        print(f"error    : {report.error}")
        return
    for key, verdict in report.verdicts.items():
        status = "pass" if verdict.passed else "FAIL"
        print(f"  {key:<22} {status}  max residual {verdict.max_residual:.3e}")
    print(f"spectrum : {report.spectral_status}")
    if report.oracle is not None:
        oracle = report.oracle
        if oracle.restarts_used == 0:  # the closed-form witness, before any restart
            detail = f"closed form, residual {oracle.residual:.3e}"
        else:
            detail = f"residual {oracle.residual:.3e}, restarts {oracle.restarts_used}"
        print(f"oracle   : {oracle.status} ({detail})")
    for note in report.notes:
        print(f"note     : {note}")
    if report.conflicts:
        pairs = ", ".join(f"{a}<->{b}" for a, b in report.conflicts)
        print(f"CONFLICT : {pairs}")
    else:
        print(f"uecsm    : {'yes' if report.uecsm else 'no'}")


# --------------------------------------------------------------------------
# subcommands


def _cmd_test(args: argparse.Namespace) -> int:
    try:
        doc = load_matrix_document(Path(args.file))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    report = analyze(
        doc.matrix,
        doc.label or "matrix",
        tol=args.tol,
        run_oracle=args.oracle,
        oracle_restarts=args.restarts,
        oracle_tol=args.tol_oracle,
        seed=args.seed,
        trace_tol=args.tol_trace,
        angle_tol=args.tol_angle,
        transpose_tol=args.tol_transpose,
    )
    _print_report(report, args.json)
    return exit_code_for(report)


def _parse_complex_component(text: str) -> complex:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex component {text!r}: {exc}") from exc
    raise ParseError(f"cannot parse complex component {text!r} (use re or re:im)")


def _parse_params(text: str) -> NilpotentParams:
    pieces = text.split(",")
    if len(pieces) != 6:
        raise ParseError(f"--params needs 6 comma-separated values, got {len(pieces)}")
    try:
        return NilpotentParams.from_iterable(_parse_complex_component(p) for p in pieces)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _cmd_classify_nilpotent(args: argparse.Namespace) -> int:
    try:
        params = _parse_params(args.params)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    result = classify(params, args.tol)
    forms = psi_closed_forms(params)
    t = build_matrix(params)
    trace = uecsm_verdict(t, args.tol)
    agree = result.uecsm == trace.passed

    payload = {
        "params": [[v.real, v.imag] for v in params.as_tuple()],
        "satisfied": list(result.satisfied),
        "condition_residuals": {str(i): r for i, r in result.residuals},
        "closed_forms": {
            "psi4": [forms.psi4.real, forms.psi4.imag],
            "psi7": [forms.psi7.real, forms.psi7.imag],
            "psi1_d0": [forms.psi1_d0.real, forms.psi1_d0.imag],
            "psi6_d0": [forms.psi6_d0.real, forms.psi6_d0.imag],
            "psi1_a0": [forms.psi1_a0.real, forms.psi1_a0.imag],
            "psi6_a0": [forms.psi6_a0.real, forms.psi6_a0.imag],
        },
        "uecsm_closed_form": result.uecsm,
        "uecsm_trace_test": trace.passed,
        "agree": agree,
    }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"satisfied conditions : {list(result.satisfied) or 'none'}")
        for idx, residual in result.residuals:
            print(f"  condition {idx}: residual {residual:.3e}")
        print(f"closed forms psi4={forms.psi4:.6g} psi7={forms.psi7:.6g}")
        print(f"uecsm (closed form)  : {result.uecsm}")
        print(f"uecsm (trace test)   : {trace.passed}  max residual {trace.max_residual:.3e}")
        if not agree:
            print("CONFLICT : closed-form classification disagrees with trace test")
    if not agree:
        return EXIT_INCONCLUSIVE
    return EXIT_UECSM if result.uecsm else EXIT_NOT_UECSM


def _parse_signature(text: str) -> Signature:
    try:
        k, m = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--sig must be 'k,m' integers, got {text!r}") from exc
    return Signature(k=k, n=k + m)


def _parse_diag(text: str) -> list[complex]:
    return [_parse_complex_component(p) for p in text.split(",")]


def _cmd_construct(args: argparse.Namespace) -> int:
    try:
        sig = _parse_signature(args.sig)
        diag = _parse_diag(args.diag)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if len(diag) != sig.n:
        print(f"error: diagonal needs {sig.n} entries, got {len(diag)}", file=sys.stderr)
        return EXIT_INCONCLUSIVE

    if min(sig.k, sig.minus) >= 2:
        t = generate_wat_not_sat(args.seed, sig, diag)
        kind = "wat-not-sat"
    else:
        # one-dimensional cone: every conjugated diagonal here is UECSM
        t = None
        for attempt in range(50):
            q = random_su(sig, seed=args.seed * 1_000_003 + attempt)
            candidate = conjugated_diagonal(q, diag)
            membership = su_membership(q, sig)
            if membership.passed and angle_suite(candidate).uecsm:
                t = candidate
                break
        if t is None:
            print("error: no verified construction after 50 attempts", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        kind = "lsat-uecsm"
    label = f"constructed-{kind}-sig{sig.k}{sig.minus}-seed{args.seed}"
    doc = MatrixDocument(matrix=t, label=label)
    if args.out:
        try:
            write_matrix_document(doc, Path(args.out))
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        print(f"wrote {args.out}")
    else:
        print(document_to_text(doc), end="")

    # reality pattern of the eigenvector triple products (column scaling
    # drops out, so eigenvectors stand in for the generating columns)
    triples = sat_obstruction(eigensystem(t).x)
    for tp in triples:
        print(f"  triple {tp.indices}: {tp.value:.6g} real={tp.is_real}", file=sys.stderr)
    return EXIT_UECSM


def _cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    names: list[str] = []
    reports: dict[str, Report] = {}
    seconds: dict[str, float] = {}
    groups: dict[int, list[tuple[str, MatrixDocument]]] = {}
    for path in sorted(directory.glob("*.json")):
        start = time.perf_counter()
        try:
            doc = load_matrix_document(path)
            groups.setdefault(doc.matrix.shape[0], []).append((path.name, doc))
        except UecsmError as exc:
            reports[path.name] = Report(label=path.stem, dimension=0, tol=args.tol, error=str(exc))
        names.append(path.name)
        seconds[path.name] = time.perf_counter() - start

    # one stacked analysis per dimension; each file is charged an equal share
    for members in groups.values():
        start = time.perf_counter()
        group_reports = analyze_stack(
            np.stack([doc.matrix for _, doc in members]),
            [doc.label or Path(name).stem for name, doc in members],
            tol=args.tol,
            run_oracle=args.oracle,
            oracle_restarts=args.restarts,
            oracle_tol=args.tol_oracle,
            seed=args.seed,
            trace_tol=args.tol_trace,
            angle_tol=args.tol_angle,
            transpose_tol=args.tol_transpose,
        )
        share = (time.perf_counter() - start) / len(members)
        for (name, _), report in zip(members, group_reports):
            reports[name] = report
            seconds[name] += share
    results = [(name, reports[name], seconds[name]) for name in names]

    n_conflict = sum(1 for _, r, _ in results if r.conflicts)
    n_error = sum(1 for _, r, _ in results if r.error is not None)
    n_pass = sum(1 for _, r, _ in results if r.uecsm is True)
    n_fail = sum(1 for _, r, _ in results if r.uecsm is False)

    if args.json:
        payload = {
            "reports": {name: r.to_dict() for name, r, _ in results},
            "summary": {
                "files": len(results),
                "uecsm": n_pass,
                "not_uecsm": n_fail,
                "conflicts": n_conflict,
                "errors": n_error,
            },
            # the only part of the payload that differs between runs
            "timings": {"runtime_seconds": {name: t for name, _, t in results}},
        }
        # compact, so that the C encoder runs (indent falls back to Python)
        print(json.dumps(payload, sort_keys=True))
    else:
        for name, report, elapsed in results:
            if report.error is not None:
                status = "ERROR"
            elif report.conflicts:
                status = "CONFLICT"
            else:
                status = "uecsm" if report.uecsm else "not-uecsm"
            print(f"{name:<40} {status:<10} {elapsed * 1e3:7.1f} ms")
        print(
            f"-- {len(results)} files: {n_pass} uecsm, {n_fail} not, "
            f"{n_conflict} conflicts, {n_error} errors"
        )
    if n_conflict:
        return EXIT_NOT_UECSM
    return EXIT_INCONCLUSIVE if n_error else EXIT_UECSM


# --------------------------------------------------------------------------
# argument parsing


def _tolerance(text: str) -> float:
    """Parse a tolerance: a finite positive number (the argparse type of every --tol*)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """Parse a count that must be at least 1 (the argparse type of --restarts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _default_tol() -> float:
    env = os.environ.get("UECSM_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        return _tolerance(env)
    except argparse.ArgumentTypeError:
        print(f"warning: ignoring bad UECSM_TOL={env!r}", file=sys.stderr)
        return DEFAULT_TOL


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=_tolerance, default=None, help="tolerance for all criteria")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--oracle", action="store_true", help="also run the unitary search")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized pieces")
    parser.add_argument(
        "--restarts", type=_positive_int, default=20, help="oracle restart budget"
    )
    parser.add_argument(
        "--tol-oracle", type=_tolerance, default=WITNESS_TOL, help="oracle witness tolerance"
    )
    parser.add_argument(
        "--tol-trace", type=_tolerance, default=None, help="override for trace criteria"
    )
    parser.add_argument(
        "--tol-angle", type=_tolerance, default=None, help="override for angle criteria"
    )
    parser.add_argument(
        "--tol-transpose", type=_tolerance, default=None, help="override for transpose equivalence"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uecsm",
        description="Decide unitary equivalence to a complex symmetric matrix (n <= 4).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run all criteria on one matrix file")
    p_test.add_argument("file", help="matrix document (JSON)")
    _add_common(p_test)
    p_test.set_defaults(func=_cmd_test)

    p_cls = sub.add_parser("classify-nilpotent", help="closed-form 4x4 nilpotent classification")
    p_cls.add_argument(
        "--params", required=True, help="a,b,c,d,e,f with each component re or re:im"
    )
    _add_common(p_cls)
    p_cls.set_defaults(func=_cmd_classify_nilpotent)

    p_con = sub.add_parser("construct", help="build an example matrix")
    p_con.add_argument("--sig", required=True, help="signature k,m of the indefinite form")
    p_con.add_argument("--diag", required=True, help="diagonal entries, e.g. -1,0,1,2")
    p_con.add_argument("--out", help="output file (defaults to stdout)")
    _add_common(p_con)
    p_con.set_defaults(func=_cmd_construct)

    p_bat = sub.add_parser("batch", help="process a directory of matrix documents")
    p_bat.add_argument("dir", help="directory containing *.json documents")
    _add_common(p_bat)
    p_bat.set_defaults(func=_cmd_batch)
    return parser


def _merge_negative_values(argv: Sequence[str]) -> list[str]:
    # argparse refuses option values like "-1,0,1,2"; fold them into --flag=value
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--diag", "--params") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = build_parser().parse_args(argv)
    if args.tol is None:
        args.tol = _default_tol()
    try:
        return args.func(args)
    except UecsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
