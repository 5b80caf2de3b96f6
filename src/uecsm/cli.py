"""Command-line interface: matrix documents, argument parsing, report output.

Matrix files are JSON documents of the form::

    {"label": "optional name", "n": 4, "entries": [[[re, im], ...], ...]}

Subcommands, each of which takes only the options it reads:

* ``uecsm test FILE`` runs every applicable criterion and exits 0 when
  the matrix is UECSM, 1 when it is not, 2 on errors or when the
  criteria disagree.  It takes the analysis options ``--json``,
  ``--tol`` and ``--oracle``, and forwards the last two to
  :func:`~uecsm.analysis.analyze_stack`;
* ``uecsm classify-nilpotent --params a,b,c,d,e,f`` (with ``--tol``
  and ``--json``) runs the closed-form classification and cross-checks
  it against the trace test;
* ``uecsm construct --sig K,M --diag ...`` (with ``--seed`` and
  ``--out``) builds an example matrix from the indefinite-unitary
  machinery;
* ``uecsm batch DIR`` (with the analysis options of ``test``) processes
  a directory of documents and exits 1 when any file shows a conflict
  between criteria, else 2 when any file could not be read or
  analyzed, else 0.  A listed entry that is neither a file nor a
  directory (a FIFO, socket or device) is an error row, decided without
  opening it.  It parses every file, then runs
  :func:`~uecsm.analysis.analyze_stack` once per matrix size, so each
  criterion runs once on the stack of that size's matrices.  With
  ``--json`` it prints one compact JSON document, and every field
  except the top-level ``timings`` block is the same on every run.  In
  text mode the row of a file that could not be read or analyzed shows
  the reason.

A text line that holds a label, a file name or an error writes each
character stdout cannot encode as its backslash escape, so it exits
with the code of the same run with ``--json``.

Every ``--json`` report is encoded by :func:`_print_json` with orjson,
keys sorted: compact for ``batch``, with a 2-space indent for ``test``
and ``classify-nilpotent``.  Floats are written as the shortest text
that reads back to the same value, and non-ASCII text as UTF-8.  Matrix
documents are written with ``json.dumps``, whose text is the canonical
form.

:func:`load_matrix_document` reads a document file once as bytes and
decodes it with orjson where that gives what ``json.loads`` gives, and
with :func:`parse_document_text` (``json.loads`` on the UTF-8 text)
everywhere else: text with more than 1024 brackets, text orjson refuses
(NaN, ``Infinity``, ``1e309``, a lone surrogate, a BOM, bad UTF-8), a
key other than ``label``, ``n`` and ``entries``, and any document that
fails its checks, such as an ``n`` beyond 64 bits, which orjson reads as
a float.  So every file gives the values, or the error text, that the
stdlib decoder alone gives, with one exception: text whose brackets
outside strings nest deeper than 512 levels is refused before it is
decoded, where ``json.loads`` would refuse it or not depending on how
deep the caller's stack already is.  Where orjson decoded the document
and its text holds no ``true`` or ``false``, the entries are converted
as one array, which is the matrix when it is a finite float or integer
``(n, n, 2)`` array.  Every other document is checked entry by entry,
and each error names the first entry at fault.

``batch`` passes each file's path as text, the text of ``DIR / name``,
and makes a :class:`~pathlib.Path` only for the stem that labels an
error row or a document without a label.

:func:`main` builds the argument parser once per process, on its first
call, and every later call parses with the same parser.

The analysis and the rule that decides each report live in
:mod:`uecsm.analysis`; ``uecsm test`` calls its :func:`analyze`.
Importing this module loads that analysis and nothing else of the
package: :mod:`uecsm.nilpotent4` is imported when ``classify-nilpotent``
runs, :mod:`uecsm.constructors` when ``construct`` runs, and
:mod:`uecsm.gallery` when :func:`write_gallery_fixtures` is called.

A subcommand whose stdout is closed before it has written everything
(``uecsm batch DIR --json | head``) exits 2 with one ``error:`` line on
stderr and no traceback.

``--tol`` defaults to 1e-8 and governs every criterion; the oracle's
witness tolerance is the constant :data:`~uecsm.oracle.WITNESS_TOL`.
The tolerance must be a finite positive number: a bad ``--tol`` value
is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import re
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
import orjson

from .analysis import Report, _outcome, analyze, analyze_stack
from .errors import ParseError, UecsmError
from .matcore import CMatrix, _require_tol, cmatrix
from .spectra import eigensystem
from .tracetests import DEFAULT_TOL, uecsm_verdict

# Not called in this module: ``perfbench/tracing.py`` times the library's
# transpose equivalence, the one-matrix angle tests and the oracle by
# wrapping these bindings, so removing them breaks every traced benchmark run.
from .angletests import angle_suite  # noqa: F401
from .oracle import find_symmetrizer  # noqa: F401
from .tracetests import transpose_equivalence  # noqa: F401

if TYPE_CHECKING:
    from .constructors import Signature
    from .nilpotent4 import NilpotentParams

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


#: The fields of a document.  orjson's reading of a document that holds
#: any other key is not used, so that nesting under an unknown key is
#: refused exactly when json.loads refuses it.
_FIELDS = frozenset(("label", "n", "entries"))

#: The most opening brackets a document may hold for orjson to decode it;
#: 1024 takes every matrix up to 31x31.  orjson 3.8 descends one C stack
#: frame per nesting level with no limit of its own, and a document nested
#: 150,000 deep crashes the process on an 8 MiB stack; a document with more
#: brackets goes to json.loads, which refuses deep nesting.
_ORJSON_MAX_BRACKETS = 1024

#: The deepest nesting :func:`parse_document_text` decodes.  json.loads
#: refuses nesting at a depth that shrinks by one with each frame already
#: on the caller's stack (about 990 at the top level of a script), so a
#: fixed bound well below that makes the outcome depend on the text alone.
_MAX_DEPTH = 512

#: JSON strings and runs of text with no bracket or quote in them
_NOT_BRACKETS = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[^"[\]{}]+', re.DOTALL)


def _document(raw: object, plain: bool = False) -> MatrixDocument:
    """Check a decoded document and build its matrix.

    With ``plain``, which says that the text holds no ``true`` or
    ``false``, the entries are first converted as one array: a float or
    integer ``(n, n, 2)`` array of finite numbers is the matrix.  numpy
    gives an integer entry the float that ``float(int)`` gives, but reads
    a boolean beside a float as a number, hence the flag.  Every other
    document is checked entry by entry, and each error names the first
    entry at fault.
    """
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
    if plain:
        try:
            array = np.array(entries)
        except ValueError:  # ragged, or nested too deep: the loop below says why
            array = np.empty(0)
        if array.dtype.kind in "fi" and array.shape == (n, n, 2):
            matrix = array.astype(float, copy=False).view(complex)[..., 0]
            if np.isfinite(matrix).all():
                matrix.flags.writeable = False  # read-only complex128, as cmatrix builds it
                return MatrixDocument(matrix=matrix, label=label)
    # one pass over the entries; both decoders yield exact list, int, float
    # and bool, so exact type checks also refuse true and false
    parts: list[float] = []
    for i, row in enumerate(entries):
        if type(row) is not list or len(row) != n:
            raise ParseError(f"row {i} must be a list of {n} entries")
        for j, cell in enumerate(row):
            if (
                type(cell) is not list
                or len(cell) != 2
                or type(cell[0]) not in (int, float)
                or type(cell[1]) not in (int, float)
            ):
                raise ParseError(f"entry ({i},{j}) must be a [re, im] pair")
            try:
                parts += (float(cell[0]), float(cell[1]))
            except OverflowError as exc:
                raise ParseError(f"entry ({i},{j}) is too large for a float") from exc
    data = np.array(parts).view(complex).reshape(n, n)
    try:
        matrix = cmatrix(data)
    except ValueError as exc:
        # json.loads reads 1e400, Infinity and NaN as floats that are not finite
        i, j = np.argwhere(~np.isfinite(data))[0]
        raise ParseError(f"entry ({i},{j}) is not finite") from exc
    return MatrixDocument(matrix=matrix, label=label)


def _orjson_document(data: bytes) -> Optional[MatrixDocument]:
    """The valid document orjson reads from ``data``, or None wherever
    ``json.loads`` might read it otherwise (the module docstring lists the
    cases).  What remains is read alike: orjson reads an entry beyond 64
    bits as the float that ``float(int)`` gives."""
    # a document no longer than the cap cannot hold more brackets than it
    if len(data) > _ORJSON_MAX_BRACKETS and data.count(b"[") + data.count(b"{") > _ORJSON_MAX_BRACKETS:
        return None
    try:
        raw = orjson.loads(data)
        if type(raw) is dict and raw.keys() <= _FIELDS:
            return _document(raw, b"true" not in data and b"false" not in data)
    except (orjson.JSONDecodeError, ParseError):
        pass
    return None


def _nesting_depth(text: str) -> int:
    """The deepest nesting of the brackets outside strings in JSON ``text``;
    a string left open ends the count."""
    brackets = _NOT_BRACKETS.sub("", text).partition('"')[0]
    opens = np.isin(np.frombuffer(brackets.encode(), np.uint8), (ord("["), ord("{")))
    return int(np.cumsum(np.where(opens, 1, -1)).max(initial=0))


def parse_document_text(text: str) -> MatrixDocument:
    # a text cannot nest deeper than it has opening brackets
    if text.count("[") + text.count("{") > _MAX_DEPTH and _nesting_depth(text) > _MAX_DEPTH:
        raise ParseError(f"invalid JSON: nested deeper than {_MAX_DEPTH} levels")
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers longer than
        # Python's digit limit; RecursionError is nesting too deep to decode
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _document(raw)


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


def _file_text(data: bytes, path: str | os.PathLike) -> str:
    """``data`` as ``Path.read_text`` decodes it: UTF-8 with universal
    newlines, whose line ends json's error positions count."""
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_matrix_document(path: str | os.PathLike) -> MatrixDocument:
    """Read the document at ``path``; a missing or empty label becomes the file stem."""
    try:
        with open(path, "rb", buffering=0) as f:  # one read, no buffer to fill
            data = f.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    doc = _orjson_document(data) or parse_document_text(_file_text(data, path))
    if not doc.label:
        doc = MatrixDocument(matrix=doc.matrix, label=Path(path).stem)
    return doc


def write_matrix_document(doc: MatrixDocument, path: Path) -> None:
    path.write_text(document_to_text(doc), encoding="utf-8")


def write_gallery_fixtures(directory: Path) -> list[Path]:
    """Write every gallery matrix as a fixture document; returns the paths."""
    from .gallery import GALLERY

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for label, (matrix, _) in GALLERY.items():
        path = directory / f"{label.replace('-', '_')}.json"
        write_matrix_document(MatrixDocument(matrix=matrix, label=label), path)
        paths.append(path)
    return paths


# --------------------------------------------------------------------------
# reports


#: The status column of each outcome in ``batch`` text output.
_BATCH_STATUS = {"error": "ERROR", "conflict": "CONFLICT", "uecsm": "uecsm", "not_uecsm": "not-uecsm"}


def exit_code_for(report: Report) -> int:
    """Pure mapping from a report to the process exit code."""
    outcome = _outcome(report)
    return {"uecsm": EXIT_UECSM, "not_uecsm": EXIT_NOT_UECSM}.get(outcome, EXIT_INCONCLUSIVE)


# --------------------------------------------------------------------------
# rendering


def _print_json(payload: dict, indent: bool = False) -> None:
    """Print ``payload`` as JSON with sorted keys, compact or with a 2-space indent."""
    option = orjson.OPT_SORT_KEYS | (orjson.OPT_INDENT_2 if indent else 0)
    try:
        print(orjson.dumps(payload, option=option).decode())
    except (orjson.JSONEncodeError, UnicodeEncodeError):
        # orjson refuses a str holding a lone surrogate, which json.loads
        # accepts in a label ("\ud800") and the file system gives for a file
        # name that is not valid UTF-8; and a stream that cannot encode a
        # non-ASCII label refuses orjson's UTF-8.  json.dumps escapes both.
        print(json.dumps(payload, indent=2 if indent else None, sort_keys=True))


def _echo(line: str) -> None:
    """Print a line of text output that may hold a label, a file name or an error.

    A character stdout cannot encode, such as a lone surrogate, or
    non-ASCII text on an ASCII stream, is written as its backslash escape
    (``\\ud800``, ``\\xe9``); every other character is written as
    ``print`` writes it.
    """
    try:
        print(line)
    except UnicodeEncodeError:
        print("".join(map(_encodable, line)))


def _encodable(char: str) -> str:
    """``char``, or its backslash escape where stdout cannot encode it."""
    try:
        char.encode(sys.stdout.encoding, sys.stdout.errors)
        return char
    except UnicodeEncodeError:
        return char.encode("ascii", "backslashreplace").decode("ascii")


def _print_report(report: Report, as_json: bool) -> None:
    if as_json:
        _print_json(report.to_dict(), indent=True)
        return
    _echo(f"matrix   : {report.label} ({report.dimension}x{report.dimension})")
    if report.error is not None:
        _echo(f"error    : {report.error}")
        return
    for key, verdict in report.verdicts.items():
        status = "pass" if verdict.passed else "FAIL"
        print(f"  {key:<22} {status}  max residual {verdict.max_residual:.3e}")
    print(f"spectrum : {report.spectral_status}")
    if report.oracle is not None:
        oracle = report.oracle
        stage = "intertwiner" if oracle.restarts_used else "closed form"
        print(f"oracle   : {oracle.status} ({stage}, residual {oracle.residual:.3e})")
    for note in report.notes:
        _echo(f"note     : {note}")
    if report.conflicts:
        pairs = ", ".join(f"{a}<->{b}" for a, b in report.conflicts)
        print(f"CONFLICT : {pairs}")
    else:
        print(f"uecsm    : {'yes' if report.uecsm else 'no'}")


# --------------------------------------------------------------------------
# subcommands


def _cmd_test(args: argparse.Namespace) -> int:
    doc = load_matrix_document(Path(args.file))
    report = analyze(doc.matrix, doc.label, tol=args.tol, run_oracle=args.run_oracle)
    _print_report(report, args.json)
    return exit_code_for(report)


def _parse_complex_component(text: str) -> complex:
    parts = text.split(":")
    if len(parts) > 2:
        raise ParseError(f"cannot parse complex component {text!r} (use re or re:im)")
    try:
        value = complex(*(float(part) for part in parts))
    except ValueError as exc:
        raise ParseError(f"cannot parse complex component {text!r}: {exc}") from exc
    if not cmath.isfinite(value):
        raise ParseError(f"complex component {text!r} is not finite")
    return value


def _parse_params(text: str) -> NilpotentParams:
    from .nilpotent4 import NilpotentParams

    pieces = text.split(",")
    if len(pieces) != 6:
        raise ParseError(f"--params needs 6 comma-separated values, got {len(pieces)}")
    try:
        return NilpotentParams.from_iterable(_parse_complex_component(p) for p in pieces)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _closed_forms(params: NilpotentParams) -> Optional[dict[str, complex]]:
    """The closed forms on the caller's parameters, or None where one overflows
    a float to inf or nan; the decision never reads them."""
    from .nilpotent4 import psi_closed_forms

    forms = asdict(psi_closed_forms(params))
    return forms if all(map(cmath.isfinite, forms.values())) else None


def _cmd_classify_nilpotent(args: argparse.Namespace) -> int:
    from .nilpotent4 import build_matrix, classify

    params = _parse_params(args.params)
    result = classify(params, args.tol)
    forms = _closed_forms(params)
    t = build_matrix(params)
    trace = uecsm_verdict(t, args.tol)
    agree = result.uecsm == trace.passed

    payload = {
        "params": [[v.real, v.imag] for v in params.as_tuple()],
        "satisfied": list(result.satisfied),
        "condition_residuals": {str(i): r for i, r in result.residuals},
        "closed_forms": None if forms is None else {name: [v.real, v.imag] for name, v in forms.items()},
        "uecsm_closed_form": result.uecsm,
        "uecsm_trace_test": trace.passed,
        "agree": agree,
    }
    if args.json:
        _print_json(payload, indent=True)
    else:
        print(f"satisfied conditions : {list(result.satisfied) or 'none'}")
        for idx, residual in result.residuals:
            print(f"  condition {idx}: residual {residual:.3e}")
        if forms is None:
            print("closed forms overflow")
        else:
            print(f"closed forms psi4={forms['psi4']:.6g} psi7={forms['psi7']:.6g}")
        print(f"uecsm (closed form)  : {result.uecsm}")
        print(f"uecsm (trace test)   : {trace.passed}  max residual {trace.max_residual:.3e}")
        if not agree:
            print("CONFLICT : closed-form classification disagrees with trace test")
    if not agree:
        return EXIT_INCONCLUSIVE
    return EXIT_UECSM if result.uecsm else EXIT_NOT_UECSM


def _parse_signature(text: str) -> Signature:
    from .constructors import Signature

    try:
        k, m = (int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParseError(f"--sig must be 'k,m' integers, got {text!r}") from exc
    try:
        return Signature(k=k, n=k + m)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_diag(text: str) -> list[complex]:
    return [_parse_complex_component(p) for p in text.split(",")]


def _cmd_construct(args: argparse.Namespace) -> int:
    from .constructors import (
        conjugated_diagonal,
        diagonal_angle_suite,
        generate_wat_not_sat,
        random_su,
        sat_obstruction,
        su_membership,
    )

    sig = _parse_signature(args.sig)
    diag = _parse_diag(args.diag)
    if len(diag) != sig.n:
        raise ParseError(f"diagonal needs {sig.n} entries, got {len(diag)}")

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
            if membership.passed and diagonal_angle_suite(candidate, diag)["sat"].passed:
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
        _echo(f"wrote {args.out}")
    else:
        print(document_to_text(doc), end="")

    # reality pattern of the eigenvector triple products (column scaling
    # drops out, so eigenvectors stand in for the generating columns)
    triples = sat_obstruction(eigensystem(t).x)
    for tp in triples:
        print(f"  triple {tp.indices}: {tp.value:.6g} real={tp.is_real}", file=sys.stderr)
    return EXIT_UECSM


def _safe_to_open(entry: os.DirEntry) -> bool:
    """False for a FIFO, socket or device, told without opening it: opening a
    FIFO waits for a writer.  True for a directory or a link to nothing,
    whose opening fails at once with its usual error."""
    try:
        return entry.is_file() or entry.is_dir() or not os.path.exists(entry.path)
    except OSError:  # the target of a link cannot be examined; reading it says why
        return True


def _cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    try:
        # one pass that keeps what glob("*.json") keeps: hidden files,
        # directories (each becomes an error row), names matched case-sensitively
        with os.scandir(directory) as entries:
            listed = {e.name: _safe_to_open(e) for e in entries if e.name.endswith(".json")}
    except OSError as exc:
        print(f"error: cannot list {directory}: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    # one [report, seconds] record per listed file, in listing order; a
    # parsed file's report comes from the stacked analysis below
    files: dict[str, list] = {}
    groups: dict[int, list[tuple[str, MatrixDocument]]] = {}
    # each path is the text of ``directory / name``, which drops a leading "."
    base = str(directory)
    for name in sorted(listed):
        path = name if base == "." else os.path.join(base, name)
        start = time.perf_counter()
        report = None
        try:
            if not listed[name]:
                raise ParseError(f"cannot read {path}: not a regular file")
            doc = load_matrix_document(path)
            groups.setdefault(doc.matrix.shape[0], []).append((name, doc))
        except UecsmError as exc:
            report = Report(label=Path(name).stem, dimension=0, tol=args.tol, error=str(exc))
        files[name] = [report, time.perf_counter() - start]

    # one stacked analysis per dimension; each file is charged an equal share
    for members in groups.values():
        start = time.perf_counter()
        matrices = np.stack([doc.matrix for _, doc in members])
        labels = [doc.label for _, doc in members]
        group_reports = analyze_stack(matrices, labels, tol=args.tol, run_oracle=args.run_oracle)
        share = (time.perf_counter() - start) / len(members)
        for (name, _), report in zip(members, group_reports):
            files[name][0] = report
            files[name][1] += share

    counts = Counter(_outcome(report) for report, _ in files.values())
    if args.json:
        payload = {
            "reports": {name: report.to_dict() for name, (report, _) in files.items()},
            "summary": {
                "files": len(files),
                "uecsm": counts["uecsm"],
                "not_uecsm": counts["not_uecsm"],
                "conflicts": counts["conflict"],
                "errors": counts["error"],
            },
            # the only part of the payload that differs between runs
            "timings": {"runtime_seconds": {name: t for name, (_, t) in files.items()}},
        }
        _print_json(payload)
    else:
        for name, (report, elapsed) in files.items():
            status = _BATCH_STATUS[_outcome(report)]
            reason = f"  {report.error}" if report.error is not None else ""
            _echo(f"{name:<40} {status:<10} {elapsed * 1e3:7.1f} ms{reason}")
        print(
            f"-- {len(files)} files: {counts['uecsm']} uecsm, {counts['not_uecsm']} not, "
            f"{counts['conflict']} conflicts, {counts['error']} errors"
        )
    if counts["conflict"]:
        return EXIT_NOT_UECSM
    return EXIT_INCONCLUSIVE if counts["error"] else EXIT_UECSM


# --------------------------------------------------------------------------
# argument parsing


def _tolerance(text: str) -> float:
    """Parse a tolerance that :func:`~uecsm.matcore._require_tol` accepts (the argparse type of --tol)."""
    try:
        value = float(text)
        _require_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _non_negative_int(text: str) -> int:
    """Parse a seed, which numpy requires to be at least 0 (the argparse type of --seed)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uecsm",
        description="Decide unitary equivalence to a complex symmetric matrix (n <= 4).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of classify-nilpotent; test and batch add --oracle
    checks = argparse.ArgumentParser(add_help=False)
    checks.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="tolerance for all criteria")
    checks.add_argument("--json", action="store_true", help="machine-readable output")
    analysis = argparse.ArgumentParser(add_help=False, parents=[checks])
    analysis.add_argument("--oracle", dest="run_oracle", action="store_true", help="also run the witness oracle")

    p_test = sub.add_parser("test", parents=[analysis], help="run all criteria on one matrix file")
    p_test.add_argument("file", help="matrix document (JSON)")
    p_test.set_defaults(func=_cmd_test)

    p_cls = sub.add_parser("classify-nilpotent", parents=[checks], help="closed-form 4x4 nilpotent classification")
    p_cls.add_argument(
        "--params", required=True, help="a,b,c,d,e,f with each component re or re:im"
    )
    p_cls.set_defaults(func=_cmd_classify_nilpotent)

    p_con = sub.add_parser("construct", help="build an example matrix")
    p_con.add_argument("--sig", required=True, help="signature k,m of the indefinite form")
    p_con.add_argument("--diag", required=True, help="diagonal entries, e.g. -1,0,1,2")
    p_con.add_argument("--out", help="output file (defaults to stdout)")
    p_con.add_argument("--seed", type=_non_negative_int, default=0, help="seed of the construction")
    p_con.set_defaults(func=_cmd_construct)

    p_bat = sub.add_parser("batch", parents=[analysis], help="process a directory of matrix documents")
    p_bat.add_argument("dir", help="directory containing *.json documents")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads, built on its first call.

    Parsing leaves no state in the parser: each ``parse_args`` call
    starts from a fresh namespace filled with the declared defaults.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = _merge_negative_values(list(sys.argv[1:] if argv is None else argv))
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError as exc:
        # the reader is gone (``uecsm batch DIR | head``); stdout goes to
        # devnull so that the flush at exit finds somewhere to write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except UecsmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
