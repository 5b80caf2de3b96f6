"""Span tracing around the package's public functions, from outside it.

:class:`Tracer` replaces a function where its caller looks it up (for
example ``uecsm.angletests.eigensystem``, the name ``angle_suite``
calls) with a wrapper that records a span: name, start, end, parent
span, operation id, thread and outcome.  Spans stay in memory until
:meth:`Tracer.write`.  :meth:`Tracer.uninstall` puts every original
back; the untraced run never calls :meth:`Tracer.install`.

Threads started inside an operation (the batch command's pool) begin
with an empty span stack, so their top spans take the operation's root
span as parent.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import uecsm.angletests
import uecsm.cli
import uecsm.oracle
import uecsm.spectra
import uecsm.tracetests


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    thread: int
    outcome: str  # "ok", a result status, or the exception class name
    iterations: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _oracle_outcome(result) -> tuple[str, int]:
    return result.status, result.iterations


#: (owner, attribute, span name, outcome hook or None).  Each attribute is
#: the binding its caller looks up at call time.
SPAN_TARGETS: tuple[tuple[Any, str, str, Optional[Callable]], ...] = (
    (uecsm.cli, "analyze", "cli.analyze", None),
    (uecsm.cli, "load_matrix_document", "cli.parse", None),
    (uecsm.cli.Report, "to_dict", "cli.render", None),
    (uecsm.cli, "uecsm_verdict", "tracetests.uecsm_verdict", None),
    (uecsm.cli, "transpose_equivalence", "tracetests.transpose_equivalence", None),
    (uecsm.cli, "angle_suite", "angletests.angle_suite", None),
    (uecsm.angletests, "eigensystem", "spectra.eigensystem", None),
    (uecsm.spectra, "durand_kerner", "spectra.durand_kerner", None),
    (uecsm.angletests, "wat", "angletests.wat", None),
    (uecsm.angletests, "sat", "angletests.sat", None),
    (uecsm.angletests, "lsat", "angletests.lsat", None),
    (uecsm.cli, "find_symmetrizer", "oracle.find_symmetrizer", _oracle_outcome),
)

#: (owner, attribute, counter name): called too often for a span each.
COUNT_TARGETS: tuple[tuple[Any, str, str], ...] = (
    (uecsm.tracetests, "word_trace", "matcore.word_trace"),
    (uecsm.oracle, "cayley_retract", "oracle.cayley_retract"),
)


class Tracer:
    """Records spans and call counts while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: Optional[int] = None
        self._root: Optional[int] = None
        self._saved: list[tuple[Any, str, Any]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for owner, attr, name, hook in SPAN_TARGETS:
                self._patch(owner, attr, self._span_wrapper(name, getattr(owner, attr), hook))
            for owner, attr, name in COUNT_TARGETS:
                self._patch(owner, attr, self._count_wrapper(name, getattr(owner, attr)))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, fn: Callable, hook: Optional[Callable], args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        outcome, iterations = "ok", 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                outcome, iterations = hook(result)
            return result
        except BaseException as exc:
            outcome = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, start, end, parent, self._op, threading.get_ident(), outcome, iterations)
            )

    def _span_wrapper(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, fn, hook, args, kwargs)

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def operation(self, op_id: int, name: Optional[str], fn: Callable, *args, **kwargs):
        """Run one benchmark operation as ``op_id``.

        With a ``name`` the call itself is recorded as the root span;
        without one its first traced call is the root.
        """
        self._op = op_id
        try:
            if name is None:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            self._root = sid
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append(
                    Span(sid, name, start, end, None, op_id, threading.get_ident(), "ok")
                )
        finally:
            self._op = None
            self._root = None

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- derived per-layer metrics ---------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, matrices: int, passes: int) -> dict[str, float]:
    """Per-layer figures from the spans; a layer off this workload's path reads 0.

    Times are means per call.  ``matrices`` and ``passes`` are the
    numbers analyzed and completed while the tracer was installed.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def mean_us(name: str, keep: Callable[[Span], bool] = lambda s: True) -> float:
        return _mean([s.duration for s in by_name[name] if keep(s)]) * 1e6

    def self_time(span: Span, only: Optional[str] = None) -> float:
        kids = [c for c in children[span.id] if only is None or c.name == only]
        return span.duration - _covered([(c.start, c.end) for c in kids])

    batches = by_name["cli.batch"]
    batch_wall = sum(s.duration for s in batches)
    batch_busy = sum(c.duration for s in batches for c in children[s.id])
    suites = [s for s in by_name["angletests.angle_suite"] if s.outcome == "ok"]
    eig = by_name["spectra.eigensystem"]
    searches = by_name["oracle.find_symmetrizer"]
    found = [s for s in searches if s.outcome == "witness"]
    missed = [s for s in searches if s.outcome == "inconclusive"]
    iterations = sum(s.iterations for s in searches)

    return {
        "cli.analyze.self_us": _mean([self_time(s) for s in by_name["cli.analyze"]]) * 1e6,
        "cli.parse.us": mean_us("cli.parse"),
        "cli.render.us": mean_us("cli.render"),
        "cli.batch.self_ms": _mean([self_time(s) for s in batches]) * 1e3,
        "cli.batch.busy_over_wall": batch_busy / batch_wall if batch_wall else 0.0,
        "tracetests.uecsm_verdict.us": mean_us("tracetests.uecsm_verdict"),
        "tracetests.transpose_equivalence.us": mean_us("tracetests.transpose_equivalence"),
        "matcore.word_trace.calls": tracer.counts["matcore.word_trace"] / matrices if matrices else 0.0,
        "spectra.eigensystem.us": mean_us("spectra.eigensystem", lambda s: s.outcome == "ok"),
        "spectra.eigensystem.refused_us": mean_us("spectra.eigensystem", lambda s: s.outcome != "ok"),
        "spectra.eigensystem.refused": sum(s.outcome != "ok" for s in eig) / passes if passes else 0.0,
        "spectra.durand_kerner.us": mean_us("spectra.durand_kerner"),
        "angletests.angle_suite.self_us": _mean([self_time(s, "spectra.eigensystem") for s in suites]) * 1e6,
        "angletests.wat.us": mean_us("angletests.wat"),
        "angletests.sat.us": mean_us("angletests.sat"),
        "angletests.lsat.us": mean_us("angletests.lsat"),
        "oracle.witness_ms": _mean([s.duration for s in found]) * 1e3,
        "oracle.inconclusive_ms": _mean([s.duration for s in missed]) * 1e3,
        "oracle.iterations.witness": _mean([s.iterations for s in found]),
        "oracle.iterations.inconclusive": _mean([s.iterations for s in missed]),
        "oracle.us_per_iteration": sum(s.duration for s in searches) / iterations * 1e6 if iterations else 0.0,
        "oracle.retracts_per_iteration": tracer.counts["oracle.cayley_retract"] / iterations if iterations else 0.0,
    }
