"""Benchmark for the uecsm package: three workloads with certified outputs.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* ``decide``: ``cli.analyze`` without the oracle, one matrix per operation;
* ``batch``:  ``uecsm batch DIR --json`` through ``cli.main``, one command
  per operation over a seeded directory of matrix documents;
* ``oracle``: ``cli.analyze(run_oracle=True)``, one matrix per operation.

Every output is checked against certificates computed in ``corpus.py``.
With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the run is split into
an untraced half and a traced half and the JSON holds the per-layer
metrics.  Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report.schema.json"
OUT = HERE / "out"

if not (SRC / "uecsm" / "__init__.py").is_file() or not SCHEMA.is_file():
    print(f"error: no uecsm source tree next to {HERE.name}/", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(SRC), str(HERE)]

import numpy as np  # noqa: E402
import uecsm.cli as cli  # noqa: E402
from corpus import make_corpus, rotate_phases, witness_defect  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from uecsm.matcore import cmatrix  # noqa: E402

if Path(cli.__file__).resolve().parent != SRC / "uecsm":
    print(f"error: imported uecsm from {cli.__file__}", file=sys.stderr)
    sys.exit(2)

#: Operations a measured run completes at least, so that ten samples lie
#: beyond the 90th percentile.
MIN_OPS = 100

#: Corpus draws per run; setup_s counts the median of their times.
SETUP_REPS = 3

#: Matrices per pass, by kind.  3x3 inputs are the cheapest, distinct
#: 4x4 next, 4x4 nilpotent (refused by the spectral layer) the dearest;
#: with shares of 30/45/25 % the median falls inside the distinct 4x4
#: class and the 90th percentile inside the nilpotent class.
DECIDE_MIX = {"uecsm3": 12, "gauss3": 12, "uecsm4": 18, "gauss4": 18, "palin4": 10, "nilgen4": 10}

#: Documents in the batch directory, in the same proportions.
BATCH_MIX = {"uecsm3": 4, "gauss3": 3, "uecsm4": 5, "gauss4": 6, "palin4": 3, "nilgen4": 3}

#: Oracle inputs: a majority that the search symmetrizes (witness path,
#: sets the median) and a minority it can only give up on after all its
#: restarts (inconclusive path, sets the 90th percentile and throughput).
ORACLE_MIX = {"uecsm3": 16, "uecsm4": 16, "palin4": 16, "gauss3": 6, "gauss4": 5, "nilgen4": 5}

#: The oracle inputs are one fixed panel, each matrix turned by a seeded
#: phase.  The search's cost is invariant under T -> e^{i phi} T up to
#: rounding, while search costs vary by 5x or more between fresh draws:
#: fresh panels of this size would put the seed-to-seed spread of p50_ms
#: near 23 % and that of p90_ms and matrices_per_s near 17 %.
ORACLE_PANEL_SEED = 0

#: Bounds of the benchmark's own witness check on oracle output.  The
#: search stops at a normalized asymmetry of 1e-6 (its ``WITNESS_TOL``).
WITNESS_UNITARITY_MAX = 1e-9
WITNESS_SYMMETRY_MAX = 1e-6

#: Seconds between two samples of the machine's speed (see :class:`Session`).
PROBE_INTERVAL_S = 0.1

#: Best-of-three time of :func:`reference_kernel` on an uncontended 2-vCPU
#: x86-64 VM (Python 3.11, numpy 2.4).  Timed figures are scaled to it.
REFERENCE_NOMINAL_S = 1.5e-3


# --------------------------------------------------------------------------
# outcomes and checks


@dataclass
class Outcome:
    at: float  # perf_counter() when the operation started
    seconds: float  # wall time of the operation
    matrices: int
    error: Optional[str] = None  # None when the output passed every check
    wrong: bool = False  # the output was produced and contradicts a certificate


def check_decision(report, case) -> Optional[str]:
    """Why ``report`` disagrees with the certified status of ``case``, or None."""
    expected_exit = cli.EXIT_UECSM if case.uecsm else cli.EXIT_NOT_UECSM
    if report.error is not None:
        return f"{case.label}: error {report.error}"
    if report.conflicts:
        return f"{case.label}: conflicts {report.conflicts}"
    if report.uecsm is not case.uecsm:
        return f"{case.label}: verdict {report.uecsm}, certified {case.uecsm}"
    if cli.exit_code_for(report) != expected_exit:
        return f"{case.label}: exit code {cli.exit_code_for(report)}, expected {expected_exit}"
    return None


def check_witness(report, case) -> Optional[str]:
    """A witness must be unitary, symmetrize T, and only occur for UECSM inputs."""
    if report.oracle is None:
        return f"{case.label}: no oracle result"
    if not report.oracle.found:
        return None
    if not case.uecsm:
        return f"{case.label}: witness on a certified non-UECSM input"
    unitarity, symmetry = witness_defect(case.matrix, report.oracle.u)
    if unitarity > WITNESS_UNITARITY_MAX or symmetry > WITNESS_SYMMETRY_MAX:
        return f"{case.label}: witness defects {unitarity:.2e} / {symmetry:.2e}"
    return None


# --------------------------------------------------------------------------
# workloads


class Workload:
    """A corpus mix plus how one pass over it runs and is checked."""

    mix: dict[str, int] = {}

    def corpus(self, seed: int):
        return make_corpus(seed, self.mix)

    def prepare(self, cases, workdir: Path):
        return cases

    def warmup_slice(self, state):
        return state

    def run_pass(self, state, tracer, session: "Session") -> list[Outcome]:
        raise NotImplementedError


def _timed(tracer, op_id: int, root: Optional[str], fn, *args, **kwargs):
    start = time.perf_counter()
    if tracer is None:
        result = fn(*args, **kwargs)
    else:
        result = tracer.operation(op_id, root, fn, *args, **kwargs)
    return result, start, time.perf_counter() - start


class Decide(Workload):
    mix = DECIDE_MIX
    run_oracle = False

    def prepare(self, cases, workdir):
        return [(case, cmatrix(case.matrix)) for case in cases]

    def warmup_slice(self, state):
        first = {}
        for case, t in state:
            first.setdefault(case.kind, (case, t))
        return list(first.values())

    def check(self, report, case) -> Optional[str]:
        return check_decision(report, case)

    def run_pass(self, state, tracer, session):
        outcomes = []
        for case, t in state:
            op = session.next_op()
            try:
                report, start, seconds = _timed(
                    tracer, op, None, lambda: cli.analyze(t, case.label, run_oracle=self.run_oracle)
                )
            except Exception as exc:  # an operation that raises is a failed operation
                outcomes.append(Outcome(0.0, 0.0, 1, f"{case.label}: {type(exc).__name__}: {exc}"))
                continue
            problem = self.check(report, case)
            outcomes.append(Outcome(start, seconds, 1, problem, wrong=problem is not None))
        return outcomes


class Oracle(Decide):
    mix = ORACLE_MIX
    run_oracle = True

    def corpus(self, seed):
        return rotate_phases(make_corpus(ORACLE_PANEL_SEED, self.mix), seed)

    def check(self, report, case):
        return check_decision(report, case) or check_witness(report, case)


@dataclass
class BatchState:
    directory: Path
    cases: dict[str, object]  # file name -> Case
    validator: object


class Batch(Workload):
    mix = BATCH_MIX

    def prepare(self, cases, workdir):
        import jsonschema  # here, so that its import stays out of setup.import_s

        directory = workdir / "batch"
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        by_name = {}
        for case in cases:
            name = f"{case.label}.json"
            cli.write_matrix_document(cli.MatrixDocument(cmatrix(case.matrix), case.label), directory / name)
            by_name[name] = case
        validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text(encoding="utf-8")))
        return BatchState(directory, by_name, validator)

    def run_pass(self, state, tracer, session):
        buffer = io.StringIO()
        op = session.next_op()
        try:
            with contextlib.redirect_stdout(buffer):
                code, start, seconds = _timed(
                    tracer, op, "cli.batch", cli.main, ["batch", str(state.directory), "--json"]
                )
        except Exception as exc:
            return [Outcome(0.0, 0.0, len(state.cases), f"batch: {type(exc).__name__}: {exc}")]
        problem = self.check(state, code, buffer.getvalue())
        return [Outcome(start, seconds, len(state.cases), problem, wrong=problem is not None)]

    def check(self, state, code: int, text: str) -> Optional[str]:
        if code != 0:
            return f"batch exit code {code}"
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"batch output is not JSON: {exc}"
        uecsm_count = sum(case.uecsm for case in state.cases.values())
        expected = {
            "files": len(state.cases),
            "uecsm": uecsm_count,
            "not_uecsm": len(state.cases) - uecsm_count,
            "conflicts": 0,
            "errors": 0,
        }
        summary = {key: payload.get("summary", {}).get(key) for key in expected}
        if summary != expected:
            return f"batch summary {summary}, expected {expected}"
        reports = payload.get("reports", {})
        if set(reports) != set(state.cases):
            return "batch reports do not match the corpus files"
        for name, report in reports.items():
            errors = list(state.validator.iter_errors(report))
            if errors:
                return f"{name}: schema violation {errors[0].message}"
            if report["uecsm"] is not state.cases[name].uecsm:
                return f"{name}: verdict {report['uecsm']}, certified {state.cases[name].uecsm}"
        return None


WORKLOADS: dict[str, type[Workload]] = {"decide": Decide, "batch": Batch, "oracle": Oracle}


# --------------------------------------------------------------------------
# measurement


_RNG = np.random.default_rng(0x5EED)
_REFERENCE_MATRIX = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))


def reference_kernel() -> complex:
    """Fixed work of the same grain as the package's: small numpy products,
    a 4x4 solve and a Python loop over entries."""
    a = _REFERENCE_MATRIX
    eye = np.eye(4)
    acc = 0j
    for i in range(80):
        b = a @ a
        acc += np.trace(b @ a.conj().T)
        acc += complex(np.linalg.solve(a + i * eye, b[:, 0])[0])
        acc += sum(abs(x) for x in b.ravel())
    return acc


def reference_seconds() -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Session:
    """Numbers operations and samples the machine's speed between them.

    On a shared 2-vCPU x86-64 VM, each vCPU was seen to switch between a
    fast state and one about 1.6x slower every few seconds, slowing
    whatever runs on it alike.  Before an operation that
    starts at least ``PROBE_INTERVAL_S`` after the last sample, the
    session times :func:`reference_kernel`; an operation's time is then
    scaled by ``REFERENCE_NOMINAL_S`` over the mean of the samples on
    either side of it.  Samples are taken outside the timed operations.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.taken: list[float] = []  # perf_counter() at the end of each sample
        self.reference: list[float] = []  # reference_seconds() of each sample

    def probe(self) -> None:
        r = reference_seconds()
        self.taken.append(time.perf_counter())
        self.reference.append(r)

    def next_op(self) -> int:
        if not self.taken or time.perf_counter() - self.taken[-1] >= PROBE_INTERVAL_S:
            self.probe()
        self.ops += 1
        return self.ops

    def factors(self, at) -> np.ndarray:
        """Nominal over measured reference time around each instant in ``at``."""
        reference = np.array(self.reference)
        after = np.searchsorted(self.taken, at, side="right")
        before = np.clip(after - 1, 0, len(reference) - 1)
        after = np.clip(after, 0, len(reference) - 1)
        return REFERENCE_NOMINAL_S / ((reference[before] + reference[after]) / 2)

    def slowdown(self) -> float:
        return statistics.median(self.reference) / REFERENCE_NOMINAL_S


class Measurement:
    """Counts and per-operation times of one measured stretch.

    Times go into flat arrays, not per-operation objects, so that the
    benchmark's own memory does not grow with the number of operations a
    faster program completes (``peak_rss_mb`` would read that growth).
    """

    def __init__(self, session: Session) -> None:
        self.session = session
        self.passes = 0
        self.attempted = 0
        self.matrices = 0
        self.ok_matrices = 0
        self.failed = 0
        self.wrong = False
        self.errors: list[str] = []  # the first few failures
        self.at = array("d")
        self.seconds = array("d")
        self.scaled = np.zeros(0)

    def add(self, outcomes: list[Outcome]) -> None:
        for o in outcomes:
            self.attempted += 1
            self.matrices += o.matrices
            if o.error is not None:
                self.failed += 1
                self.wrong |= o.wrong
                if len(self.errors) < 5:
                    self.errors.append(o.error)
                continue
            self.ok_matrices += o.matrices
            self.at.append(o.at)
            self.seconds.append(o.seconds)

    def matrices_per_s(self, scaled: bool = True) -> float:
        seconds = float(np.sum(self.scaled if scaled else self.seconds))
        return self.ok_matrices / seconds if seconds else 0.0

    def percentile_ms(self, q: float, scaled: bool = True) -> float:
        times = self.scaled if scaled else np.array(self.seconds)
        return float(np.percentile(times, q)) * 1e3 if len(times) else 0.0


def measure(workload: Workload, state, seconds: float, min_ops: int, tracer=None) -> Measurement:
    """Whole passes until ``seconds`` have elapsed and ``min_ops`` operations ran."""
    m = Measurement(Session())
    start = time.perf_counter()
    while m.passes == 0 or time.perf_counter() - start < seconds or m.attempted < min_ops:
        m.add(workload.run_pass(state, tracer, m.session))
        m.passes += 1
    m.session.probe()
    m.scaled = np.array(m.seconds) * m.session.factors(np.array(m.at))
    return m


@dataclass
class Setup:
    state: object
    import_s: float
    corpus_s: float
    warmup_s: float

    @property
    def total_s(self) -> float:
        return self.import_s + self.corpus_s + self.warmup_s


def set_up(workload: Workload, seed: int, workdir: Path, import_s: float) -> Setup:
    """Draw the corpus ``SETUP_REPS`` times, keeping the median time; prepare and warm up once.

    The draws run only the benchmark's own code.  Every call into the
    program is made once, cold: ``prepare`` (for ``batch``, the writing of
    the documents) and the warm-up pass, so set-up pays every first-call
    cost the program has.  The warm-up covers one input of each kind (for
    ``batch``, one command over the whole directory), so that every code
    path has run once before timing starts.  Its time is that of its
    operations, scaled like any other; import and corpus times are scaled
    from speed samples taken before and after set-up.
    """
    session = Session()
    session.probe()
    draw_times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        cases = workload.corpus(seed)
        draw_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    state = workload.prepare(cases, workdir)
    corpus_s = statistics.median(draw_times) + time.perf_counter() - start
    warmup_s = float(np.sum(measure(workload, workload.warmup_slice(state), 0.0, 0).scaled))
    session.probe()
    scale = float(session.factors([session.taken[0]])[0])
    return Setup(state, import_s * scale, corpus_s * scale, warmup_s)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement, setup: Setup) -> dict[str, float]:
    return {
        "p50_ms": m.percentile_ms(50),
        "p90_ms": m.percentile_ms(90),
        "matrices_per_s": m.matrices_per_s(),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup.total_s,
    }


def unscaled(m: Measurement) -> dict[str, float]:
    """The timed figures as measured, before scaling to the nominal speed."""
    return {
        "wall_p50_ms": m.percentile_ms(50, scaled=False),
        "wall_p90_ms": m.percentile_ms(90, scaled=False),
        "wall_matrices_per_s": m.matrices_per_s(scaled=False),
        "machine_slowdown": m.session.slowdown(),
    }


def traced_run(workload: Workload, state, seconds: float, setup: Setup, spans_path: Path):
    """Untraced half, then traced half; per-layer metrics from the second.

    Span times are wall times as measured; ``machine.slowdown`` gives the
    machine's speed during the traced half relative to the nominal one.
    """

    half = seconds / 2
    plain = measure(workload, state, half, 0)
    tracer = Tracer()
    with tracer:
        traced = measure(workload, state, half, 0, tracer)
    tracer.write(spans_path)
    metrics = layer_metrics(tracer, traced.matrices, traced.passes)
    metrics["setup.import_s"] = setup.import_s
    metrics["setup.corpus_s"] = setup.corpus_s
    metrics["setup.warmup_s"] = setup.warmup_s
    metrics["machine.slowdown"] = traced.session.slowdown()
    metrics["trace.overhead_pct"] = 100.0 * (plain.matrices_per_s() / traced.matrices_per_s() - 1.0)
    return [plain, traced], metrics, unscaled(traced)


def load_metric_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> dict:
    args = parse_args(argv)
    import_s = time.perf_counter() - _PROCESS_T0
    units = load_metric_units()["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}"
    try:
        setup = set_up(workload, args.seed, workdir, import_s)
        if args.trace:
            parts, values, wall = traced_run(
                workload, setup.state, args.seconds, setup, OUT / f"{tag}.spans.jsonl"
            )
        else:
            m = measure(workload, setup.state, args.seconds, MIN_OPS)
            parts, values, wall = [m], end_to_end(m, setup), unscaled(m)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    result = {
        "correct": not any(m.wrong for m in parts),
        "attempted": sum(m.attempted for m in parts),
        "failed": sum(m.failed for m in parts),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for m in parts:
        for error in m.errors:
            print(f"failed: {error}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<7} {name:<38} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in wall.items():
        print(f"{args.workload:<7} ({name:<36} {value:>14.6g})")
    print(f"{args.workload:<7} attempted {result['attempted']}, failed {result['failed']}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, unscaled=wall, workload=args.workload, seed=args.seed)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    # On two vCPUs whose speeds change independently, the batch pool's threads
    # hand the GIL across CPUs at a cost the one-thread speed probe cannot see;
    # on one CPU, operations and probe run under the same conditions.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    main()
