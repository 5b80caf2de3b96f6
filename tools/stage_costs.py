"""Cost per matrix of each layer of the one-matrix analysis, measured in place.

Builds the seeded corpus of the benchmark's ``decide`` or ``oracle``
workload (``perfbench/``, read and not changed) and runs it through
``uecsm.analysis.analyze`` as that workload calls it, with each name in
``LAYERS`` that ``analyze_stack`` looks up in ``uecsm.analysis``
replaced by a wrapper that times the layer with ``time.perf_counter``.
So one pass gives the cost of ``analyze`` and of each layer where it
runs, on its real inputs with its real caches, and ``rest`` is
``analyze`` minus every layer from that same pass: ``analyze``'s own
code and the reports.  ``rest`` also holds the wrappers' overhead,
about 0.4 us per layer call (measured around a no-op function), so
about 2 us per matrix; passes with and without the wrappers agree
within their run-to-run spread.
Every round is one such pass, after one round that warms everything up
and is not counted; the table shows medians and quartiles over the
rounds.  Standard library and numpy only::

    python3 tools/stage_costs.py --workload decide --seed 0 --rounds 15
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

import uecsm.analysis as analysis  # noqa: E402
from uecsm.matcore import cmatrix  # noqa: E402

#: The names ``analyze_stack`` looks up for each layer, in the order it calls them.
LAYERS = ("normalize_stack", "trace_verdicts", "eigensystem_stack", "angle_verdicts", "_symmetrizer")


def _run_constants() -> dict:
    """The literal module constants of ``perfbench/run.py``, read without
    importing it: importing it puts its directory on ``sys.path`` and
    loads its tracer."""
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    constants = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            try:
                constants[node.targets[0].id] = ast.literal_eval(node.value)
            except ValueError:
                pass
    return constants


def _corpus_module():
    """``perfbench/corpus.py``, loaded as ``perfbench_corpus``."""
    if sys.modules.get("perfbench_corpus") is None:
        spec = importlib.util.spec_from_file_location("perfbench_corpus", PERFBENCH / "corpus.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # the dataclasses it defines look their module up
        spec.loader.exec_module(module)
    return sys.modules["perfbench_corpus"]


def corpus(workload: str, seed: int) -> list:
    """The matrices of one pass of ``workload``, as the benchmark builds them."""
    constants, module = _run_constants(), _corpus_module()
    if workload == "oracle":
        panel = module.make_corpus(constants["ORACLE_PANEL_SEED"], constants["ORACLE_MIX"])
        cases = module.rotate_phases(panel, seed)
    else:
        cases = module.make_corpus(seed, constants["DECIDE_MIX"])
    return [(case.label, cmatrix(case.matrix)) for case in cases]


def stage_costs(workload: str, seed: int, rounds: int) -> dict[str, list[float]]:
    """Microseconds per matrix of ``analyze``, of each layer timed in place
    and of the rest, by round, each round from one pass."""
    run_oracle = workload == "oracle"
    layers = LAYERS if run_oracle else LAYERS[:-1]
    inputs = corpus(workload, seed)
    originals = {name: getattr(analysis, name) for name in layers}
    spent = dict.fromkeys(layers, 0.0)

    def timed(name):
        layer = originals[name]

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = layer(*args, **kwargs)
            spent[name] += time.perf_counter() - start
            return out

        return wrapper

    costs: dict[str, list[float]] = {name: [] for name in ("analyze", *layers, "rest")}
    try:
        for name in layers:
            setattr(analysis, name, timed(name))
        for r in range(rounds + 1):  # round 0 warms up and is not counted
            spent.update(dict.fromkeys(layers, 0.0))
            total = 0.0
            for label, t in inputs:
                start = time.perf_counter()
                analysis.analyze(t, label, run_oracle=run_oracle)
                total += time.perf_counter() - start
            if r:
                us = 1e6 / len(inputs)
                costs["analyze"].append(us * total)
                for name in layers:
                    costs[name].append(us * spent[name])
                costs["rest"].append(us * (total - sum(spent.values())))
    finally:
        for name, layer in originals.items():
            setattr(analysis, name, layer)
    return costs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("decide", "oracle"), default="decide")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    costs = stage_costs(args.workload, args.seed, args.rounds)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds: us per matrix")
    print(f"{'layer':<20}{'median':>10}{'q25':>10}{'q75':>10}")
    for name, values in costs.items():
        q25, q50, q75 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"{name:<20}{q50:>10.1f}{q25:>10.1f}{q75:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
