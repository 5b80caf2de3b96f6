"""Cost per matrix of each layer of the one-matrix analysis, measured in place.

Builds the seeded corpus of the benchmark's ``decide`` or ``oracle``
workload (``perfbench/``, read and not changed) and times
``uecsm.analysis.analyze`` over it as that workload calls it.  Then it
times the same passes with one layer dropped: the name that
``analyze_stack`` looks up in ``uecsm.analysis`` is replaced by a stub
that returns the output the layer gave for that input, recorded
beforehand.  A layer's cost is the full pass minus the pass without it,
so it is what the layer costs where it runs, caches and all.  ``rest``
is the full pass minus every layer: ``analyze`` itself and the reports.
These differences of whole passes spread by tens of microseconds, so a
second table gives each layer's own time per call: the layer alone,
replayed on the inputs it was given in the recorded pass, in a tight
loop.  Its quartiles lie a microsecond or two apart, so a saving of a
few microseconds in one layer shows.
Every round times each variant once, in a rotated order, then each
layer alone, after one round that warms everything up and is not
counted; the tables show medians and quartiles over the rounds.
Standard library and numpy only::

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


class Stubs:
    """Each layer's inputs and output for every input of a pass, and stubs that replay the outputs."""

    def __init__(self, layers: tuple[str, ...]) -> None:
        self.layers = layers
        self.inputs: dict[str, list] = {name: [] for name in layers}
        self.outputs: dict[str, list] = {name: [] for name in layers}
        self.current = 0

    def record(self, inputs, run_oracle: bool) -> None:
        originals = {name: getattr(analysis, name) for name in self.layers}

        def recorder(name):
            def wrapper(*args, **kwargs):
                out = originals[name](*args, **kwargs)
                self.inputs[name].append((args, kwargs))
                self.outputs[name].append(out)
                return out

            return wrapper

        try:
            for name in self.layers:
                setattr(analysis, name, recorder(name))
            for label, t in inputs:
                analysis.analyze(t, label, run_oracle=run_oracle)
        finally:
            for name, fn in originals.items():
                setattr(analysis, name, fn)
        for name, outs in self.outputs.items():
            if len(outs) != len(inputs):
                raise RuntimeError(f"{name} ran {len(outs)} times on {len(inputs)} inputs")

    def stub(self, name: str):
        outputs = self.outputs[name]
        return lambda *args, **kwargs: outputs[self.current]


def time_pass(inputs, stubs: Stubs, dropped, run_oracle: bool) -> float:
    """Seconds per matrix of one pass with the layer ``dropped`` (or none) stubbed."""
    original = getattr(analysis, dropped) if dropped else None
    if dropped:
        setattr(analysis, dropped, stubs.stub(dropped))
    try:
        total = 0.0
        for b, (label, t) in enumerate(inputs):
            stubs.current = b
            start = time.perf_counter()
            analysis.analyze(t, label, run_oracle=run_oracle)
            total += time.perf_counter() - start
    finally:
        if dropped:
            setattr(analysis, dropped, original)
    return total / len(inputs)


def time_alone(stubs: Stubs, name: str) -> float:
    """Seconds per call of the layer ``name`` alone, replayed on its recorded inputs."""
    layer, calls = getattr(analysis, name), stubs.inputs[name]
    start = time.perf_counter()
    for args, kwargs in calls:
        layer(*args, **kwargs)
    return (time.perf_counter() - start) / len(calls)


def stage_costs(workload: str, seed: int, rounds: int) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
    """Microseconds per matrix of the full pass (``analyze``), of each layer
    and of the rest, then microseconds per call of each layer alone, by round."""
    run_oracle = workload == "oracle"
    layers = LAYERS if run_oracle else LAYERS[:-1]
    inputs = corpus(workload, seed)
    stubs = Stubs(layers)
    stubs.record(inputs, run_oracle)
    variants = (None, *layers)
    for v in variants:
        time_pass(inputs, stubs, v, run_oracle)
    for name in layers:
        time_alone(stubs, name)
    costs: dict[str, list[float]] = {name: [] for name in ("analyze", *layers, "rest")}
    alone: dict[str, list[float]] = {name: [] for name in layers}
    for r in range(rounds):
        order = variants[r % len(variants) :] + variants[: r % len(variants)]
        times = {v: 1e6 * time_pass(inputs, stubs, v, run_oracle) for v in order}
        costs["analyze"].append(times[None])
        for name in layers:
            costs[name].append(times[None] - times[name])
        costs["rest"].append(times[None] - sum(times[None] - times[name] for name in layers))
        for name in layers:
            alone[name].append(1e6 * time_alone(stubs, name))
    return costs, alone


def _print_rows(table: dict[str, list[float]]) -> None:
    for name, values in table.items():
        q25, q50, q75 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"{name:<20}{q50:>10.1f}{q25:>10.1f}{q75:>10.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("decide", "oracle"), default="decide")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    costs, alone = stage_costs(args.workload, args.seed, args.rounds)
    print(f"{args.workload}, seed {args.seed}, {args.rounds} rounds: us per matrix")
    print(f"{'layer':<20}{'median':>10}{'q25':>10}{'q75':>10}")
    _print_rows(costs)
    print("each layer alone on its recorded inputs: us per call")
    _print_rows(alone)
    return 0


if __name__ == "__main__":
    sys.exit(main())
