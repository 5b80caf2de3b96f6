"""Start-up cost of the package: import time, modules loaded and peak RSS.

Each round starts one fresh interpreter per module (``uecsm``,
``uecsm.analysis`` and ``uecsm.cli``, in a rotated order) with
``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs, so every package
module is compiled from source.  The interpreter imports numpy, then
times the import of its module and reads its peak RSS (``ru_maxrss``)
and the ``uecsm.*`` modules that import loaded.  Each round also times
the wall clock of ``python -m uecsm test fixtures/wat_counterexample.json``
in a fresh interpreter, start-up included.  The table shows medians over
the rounds.  Standard library only::

    python3 tools/import_costs.py --rounds 15
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("uecsm", "uecsm.analysis", "uecsm.cli")
TEST_ARGS = ("test", "fixtures/wat_counterexample.json")

#: Run in the child: numpy first, then the module, timed; prints the
#: seconds, the peak RSS in KiB and the submodules loaded.
_PROBE = """\
import importlib, resource, sys, time
import numpy
start = time.perf_counter()
importlib.import_module(sys.argv[1])
seconds = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(seconds, rss, *sorted(m[6:] for m in sys.modules if m.startswith("uecsm.")))
"""


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}


def probe(module: str) -> tuple[float, float, tuple[str, ...]]:
    """Milliseconds to import ``module`` after numpy, peak RSS in MB, and the submodules loaded."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, module], env=_env(), cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.split()
    return 1e3 * float(out[0]), int(out[1]) / 1024, tuple(out[2:])


def uecsm_test_ms() -> float:
    """Wall milliseconds of one ``python -m uecsm test`` run, which must decide (exit 0 or 1)."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "uecsm", *TEST_ARGS], env=_env(), cwd=ROOT, capture_output=True)
    elapsed = time.perf_counter() - start
    if result.returncode not in (0, 1):
        raise RuntimeError(f"uecsm {' '.join(TEST_ARGS)} exited {result.returncode}: {result.stderr.decode()}")
    return 1e3 * elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    times: dict[str, list[float]] = {m: [] for m in MODULES}
    rss: dict[str, list[float]] = {m: [] for m in MODULES}
    loaded: dict[str, tuple[str, ...]] = {}
    walls = []
    for r in range(args.rounds):
        for module in MODULES[r % len(MODULES) :] + MODULES[: r % len(MODULES)]:
            ms, mb, loaded[module] = probe(module)
            times[module].append(ms)
            rss[module].append(mb)
        walls.append(uecsm_test_ms())
    print(f"{args.rounds} rounds, PYTHONDONTWRITEBYTECODE=1: medians, each import after numpy")
    print(f"{'module':<18}{'import_ms':>10}{'maxrss_mb':>11}  uecsm modules loaded")
    for module in MODULES:
        names = " ".join(loaded[module]) or "-"
        print(f"{module:<18}{statistics.median(times[module]):>10.1f}{statistics.median(rss[module]):>11.1f}  {names}")
    print(f"uecsm {' '.join(TEST_ARGS)}: {statistics.median(walls):.1f} ms wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
