"""Compare two checkouts on one benchmark workload, in alternating pairs.

Runs ``perfbench/run.py`` once per side for every seed, each side from
its own checkout and with ``PYTHONDONTWRITEBYTECODE=1`` (so every run
compiles its sources).  Pair k runs the parent first when k is even and
the change first when k is odd.  For every end-to-end metric that
``BENCHMARK.json`` lists, the record holds each side's runs and their
quartiles (linear interpolation, as numpy's default percentiles), how
many pairs the change won, the relative change of the median, whether
it is within the metric's bound, and whether the runs resolve the bound
at all.  Standard library only::

    python3 tools/bench_pairs.py PARENT CHANGE --workload batch \\
        --seeds 9601-9610 --seconds 30 --out BENCH_name.json \\
        --claim matrices_per_s

``--trace`` runs one traced pair (``--trace 1``, parent first) per seed
in place of the end-to-end pairs and records each side's per-layer
metrics.  An existing ``--out`` file is updated in place: each call adds
or replaces its workload's entries and keeps every other key, so one
record can collect several workloads and hand-written notes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parents[1]

SIDES = ("parent", "change")

PROTOCOL = (
    "alternating pairs: parent first on even pairs (0, 2, ...), change first on odd pairs; "
    "each side runs from its own checkout (PYTHONDONTWRITEBYTECODE=1, so every run compiles "
    "the sources); timed figures are scaled to the nominal machine speed by the benchmark; "
    "quartiles are linear-interpolation percentiles 25/50/75 (numpy's default) over the runs "
    "of one side; change_wins counts pairs where the change is better"
)

CLAIM_RULE = (
    "change wins at least 9 of 10 pairs and the medians differ by more than the parent's "
    "interquartile range"
)


def command(workload: str, seed: int, seconds: float, trace: bool) -> list[str]:
    return [
        "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(int(trace)),
    ]  # fmt: skip


def run_once(checkout: Path, argv: list[str]) -> dict:
    """One benchmark run in ``checkout``; its result is the last line of its output."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def pair_order(k: int) -> tuple[str, str]:
    return SIDES if k % 2 == 0 else SIDES[::-1]


def run_pairs(
    checkouts: dict[str, Path],
    workload: str,
    seeds: list[int],
    seconds: float,
    trace: bool = False,
    runner: Callable[[Path, list[str]], dict] = run_once,
) -> list[dict[str, dict]]:
    """One ``{side: result}`` per seed; a traced pair always runs the parent first."""
    pairs = []
    for k, seed in enumerate(seeds):
        argv = command(workload, seed, seconds, trace)
        pair = {}
        for side in SIDES if trace else pair_order(k):
            pair[side] = runner(checkouts[side], argv)
            print(f"{workload} seed {seed} {side}: {_brief(pair[side])}", file=sys.stderr)
        pairs.append(pair)
    return pairs


def _brief(result: dict) -> str:
    values = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items() if v["value"])
    return f"correct {result['correct']}, failed {result['failed']}, {values}"


def quartiles(runs: list[float]) -> dict:
    q25, median, q75 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q25": round(q25, 4), "median": round(median, 4), "q75": round(q75, 4)}


def resolved(parent: list[float], change: list[float], lower: bool, bound: float) -> bool:
    """False when the parent's runs spread over more than ``bound`` of their
    median, so a shift within the bound cannot be told from noise, unless
    every run of the change beats every run of the parent."""
    if (lower and max(change) < min(parent)) or (not lower and min(change) > max(parent)):
        return True
    return max(parent) - min(parent) <= bound * statistics.median(parent)


def summarize(pairs: list[dict[str, dict]], spec: dict) -> dict:
    """The record of one workload's end-to-end pairs, with every metric against its bound."""
    record = {
        "pairs": len(pairs),
        "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "attempted_ops": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
        "correct": {s: all(p[s]["correct"] for p in pairs) for s in SIDES},
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        runs = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        wins = sum((c < p) if lower else (c > p) for p, c in zip(runs["parent"], runs["change"]))
        entry = {s: {**quartiles(runs[s]), "runs": runs[s]} for s in SIDES}
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        relative = (change - parent) / parent if parent else 0.0
        worse = relative if lower else -relative
        entry.update(
            change_wins=wins,
            relative_change_of_median=round(relative, 4),
            bound=metric["bound"],
            within_bound=worse <= metric["bound"],
            resolved=resolved(runs["parent"], runs["change"], lower, metric["bound"]),
        )
        record["metrics"][name] = entry
    return record


def claim(workload: str, record: dict, metric: str, spec: dict) -> dict:
    """Whether ``metric`` of the workload meets the rule for a claimed gain."""
    entry = record["metrics"][metric]
    lower = {m["name"]: m["better"] for m in spec["end_to_end"]}[metric] == "lower"
    parent, change = entry["parent"], entry["change"]
    gap = (parent["median"] - change["median"]) if lower else (change["median"] - parent["median"])
    iqr = parent["q75"] - parent["q25"]
    wins, pairs = entry["change_wins"], record["pairs"]
    return {
        "metric": f"{workload} {metric}",
        "rule": CLAIM_RULE,
        "wins": wins,
        "pairs": pairs,
        "median_gap": round(gap, 4),
        "parent_iqr": round(iqr, 4),
        "relative_gain": round(gap / parent["median"], 4) if parent["median"] else 0.0,
        "met": wins >= 0.9 * pairs and gap > iqr,
    }


def traced(pairs: list[dict[str, dict]], seeds: list[int], workload: str, seconds: float) -> list[dict]:
    out = []
    for seed, pair in zip(seeds, pairs):
        entry = {"command": "python3 " + " ".join(command(workload, seed, seconds, True))}
        for side in SIDES:
            values = {k: round(v["value"], 4) for k, v in pair[side]["metrics"].items()}
            entry[side] = {**values, "attempted": pair[side]["attempted"], "failed": pair[side]["failed"]}
        out.append(entry)
    return out


def _git_head(checkout: Path) -> Optional[str]:
    proc = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine() -> str:
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, numpy, orjson; print(sys.version.split()[0], numpy.__version__, orjson.__version__)"],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    py, np_version, orjson_version = proc.stdout.split()
    return (
        f"{os.cpu_count()}-CPU {platform.machine()} {platform.system()}, "
        f"Python {py}, numpy {np_version}, orjson {orjson_version}"
    )


def _seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        first, _, last = item.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or ranges such as 9601-9610")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="one traced pair per seed, parent first")
    parser.add_argument("--claim", metavar="METRIC", help="end-to-end metric whose gain is claimed")
    parser.add_argument("--out", type=Path, required=True, help="record to write or update")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = _seeds(args.seeds)
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record.update(
        parent_commit=_git_head(checkouts["parent"]),
        change_commit=_git_head(checkouts["change"]),
        machine=machine(),
    )
    pairs = run_pairs(checkouts, args.workload, seeds, args.seconds, args.trace)
    if args.trace:
        record[f"traced_{args.workload}"] = traced(pairs, seeds, args.workload, args.seconds)
    else:
        record.update(
            command=f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0",
            protocol=PROTOCOL,
        )
        record.setdefault("seeds", {})[args.workload] = seeds
        summary = summarize(pairs, spec)
        record.setdefault("workloads", {})[args.workload] = summary
        if args.claim:
            record["claim"] = claim(args.workload, summary, args.claim, spec)
        for name, entry in summary["metrics"].items():
            print(
                f"{args.workload} {name}: {entry['parent']['median']:.6g} -> {entry['change']['median']:.6g} "
                f"({entry['relative_change_of_median']:+.1%}, wins {entry['change_wins']}/{len(pairs)}, "
                f"within bound {entry['within_bound']}, resolved {entry['resolved']})"
            )
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
