#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts of the repository, written as one ``BENCH_<pr>.json``.

    python scripts/ab.py OLD NEW --workloads trees,graphs,matrices,cli_small --seeds 4010-4019 \\
        [--seconds 16] [--trace 0|1] [--out BENCH.json]

Each seed is one pair: ``python bench/run.py --workload W --seed S --seconds T --trace R`` runs once from
the root of OLD (the parent) and once from the root of NEW (the change), one run at a time, each a fresh
process with ``PYTHONDONTWRITEBYTECODE=1`` and its output captured.  The side that runs first alternates
from pair to pair, starting with the parent, and is recorded in ``first``.  The script refuses to run
when the two ``bench/`` trees differ in any byte, so both sides measure with the same harness.

For each workload it records the seeds, the order, whether every run was correct, the failed and
attempted operations of each side, and for each metric of the runs' JSON summaries:

- ``parent`` and ``change``: the median, the inclusive quartiles ``q1`` and ``q3``, and the runs by pair;
- ``change_wins``: the pairs in which the change is better, as ``k/n``;
- ``worse_by``: how much worse the change's median is than the parent's, as a share of the parent's
  (negative is better);
- ``paired``: the median over the pairs of the change's relative difference from the parent in the same
  pair (positive is worse), with the sign-test interval of that median (Kalibera & Jones 2013): the
  k-th smallest and k-th largest difference for the largest k whose coverage
  1 - 2 P(Binomial(n, 1/2) < k) is at least 95%, or k = 1 with its coverage when no k reaches it;
- ``first_minus_second``: the median over the pairs of the first run's relative difference from the
  second's, the position effect of drift within a pair (which the alternation cancels in the medians).

``better`` and ``bound`` come from NEW's ``BENCHMARK.json``.  With OLD and NEW the same directory the
run is an A/A: both sides run identical code, and each metric also gets a ``floor``, the larger end of
its paired interval in absolute value, the smallest move such a set of pairs resolves.

The report goes to stdout, its last line the JSON document; ``--out`` also writes it to a file.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time


def bench_bytes(checkout: pathlib.Path) -> dict[str, bytes]:
    """Every file under ``checkout/bench`` by its relative path, bytecode left out."""
    root = checkout / "bench"
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file() and "__pycache__" not in path.parts}


def parse_seeds(text: str) -> list[int]:
    """``A-B`` (inclusive) or a comma-separated list of non-negative seeds."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(checkout: pathlib.Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON summary on the last line of one ``bench/run.py`` run from ``checkout``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(command[1:])} exited {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def sign_interval(differences: list[float]) -> dict:
    """The median of ``differences`` and its distribution-free interval from the sign test."""
    n, ordered = len(differences), sorted(differences)

    def coverage(k: int) -> float:
        return 1 - 2 * sum(math.comb(n, j) for j in range(k)) / 2 ** n

    k = max([k for k in range(1, (n + 1) // 2 + 1) if coverage(k) >= 0.95], default=1)
    return {"median": statistics.median(differences), "interval": [ordered[k - 1], ordered[n - k]],
            "coverage": coverage(k)}


def compare(metric: str, rows: list[tuple[str, dict, dict]], spec: dict, aa: bool) -> dict:
    """One metric over the pairs ``rows``, each (the side that ran first, parent summary, change summary)."""
    lower = spec.get("better", "lower") == "lower"
    sign = 1 if lower else -1  # a positive relative difference is worse
    parent = [row[1]["metrics"][metric]["value"] for row in rows]
    change = [row[2]["metrics"][metric]["value"] for row in rows]

    def worse(new: float, old: float) -> float:
        return sign * (new - old) / old if old else 0.0

    entry = {"better": spec.get("better"), "bound": spec.get("bound"), "parent": spread(parent),
             "change": spread(change)}
    entry["change_wins"] = f"{sum(worse(new, old) < 0 for new, old in zip(change, parent))}/{len(rows)}"
    entry["worse_by"] = worse(entry["change"]["median"], entry["parent"]["median"])
    entry["paired"] = sign_interval([worse(new, old) for new, old in zip(change, parent)])
    in_order = [(old, new) if first == "parent" else (new, old) for (first, _, _), old, new in zip(rows, parent, change)]
    entry["first_minus_second"] = statistics.median((one - two) / two if two else 0.0 for one, two in in_order)
    if aa:
        entry["floor"] = max(abs(end) for end in entry["paired"]["interval"])
    return entry


def measure(old: pathlib.Path, new: pathlib.Path, workload: str, seeds: list[int], seconds: float, trace: int,
            specs: dict, aa: bool) -> dict:
    rows = []
    for k, seed in enumerate(seeds):
        first = ("parent", "change")[k % 2]
        order = ((old, "parent"), (new, "change")) if first == "parent" else ((new, "change"), (old, "parent"))
        got = {}
        for checkout, side in order:
            started = time.perf_counter()
            got[side] = run_once(checkout, workload, seed, seconds, trace)
            print(f"  {workload} seed {seed} {side}: {time.perf_counter() - started:.1f} s", file=sys.stderr)
        rows.append((first, got["parent"], got["change"]))
    sides = {"parent": 1, "change": 2}  # where each side's summary stands in a row
    result = {"pairs": len(seeds), "seeds": seeds, "first": [row[0] for row in rows],
              "all_correct": all(row[1]["correct"] is True and row[2]["correct"] is True for row in rows)}
    for count in ("failed", "attempted"):
        result[count] = {side: sum(row[k].get(count, 0) for row in rows) for side, k in sides.items()}
    for metric in rows[0][1]["metrics"]:
        if all(metric in row[1]["metrics"] and metric in row[2]["metrics"] for row in rows):
            result[metric] = compare(metric, rows, specs.get(metric, {}), aa)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path, help="checkout of the parent")
    parser.add_argument("new", type=pathlib.Path, help="checkout of the change (the same directory for an A/A)")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="A-B or a comma-separated list; one pair per seed")
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, help="write the JSON document to this file")
    options = parser.parse_args()
    old, new = options.old.resolve(), options.new.resolve()
    if bench_bytes(old) != bench_bytes(new):
        print(f"refused: {old}/bench and {new}/bench differ", file=sys.stderr)
        return 2
    seeds, workloads = parse_seeds(options.seeds), options.workloads.split(",")
    config = json.loads((new / "BENCHMARK.json").read_text(encoding="utf-8"))
    specs = {spec["name"]: spec for spec in config["end_to_end"] + config.get("per_layer", [])}
    aa = old == new
    document: dict = {
        "method": f"scripts/ab.py (see its docstring) --seconds {options.seconds:g} --trace {options.trace}",
        "host": f"{platform.system()} {platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "checkouts": {"parent": old.name, "change": new.name},
        "aa": aa,
        "workloads": {},
    }
    for workload in workloads:
        document["workloads"][workload] = measure(old, new, workload, seeds, options.seconds, options.trace,
                                                  specs, aa)
    for workload, result in document["workloads"].items():
        print(f"{workload}: {result['pairs']} pairs, correct {result['all_correct']}, failed {result['failed']}")
        for metric, entry in result.items():
            if isinstance(entry, dict) and "paired" in entry:
                low, high = entry["paired"]["interval"]
                print(f"  {metric:<28}{entry['parent']['median']:>14.6g}{entry['change']['median']:>14.6g}"
                      f"  worse_by {entry['worse_by']:+.2%}  wins {entry['change_wins']:>5}"
                      f"  paired [{low:+.2%}, {high:+.2%}]  first-second {entry['first_minus_second']:+.2%}"
                      + (f"  floor {entry['floor']:.2%}" if aa else ""))
    if options.out:
        options.out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
