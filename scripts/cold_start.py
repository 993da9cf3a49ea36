#!/usr/bin/env python3
"""Cold-start cost of one command in two checkouts of the repository.

    python scripts/cold_start.py OLD NEW [--runs N] [-- ARGV...]

Each round runs ``python -c pass`` and ``python -m seqgames ARGV`` once in
each checkout (from its root, so ARGV's paths are read there), the three in
an order that cycles through their six orders from round to round.  Every run is a fresh process with
``PYTHONDONTWRITEBYTECODE=1`` that imports the checkout's package from a
copy of its ``src/seqgames/*.py`` in a new temporary directory, so the
package is compiled from source each time, as in a checkout where bytecode
is never written; the checkouts themselves are only read.

For each side it prints the median wall time and the overhead over the
``pass`` baseline, the median over the rounds of the side's time less the
``pass`` time of the same round (so a host whose speed drifts from round to
round moves both terms), and the overhead ratio NEW/OLD; then the
``seqgames`` modules the command loads, their source lines, and per module the
``tracemalloc`` peak of ``compile()`` of its source in KiB, a deterministic
proxy for the compile cost that the times cannot resolve.  The last line of
output is the same summary as JSON.  It exits 1 if a timed run exits with
another code than that side's first run.  The default ARGV is a tree
``solve``.  Standard library only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

DEFAULT_ARGV = ["solve", "corpus/zero_one_7.game"]

# Runs ``seqgames ARGV`` as ``python -m seqgames`` does, then writes its exit
# code and the names of the loaded ``seqgames`` modules as one JSON line to stderr.
_LIST_MODULES = """
import runpy, sys
sys.argv = ["seqgames", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("seqgames", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
names = sorted(name for name in sys.modules if name.partition(".")[0] == "seqgames")
import json
print(json.dumps([code, names]), file=sys.stderr)
"""


def copy_package(checkout: pathlib.Path, into: pathlib.Path) -> pathlib.Path:
    """``checkout``'s ``src/seqgames/*.py`` copied to ``into/seqgames``; returns ``into``."""
    sources = sorted((checkout / "src" / "seqgames").glob("*.py"))
    if not sources:
        raise SystemExit(f"{checkout}: no src/seqgames/*.py")
    (into / "seqgames").mkdir(parents=True)
    for path in sources:
        shutil.copyfile(path, into / "seqgames" / path.name)
    return into


def environment(path: pathlib.Path | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if path is not None:
        env["PYTHONPATH"] = str(path)
    return env


def timed(command: list[str], cwd: pathlib.Path, env: dict[str, str]) -> tuple[float, int]:
    """Wall time in ms and exit code of one run, its output discarded.  No timeout: with one,
    ``subprocess`` polls for the exit at intervals of up to 50 ms, which would be timed too."""
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return 1000 * (time.perf_counter() - start), done.returncode


def modules_loaded(argv: list[str], cwd: pathlib.Path, package: pathlib.Path) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, "-c", _LIST_MODULES, *argv], cwd=cwd, env=environment(package),
                          capture_output=True, text=True, timeout=120, check=False)
    lines = done.stderr.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{cwd}: listing the modules failed\n{done.stderr}")
    code, names = json.loads(lines[-1])
    return (0 if code is None else code if isinstance(code, int) else 1), names


def sources(package: pathlib.Path, names: list[str]) -> dict[str, str]:
    """The source of each loaded module, by its name."""
    return {name: (package / "seqgames" / f"{name.partition('.')[2] or '__init__'}.py").read_text(encoding="utf-8")
            for name in names}


def compile_peak_kib(source: str) -> float:
    """The ``tracemalloc`` peak of compiling ``source``, in KiB.  It is compiled once untraced first, so what
    a process allocates only once (interned names) is left out and the figure does not depend on the order."""
    compile(source, "<module>", "exec")
    tracemalloc.start()
    try:
        compile(source, "<module>", "exec")
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def main() -> int:
    args_part, argv = sys.argv[1:], DEFAULT_ARGV
    if "--" in args_part:
        at = args_part.index("--")
        args_part, argv = args_part[:at], args_part[at + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=pathlib.Path, help="checkout of the version to compare against")
    parser.add_argument("new", type=pathlib.Path, help="checkout of the version to measure")
    parser.add_argument("--runs", type=int, default=20, help="rounds, each timing every side once (default 20)")
    options = parser.parse_args(args_part)
    if options.runs < 1:
        parser.error("--runs must be at least 1")
    checkouts = {"old": options.old.resolve(), "new": options.new.resolve()}
    with tempfile.TemporaryDirectory(prefix="cold_start_") as scratch:
        packages = {side: copy_package(root, pathlib.Path(scratch) / side) for side, root in checkouts.items()}
        listed = {side: modules_loaded(argv, checkouts[side], packages[side]) for side in checkouts}
        runs = {
            "pass": ([sys.executable, "-c", "pass"], checkouts["old"], environment(None), 0),
            **{side: ([sys.executable, "-m", "seqgames", *argv], checkouts[side], environment(packages[side]),
                      listed[side][0]) for side in checkouts},
        }
        times: dict[str, list[float]] = {side: [] for side in runs}
        orders = list(itertools.permutations(runs))
        for round_number in range(options.runs):
            for side in orders[round_number % len(orders)]:
                command, cwd, env, expected = runs[side]
                ms, code = timed(command, cwd, env)
                if code != expected:
                    print(f"{side}: exit code {code}, where its first run exited {expected}", file=sys.stderr)
                    return 1
                times[side].append(ms)
        texts = {side: sources(packages[side], listed[side][1]) for side in checkouts}
    base = statistics.median(times["pass"])
    summary: dict = {"argv": argv, "runs": options.runs, "pass_ms": base}
    for side in checkouts:
        overhead = statistics.median(ms - bare for ms, bare in zip(times[side], times["pass"]))
        summary[side] = {"checkout": str(checkouts[side]), "exit_code": listed[side][0],
                         "median_ms": statistics.median(times[side]), "overhead_ms": overhead,
                         "modules": listed[side][1],
                         "source_lines": sum(len(text.splitlines()) for text in texts[side].values()),
                         "compile_kib": {name: compile_peak_kib(text) for name, text in texts[side].items()}}
    old_overhead = summary["old"]["overhead_ms"]
    summary["overhead_ratio"] = summary["new"]["overhead_ms"] / old_overhead if old_overhead > 0 else None
    print(f"python -m seqgames {' '.join(argv)}: medians of {options.runs} alternating runs, PYTHONDONTWRITEBYTECODE=1")
    print(f"{'side':<6}{'median ms':>11}{'overhead ms':>13}{'modules':>9}{'lines':>7}{'compile KiB':>13}  checkout")
    print(f"{'pass':<6}{base:>11.1f}{'':>13}{'':>9}{'':>7}{'':>13}  (python -c pass)")
    for side in checkouts:
        row = summary[side]
        print(f"{side:<6}{row['median_ms']:>11.1f}{row['overhead_ms']:>13.1f}{len(row['modules']):>9}"
              f"{row['source_lines']:>7}{sum(row['compile_kib'].values()):>13.1f}  {row['checkout']}")
    ratio = summary["overhead_ratio"]
    print("overhead ratio new/old: " + ("n/a (old overhead not above the baseline)" if ratio is None else f"{ratio:.2f}"))
    for side in checkouts:
        print(f"modules {side}: {' '.join(summary[side]['modules'])}")
    for side in checkouts:
        peaks = ", ".join(f"{name} {kib:.1f}" for name, kib in summary[side]["compile_kib"].items())
        print(f"compile peak KiB {side}: {peaks}")
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
