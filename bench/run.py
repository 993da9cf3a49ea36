"""The seqgames benchmark.

    python3 bench/run.py --workload trees --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The lines before it are a readable report.  Every reported
time is scaled to a reference host speed measured by ``probe`` (see
``Speed``).  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("trees", "graphs", "matrices", "cli_small")
SETUP_REPEATS = 5
LOCAL_PROBES = 10  # host-speed probes before and after each timed set-up step and cold command
MIN_PASSES = 3
# Seconds one pass takes on the reference machine (2 vCPUs, Python 3.11).
# The number of passes follows from --seconds and these figures alone, never
# from the speed of the code under test, so that every run of a workload
# makes the same number of passes.
PASS_SECONDS = {"trees": 3.2, "graphs": 1.15, "matrices": 2.15, "cli_small": 1.07}
PROBE_GAP_S = 0.01  # a probe runs before an analysis when this long has passed since the last
PROBE_REF_S = 0.001  # probe time on the reference host: reported times are scaled to it
IMPORT_PAIRS = 5
DISPATCH_SAMPLES = 2  # cases per command priced against their library calls

END_TO_END = ("analyses_per_s", "verdict_ms_p50", "verdict_ms_p90", "setup_s", "peak_rss_mb", "cold_cmd_ms_p50")
LAYERS = ("dsl", "core", "finite", "cyclic", "parametric", "matrix", "escalation", "cli")
PER_LAYER = (
    [f"{layer}.self_s" for layer in LAYERS]
    + ["dsl.parse.busy_s", "dsl.parse.mb_per_s", "dsl.parse.growth",
       "dsl.serialize.busy_s", "dsl.to_dot.busy_s", "dsl.parse_profile_text.busy_s",
       "core.induced_play.busy_s", "core.induced_play.us_per_node", "core.induced_play.growth",
       "finite.solve.busy_s", "finite.solve.us_per_node", "finite.solve.growth",
       "finite.check_spe.busy_s", "finite.check_spe.us_per_node", "finite.check_spe.growth",
       "finite.enumerate_equilibria.busy_s", "finite.enumerate_equilibria.us_per_profile_out",
       "cyclic.enumerate_positional_spe.busy_s", "cyclic.enumerate_positional_spe.us_per_profile_space",
       "cyclic.enumerate_positional_spe.us_per_equilibrium",
       "parametric.enumerate_stationary_spe.busy_s", "parametric.enumerate_stationary_spe.us_per_profile_space",
       "cyclic.check_spe_cyclic.busy_s", "cyclic.check_spe_cyclic.growth", "parametric.check_spe_param.busy_s",
       "cyclic.unfold.busy_s", "parametric.instantiate.busy_s",
       "escalation.simulate.busy_s", "escalation.simulate.steps_per_s", "escalation.detect_escalation.busy_s",
       "matrix.solve_constant_sum.busy_s"]
    + [f"matrix.solve_constant_sum.ms_p50.{k}x{k}" for k in range(2, 7)]
    + [f"cli.run.{c}.ms_p50" for c in ("solve", "enumerate", "check", "unfold", "auction", "simulate",
                                       "matrix", "export")]
    + ["cli.build_parser.ms_p50", "cli.dispatch_overhead_ms_p50", "import.seqgames_ms",
       "bench.self_s", "trace.overhead_ratio"]
)
UNITS = {"self_s": "s", "busy_s": "s", "mb_per_s": "MB/s", "growth": "ratio", "us_per_node": "us",
         "us_per_profile_out": "us", "us_per_profile_space": "us", "us_per_equilibrium": "us",
         "steps_per_s": "1/s", "overhead_ratio": "ratio", "seqgames_ms": "ms"}


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    return UNITS.get(tail, "ms")


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile (q=0.5 is the median)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(result) -> str:
    return hashlib.blake2b(repr(result).encode(), digest_size=16).hexdigest()


def probe() -> int:
    """A fixed piece of work of the kinds the package does (formatting,
    JSON, dict updates, reading a small file) that calls nothing in it."""
    out = io.StringIO()
    for i in range(150):
        out.write("k%d=%s\n" % (i, json.dumps({"a": i, "b": [i, i + 1]})))
    with open(__file__, encoding="utf-8") as handle:
        size = len(handle.read(2000))
    table: dict[str, int] = {}
    for i in range(400):
        key = "k%d" % (i % 97)
        table[key] = table.get(key, 0) + i
    return size + len(out.getvalue()) + len(table)


class Speed:
    """The host's speed, from the time ``probe`` takes.

    A shared VM runs the same code up to 1.5x slower for seconds or minutes
    at a time.  Probes run between analyses, outside the timed intervals,
    and ``factor`` turns the times measured since its last call into times
    on a host where the probe takes PROBE_REF_S.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        start = perf_counter()
        probe()
        self.last = perf_counter()
        self.times.append(self.last - start)

    def due(self) -> None:
        if perf_counter() - self.last >= PROBE_GAP_S:
            self.sample()

    def factor(self) -> float:
        """PROBE_REF_S over the mean probe time since the last call.  Probes
        the scheduler cut into (over twice the median) are left out."""
        cut = 2 * statistics.median(self.times)
        kept = [x for x in self.times if x <= cut]
        self.times = []
        return PROBE_REF_S * len(kept) / sum(kept)


class Runner:
    """Runs whole passes over a pool and checks every answer."""

    def __init__(self, pool, tracer, speed: Speed) -> None:
        self.pool = pool
        self.t = tracer
        self.speed = speed
        self.known: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.factors: list[float] = []  # host-speed factor of each pass
        self.measured: dict[int, float] = {}  # traced analysis id -> its timed interval

    def check(self, index: int, analysis, result, error: str | None) -> None:
        """Verify against the oracle the first time an analysis runs; later
        repeats must reproduce the verified answer exactly."""
        if error is None:
            try:
                if index not in self.known:
                    analysis.verify(result)
                    self.known[index] = digest(result)
                elif self.known[index] != digest(result):
                    error = "answer differs from the verified one"
            except Exception as exc:  # a wrong answer can break the checker too
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{analysis.kind}: {error}")

    def one(self, index: int, analysis) -> float:
        t = self.t
        self.speed.due()
        self.attempted += 1
        t.analysis = self.attempted
        if t.enabled:
            t.open("bench.analysis", kind=analysis.kind)
        error = result = None
        start = perf_counter()
        try:
            result = analysis.run(t)
        except Exception as exc:  # the analysis boundary: count it and go on
            error = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        if t.enabled:
            t.close()
            self.measured[t.analysis] = elapsed
            t.open("bench.check")
        self.check(index, analysis, result, error)
        if t.enabled:
            t.close()
        return elapsed

    def passes(self, count: int, between=None) -> list[list[float]]:
        """``count`` whole passes; ``between(factor)`` runs after each.
        Returns each pass's verdict times, scaled by the host-speed factor
        measured during that pass."""
        runs: list[list[float]] = []
        for _ in range(count):
            raw = [self.one(index, analysis) for index, analysis in enumerate(self.pool.analyses)]
            factor = self.speed.factor()
            self.factors.append(factor)
            runs.append([x * factor for x in raw])
            if between is not None:
                between(factor)
        return runs


def build(workload: str, seed: int, directory: str, writes: bool = True):
    import cli_cases
    import workloads

    rng = random.Random(f"{workload}:{seed}")
    files = workloads.Files(directory, writes)
    if workload == "cli_small":
        return cli_cases.build_cli_small(rng, files)
    build_pool = {"trees": workloads.build_trees, "graphs": workloads.build_graphs,
                  "matrices": workloads.build_matrices}[workload]
    return build_pool(rng, files, cli_cases)


def timed(speed: Speed, step):
    """``step()``'s result and its time, scaled by probes taken right
    before and right after it.  Each step starts after a full collection."""
    gc.collect()
    for _ in range(LOCAL_PROBES):
        speed.sample()
    start = perf_counter()
    result = step()
    elapsed = perf_counter() - start
    for _ in range(LOCAL_PROBES):
        speed.sample()
    return result, elapsed * speed.factor()


def import_package() -> None:
    """Import the package from scratch: its modules are dropped from
    ``sys.modules`` first.  Only run before anything holds them."""
    for name in [n for n in sys.modules if n == "seqgames" or n.startswith("seqgames.")]:
        del sys.modules[name]
    importlib.import_module("seqgames.cli")


def setup(workload: str, seed: int, workdir: str, speed: Speed):
    """Import the package ``SETUP_REPEATS`` times; the first import also
    loads the standard-library modules it needs, which the median leaves
    out.  Build the pool once untimed: that writes the input files and
    computes the known answers a build needs (``oracle.known`` remembers
    them).  Then build it again and warm up ``SETUP_REPEATS`` times; these
    builds generate the same inputs and find their files in place.  Returns
    the last pool and the import and set-up times, scaled to the reference
    host."""
    from spans import Tracer

    imports = [timed(speed, import_package)[1] for _ in range(SETUP_REPEATS)]
    build(workload, seed, workdir)

    def build_and_warm():
        pool = build(workload, seed, workdir, writes=False)
        warm = Tracer(False)
        for analysis in pool.warm:
            analysis.run(warm)
        return pool

    builds = []
    for _ in range(SETUP_REPEATS):
        pool = None
        pool, seconds = timed(speed, build_and_warm)
        builds.append(seconds)
    return pool, imports, builds


def cold_runner(pool, runner: Runner, times: list[float], passes: int):
    """A ``between`` hook running the next few cold commands after each pass,
    so that the subprocesses sample the whole run rather than one moment.
    Each wall time is scaled by the speed factor of the pass just run: an
    average over seconds follows the host's drift, where a few probes next
    to one command mostly add noise."""
    import cli_cases

    queue = list(pool.cold)
    share = -(-len(queue) // passes)

    def between(factor: float) -> None:
        for case in queue[:share]:
            runner.attempted += 1
            try:
                start = perf_counter()
                code, out = cli_cases.run_cold(case.args, ROOT)
                seconds = perf_counter() - start
                case.verify(code, out)
                times.append(seconds * factor)
            except Exception as exc:  # a failed command is counted, not fatal
                runner.failed += 1
                runner.errors.append(f"cold {case.command}: {type(exc).__name__}: {exc}")
        del queue[:share]

    return between


def fresh(code: str) -> float:
    """Wall time of a fresh ``python -c <code>`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)
    return perf_counter() - start


def import_ms() -> float:
    """Fresh ``import seqgames`` minus a fresh ``pass``, medians of alternating pairs."""
    with_import, bare = [], []
    for _ in range(IMPORT_PAIRS):
        with_import.append(fresh("import seqgames"))
        bare.append(fresh("pass"))
    return 1000 * (statistics.median(with_import) - statistics.median(bare))


def dispatch_probe(pool, t) -> tuple[list[float], list[float]]:
    """Per sampled cli case: ``cli.build_parser`` time, and ``cli.run`` time
    minus the time of the same work done through library calls (medians of 3)."""
    import cli_cases
    from seqgames import cli

    per_command: dict[str, list] = {}
    for case in pool.cases:
        per_command.setdefault(case.command, []).append(case)
    parser_ms, overhead_ms = [], []
    for cases in per_command.values():
        for case in cases[:DISPATCH_SAMPLES]:
            runs, library = [], []
            for _ in range(3):
                start = perf_counter()
                t.call("cli.build_parser", cli.build_parser)
                parser_ms.append(1000 * (perf_counter() - start))
                start = perf_counter()
                t.call("cli.run", cli_cases.run_in_process, case.args, meta={"cmd": case.command, "probe": True})
                runs.append(perf_counter() - start)
                start = perf_counter()
                case.library()
                library.append(perf_counter() - start)
            overhead_ms.append(1000 * (statistics.median(runs) - statistics.median(library)))
    return parser_ms, overhead_ms


# --- per-layer metrics from the spans --------------------------------------------


def layer_metrics(spans, report: list[str]) -> dict[str, float]:
    from spans import layer_of, self_times

    by_name: dict[str, list] = {}
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS + ("bench",)}
    for span, own in zip(spans, self_times(spans)):
        by_name.setdefault(span[0], []).append((span[2] - span[1], span[5]))
        key = f"{layer_of(span[0])}.self_s"
        if key in m:
            m[key] += own

    def calls(name, **where):
        return [(d, meta) for d, meta in by_name.get(name, [])
                if all(meta.get(k) == v for k, v in where.items())]

    def busy(name):
        return sum(d for d, _m in calls(name))

    def per(name, key):
        """Microseconds of ``name`` per unit of its calls' ``key``."""
        total = sum(meta.get(key, 0) for _d, meta in calls(name))
        return 1e6 * busy(name) / total if total else 0.0

    def growth(name, family, key="nodes"):
        """us per unit on the family's largest input / on its smallest."""
        items = [(meta[key], d / meta[key]) for d, meta in calls(name, family=family)]
        if not items:
            return 0.0
        small, large = min(s for s, _r in items), max(s for s, _r in items)
        rate = {size: statistics.median([r for s, r in items if s == size]) for size in (small, large)}
        report.append(f"  {name}.growth base: {family} size {large} vs {small} ({key}), "
                      f"{len(items)} calls")
        return rate[large] / rate[small]

    for name in ("dsl.parse", "dsl.serialize", "dsl.to_dot", "dsl.parse_profile_text", "core.induced_play",
                 "finite.solve", "finite.check_spe", "finite.enumerate_equilibria",
                 "cyclic.enumerate_positional_spe", "parametric.enumerate_stationary_spe",
                 "cyclic.check_spe_cyclic", "parametric.check_spe_param", "cyclic.unfold",
                 "parametric.instantiate", "escalation.simulate", "escalation.detect_escalation",
                 "matrix.solve_constant_sum"):
        m[f"{name}.busy_s"] = busy(name)
    parsed = sum(meta.get("bytes", 0) for _d, meta in calls("dsl.parse"))
    m["dsl.parse.mb_per_s"] = parsed / busy("dsl.parse") / 1e6 if parsed else 0.0
    m["dsl.parse.growth"] = growth("dsl.parse", "bushy")
    for name in ("core.induced_play", "finite.solve", "finite.check_spe"):
        m[f"{name}.us_per_node"] = per(name, "nodes")
        m[f"{name}.growth"] = growth(name, "chain")
    m["finite.enumerate_equilibria.us_per_profile_out"] = per("finite.enumerate_equilibria", "out")
    m["cyclic.enumerate_positional_spe.us_per_profile_space"] = per("cyclic.enumerate_positional_spe", "space")
    m["cyclic.enumerate_positional_spe.us_per_equilibrium"] = per("cyclic.enumerate_positional_spe", "equilibria")
    m["parametric.enumerate_stationary_spe.us_per_profile_space"] = per("parametric.enumerate_stationary_spe",
                                                                         "space")
    m["cyclic.check_spe_cyclic.growth"] = growth("cyclic.check_spe_cyclic", "ring")
    steps = sum(meta.get("steps", 0) for _d, meta in calls("escalation.simulate"))
    m["escalation.simulate.steps_per_s"] = steps / busy("escalation.simulate") if steps else 0.0

    for k in range(2, 7):
        times = [1000 * d for d, meta in calls("matrix.solve_constant_sum", rows=k, cols=k)]
        m[f"matrix.solve_constant_sum.ms_p50.{k}x{k}"] = statistics.median(times) if times else 0.0
        report.append(f"  matrix.solve_constant_sum.ms_p50.{k}x{k}: {len(times)} calls")
    for command in ("solve", "enumerate", "check", "unfold", "auction", "simulate", "matrix", "export"):
        times = [1000 * d for d, meta in calls("cli.run", cmd=command) if not meta.get("probe")]
        m[f"cli.run.{command}.ms_p50"] = statistics.median(times) if times else 0.0
        report.append(f"  cli.run.{command}.ms_p50: {len(times)} calls")
    return m


def span_problems(spans, wall: float, measured: dict[int, float]) -> list[str]:
    """What is wrong with the recorded spans: spans left open, children that
    overrun their parent, analysis spans that do not enclose the interval the
    runner timed for that analysis, or root spans that miss the traced wall
    time measured around them."""
    from spans import self_times

    left_open = [span[0] for span in spans if span[2] is None]
    if left_open:
        return [f"{len(left_open)} spans left open, the first {left_open[0]}"]
    problems = []
    overrun = sum(own < -1e-6 for own in self_times(spans))
    if overrun:
        problems.append(f"{overrun} spans are overrun by their children")
    analyses = [(span[2] - span[1], span[4]) for span in spans if span[0] == "bench.analysis"]
    loose = sum(not 0 <= duration - measured.get(analysis, float("inf")) < 1e-3 for duration, analysis in analyses)
    if loose or len(analyses) != len(measured):
        problems.append(f"{loose} of {len(analyses)} analysis spans do not enclose the {len(measured)} timed analyses")
    roots = sum(span[2] - span[1] for span in spans if span[3] < 0)
    if abs(roots - wall) > 1e-3 * wall + 1e-4:
        problems.append(f"root spans cover {roots:.4f} s of the {wall:.4f} s traced wall time")
    return problems


def scaled(name: str, value: float, factor: float) -> float:
    """A per-layer value on the reference host: times scale with the
    host-speed factor, rates against it, ratios and counts not at all."""
    unit = unit_of(name)
    if unit in ("s", "ms", "us"):
        return value * factor
    if unit in ("MB/s", "1/s"):
        return value / factor
    return value


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "seqgames")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'seqgames')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from spans import Tracer

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    report = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"python {sys.version.split()[0]}"]
    speed = Speed()
    try:
        pool, import_times, setup_times = setup(args.workload, args.seed, workdir, speed)
        for family, sizes in pool.inputs.items():
            report.append(f"  inputs {family}: {sizes}")
        passes = max(MIN_PASSES, round(args.seconds / PASS_SECONDS[args.workload]))
        gc.collect()
        gc.freeze()  # set-up data is long-lived: keep it out of the collections timed below
        if args.trace == 0:
            runner = Runner(pool, Tracer(False), speed)
            cold: list[float] = []
            start = perf_counter()
            runs = runner.passes(passes, between=cold_runner(pool, runner, cold, passes))
            phase = perf_counter() - start
            samples = [x for run in runs for x in run]
            setup_s = statistics.median(import_times) + statistics.median(setup_times)
            metrics = {
                "analyses_per_s": (len(samples) / sum(samples), "1/s"),
                "verdict_ms_p50": (1000 * quantile(samples, 0.5), "ms"),
                "verdict_ms_p90": (1000 * quantile(samples, 0.9), "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "cold_cmd_ms_p50": (1000 * statistics.median(cold) if cold else 0.0, "ms"),
            }
            report.append(f"  {len(runs)} passes of {len(pool.analyses)} analyses in {phase:.3f} s; "
                          f"percentiles over all {len(samples)} timed analyses")
            report.append(f"  host-speed factor per pass {[round(f, 3) for f in runner.factors]}; "
                          f"{sum(samples):.3f} s of timed work at reference speed")
            report.append(f"  set-up: median of {SETUP_REPEATS} package imports {[round(x, 4) for x in import_times]} "
                          f"+ median of {SETUP_REPEATS} builds {[round(x, 4) for x in setup_times]}")
            report.append(f"  cold commands: median of {len(cold)} runs of "
                          f"{sorted({c.command for c in pool.cold})}")
        else:
            # Untraced and traced passes alternate, so drift in machine speed
            # reaches both sides of trace.overhead_ratio alike.
            off, tracer = Tracer(False), Tracer(True)
            runner = Runner(pool, off, speed)
            passes = max(1, passes // 2)
            plain, traced, wall = [], [], 0.0
            for _ in range(passes):
                runner.t = off
                plain += runner.passes(1)
                runner.t = tracer
                start = perf_counter()
                tracer.open("bench.pass")
                traced += runner.passes(1)
                tracer.close()
                wall += perf_counter() - start
            factor = statistics.median(runner.factors[1::2])  # the traced passes'
            extra: dict[str, float] = {}
            if args.workload == "cli_small":
                start = perf_counter()
                tracer.open("bench.probe")
                parser_ms, overhead_ms = dispatch_probe(pool, tracer)
                tracer.close()
                wall += perf_counter() - start
                extra["cli.build_parser.ms_p50"] = statistics.median(parser_ms)
                extra["cli.dispatch_overhead_ms_p50"] = statistics.median(overhead_ms)
                report.append(f"  cli.build_parser.ms_p50: {len(parser_ms)} calls; "
                              f"cli.dispatch_overhead_ms_p50: {len(overhead_ms)} cases, cli.run minus "
                              f"the same work through library calls")
            for problem in span_problems(tracer.spans, wall, runner.measured):
                runner.failed += 1
                runner.errors.append(f"trace: {problem}")
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            values = layer_metrics(tracer.spans, report)
            values.update(extra)
            values["import.seqgames_ms"] = import_ms()
            plain_s, traced_s = sum(map(sum, plain)), sum(map(sum, traced))
            values["trace.overhead_ratio"] = traced_s / plain_s
            report.append(f"  import.seqgames_ms: medians of {IMPORT_PAIRS} fresh runs each")
            report.append(f"  trace.overhead_ratio base: {passes} untraced passes ({plain_s:.3f} s) vs as many "
                          f"traced ones ({traced_s:.3f} s), alternating, each at reference speed")
            package = sum(values[f"{layer}.self_s"] for layer in LAYERS)
            report.append(f"  {len(tracer.spans)} spans: package self time {package:.3f} s + bench.self_s "
                          f"{values['bench.self_s']:.3f} s = traced wall {wall:.3f} s, as measured; checks: nesting, "
                          f"analysis spans against the runner's clock, root spans against the wall")
            report.append(f"  per-layer times scaled to the reference host by {factor:.3f}, the median "
                          f"speed factor of the traced passes")
            metrics = {name: (scaled(name, values.get(name, 0.0), factor), unit_of(name)) for name in PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        base = os.path.dirname(workdir)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)

    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:58s} {value:14.6f} {unit}")
    for error in runner.errors:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
