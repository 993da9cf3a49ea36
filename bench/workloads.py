"""The benchmark's analyses: what each workload asks of the package and how
each answer is checked.

An ``Analysis`` is one user-level request.  ``run(t)`` is the timed part: it
reads its input file, parses it and calls the package's kernels, with every
call into the package passed through the tracer ``t``.  ``verify(result)``
runs outside the timed interval and raises ``Mismatch`` unless the result
equals the known answer from ``oracle.py``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import gen
import oracle
from seqgames import cyclic as cy
from seqgames import dsl
from seqgames import escalation as esc
from seqgames import finite as fin
from seqgames import matrix as mx
from seqgames import parametric as par
from seqgames.core import induced_play


class Mismatch(Exception):
    """An answer differs from the known answer."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass
class Analysis:
    kind: str
    run: object  # callable(tracer) -> result
    verify: object  # callable(result) -> None, raises Mismatch


@dataclass
class Pool:
    analyses: list[Analysis] = field(default_factory=list)
    warm: list[Analysis] = field(default_factory=list)
    cold: list = field(default_factory=list)  # cli_cases.CliCase, run as subprocesses
    cases: list = field(default_factory=list)  # cli_small: the in-process cli_cases.CliCase
    inputs: dict = field(default_factory=dict)  # family -> list of sizes, for the report


class Files:
    """Writes the generated inputs under one working directory.  With
    ``writes`` off it only names them: a build that repeats an earlier one
    finds its files already there."""

    def __init__(self, directory: str, writes: bool = True) -> None:
        self.directory = directory
        self.writes = writes
        self.count = 0
        os.makedirs(directory, exist_ok=True)

    def write(self, text: str, suffix: str) -> str:
        self.count += 1
        path = os.path.join(self.directory, f"in{self.count:05d}{suffix}")
        if self.writes:
            with open(path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        return path


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def render_path(path: tuple[str, ...]) -> str:
    return " ".join(path) if path else "."


# --- trees ----------------------------------------------------------------------

CHAINS = (10, 25, 50, 75, 100, 125, 150, 200, 250, 300, 350, 400, 450)
BUSHY = (1000, 1500, 2000, 3000, 4000, 6000, 10000)
AUCTIONS = ((3, 10, (0, 0)), (10, 20, (1, 1)), (5, 40, (0, 0)), (100, 80, (0, 0)), (1000, 160, (2, 0)))
UNFOLD_RINGS = ((2, 60), (4, 120), (6, 200))
UNFOLD_RANDOM = ((2, 3, 2), (3, 2, 2, 2), (2, 2), (2, 2, 2))
UNFOLD_MAX_DEPTH = 100
UNFOLD_MAX_NODES = 600
TREE_CAP = 4
COLD_RUNS = 12  # cold subprocesses per run, spread over the passes


def tree_pipeline(t, doc, profile_path: str, meta: dict):
    """solve under both tie policies, follow the first profile, check a read
    profile, enumerate at a small cap, serialize and export."""
    game = doc.game
    first = t.call("finite.solve", fin.solve, game, fin.TiePolicy.FIRST_BRANCH, meta=meta)
    last = t.call("finite.solve", fin.solve, game, fin.TiePolicy.LAST_BRANCH, meta=meta)
    play = t.call("core.induced_play", induced_play, game, first, meta=meta)
    read_profile = t.call("dsl.parse_profile_text", dsl.parse_profile_text, read(profile_path), game)
    report = t.call("finite.check_spe", fin.check_spe, game, read_profile, meta=meta)
    enumeration = t.call("finite.enumerate_equilibria", fin.enumerate_equilibria, game, TREE_CAP, meta=meta)
    t.note(out=len(enumeration.profiles))
    text = t.call("dsl.serialize", dsl.serialize, doc, meta=meta)
    dot = t.call("dsl.to_dot", dsl.to_dot, doc, first, meta=meta)
    return first, last, play, read_profile, report, enumeration, text, dot


def _report_tuples(report) -> list[tuple]:
    return [(v.where, v.action, v.profile_value, v.deviation_value) for v in report.violations]


def tree_verifier(tree: gen.Tree, read_profile: dict, family: str):
    text_expected = gen.tree_text(tree)
    decisions = len(tree.decision_nodes())

    def verify(result) -> None:
        first, last, play, got_read, rep_read, enum, text, dot = result
        expect(first == oracle.tree_backward_induction(tree, last=False), "solve(first) profile")
        expect(last == oracle.tree_backward_induction(tree, last=True), "solve(last) profile")
        expect(play == oracle.tree_play(tree, first), "induced_play")
        expect(got_read == read_profile, "parse_profile_text")
        expect(_report_tuples(rep_read) == oracle.tree_violations(tree, read_profile)
               and not rep_read.divergences, "check_spe verdict on a read profile")
        total = oracle.tree_spe_count(tree)
        expect(len(enum.profiles) == min(total, TREE_CAP), "enumeration size")
        expect(enum.truncated == (total > TREE_CAP), "enumeration truncation flag")
        if family == "chain" and tree.size > 200:
            expect(enum.truncated, "chain01(n >= 100) enumeration is truncated")
        keys = set()
        for profile in enum.profiles:
            expect(not oracle.tree_violations(tree, profile), "enumerated profile is not an SPE")
            keys.add(tuple(sorted(profile.items())))
        expect(len(keys) == len(enum.profiles), "enumerated profiles repeat")
        expect(text == text_expected, "serialize round-trip text")
        lines = dot.splitlines()
        expect(len(lines) == 2 + tree.size + (tree.size - 1), "to_dot line count")
        expect(sum("penwidth=2" in line for line in lines) == decisions, "to_dot highlight")

    return verify


def build_trees(rng: random.Random, files: Files, cold_cases) -> Pool:
    pool = Pool()
    shape = random.Random("trees-shapes")
    items = []
    for n in CHAINS:
        items.append(("chain", gen.chain01(n), None))
    for n in BUSHY:
        items.append(("bushy", gen.remap_tree(gen.bushy(shape, n), gen.increasing_maps(rng)), None))
    for value, max_stage, terminal in AUCTIONS:
        items.append(("auction", gen.auction_tree(value, max_stage, terminal), (value, max_stage, terminal)))
    for n, depth in UNFOLD_RINGS:
        items.append(("unfold", gen.unfold_tree(gen.ring(n), depth, (1, 1)), (gen.ring(n), depth, (1, 1))))
    for widths in UNFOLD_RANDOM:
        graph = gen.remap_graph(gen.random_graph(shape, list(widths), parametric=False), rng)
        depth = gen.unfold_depth(graph, UNFOLD_MAX_DEPTH, UNFOLD_MAX_NODES)
        payoffs = [t for _o, edges in graph.nodes.values() for _l, (kind, t) in edges if kind == "leaf"]
        terminal = tuple(c for c, _s in shape.choice(payoffs)) if payoffs else (0, 0)
        items.append(("unfold", gen.unfold_tree(graph, depth, terminal), (graph, depth, terminal)))
    for family, tree, extra in items:
        profile = gen.random_profile(rng, tree)
        profile_path = files.write(gen.tree_profile_text(tree, profile), ".profile")
        meta = {"nodes": tree.size, "family": family}
        if family in ("chain", "bushy"):
            text = gen.tree_text(tree)
            path = files.write(text, ".game")
            meta_parse = dict(meta, bytes=len(text))

            def load(t, path=path, meta_parse=meta_parse):
                return t.call("dsl.parse", dsl.parse, read(path), meta=meta_parse)
        elif family == "auction":
            value, max_stage, terminal = extra

            def load(t, value=value, max_stage=max_stage, terminal=terminal, meta=meta):
                game = t.call("parametric.dollar_auction", par.dollar_auction, value)
                tree_game = t.call("parametric.instantiate", par.instantiate, game, max_stage, terminal, meta=meta)
                return dsl.GameDoc(gen.PLAYERS, tree_game)
        else:
            graph, depth, terminal = extra
            text = gen.graph_text(graph)
            path = files.write(text, ".game")

            def load(t, path=path, depth=depth, terminal=terminal, meta=meta, size=len(text)):
                doc = t.call("dsl.parse", dsl.parse, read(path), meta={"bytes": size})
                tree_game = t.call("cyclic.unfold", cy.unfold, doc.game, depth, terminal, meta=meta)
                return dsl.GameDoc(doc.players, tree_game)

        def run(t, load=load, profile_path=profile_path, meta=meta):
            return tree_pipeline(t, load(t), profile_path, meta)

        pool.analyses.append(Analysis(f"tree.{family}", run, tree_verifier(tree, profile, family)))
        pool.inputs.setdefault(family, []).append(tree.size)
    pool.warm = [pool.analyses[0], pool.analyses[len(CHAINS)]]  # chain01(10) and a 1000-node bushy tree
    chain = gen.chain01(40)
    pool.cold = [cold_cases.solve_case(files, chain, last=(k % 2 == 1), fmt=("json", "text")[k % 2])
                 for k in range(COLD_RUNS)]
    return pool


# --- graph games ----------------------------------------------------------------

RINGS = (2, 4, 6, 8, 10)
RANDOM_CYCLIC = ((2, 2, 2), (2, 2, 2, 2), (3, 2, 3, 2), (3, 2, 2, 3, 2), (2, 3, 2, 3, 2, 2),
                 (3, 2, 2, 3, 2, 2, 2), (2, 2, 3, 2, 2, 3, 2, 2))
RANDOM_PARAM = ((2, 2, 2), (2, 3, 2, 2), (3, 2, 2, 3, 2), (2, 2, 3, 2, 2, 3), (3, 2, 3, 2, 3, 2, 2))
AUCTION_VALUES = ((3, 9), (10, 99), (100, 999), (1000, 9999))  # one value drawn from each range
CHECKS_PER_INPUT = 8  # equilibria checked one by one, per input
RANDOM_CHECKS = 2
SIMULATIONS = 4  # per input with a profile space of at most SIMULATE_SPACE
SIMULATE_SPACE = 64
HORIZON = 64


def _ring_count(n: int) -> int:
    return 2 ** (n // 2 + 1) - 2


def _enumerator(parametric: bool):
    if parametric:
        return "parametric.enumerate_stationary_spe", par.enumerate_stationary_spe
    return "cyclic.enumerate_positional_spe", cy.enumerate_positional_spe


def _checker(parametric: bool):
    if parametric:
        return "parametric.check_spe_param", par.check_spe_param
    return "cyclic.check_spe_cyclic", cy.check_spe_cyclic


def _verdict(result):
    if isinstance(result, esc.Escalates):
        return None
    return result.stage, tuple(result.outcome)


def build_graphs(rng: random.Random, files: Files, cold_cases) -> Pool:
    pool = Pool()
    shape = random.Random("graphs-shapes")
    inputs = []  # (family, graph, source), source: "file", "twin" or ("auction", v)
    for n in RINGS:
        inputs.append(("ring", gen.ring(n), "file"))
    cyclic = [gen.remap_graph(gen.random_graph(shape, list(w), parametric=False), rng) for w in RANDOM_CYCLIC]
    inputs += [("random_cyclic", g, "file") for g in cyclic]
    inputs += [("twin", g, "twin") for g in cyclic]
    inputs += [("random_param", gen.remap_graph(gen.random_graph(shape, list(w), parametric=True), rng), "file")
               for w in RANDOM_PARAM]
    for low, high in AUCTION_VALUES:
        value = rng.randint(low, high)
        inputs.append(("auction", gen.dollar_auction(value), ("auction", value)))

    for family, graph, source in inputs:
        pool.inputs.setdefault(family, []).append(graph.space)
        parametric = graph.parametric or source == "twin"
        judge = oracle.known(oracle.GraphOracle, graph)
        equilibria = judge.equilibria()
        meta = {"family": family, "nodes": len(graph.nodes), "space": graph.space}
        if source == "file" or source == "twin":
            text = gen.graph_text(graph)
            path = files.write(text, ".game")

            def load(t, path=path, twin=(source == "twin"), size=len(text)):
                doc = t.call("dsl.parse", dsl.parse, read(path), meta={"bytes": size})
                if twin:
                    return t.call("parametric.from_cyclic", par.from_cyclic, doc.game)
                return doc.game
        else:
            def load(t, value=source[1]):
                return t.call("parametric.dollar_auction", par.dollar_auction, value)

        enum_name, enumerate_fn = _enumerator(parametric)
        check_name, check_fn = _checker(parametric)

        def run_enumerate(t, load=load, enum_name=enum_name, enumerate_fn=enumerate_fn, meta=meta):
            game = load(t)
            found = t.call(enum_name, enumerate_fn, game, meta=meta)
            t.note(equilibria=len(found))
            texts = [t.call("dsl.render_profile", dsl.render_profile, game, p) for p in found]
            return found, texts

        def verify_enumerate(result, graph=graph, equilibria=equilibria, family=family):
            found, texts = result
            expect([dict(p) for p in found] == equilibria, "equilibria differ from the referee's")
            expect(texts == [gen.graph_profile_text(graph, p) for p in found], "render_profile")
            if family == "ring":
                expect(len(found) == _ring_count(len(graph.nodes)), "ring(n) has 2^(n/2+1)-2 equilibria")
            if family == "auction":
                expect(len(found) == 2, "the auction has exactly 2 stationary equilibria")

        pool.analyses.append(Analysis(f"graph.enumerate.{family}", run_enumerate, verify_enumerate))

        checked = equilibria[:CHECKS_PER_INPUT] + [gen.random_graph_profile(rng, graph) for _ in range(RANDOM_CHECKS)]
        if family == "auction":
            checked.append({name: "a" for name in graph.nodes})  # never bid
        for profile in checked:
            profile_path = files.write(gen.graph_profile_text(graph, profile), ".profile")

            def run_check(t, load=load, profile_path=profile_path, check_name=check_name, check_fn=check_fn, meta=meta):
                game = load(t)
                read_profile = t.call("dsl.parse_profile_text", dsl.parse_profile_text, read(profile_path), game)
                return read_profile, t.call(check_name, check_fn, game, read_profile, meta=meta)

            def verify_check(result, profile=profile, judge=judge, family=family, graph=graph):
                read_profile, report = result
                expect(read_profile == profile, "parse_profile_text")
                divergent, violations = judge.report(profile)
                expect(tuple(report.divergences) == divergent, "divergent nodes")
                expect([(v.where, v.action) for v in report.violations] == violations, "violations")
                if family == "auction" and all(a == "a" for a in profile.values()):
                    expect(not report.ok, "the never-bid profile is rejected")

            pool.analyses.append(Analysis(f"graph.check.{family}", run_check, verify_check))

        if not equilibria:
            continue
        beliefs_path = [files.write(gen.graph_profile_text(graph, p), ".profile") for p in equilibria]

        def load_beliefs(t, game, beliefs_path=beliefs_path):
            return [t.call("dsl.parse_profile_text", dsl.parse_profile_text, read(p), game) for p in beliefs_path]

        def run_escalate(t, load=load, load_beliefs=load_beliefs, check_name=check_name, check_fn=check_fn, meta=meta):
            game = load(t)
            beliefs = load_beliefs(t, game)
            reports = [t.call(check_name, check_fn, game, b, meta=meta) for b in beliefs]
            verdicts = [
                t.call("escalation.detect_escalation", esc.detect_escalation, game,
                       esc.BeliefPair(a, b), require_equilibria=False)
                for a in beliefs for b in beliefs
            ]
            return reports, verdicts

        def verify_escalate(result, judge=judge, equilibria=equilibria, family=family):
            reports, verdicts = result
            expect(all(r.ok for r in reports), "a belief failed its equilibrium check")
            expected = [judge.escalation(a, b) for a in equilibria for b in equilibria]
            expect([_verdict(v) for v in verdicts] == expected, "escalation verdicts")
            if family == "auction":
                expect(expected[1 * len(equilibria) + 0] is None, "(equilibria[1], equilibria[0]) escalates")

        pool.analyses.append(Analysis(f"graph.escalate.{family}", run_escalate, verify_escalate))

        if graph.space > SIMULATE_SPACE:
            continue
        for k in range(SIMULATIONS):
            seed = rng.randrange(1 << 32)
            shared = k % 2 == 0  # half pass the equilibria, half let simulate enumerate them

            def run_simulate(t, load=load, load_beliefs=load_beliefs, seed=seed, shared=shared):
                game = load(t)
                beliefs = load_beliefs(t, game) if shared else None
                trace = t.call("escalation.simulate", esc.simulate, game, HORIZON, seed, esc.Uniform(),
                               equilibria=beliefs)
                t.note(steps=len(trace.steps), shared=shared)
                return trace

            def verify_simulate(trace, graph=graph, equilibria=equilibria, seed=seed):
                steps, outcome = oracle.simulate(graph, equilibria, seed, HORIZON)
                got = [(s.stage, s.mover, s.belief_index, s.action) for s in trace.steps]
                expect(got == steps, "simulated steps")
                expect(trace.outcome == outcome, "simulated outcome")

            pool.analyses.append(Analysis(f"graph.simulate.{family}", run_simulate, verify_simulate))
    pool.warm = pool.analyses[:3]
    ring4 = gen.ring(4)
    pool.cold = [cold_cases.enumerate_graph_case(files, ring4, fmt=("json", "text")[k % 2]) for k in range(COLD_RUNS)]
    return pool


# --- matrices -------------------------------------------------------------------

SQUARE = {2: 36, 3: 27, 4: 15, 5: 5, 6: 4}
RECTANGULAR = ((2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3), (5, 3), (3, 6), (6, 4), (4, 5), (6, 2))
KINDS = ("int", "rational", "degenerate")
CLI_MATRICES = ((2, 2), (3, 3), (4, 4))


def verify_mix(rows, total, row, column, value) -> None:
    expect(oracle.certificate_holds(rows, list(row), list(column), value), "minimax certificate")
    x, y, v = oracle.matrix_answer(rows, total)
    expect((tuple(row), tuple(column), value) == (x, y, v), "documented tie-break")


def build_matrices(rng: random.Random, files: Files, cold_cases) -> Pool:
    pool = Pool()
    shape = random.Random("matrices-shapes")
    shapes = [(k, k) for k, count in SQUARE.items() for _ in range(count)] + list(RECTANGULAR)
    for index, (m, n) in enumerate(shapes):
        rows, total = gen.remap_matrix(rng, *gen.random_matrix(shape, m, n, KINDS[index % len(KINDS)]))
        path = files.write(gen.matrix_text(rows, total), ".game")
        meta = {"rows": m, "cols": n}

        def run(t, path=path, meta=meta):
            game = t.call("dsl.parse", dsl.parse, read(path)).game
            mixed = t.call("matrix.solve_constant_sum", mx.solve_constant_sum, game, meta=meta)
            return mixed, [" ".join(str(p) for p in mixed.row), " ".join(str(q) for q in mixed.column),
                           str(mixed.value)]

        def verify(result, rows=rows, total=total):
            mixed, rendered = result
            verify_mix(rows, total, mixed.row, mixed.column, mixed.value)
            expect(rendered[2] == str(mixed.value), "rendered value")

        pool.analyses.append(Analysis(f"matrix.{m}x{n}", run, verify))
        pool.inputs.setdefault("matrix", []).append(f"{m}x{n}")
    for index, (m, n) in enumerate(CLI_MATRICES):
        rows, total = gen.remap_matrix(rng, *gen.random_matrix(shape, m, n, KINDS[index % len(KINDS)]))
        case = cold_cases.matrix_case(files, rows, total, fmt="json")
        pool.analyses.append(cold_cases.as_analysis(case))
    pool.warm = pool.analyses[:2]
    pool.cold = []
    for k in range(COLD_RUNS):
        rows, total = gen.remap_matrix(rng, *gen.random_matrix(shape, 3, 3, KINDS[k % len(KINDS)]))
        pool.cold.append(cold_cases.matrix_case(files, rows, total, fmt=("json", "text")[k % 2]))
    return pool
