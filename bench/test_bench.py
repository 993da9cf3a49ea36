"""Tests of the benchmark itself, at tiny sizes: ``python3 -m pytest bench``.

Each generator must reproduce its closed-form answer, and each oracle must
reject a deliberately wrong profile or matrix mix.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cli_cases  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from seqgames import cyclic, dsl, finite, parametric  # noqa: E402


def parse(text):
    return dsl.parse(text).game


# --- generators reproduce their closed forms ------------------------------------


def test_ring_has_closed_form_equilibrium_count():
    for n in (2, 4, 6, 8):
        graph = gen.ring(n)
        expected = 2 ** (n // 2 + 1) - 2
        assert len(oracle.GraphOracle(graph).equilibria()) == expected
        assert len(cyclic.enumerate_positional_spe(parse(gen.graph_text(graph)))) == expected


def test_dollar_auction_closed_forms():
    for value in (3, 10, 100):
        graph = gen.dollar_auction(value)
        judge = oracle.GraphOracle(graph)
        equilibria = judge.equilibria()
        assert len(equilibria) == 2
        assert equilibria == parametric.enumerate_stationary_spe(parametric.dollar_auction(value))
        assert not judge.is_equilibrium({name: "a" for name in graph.nodes})
        assert judge.escalation(equilibria[1], equilibria[0]) is None


def test_chain01_enumeration_is_truncated_from_100_rounds():
    tree = gen.chain01(100)
    assert tree.depth() == 100
    assert oracle.tree_spe_count(tree) > 4
    game = parse(gen.tree_text(tree))
    assert finite.enumerate_equilibria(game, cap=4).truncated


def test_chain01_matches_backward_induction_of_the_package():
    tree = gen.chain01(9)
    game = parse(gen.tree_text(tree))
    for last, policy in ((False, finite.TiePolicy.FIRST_BRANCH), (True, finite.TiePolicy.LAST_BRANCH)):
        assert finite.solve(game, policy) == oracle.tree_backward_induction(tree, last=last)


def test_bushy_trees_have_the_requested_size_and_small_depth():
    rng = random.Random(5)
    for n in (5, 12, 100, 1000):
        tree = gen.bushy(rng, n)
        assert tree.size == n
        assert tree.depth() < 40
        assert all(len(kids) in (0, 2, 3) for kids in tree.kids)


def test_spe_count_matches_brute_force_on_small_trees():
    rng = random.Random(7)
    for _ in range(30):
        tree = gen.bushy(rng, rng.randint(3, 12))
        game = parse(gen.tree_text(tree))
        found = finite.enumerate_equilibria(game, cap=10_000)
        assert len(found.profiles) == oracle.tree_spe_count(tree)
        assert all(not oracle.tree_violations(tree, p) for p in found.profiles)


def test_emitted_text_is_canonical():
    rng = random.Random(3)
    texts = [gen.tree_text(gen.bushy(rng, 40)), gen.tree_text(gen.auction_tree(10, 6, (0, 0))),
             gen.graph_text(gen.random_graph(rng, [2, 3, 1], parametric=True)),
             gen.graph_text(gen.random_graph(rng, [2, 2], parametric=False)),
             gen.matrix_text(*gen.random_matrix(rng, 3, 2, "rational"))]
    for text in texts:
        assert dsl.serialize(dsl.parse(text)) == text


def test_auction_tree_and_unfold_match_the_package():
    tree = gen.auction_tree(7, 9, (2, 1))
    game = parametric.instantiate(parametric.dollar_auction(7), 9, (2, 1))
    assert dsl.serialize(dsl.GameDoc(gen.PLAYERS, game)) == gen.tree_text(tree)
    graph = gen.random_graph(random.Random(1), [2, 3, 2], parametric=False)
    depth = gen.unfold_depth(graph, 20, 200)
    unfolded = cyclic.unfold(parse(gen.graph_text(graph)), depth, (0, 3))
    assert dsl.serialize(dsl.GameDoc(gen.PLAYERS, unfolded)) == gen.tree_text(gen.unfold_tree(graph, depth, (0, 3)))
    assert gen.unfold_tree(graph, depth, (0, 3)).size <= 200


def test_corpus_games_are_rebuilt_byte_for_byte():
    trees, graphs, matrices = cli_cases.corpus_games()
    emitted = {name: gen.tree_text(t) for name, t in trees.items()}
    emitted.update({name: gen.graph_text(g) for name, g in graphs.items()})
    emitted.update({name: gen.matrix_text(*m) for name, m in matrices.items()})
    for name, text in emitted.items():
        with open(os.path.join(ROOT, "corpus", f"{name}.game"), encoding="utf-8") as handle:
            assert handle.read() == text, name


# --- oracles reject wrong answers -------------------------------------------------


def _tree(text):
    """A tiny tree in the benchmark's representation, built from .game text."""
    game = parse(text)
    tree = gen.Tree()
    stack = [(game, (), None)]
    while stack:
        sub, path, parent = stack.pop()
        index = tree.add(getattr(sub, "owner", -1), getattr(sub, "outcome", None), path)
        if parent is not None:
            tree.kids[parent].append((path[-1], index))
        for label, child in reversed(getattr(sub, "branches", ())):
            stack.append((child, path + (label,), index))
    return tree


def test_tree_oracle_rejects_a_worse_choice():
    tree = _tree("finite { Alice { a -> leaf(1,0) b -> Bertrand { x -> leaf(0,1) y -> leaf(2,2) } } }")
    wrong = {(): "a", ("b",): "x"}  # Bertrand should pick y, after which Alice prefers b
    assert oracle.tree_violations(tree, wrong) == [(("b",), "y", 1, 2)]
    right = oracle.tree_backward_induction(tree, last=False)
    assert right == {(): "b", ("b",): "y"}
    assert oracle.tree_violations(tree, right) == []
    assert oracle.tree_violations(tree, {(): "a", ("b",): "y"}) == [((), "b", 1, 2)]


def test_graph_oracle_rejects_divergence_and_improving_deviations():
    judge = oracle.GraphOracle(gen.ring(2))
    assert judge.report({"N0": "c", "N1": "c"}) == (("N0", "N1"), [])
    assert judge.report({"N0": "a", "N1": "a"}) == ((), [("N0", "c"), ("N1", "c")])  # each should continue
    assert judge.report({"N0": "a", "N1": "c"}) == ((), [])
    graph = gen.Graph({"S": (0, [("a", ("leaf", ((0, 0), (0, 0)))), ("b", ("leaf", ((1, 0), (0, 0))))])},
                      "S", parametric=False)
    assert oracle.GraphOracle(graph).report({"S": "a"}) == ((), [("S", "b")])


def test_graph_oracle_agrees_with_the_package_on_random_games():
    rng = random.Random(11)
    for _ in range(60):
        parametric_game = rng.random() < 0.5
        graph = gen.random_graph(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 4))], parametric_game)
        game = parse(gen.graph_text(graph))
        check = parametric.check_spe_param if parametric_game else cyclic.check_spe_cyclic
        judge = oracle.GraphOracle(graph)
        for profile in graph.profiles():
            report = check(game, profile)
            divergent, violations = judge.report(profile)
            assert tuple(report.divergences) == divergent
            assert [(v.where, v.action) for v in report.violations] == violations


def test_matrix_certificate_rejects_a_wrong_mix():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    half = [Fraction(1, 2), Fraction(1, 2)]
    assert oracle.certificate_holds(rows, half, half, Fraction(1, 2))
    assert not oracle.certificate_holds(rows, [Fraction(1), Fraction(0)], half, Fraction(1, 2))
    assert not oracle.certificate_holds(rows, half, half, Fraction(1, 3))
    assert not oracle.certificate_holds(rows, [Fraction(3, 4), Fraction(1, 2)], half, Fraction(1, 2))


def test_matrix_tie_break_reference():
    equal = [[Fraction(1)] * 2 for _ in range(2)]
    assert oracle.lex_rule_mix(equal) == ((Fraction(1), Fraction(0)), Fraction(1))
    rows, total = cli_cases.corpus_games()[2]["rps"]
    x, y, value = oracle.matrix_answer(rows, total)
    assert x == y == (Fraction(1, 3),) * 3 and value == Fraction(1, 2)


def test_remapped_games_keep_their_equilibria():
    rng = random.Random(4)
    for parametric_game in (False, True):
        for _ in range(20):
            graph = gen.random_graph(rng, [rng.randint(1, 3) for _ in range(3)], parametric_game)
            moved = gen.remap_graph(graph, rng)
            assert oracle.GraphOracle(moved).equilibria() == oracle.GraphOracle(graph).equilibria()
    moved = gen.remap_tree(gen.bushy(random.Random(9), 60), gen.increasing_maps(rng))
    assert oracle.tree_spe_count(moved) == oracle.tree_spe_count(gen.bushy(random.Random(9), 60))
    rows, total = gen.random_matrix(rng, 3, 4, "degenerate")
    x, y, v = oracle.matrix_answer(rows, total)
    moved_rows, moved_total = gen.remap_matrix(rng, rows, total)
    assert oracle.matrix_answer(moved_rows, moved_total)[:2] == (x, y)


def test_simulate_replay_matches_the_package():
    from seqgames import escalation

    graph = gen.dollar_auction(100)
    equilibria = oracle.GraphOracle(graph).equilibria()
    game = parametric.dollar_auction(100)
    for seed in range(20):
        trace = escalation.simulate(game, 30, seed)
        steps, outcome = oracle.simulate(graph, equilibria, seed, 30)
        assert [(s.stage, s.mover, s.belief_index, s.action) for s in trace.steps] == steps
        assert trace.outcome == outcome


# --- the harness --------------------------------------------------------------------


def test_benchmark_json_lists_what_the_harness_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in run.PER_LAYER]
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_verification_fails_on_a_wrong_answer(tmp_path):
    from spans import Tracer

    pool = run.build("matrices", 1, str(tmp_path))
    runner = run.Runner(pool, Tracer(False), run.Speed())
    analysis = pool.analyses[0]
    mixed, rendered = analysis.run(runner.t)
    runner.check(0, analysis, (mixed, rendered), None)
    assert runner.failed == 0
    runner.check(0, analysis, (mixed, rendered + ["changed"]), None)
    assert runner.failed == 1  # a repeat must reproduce the verified answer
    wrong = type(mixed)(mixed.row, mixed.column, mixed.value + 1)
    runner.check(1, analysis, (wrong, rendered), None)
    assert runner.failed == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "trees", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_span_checks_catch_open_overrun_and_loose_spans():
    from spans import Tracer

    tracer = Tracer(True)
    runner = run.Runner(None, tracer, run.Speed())
    runner.pool = type("P", (), {"analyses": [run_analysis()]})()
    start = run.perf_counter()
    tracer.open("bench.pass")
    runner.passes(1)
    tracer.close()
    wall = run.perf_counter() - start
    assert run.span_problems(tracer.spans, wall, runner.measured) == []
    assert run.span_problems(tracer.spans, 2 * wall, runner.measured)  # roots miss the wall
    loose = {k: v + 0.01 for k, v in runner.measured.items()}
    assert run.span_problems(tracer.spans, wall, loose)  # the span does not enclose the timed interval
    overrun = [list(span) for span in tracer.spans]
    overrun[-1][2] = overrun[0][2] + 1.0  # a child ending after its parent
    assert run.span_problems(overrun, wall, runner.measured)
    tracer.open("bench.pass")
    assert "left open" in run.span_problems(tracer.spans, wall, runner.measured)[0]


def run_analysis():
    from workloads import Analysis

    text = gen.tree_text(gen.chain01(1))
    return Analysis("tiny", lambda t: t.call("dsl.parse", dsl.parse, text), lambda result: None)


def test_speed_factor_drops_interrupted_probes():
    speed = run.Speed()
    speed.times = [run.PROBE_REF_S] * 9 + [100 * run.PROBE_REF_S]
    assert abs(speed.factor() - 1.0) < 1e-12
    speed.times = [2 * run.PROBE_REF_S] * 5
    assert abs(speed.factor() - 0.5) < 1e-12


def test_known_answers_are_computed_once():
    calls = []

    def answer(x):
        calls.append(x)
        return [x]

    assert oracle.known(answer, {"a": 1}) == oracle.known(answer, {"a": 1}) == [{"a": 1}]
    assert len(calls) == 1


def test_a_repeated_build_finds_the_files_of_the_first(tmp_path):
    from spans import Tracer

    run.build("matrices", 3, str(tmp_path))
    before = sorted(os.listdir(tmp_path))
    pool = run.build("matrices", 3, str(tmp_path), writes=False)
    assert sorted(os.listdir(tmp_path)) == before
    for analysis in pool.analyses[:5]:
        analysis.verify(analysis.run(Tracer(False)))
