"""Command-line invocations: in process through ``cli.run`` and cold through
``python -m seqgames``, each with its known answer.

A ``CliCase`` holds the argument list, the exit code and output checks
derived from ``oracle.py``, and the library calls the command stands for
(used to price the CLI's own dispatch and rendering in the traced run).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import gen
import oracle
from workloads import Analysis, Files, Mismatch, Pool, expect, read, render_path
from seqgames import cli
from seqgames import cyclic as cy
from seqgames import dsl
from seqgames import escalation as esc
from seqgames import finite as fin
from seqgames import matrix as mx
from seqgames import parametric as par
from seqgames.core import induced_play

COMMANDS = ("solve", "enumerate", "check", "unfold", "auction", "simulate", "matrix", "export")


@dataclass
class CliCase:
    args: list[str]
    verify: object  # callable(code, stdout) -> None, raises Mismatch
    library: object  # callable() -> the same analysis through library calls only

    @property
    def command(self) -> str:
        return self.args[0]


def run_in_process(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return code, out.getvalue()


def run_cold(args: list[str], root: str) -> tuple[int, str]:
    """Exit code and stdout of a fresh ``python -m seqgames`` process."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, "-m", "seqgames", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120, check=False)
    return done.returncode, done.stdout


def as_analysis(case: CliCase) -> Analysis:
    def run(t):
        return t.call("cli.run", run_in_process, case.args, meta={"cmd": case.command})

    def verify(result):
        case.verify(*result)

    return Analysis(f"cli.{case.command}", run, verify)


def _json_or_text(fmt: str, out: str, on_json, on_text) -> None:
    if fmt == "json":
        try:
            payload = json.loads(out)
        except ValueError:
            raise Mismatch("output is not JSON") from None
        on_json(payload)
    else:
        on_text(out.splitlines())


def _tree_key(key: str) -> tuple[str, ...]:
    return () if key == "." else tuple(key.split())


def _profile_line(profile: dict, tree: bool) -> str:
    items = sorted((render_path(k) if tree else k, v) for k, v in profile.items())
    return ", ".join(f"{k}={v}" for k, v in items)


def _outcome(values) -> str:
    return ",".join(str(v) for v in values)


# --- cases ----------------------------------------------------------------------


def solve_case(files: Files, tree: gen.Tree, last: bool, fmt: str, path: str | None = None) -> CliCase:
    path = path or files.write(gen.tree_text(tree), ".game")
    ties = "last" if last else "first"
    profile = oracle.known(oracle.tree_backward_induction, tree, last)
    play, outcome = oracle.known(oracle.tree_play, tree, profile)

    def verify(code, out):
        expect(code == 0, f"solve exit code {code}")
        expected = {"command": "solve", "kind": "finite", "ties": ties,
                    "profile": {render_path(k): v for k, v in profile.items()},
                    "play": list(play), "outcome": list(outcome)}
        lines = [f"ties: {ties}", f"profile: {_profile_line(profile, True)}",
                 f"play: {' '.join(play) if play else '(empty)'}", f"outcome: {_outcome(outcome)}"]
        _json_or_text(fmt, out, lambda p: expect(p == expected, "solve JSON"),
                      lambda got: expect(got == lines, "solve text"))

    def library():
        game = dsl.parse(read(path)).game
        chosen = fin.solve(game, fin.TiePolicy.LAST_BRANCH if last else fin.TiePolicy.FIRST_BRANCH)
        return induced_play(game, chosen)

    return CliCase(["solve", path, "--ties", ties, "--format", fmt], verify, library)


def enumerate_tree_case(files: Files, tree: gen.Tree, cap: int, fmt: str, path: str) -> CliCase:
    total = oracle.known(oracle.tree_spe_count, tree)
    count, truncated = min(total, cap), total > cap

    def check_entries(entries):
        seen = set()
        for entry in entries:
            profile = {_tree_key(k): v for k, v in entry["profile"].items()}
            expect(not oracle.tree_violations(tree, profile), "enumerated profile is not an SPE")
            play, outcome = oracle.tree_play(tree, profile)
            expect((entry["play"], entry["outcome"]) == (list(play), list(outcome)), "equilibrium play")
            seen.add(tuple(sorted(profile.items())))
        expect(len(seen) == count, "enumerated profile count")

    def verify(code, out):
        expect(code == (3 if truncated else 0), f"enumerate exit code {code}")

        def on_json(p):
            expect(p["profile_count"] == count and p["truncated"] == truncated, "enumerate counts")
            check_entries(p["equilibria"])
            plays = {tuple(e["play"]) for e in p["equilibria"]}
            expect(p["play_line_count"] == len(plays), "distinct play lines")

        head = ["kind: finite", f"profiles: {count}" + (" (truncated)" if truncated else "")]
        _json_or_text(fmt, out, on_json, lambda got: expect(got[:2] == head, "enumerate text"))

    def library():
        game = dsl.parse(read(path)).game
        found = fin.enumerate_equilibria(game, cap=cap)
        return [induced_play(game, p) for p in found.profiles]

    return CliCase(["enumerate", path, "--cap", str(cap), "--format", fmt], verify, library)


def enumerate_graph_case(files: Files, graph: gen.Graph, fmt: str, path: str | None = None) -> CliCase:
    path = path or files.write(gen.graph_text(graph), ".game")
    judge = oracle.known(oracle.GraphOracle, graph)
    equilibria = judge.equilibria()
    kind = "param" if graph.parametric else "cyclic"

    def verify(code, out):
        expect(code == 0, f"enumerate exit code {code}")

        def on_json(p):
            expect(p["kind"] == kind and p["profile_count"] == len(equilibria), "enumerate count")
            expect([e["profile"] for e in p["equilibria"]] == equilibria, "equilibria")
            for entry, profile in zip(p["equilibria"], equilibria):
                k, payoff = judge.follow(profile, graph.start)
                if graph.parametric:
                    expect(entry["steps"] == k + 1, "steps to the leaf")
                    expect(entry["outcome_from_start"] == [c + s * k for c, s in payoff], "outcome")
                else:
                    expect(entry["outcome"] == [c for c, _s in payoff], "outcome")

        word = "stationary" if graph.parametric else "positional"
        head = [f"kind: {kind}", f"{word} equilibria: {len(equilibria)}"]
        _json_or_text(fmt, out, on_json, lambda got: expect(got[:2] == head and len(got) == 2 + len(equilibria),
                                                            "enumerate text"))

    def library():
        game = dsl.parse(read(path)).game
        if graph.parametric:
            return [par.induced_outcome_param(game, p) for p in par.enumerate_stationary_spe(game)]
        return [cy.induced_outcome(game, p) for p in cy.enumerate_positional_spe(game)]

    return CliCase(["enumerate", path, "--format", fmt], verify, library)


def check_case(files: Files, game_path: str, profile_text: str, expected_ok: bool, sites, divergent,
               fmt: str, kind: str) -> CliCase:
    profile_path = files.write(profile_text, ".profile")

    def verify(code, out):
        expect(code == (0 if expected_ok else 1), f"check exit code {code}")

        def on_json(p):
            expect(p["kind"] == kind and p["ok"] == expected_ok, "check verdict")
            expect([(v["at"], v["action"]) for v in p["violations"]] == sites, "violations")
            expect(p["divergences"] == list(divergent), "divergences")

        _json_or_text(fmt, out, on_json,
                      lambda got: expect(got[0] == f"ok: {'yes' if expected_ok else 'no'}", "check text"))

    def library():
        game = dsl.parse(read(game_path)).game
        profile = dsl.parse_profile_text(read(profile_path), game)
        if kind == "finite":
            return fin.check_spe(game, profile)
        return (cy.check_spe_cyclic if kind == "cyclic" else par.check_spe_param)(game, profile)

    return CliCase(["check", game_path, "--profile", profile_path, "--format", fmt], verify, library)


def tree_check_case(files, tree, path, profile, fmt):
    sites = [(render_path(w), a) for w, a, _b, _d in oracle.known(oracle.tree_violations, tree, profile)]
    return check_case(files, path, gen.tree_profile_text(tree, profile), not sites, sites, (), fmt, "finite")


def graph_check_case(files, graph, path, profile, fmt):
    divergent, sites = oracle.known(oracle.GraphOracle, graph).report(profile)
    kind = "param" if graph.parametric else "cyclic"
    return check_case(files, path, gen.graph_profile_text(graph, profile), not divergent and not sites,
                      sites, divergent, fmt, kind)


def unfold_case(files, graph, path, depth, terminal, fmt):
    expected = gen.tree_text(gen.unfold_tree(graph, depth, terminal))

    def verify(code, out):
        expect(code == 0, f"unfold exit code {code}")
        if fmt == "json":
            expect(json.loads(out) == {"command": "unfold", "game": expected}, "unfold JSON")
        else:
            expect(out == expected, "unfold text")

    def library():
        game = dsl.parse(read(path)).game
        return dsl.serialize(dsl.GameDoc(gen.PLAYERS, cy.unfold(game, depth, terminal)))

    return CliCase(["unfold", path, "--depth", str(depth), "--terminal", _outcome(terminal),
                    "--format", fmt], verify, library)


def simulate_case(files, graph, path, equilibria, seed, horizon, fmt):
    steps, outcome = oracle.known(oracle.simulate, graph, equilibria, seed, horizon)

    def verify(code, out):
        expect(code == 0, f"simulate exit code {code}")

        def on_json(p):
            got = [(s["stage"], s["mover"], s["belief"], s["action"]) for s in p["steps"]]
            expect(got == [(st, gen.PLAYERS[m], b, a) for st, m, b, a in steps], "simulated steps")
            expect(p["outcome"] == (None if outcome is None else list(outcome)), "simulated outcome")
            expect(p["horizon_hit"] == (outcome is None), "horizon flag")

        last = ("verdict: horizon hit (escalation)" if outcome is None
                else f"verdict: terminated, outcome {_outcome(outcome)}")
        _json_or_text(fmt, out, on_json, lambda got: expect(got[-1] == last and len(got) == 4 + len(steps),
                                                            "simulate text"))

    def library():
        game = dsl.parse(read(path)).game
        return esc.simulate(game, horizon, seed, esc.Uniform())

    return CliCase(["simulate", path, "--horizon", str(horizon), "--seed", str(seed), "--format", fmt],
                   verify, library)


def matrix_case(files, rows, total, fmt: str) -> CliCase:
    path = files.write(gen.matrix_text(rows, total), ".game")

    def verify(code, out):
        expect(code == 0, f"matrix exit code {code}")
        x, y, value = oracle.matrix_answer(rows, total)

        def on_json(p):
            row = [Fraction(v) for v in p["row"]]
            column = [Fraction(v) for v in p["column"]]
            expect(oracle.certificate_holds(rows, row, column, Fraction(p["value"])), "minimax certificate")
            expect((p["row"], p["column"], p["value"]) == ([str(v) for v in x], [str(v) for v in y], str(value)),
                   "documented tie-break")
            expect((p["rows"], p["cols"], p["sum"]) == (len(rows), len(rows[0]), str(total)), "matrix header")

        lines = [f"row distribution: {' '.join(str(v) for v in x)}",
                 f"column distribution: {' '.join(str(v) for v in y)}", f"value (row player): {value}"]
        _json_or_text(fmt, out, on_json, lambda got: expect(got == lines, "matrix text"))

    def library():
        return mx.solve_constant_sum(dsl.parse(read(path)).game)

    return CliCase(["matrix", path, "--format", fmt], verify, library)


def export_case(files, path, node_lines: int, edge_lines: int, bold: int, profile_text, fmt) -> CliCase:
    args = ["export", path, "--dot", "--format", fmt]
    profile_path = None
    if profile_text is not None:
        profile_path = files.write(profile_text, ".profile")
        args += ["--profile", profile_path]

    def verify(code, out):
        expect(code == 0, f"export exit code {code}")
        lines = out.splitlines()
        expect(lines[0] == "digraph game {" and lines[-1] == "}", "DOT frame")
        expect(sum("->" in line for line in lines) == edge_lines, "DOT edges")
        expect(len(lines) == 2 + node_lines + edge_lines, "DOT nodes")
        expect(sum("penwidth=2" in line for line in lines) == bold, "DOT highlight")

    def library():
        game = dsl.parse(read(path))
        profile = dsl.parse_profile_text(read(profile_path), game.game) if profile_path else None
        return dsl.to_dot(game, profile)

    return CliCase(args, verify, library)


def auction_case(value: int, max_stage: int | None, fmt: str) -> CliCase:
    graph = gen.dollar_auction(value)
    equilibria = oracle.known(oracle.GraphOracle, graph).equilibria()
    args = ["auction", "--value", str(value), "--format", fmt]
    truncation = None
    if max_stage is not None:
        args += ["--max-stage", str(max_stage)]
        truncation = min(oracle.known(oracle.tree_spe_count, gen.auction_tree(value, max_stage, (0, 0))),
                         fin.DEFAULT_CAP)

    def verify(code, out):
        expect(code == 0, f"auction exit code {code}")

        def on_json(p):
            expect(p["equilibrium_count"] == 2 and p["equilibria"] == equilibria, "auction equilibria")
            expect(not p["never_bid"]["ok"], "the never-bid profile is rejected")
            if truncation is not None:
                expect(p["truncation"]["profile_count"] == truncation, "truncation profile count")

        _json_or_text(fmt, out, on_json, lambda got: expect(got[1] == "stationary equilibria: 2", "auction text"))

    def library():
        game = par.dollar_auction(value)
        reports = [par.check_spe_param(game, p) for p in graph.profiles()]
        if max_stage is not None:
            fin.enumerate_equilibria(par.instantiate(game, max_stage, (0, 0)))
        return reports

    return CliCase(args, verify, library)


# --- the cli_small workload -------------------------------------------------------

SMALL_TREES = 24
SMALL_CYCLIC = 12
SMALL_PARAM = 6
SMALL_MATRICES = 12


def corpus_games():
    """The corpus games, rebuilt by the benchmark's own generators."""
    pennies = gen._build_tree(_pennies_spec, ())
    loop = gen.Graph({"A": (0, [("a", ("leaf", ((0, 0), (1, 0)))), ("c", ("go", "B"))]),
                      "B": (1, [("a", ("leaf", ((1, 0), (0, 0)))), ("c", ("go", "A"))])}, "A", False)
    loop_param = gen.Graph(loop.nodes, "A", True)
    trees = {"matching_pennies_seq": pennies, "zero_one_6": gen.chain01(6), "zero_one_7": gen.chain01(7)}
    graphs = {"zero_one_cyclic": loop, "zero_one_param": loop_param,
              "dollar_auction_v100": gen.dollar_auction(100)}
    matrices = {
        "rps": ([[Fraction(1, 2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 2), Fraction(1)],
                 [Fraction(1), Fraction(0), Fraction(1, 2)]], Fraction(1)),
        "rps_zerosum": ([[Fraction(v) for v in row] for row in ((0, 1, -1), (-1, 0, 1), (1, -1, 0))], Fraction(0)),
        "matching_pennies_matrix": ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]], Fraction(1)),
    }
    return trees, graphs, matrices


def _pennies_spec(path):
    """Alice, Bertrand, Alice each pick p or f; a point per adjacent match
    for Alice, per mismatch for Bertrand."""
    if len(path) == 3:
        matches = (path[0] == path[1]) + (path[1] == path[2])
        return -1, (matches, 2 - matches), []
    return len(path) % 2, None, [(label, path + (label,)) for label in ("p", "f")]


def _graph_dot_sizes(graph: gen.Graph) -> tuple[int, int]:
    leaves = sum(kind == "leaf" for _o, edges in graph.nodes.values() for _l, (kind, _t) in edges)
    edges = sum(len(edges) for _o, edges in graph.nodes.values())
    return len(graph.nodes) + leaves, edges


def build_cli_small(rng: random.Random, files: Files) -> Pool:
    shape = random.Random("cli_small-shapes")
    trees, graphs, matrices = corpus_games()
    for k in range(SMALL_TREES):
        trees[f"tree{k}"] = gen.remap_tree(gen.bushy(shape, shape.randint(5, 12)), gen.increasing_maps(rng))
    for k in range(SMALL_CYCLIC):
        widths = [shape.randint(1, 3) for _ in range(shape.randint(1, 4))]
        graphs[f"cyclic{k}"] = gen.remap_graph(gen.random_graph(shape, widths, parametric=False), rng)
    for k in range(SMALL_PARAM):
        widths = [shape.randint(1, 3) for _ in range(shape.randint(1, 4))]
        graphs[f"param{k}"] = gen.remap_graph(gen.random_graph(shape, widths, parametric=True), rng)
    for k in range(SMALL_MATRICES):
        m, n = shape.randint(1, 3), shape.randint(1, 3)
        matrices[f"matrix{k}"] = gen.remap_matrix(rng, *gen.random_matrix(shape, m, n, ("int", "rational", "degenerate")[k % 3]))

    cases: list[CliCase] = []
    for fmt in ("text", "json"):
        for tree in trees.values():
            path = files.write(gen.tree_text(tree), ".game")
            cases.append(solve_case(files, tree, shape.random() < 0.5, fmt, path))
            cases.append(enumerate_tree_case(files, tree, shape.choice((2, 1024)), fmt, path))
            profile = (oracle.known(oracle.tree_backward_induction, tree, False) if shape.random() < 0.5
                       else gen.random_profile(rng, tree))
            cases.append(tree_check_case(files, tree, path, profile, fmt))
            highlight = gen.tree_profile_text(tree, profile) if shape.random() < 0.5 else None
            cases.append(export_case(files, path, tree.size, tree.size - 1,
                                     len(tree.decision_nodes()) if highlight else 0, highlight, fmt))
        for graph in graphs.values():
            path = files.write(gen.graph_text(graph), ".game")
            equilibria = oracle.known(oracle.GraphOracle, graph).equilibria()
            cases.append(enumerate_graph_case(files, graph, fmt, path))
            profile = equilibria[0] if equilibria and shape.random() < 0.5 else gen.random_graph_profile(rng, graph)
            cases.append(graph_check_case(files, graph, path, profile, fmt))
            if not graph.parametric:
                depth = shape.randint(2, 6)
                payoffs = [t for _o, edges in graph.nodes.values() for _l, (kind, t) in edges if kind == "leaf"]
                terminal = tuple(c for c, _s in shape.choice(payoffs)) if payoffs else (0, 0)
                cases.append(unfold_case(files, graph, path, depth, terminal, fmt))
            if equilibria:
                cases.append(simulate_case(files, graph, path, equilibria, rng.randrange(1 << 32), 20, fmt))
            node_lines, edge_lines = _graph_dot_sizes(graph)
            cases.append(export_case(files, path, node_lines, edge_lines, 0, None, fmt))
        for rows, total in matrices.values():
            cases.append(matrix_case(files, rows, total, fmt))
            cases.append(export_case(files, files.write(gen.matrix_text(rows, total), ".game"), 1, 0, 0, None, fmt))
        for value, max_stage in ((3, None), (5, 6), (10, None), (100, 12)):
            cases.append(auction_case(value, max_stage, fmt))

    pool = Pool(analyses=[as_analysis(case) for case in cases], cases=cases)
    pool.warm = [pool.analyses[k] for k in range(0, len(pool.analyses), max(1, len(pool.analyses) // 16))]
    by_command = {}
    for case in cases:
        by_command.setdefault(case.command, []).append(case)
    pool.cold = [by_command[c][len(by_command[c]) * k // 4] for c in COMMANDS for k in range(4)]
    pool.inputs = {"trees": [t.size for t in trees.values()], "graphs": [g.space for g in graphs.values()],
                   "matrices": [f"{len(r)}x{len(r[0])}" for r, _t in matrices.values()],
                   "invocations": [len(cases)]}
    return pool
