"""Shared game builders, independent oracles, and random generators.

The oracles here deliberately avoid the library's solver code paths: the
brute-force equilibrium filter enumerates every profile and tests the
one-deviation property by direct tree walks, so it can referee
``enumerate_equilibria`` and ``check_spe``; the graph referees trace
induced play step by step (on the cyclic graph itself, or at concrete
stages of a parametric game), so they can referee ``check_spe_param``,
the symbolic engine for both kinds; ``reference_detect_escalation``
composes two beliefs by hand and walks the composed profile with
``reference_walk``, so it can referee ``detect_escalation``;
``reference_constant_sum`` solves each side of a matrix game separately with Gaussian elimination over
Fractions, so it can referee the integer kernel of ``solve_constant_sum``;
the recursive tree kernels (``reference_solve``, ``reference_check_spe``,
``reference_enumerate_equilibria``, ``reference_check_profile``) and the
character-by-character ``reference_tokenize`` referee the flat-array tree
routines and the compiled token scan, which ``scan_tokenize`` exposes in the
same token form; the depth-first ``reference_instantiate`` referees the
stage-layered ``instantiate``; ``ReferenceParser``, a tree reader with one
``expect*`` call per token written apart from the package's, referees it;
``reference_tree_dot``, which orders edges with the event walk
``reference_edges``, referees the DOT export of trees; the recursive
``reference_index`` referees the index arrays that ``TreeIndex`` lays out;
``reference_lines``, the pattern ``dsl._lines`` replaced, referees it;
``read_both_ways`` referees each reader ``dsl.parse`` tries before the token
reader against the token reader, and the tree line reader's index against
``TreeIndex``; ``reference_chosen_branches`` and ``reference_parse_profile_text``, which
hash every path key as the package did before it read its own profiles by identity, referee
``chosen_branches`` and ``parse_profile_text`` (``read_profile_both_ways``); and
``argparse_reads``, argparse's reading of a command line, referees ``cli._read``, which
reads a plain one from the command table alone.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from seqgames import cli
from seqgames.core import (
    FiniteGame,
    InvalidArgument,
    Leaf,
    Node,
    NotTwoPlayer,
    ShapeMismatch,
    TreeIndex,
    chosen_branches,
    leaf,
    node,
    require_two_players,
    subgame_at,
)
from seqgames.dsl import (
    _PUNCT, _SCAN, GameDoc, ParseError, _line_column, _offset, _Parser, _scan, parse_profile_text, serialize,
)
from seqgames.finite import DEFAULT_CAP, Enumeration, SpeReport, TiePolicy, Violation
from seqgames.matrix import MatrixGame, MixedProfile, matrix_game
from seqgames.escalation import BeliefNotEquilibrium, BeliefPair, Escalates, Terminates
from seqgames.parametric import (
    Advance,
    AffineLeaf,
    ConvergesAffine,
    CyclicGame,
    CyclicNode,
    Divergent,
    ParametricGame,
    Shape,
    affine,
    affine_leq,
    stationary_profiles,
)

# --- the recurring games ---------------------------------------------------


def pennies_seq() -> Node:
    """Three-move coin matching: Alice, Bertrand, Alice; one point per
    adjacent match for Alice, per mismatch for Bertrand."""
    after_pp = node(0, ("p", leaf(2, 0)), ("f", leaf(1, 1)))
    after_pf = node(0, ("p", leaf(0, 2)), ("f", leaf(1, 1)))
    after_fp = node(0, ("p", leaf(1, 1)), ("f", leaf(0, 2)))
    after_ff = node(0, ("p", leaf(1, 1)), ("f", leaf(2, 0)))
    bert_p = node(1, ("p", after_pp), ("f", after_pf))
    bert_f = node(1, ("p", after_fp), ("f", after_ff))
    return node(0, ("p", bert_p), ("f", bert_f))


def pennies_equilibrium(root_choice: str) -> dict:
    """The two backward-induction profiles differ only at the root."""
    return {
        (): root_choice,
        ("p",): "f",
        ("p", "p"): "p",
        ("p", "f"): "f",
        ("f",): "p",
        ("f", "p"): "p",
        ("f", "f"): "f",
    }


def chain01(rounds: int) -> FiniteGame:
    """Alternating abandon/continue chain of the given length."""
    current: FiniteGame = leaf(*((1, 0) if rounds % 2 else (0, 1)))
    for i in reversed(range(rounds)):
        owner = i % 2
        drop = leaf(0, 1) if owner == 0 else leaf(1, 0)
        current = node(owner, ("a", drop), ("c", current))
    return current


def tied_chain_tree(length: int) -> Node:
    """Enumeration's hard shape: a root whose left subtree holds ten tied
    pairs, folded so that it has far more than 1024 equilibria, beside a
    chain of ``length`` nodes that ends in one more tied pair.  The
    profiles alternate the bottom tie, and every other one moves a tie on
    the left, after which the whole chain takes its first best branches."""
    def pair(value: int) -> Node:
        return node(0, ("x", leaf(value, value)), ("y", leaf(value, value)))

    left = pair(5)
    for i in range(9):
        left = node(i % 2, ("p", left), ("q", pair(5)))
    chain: FiniteGame = pair(9)
    for i in range(length):
        chain = node(i % 2, ("a", leaf(0, 0)), ("c", chain))
    return node(0, ("l", left), ("r", chain))


def loop01() -> CyclicGame:
    """The two-node abandon/continue loop."""
    return CyclicGame(
        {
            "A": CyclicNode(0, (("a", leaf(0, 1)), ("c", "B"))),
            "B": CyclicNode(1, (("a", leaf(1, 0)), ("c", "A"))),
        },
        "A",
    )


def ring(n: int) -> CyclicGame:
    """The n-node generalisation of the loop: node i is owned by i mod 2,
    abandoning hands the other player the point, continuing moves on.  For
    even n it has 2^(n/2+1) - 2 positional equilibria."""
    nodes = {}
    for i in range(n):
        drop = leaf(0, 1) if i % 2 == 0 else leaf(1, 0)
        nodes[f"N{i}"] = CyclicNode(i % 2, (("a", drop), ("c", f"N{(i + 1) % n}")))
    return CyclicGame(nodes, "N0")


def star(n: int, sink_at: int) -> CyclicGame:
    """n nodes: the spokes ``S0 .. S{n-2}``, spoke i owned by i mod 2, each ending at
    ``leaf(0, 0)`` or advancing to the sink ``T``, whose one edge ends at ``leaf(1, 1)``.
    ``T`` is declared at position ``sink_at``, and the node declared first is the start.
    The one equilibrium advances everywhere.  A search in declaration order with the sink
    declared last decides no spoke before it picks the sink, so it visits 2^(n-1) nodes."""
    nodes = [(f"S{i}", CyclicNode(i % 2, (("a", leaf(0, 0)), ("c", "T")))) for i in range(n - 1)]
    nodes.insert(sink_at, ("T", CyclicNode(0, (("a", leaf(1, 1)),))))
    return CyclicGame(dict(nodes), nodes[0][0])


def _sloped_chain(n: int, advances) -> ParametricGame:
    """Shapes ``S0 .. S{n-1}``, shape i owned by i mod 2.  Each can ``stop`` at a leaf that pays
    its owner 1 and the other player 2 - n at stage n, or take the advances ``advances(i)``
    lists as ``(label, j)`` pairs to the shapes ``Sj`` there are.  Stopping everywhere is an
    equilibrium whose check compares the sloped deviations at each shape's entry stages."""
    shapes = {}
    for i in range(n):
        outcome = [affine(2, -1), affine(2, -1)]
        outcome[i % 2] = affine(1)
        moves = [("stop", AffineLeaf(tuple(outcome)))]
        moves += [(label, Advance(f"S{j}")) for label, j in advances(i) if j < n]
        shapes[f"S{i}"] = Shape(i % 2, tuple(moves))
    return ParametricGame(shapes, "S0")


def back_edge_chain(n: int) -> ParametricGame:
    """Shape i advances to i + 1 and back to S0: every shape is entered at unboundedly many stages."""
    return _sloped_chain(n, lambda i: (("next", i + 1), ("back", 0)))


def skip_chain(n: int) -> ParametricGame:
    """Shape i advances to i + 1 and to i + 2, an acyclic game: shape i is entered at
    every stage from about i / 2 to i."""
    return _sloped_chain(n, lambda i: (("next", i + 1), ("skip", i + 2)))


# --- independent oracles ---------------------------------------------------


def all_plays(game: FiniteGame) -> list[tuple[str, ...]]:
    if isinstance(game, Leaf):
        return [()]
    plays = []
    for label, child in game.branches:
        plays.extend((label,) + rest for rest in all_plays(child))
    return plays


def follow_profile(sub: FiniteGame, profile: dict, path: tuple[str, ...]) -> tuple[int, ...]:
    while isinstance(sub, Node):
        label = profile[path]
        sub = sub.branch(label)
        path = path + (label,)
    return sub.outcome


def one_deviation_stable(game: FiniteGame, profile: dict) -> bool:
    """Direct statement of the equilibrium property, without bottom-up values."""

    def stable_at(sub: FiniteGame, path: tuple[str, ...]) -> bool:
        if isinstance(sub, Leaf):
            return True
        base = follow_profile(sub, profile, path)[sub.owner]
        for label, child in sub.branches:
            if label == profile[path]:
                continue
            if follow_profile(child, profile, path + (label,))[sub.owner] > base:
                return False
        return all(stable_at(child, path + (label,)) for label, child in sub.branches)

    return stable_at(game, ())


def tree_paths(game: FiniteGame) -> list[tuple[str, ...]]:
    if isinstance(game, Leaf):
        return []
    paths = [()]
    for label, child in game.branches:
        paths.extend((label,) + rest for rest in tree_paths(child))
    return paths


def all_profiles(game: FiniteGame) -> list[dict]:
    paths = tree_paths(game)
    options = []
    for path in paths:
        sub = game
        for label in path:
            sub = sub.branch(label)
        options.append(sub.labels())
    return [dict(zip(paths, combo)) for combo in itertools.product(*options)]


def brute_equilibria(game: FiniteGame) -> list[dict]:
    """All profiles passing the one-deviation filter (exhaustive search)."""
    return [profile for profile in all_profiles(game) if one_deviation_stable(game, profile)]


# --- graph-game referees ----------------------------------------------------


def trace_outcome(game: CyclicGame, profile: dict, start: str, bound: int):
    """Independent induced-play oracle: step-by-step with an explicit bound,
    reading each slope-0 payoff as its constant."""
    name = start
    for _ in range(bound):
        target = dict(game.shapes[name].moves)[profile[name]]
        if isinstance(target, AffineLeaf):
            return tuple(value.const for value in target.outcome)
        name = target.shape
    return None  # no leaf within bound: divergent for positional profiles


def reference_report_cyclic(game: CyclicGame, profile: dict):
    """The divergent nodes and the improving one-shot deviations
    ``(where, action, profile_value, deviation_value)``, by bounded tracing
    on the graph itself.  Deviations are judged only when play converges
    from every node, as in the library's report."""
    bound = len(game.shapes) + 1
    values = {name: trace_outcome(game, profile, name, bound) for name in game.shapes}
    divergent = tuple(name for name, value in values.items() if value is None)
    if divergent:
        return divergent, []
    violations = []
    for name, shape in game.shapes.items():
        base = values[name][shape.owner]
        for label, target in shape.moves:
            if label == profile[name]:
                continue
            if isinstance(target, AffineLeaf):
                after = tuple(value.const for value in target.outcome)
            else:
                after = values[target.shape]
            if after[shape.owner] > base:
                violations.append((name, label, base, after[shape.owner]))
    return divergent, violations


def reference_is_spe(game: CyclicGame, profile: dict) -> bool:
    """Independently coded acceptance test via bounded tracing."""
    divergent, violations = reference_report_cyclic(game, profile)
    return not divergent and not violations


def reference_report_param(game: ParametricGame, profile: dict, horizon: int = 64):
    """The divergent shapes and the ``(where, action)`` sites of improving
    one-shot deviations, judged at concrete integer stages: a shape is
    judged at every stage up to ``horizon`` at which some play enters it,
    or at every stage up to ``horizon`` when no play does."""

    def value(name: str, stage: int):
        for _ in range(len(game.shapes) + 1):
            target = dict(game.shapes[name].moves)[profile[name]]
            if isinstance(target, AffineLeaf):
                return tuple(v.const + v.slope * stage for v in target.outcome)
            name, stage = target.shape, stage + 1
        return None

    divergent = tuple(name for name in game.shapes if value(name, 0) is None)
    if divergent:
        return divergent, []
    entered: dict[str, list[int]] = {name: [] for name in game.shapes}
    frontier = {game.start}
    for stage in range(horizon + 1):
        for name in frontier:
            entered[name].append(stage)
        frontier = {
            target.shape
            for name in frontier
            for _label, target in game.shapes[name].moves
            if isinstance(target, Advance)
        }
    violations = []
    for name, shape in game.shapes.items():
        for label, target in shape.moves:
            if label == profile[name]:
                continue
            for stage in entered[name] or range(horizon + 1):
                if isinstance(target, AffineLeaf):
                    after = tuple(v.const + v.slope * stage for v in target.outcome)
                else:
                    after = value(target.shape, stage + 1)
                if after is not None and after[shape.owner] > value(name, stage)[shape.owner]:
                    violations.append((name, label))
                    break
    return divergent, violations


def reference_entry_stages(game: ParametricGame) -> dict[str, tuple[tuple[int, ...], bool]]:
    """Per shape, its entry stages up to twice the shape count, by breadth-first layers,
    and whether they are all of them: ``(stages, bounded)``.  Any path at least as long as
    the shape count passes a cycle, making the set unbounded, and an unbounded set always
    has a witness no longer than twice the shape count."""
    count = len(game.shapes)
    reach: dict[str, set[int]] = {name: set() for name in game.shapes}
    reach[game.start].add(0)
    current = {game.start}
    for depth in range(1, 2 * count + 1):
        nxt: set[str] = set()
        for name in current:
            for _label, target in game.shapes[name].moves:
                if isinstance(target, Advance):
                    nxt.add(target.shape)
        for name in nxt:
            reach[name].add(depth)
        current = nxt
    return {name: (tuple(sorted(stages)), all(d < count for d in stages)) for name, stages in reach.items()}


def _reference_holds_at_entries(deviation, base, info: tuple[tuple[int, ...], bool]) -> bool:
    """Whether deviation(n) <= base(n) at every entry stage of a shape:
    pointwise on a finite set, by the slope rule on an unbounded one."""
    stages, bounded = info
    if not stages:
        return affine_leq(deviation, base, 0)
    if bounded:
        return all(deviation.at(stage) <= base.at(stage) for stage in stages)
    return affine_leq(deviation, base, stages[0])


def reference_walk(game: ParametricGame, profile: dict, name: str):
    """Induced play from shape ``name`` under a valid ``profile``, by a list of the shapes
    visited: a ``ConvergesAffine`` whose payoffs are in the stage play entered ``name``,
    or the ``Divergent`` lasso split at the first shape visited twice."""
    path: list[str] = []
    while name not in path:
        path.append(name)
        target = dict(game.shapes[name].moves)[profile[name]]
        if isinstance(target, AffineLeaf):
            steps = len(path) - 1
            outcome = tuple(affine(v.const + v.slope * steps, v.slope) for v in target.outcome)
            return ConvergesAffine(tuple(path), outcome)
        name = target.shape
    first = path.index(name)
    return Divergent(tuple(path[:first]), tuple(path[first:]))


def reference_detect_escalation(game: ParametricGame, beliefs: BeliefPair, require_equilibria: bool = True):
    """The verdict of ``detect_escalation`` for valid beliefs: each belief judged by
    ``reference_spe_report_param`` when ``require_equilibria`` is set, then the beliefs
    composed by hand into one profile, and its play from the start walked by
    ``reference_walk`` and read at stage 0."""
    per_player = (beliefs.belief_of_a, beliefs.belief_of_b)
    if require_equilibria:
        for player, belief in enumerate(per_player):
            if not reference_spe_report_param(game, belief).ok:
                raise BeliefNotEquilibrium(player)
    composed = {name: per_player[shape.owner][name] for name, shape in game.shapes.items()}
    play = reference_walk(game, composed, game.start)
    if isinstance(play, Divergent):
        return Escalates(play)
    return Terminates(len(play.path) - 1, tuple(value.const for value in play.outcome))


def reference_spe_report_param(game: ParametricGame, profile: dict) -> SpeReport:
    """The symbolic report of ``check_spe_param`` by a separate walk from every
    shape (quadratic in the shape count), for a valid profile: the divergent
    shapes, else every improving deviation with its affine values, in
    declaration and move order."""
    results = {name: reference_walk(game, profile, name) for name in game.shapes}
    divergent = tuple(name for name, r in results.items() if isinstance(r, Divergent))
    if divergent:
        return SpeReport((), divergent)
    entries: dict[str, tuple[tuple[int, ...], bool]] = {}
    violations = []
    for name, shape in game.shapes.items():
        base = results[name].outcome[shape.owner]
        for label, target in shape.moves:
            if label == profile[name]:
                continue
            if isinstance(target, AffineLeaf):
                deviation = target.outcome[shape.owner]
            else:
                continuation = results[target.shape]
                if isinstance(continuation, Divergent):
                    continue
                deviation = continuation.outcome[shape.owner].shifted(1)
            if deviation.slope == base.slope:
                holds = deviation.const <= base.const
            else:
                entries = entries or reference_entry_stages(game)
                holds = _reference_holds_at_entries(deviation, base, entries[name])
            if not holds:
                violations.append(Violation(name, label, base, deviation))
    return SpeReport(tuple(violations))


def reference_enumerate_stationary(game: ParametricGame) -> list[dict]:
    """Every stationary profile in canonical order that the reference report
    accepts: the product-plus-filter enumeration."""
    return [profile for profile in stationary_profiles(game) if reference_spe_report_param(game, profile).ok]


def reference_instantiate(game: ParametricGame, max_stage: int, terminal: tuple) -> FiniteGame:
    """The tree ``instantiate`` builds, depth first in move order with an explicit
    stack: one frame per node under construction, and each (shape, stage) subtree
    built once and shared, the way ``instantiate`` built it before it went by
    stage layers."""
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    shapes = game.shapes
    cut = Leaf(tuple(terminal))
    built: dict[tuple[str, int], Node] = {}
    stack: list[tuple] = []
    name, stage, label = game.start, 0, None
    while True:
        shape = shapes[name]
        stack.append((name, stage, shape.owner, [], iter(shape.moves), label))
        while True:
            name, stage, owner, branches, moves, label = stack[-1]
            after = stage + 1
            for move, target in moves:
                if isinstance(target, AffineLeaf):
                    sub = target.constant or Leaf(tuple(v.at(stage) for v in target.outcome))
                elif after == max_stage:
                    sub = cut
                else:
                    sub = built.get((target.shape, after))
                    if sub is None:
                        break
                branches.append((move, sub))
            else:
                done = built[(name, stage)] = Node(owner, tuple(branches))
                stack.pop()
                if not stack:
                    return done
                stack[-1][3].append((label, done))
                continue
            name, stage, label = target.shape, after, move  # enter the missing subtree
            break


def instantiate_profile(game: ParametricGame, profile: dict, max_stage: int) -> dict[tuple[str, ...], str]:
    """Restrict a stationary profile to the tree built by ``instantiate``."""
    game.check_profile(profile)
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    out: dict[tuple[str, ...], str] = {}
    stack: list[tuple[str, int, tuple[str, ...]]] = [(game.start, 0, ())]
    while stack:  # preorder: children are pushed in reverse move order
        name, stage, path = stack.pop()
        shape = game.shapes[name]
        out[path] = profile[name]
        if stage + 1 < max_stage:
            stack.extend(
                (target.shape, stage + 1, path + (label,))
                for label, target in reversed(shape.moves)
                if isinstance(target, Advance)
            )
    return out


def count_nodes(game: FiniteGame) -> int:
    if isinstance(game, Leaf):
        return 1
    return 1 + sum(count_nodes(child) for _label, child in game.branches)


# --- random generators (seeded, deterministic) ------------------------------

_LABELS = ("x", "y", "z")


def random_tree(rng: random.Random, max_nodes: int = 12, payoff_max: int = 3) -> Node:
    """Small random two-player tree with at most ``max_nodes`` nodes total;
    the narrow payoff range makes ties frequent."""

    def attempt() -> FiniteGame:
        pool = [rng.randint(3, max_nodes)]

        def build(depth: int) -> FiniteGame:
            pool[0] -= 1
            width = rng.choice((2, 2, 2, 3))
            if depth >= 4 or pool[0] < width or rng.random() < 0.3:
                return leaf(rng.randint(0, payoff_max), rng.randint(0, payoff_max))
            owner = rng.randint(0, 1)
            return node(owner, *((_LABELS[i], build(depth + 1)) for i in range(width)))

        return build(0)

    while True:
        tree = attempt()
        if isinstance(tree, Node) and count_nodes(tree) <= max_nodes:
            return tree


def random_profile(rng: random.Random, game: FiniteGame) -> dict:
    profile = {}
    for path in tree_paths(game):
        sub = game
        for label in path:
            sub = sub.branch(label)
        profile[path] = rng.choice(sub.labels())
    return profile


def random_cyclic(rng: random.Random, max_nodes: int = 4) -> CyclicGame:
    names = [f"N{i}" for i in range(rng.randint(1, max_nodes))]
    nodes = {}
    for name in names:
        width = rng.randint(1, 3)
        edges = []
        for label in _LABELS[:width]:
            if rng.random() < 0.5:
                edges.append((label, leaf(rng.randint(0, 3), rng.randint(0, 3))))
            else:
                edges.append((label, rng.choice(names)))
        nodes[name] = CyclicNode(rng.randint(0, 1), tuple(edges))
    return CyclicGame(nodes, names[0])


def random_parametric(rng: random.Random, max_shapes: int = 4) -> ParametricGame:
    names = [f"S{i}" for i in range(rng.randint(1, max_shapes))]
    shapes = {}
    for name in names:
        width = rng.randint(1, 3)
        moves = []
        for label in _LABELS[:width]:
            if rng.random() < 0.5:
                outcome = tuple(
                    affine(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(2)
                )
                moves.append((label, AffineLeaf(outcome)))
            else:
                moves.append((label, Advance(rng.choice(names))))
        shapes[name] = Shape(rng.randint(0, 1), tuple(moves))
    return ParametricGame(shapes, names[0])


def random_graph(rng: random.Random, widths: list[int], parametric: bool) -> CyclicGame | ParametricGame:
    """A random graph game with one decision point per entry of ``widths``
    (its move count), so the profile space is the product of ``widths``."""
    names = [f"S{i}" for i in range(len(widths))]
    points = {}
    for name, width in zip(names, widths):
        moves: list = []
        for label in _LABELS[:width]:
            if rng.random() < 0.5:
                moves.append((label, Advance(rng.choice(names)) if parametric else rng.choice(names)))
            elif parametric:
                outcome = tuple(affine(rng.randint(-5, 5), rng.randint(-2, 2)) for _ in range(2))
                moves.append((label, AffineLeaf(outcome)))
            else:
                moves.append((label, leaf(rng.randint(0, 3), rng.randint(0, 3))))
        owner = rng.randint(0, 1)
        points[name] = Shape(owner, tuple(moves)) if parametric else CyclicNode(owner, tuple(moves))
    return ParametricGame(points, names[0]) if parametric else CyclicGame(points, names[0])


def random_matrix(rng: random.Random, max_side: int = 4) -> MatrixGame:
    rows = rng.randint(1, max_side)
    cols = rng.randint(1, max_side)
    entries = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return matrix_game(entries, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def dominated_first(rng: random.Random, base: int, added: int) -> MatrixGame:
    """A 0..2 game of side ``base`` (often degenerate) under ``added`` rows, each
    1 or 2 below one of its rows, then ``added`` columns put in front, each 1
    or 2 above an existing column in every row.  The columns go in one round
    of removal; a row whose new entries no longer sit below its model's goes
    only in a later round."""
    rows = [[rng.randint(0, 2) for _ in range(base)] for _ in range(base)]
    for _ in range(added):
        model = rows[-1 - rng.randrange(base)]
        rows.insert(0, [entry - rng.randint(1, 2) for entry in model])
    for _ in range(added):
        j = rng.randrange(len(rows[0]))
        for row in rows:
            row.insert(0, row[j] + rng.randint(1, 2))
    return matrix_game(rows, 2)


# --- the matrix referee ------------------------------------------------------
#
# Plain rational support enumeration, kept independent of the library's
# integer kernel: each side is solved on its own matrix with Gaussian
# elimination over Fractions, and every square pair is judged from scratch.


def _solve_linear(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Exact Gaussian elimination; None when the system is singular."""
    n = len(rows)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [x - scale * y for x, y in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _equalizing_mix(matrix, support, against):
    """Mix on ``support`` making every column of ``against`` worth the same
    value v: solve sum_i x_i M[i][j] = v for j in against, sum x_i = 1."""
    k = len(support)
    rows = [[matrix[i][j] for i in support] + [Fraction(-1)] for j in against]
    rows.append([Fraction(1)] * k + [Fraction(0)])
    rhs = [Fraction(0)] * k + [Fraction(1)]
    solution = _solve_linear(rows, rhs)
    if solution is None:
        return None
    return solution[:k], solution[k]


def _optimal_mix(matrix) -> tuple[tuple[Fraction, ...], Fraction]:
    """Maximin strategy for the row player of ``matrix``: the smallest
    accepted mix on the first row support, in lexicographic order over all
    nonempty subsets, that has an accepted square pair."""
    n_rows, n_cols = len(matrix), len(matrix[0])
    transposed = [[matrix[i][j] for i in range(n_rows)] for j in range(n_cols)]
    supports = sorted(
        itertools.chain.from_iterable(
            itertools.combinations(range(n_rows), k) for k in range(1, n_rows + 1)
        )
    )
    for support in supports:
        candidates = []
        for against in itertools.combinations(range(n_cols), len(support)):
            solved = _equalizing_mix(matrix, support, against)
            if solved is None:
                continue
            mix_on_support, value = solved
            if any(p < 0 for p in mix_on_support):
                continue
            dual = _equalizing_mix(transposed, against, support)
            if dual is None:
                continue
            opponent_mix, opponent_value = dual
            if opponent_value != value or any(p < 0 for p in opponent_mix):
                continue
            x = [Fraction(0)] * n_rows
            for idx, p in zip(support, mix_on_support):
                x[idx] = p
            y = [Fraction(0)] * n_cols
            for idx, p in zip(against, opponent_mix):
                y[idx] = p
            if any(sum(x[i] * matrix[i][j] for i in range(n_rows)) < value for j in range(n_cols)):
                continue
            if any(sum(matrix[i][j] * y[j] for j in range(n_cols)) > value for i in range(n_rows)):
                continue
            candidates.append((tuple(x), value))
        if candidates:
            return min(candidates)
    raise AssertionError("no square-kernel solution found")


def reference_constant_sum(game: MatrixGame) -> MixedProfile:
    """The documented tie-break computed the slow way: the row side on the
    payoffs, the column side on ``total - payoffs`` transposed."""
    x, value = _optimal_mix(game.payoffs)
    column_view = [
        [game.total - game.payoffs[i][j] for i in range(game.rows)] for j in range(game.cols)
    ]
    y, column_value = _optimal_mix(column_view)
    assert value + column_value == game.total
    return MixedProfile(x, y, value)


# --- the finite-tree referees ------------------------------------------------
#
# The recursive kernels the flat-array routines replaced, kept verbatim as
# referees: they build every path as ``path + (label,)`` on the way down and
# copy profile fragments on the way up, so they are quadratic and limited by
# the recursion depth, but they state each answer directly.


def _reference_require_two_players(game: FiniteGame) -> None:
    def outcomes(sub: FiniteGame):
        if isinstance(sub, Leaf):
            yield sub.outcome
            return
        for _label, child in sub.branches:
            yield from outcomes(child)

    for outcome in outcomes(game):
        if len(outcome) != 2:
            raise NotTwoPlayer(
                f"solvers need two players, found outcome vector of length {len(outcome)}"
            )


def reference_check_profile(game: FiniteGame, profile: dict) -> None:
    preorder = tree_paths(game)
    paths = set(preorder)
    keys = set(profile)
    if paths != keys:
        missing = sorted(paths - keys)
        extra = sorted(keys - paths)
        raise ShapeMismatch(
            f"profile does not match game shape "
            f"(missing {missing[:3]!r}, extra {extra[:3]!r})"
        )
    for path in preorder:  # the first bad choice in preorder is named
        sub = subgame_at(game, path)
        assert isinstance(sub, Node)
        if profile[path] not in sub.labels():
            raise ShapeMismatch(f"choice {profile[path]!r} at {path!r} is not a branch label")


def reference_solve(game: FiniteGame, ties: TiePolicy = TiePolicy.FIRST_BRANCH) -> dict:
    _reference_require_two_players(game)
    profile: dict = {}

    def walk(sub: FiniteGame, path: tuple[str, ...]) -> tuple[int, ...]:
        if isinstance(sub, Leaf):
            return sub.outcome
        values = [walk(child, path + (label,)) for label, child in sub.branches]
        best = max(value[sub.owner] for value in values)
        tied = [i for i, value in enumerate(values) if value[sub.owner] == best]
        pick = tied[0] if ties is TiePolicy.FIRST_BRANCH else tied[-1]
        profile[path] = sub.branches[pick][0]
        return values[pick]

    walk(game, ())
    return profile


def reference_enumerate_equilibria(game: FiniteGame, cap: int = DEFAULT_CAP) -> Enumeration:
    _reference_require_two_players(game)
    if cap < 1:
        raise ValueError("cap must be positive")

    def rec(sub: FiniteGame, path: tuple[str, ...]) -> list[tuple[dict, tuple[int, ...]]]:
        if isinstance(sub, Leaf):
            return [({}, sub.outcome)]
        branch_sets = [rec(child, path + (label,)) for label, child in sub.branches]
        out: list[tuple[dict, tuple[int, ...]]] = []
        for combo in itertools.product(*branch_sets):
            values = [value for _fragment, value in combo]
            best = max(value[sub.owner] for value in values)
            for i, (label, _child) in enumerate(sub.branches):
                if values[i][sub.owner] != best:
                    continue
                merged: dict = {path: label}
                for fragment, _value in combo:
                    merged.update(fragment)
                out.append((merged, values[i]))
            if len(out) > cap:
                break
        return out[: cap + 1]

    items = rec(game, ())
    return Enumeration(tuple(prof for prof, _value in items[:cap]), truncated=len(items) > cap)


def reference_check_spe(game: FiniteGame, profile: dict) -> SpeReport:
    _reference_require_two_players(game)
    reference_check_profile(game, profile)
    violations: list[Violation] = []

    def walk(sub: FiniteGame, path: tuple[str, ...]) -> None:
        if isinstance(sub, Leaf):
            return
        base = follow_profile(sub, profile, path)[sub.owner]
        for label, child in sub.branches:
            if label == profile[path]:
                continue
            deviation = follow_profile(child, profile, path + (label,))[sub.owner]
            if deviation > base:
                violations.append(Violation(path, label, base, deviation))
        for label, child in sub.branches:
            walk(child, path + (label,))

    walk(game, ())
    return SpeReport(tuple(violations))


def reference_chosen_branches(game: FiniteGame, profile: dict) -> list[int | None]:
    """``core.chosen_branches`` as it read every profile before its identity pass: by hashing each path key."""
    index = game.index
    paths, labels = index.paths, index.labels
    if len(profile) == len(index.postorder):
        try:
            return [None if path is None else names.index(profile[path]) for path, names in zip(paths, labels)]
        except (KeyError, ValueError):
            pass
    decisions, keys = set(paths) - {None}, set(profile)
    if keys != decisions:
        missing, extra = sorted(decisions - keys), sorted(keys - decisions)
        raise ShapeMismatch(f"profile does not match game shape (missing {missing[:3]!r}, extra {extra[:3]!r})")
    path = next(path for path, names in zip(paths, labels) if path is not None and profile[path] not in names)
    raise ShapeMismatch(f"choice {profile[path]!r} at {path!r} is not a branch label")


def reference_parse_profile_text(text: str, game: FiniteGame) -> dict:
    """``dsl.parse_profile_text`` on a tree as it read before it keyed a profile by the index's own paths: each
    key split into a fresh tuple, and the profile checked by ``reference_chosen_branches``."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidArgument(f"line {lineno}: expected 'key = action'")
        key, _, action = line.partition("=")
        key, action = key.strip(), action.strip()
        if not key or not action:
            raise InvalidArgument(f"line {lineno}: expected 'key = action'")
        if key in entries:
            raise InvalidArgument(f"line {lineno}: duplicate key {key!r}")
        entries[key] = action
    profile = {(() if key == "." else tuple(key.split())): action for key, action in entries.items()}
    reference_chosen_branches(game, profile)
    return profile


def deep_random_tree(rng: random.Random, max_depth: int = 40, max_nodes: int = 60) -> Node:
    """Random two-player tree with 1 to 3 branches per node, payoffs 0..2
    (ties are frequent) and depth up to ``max_depth``: first branches rarely
    stop and later ones often do, so long spines carry short side branches
    within a budget of at most ``max_nodes`` nodes."""
    budget = [rng.randint(3, max_nodes)]

    def build(depth: int, stop: float) -> FiniteGame:
        budget[0] -= 1
        width = rng.randint(1, 3)
        if depth and (depth >= max_depth or budget[0] < width or rng.random() < stop):
            return leaf(rng.randint(0, 2), rng.randint(0, 2))
        branches = [(label, build(depth + 1, 0.6 if k else 0.03)) for k, label in enumerate(_LABELS[:width])]
        return node(rng.randint(0, 1), *branches)

    tree = build(0, 0.0)
    assert isinstance(tree, Node)
    return tree


# --- the tokenizer referee ---------------------------------------------------


@dataclass(frozen=True)
class RefToken:
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


_REF_PUNCT = {"{", "}", "(", ")", ",", ";", ":", "=", "+", "-", "*", "/"}


def reference_tokenize(text: str) -> list[RefToken]:
    """The character-by-character tokenizer the compiled scan replaced.

    It reads any ``str.isdigit`` run as an integer, so a non-decimal digit
    such as ``²`` makes an "int" token that ``int()`` cannot convert; the
    scan rejects it as a character that starts no token instead.
    """
    tokens: list[RefToken] = []
    line, column = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            column += 1
            i += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        start_col = column
        if text.startswith("->", i):
            tokens.append(RefToken("punct", "->", line, start_col))
            i += 2
            column += 2
            continue
        if ch in _REF_PUNCT:
            tokens.append(RefToken("punct", ch, line, start_col))
            i += 1
            column += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(RefToken("int", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(RefToken("name", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        raise ParseError(line, start_col, "a token", repr(ch))
    tokens.append(RefToken("eof", "", line, column))
    return tokens


def scan_tokenize(text: str) -> list[RefToken]:
    """The tokens of the parser's compiled scan with kinds and positions,
    ending with one "eof" token.  The parser works on the scan's texts and
    positions only the token an error names; this view is for the tests."""
    tokens = []
    for token, match in zip(_scan(text), _SCAN.finditer(text)):
        if not token:
            kind = "eof"
        elif token in _PUNCT:
            kind = "punct"
        else:
            kind = "int" if token[0].isdecimal() else "name"
        tokens.append(RefToken(kind, token, *_line_column(text, _offset(text, match))))
    return tokens


# The pattern that listed ``_scan``'s lines before ``dsl._lines``: blanks, tabs, CRs and line ends, then the
# rest of a line; each group always matches, so blank lines cost linear time and match empty only at the end.
_REFERENCE_LINES = re.compile(r"[ \t\r\n]*([^\n]*)")


def reference_lines(text: str) -> list[str]:
    """The lines ``dsl._lines`` lists, by the pattern it replaced, without its empty matches at the end."""
    return list(filter(None, _REFERENCE_LINES.findall(text)))


def token_spans(text: str) -> list[tuple[int, int]]:
    """Source offsets ``(start, end)`` of the tokens the scan reads, without
    the end of input; the text must scan."""
    return [match.span(1) for match in _SCAN.finditer(text) if match.group(1)]


# --- the canonical readers' referee ------------------------------------------

# What a mutation writes at a token boundary: the documents' own kinds of token, and tokens and
# blanks the canonical reader declines (a glued keyword, non-ASCII, a ``+-`` slope, a comment, ...).
_SPLICES = (
    "{", "}", "(", ")", ",", ";", ":", "=", "+", "-", "*", "->", "n", "0", "-0", "007", "12",
    "leaf", "advance", "start", "players", "cyclic", "param", "Alice", "Bertrand", "A", "N0", "x_1",
    "Bertrandparam", "+-2*n", "-1*n", "é", "٣", "# note\n", " ", "\n", "\t", "\r\n", "\x0b", "\xa0", "",
)


def _token_class(token: str) -> int:
    """1 for a number, 2 for a name, 0 for anything else."""
    return 1 if token[0].isdecimal() else 2 if token[0].isalpha() or token[0] == "_" else 0


def mutate(rng: random.Random, text: str) -> str:
    """``text`` changed at one token boundary, or at two or three one time in five: a token deleted,
    doubled, swapped with the next, or replaced by a splice or by another token of its text of the same
    class (name, number or punctuation); a splice inserted; or the blanks after a token dropped or
    replaced.  A text left with no token is not changed further."""
    for _ in range(rng.choice((1, 1, 1, 2, 3))):
        spans = token_spans(text)
        if not spans:
            break
        k = rng.randrange(len(spans))
        (start, end), token = spans[k], text[spans[k][0]:spans[k][1]]
        after = spans[k + 1][0] if k + 1 < len(spans) else len(text)
        operation = rng.randrange(8)
        if operation == 0:
            text = text[:start] + text[end:]
        elif operation == 1:
            text = text[:end] + rng.choice(("", " ")) + token + text[end:]
        elif operation == 2 and k + 1 < len(spans):
            following = text[spans[k + 1][0]:spans[k + 1][1]]
            text = text[:start] + following + text[end:after] + token + text[spans[k + 1][1]:]
        elif operation == 3:
            text = text[:start] + rng.choice(_SPLICES) + text[end:]
        elif operation == 4:
            text = text[:start] + rng.choice(_SPLICES) + rng.choice(("", " ")) + text[start:]
        elif operation == 5:
            peers = [text[a:b] for a, b in spans if _token_class(text[a]) == _token_class(token)]
            text = text[:start] + rng.choice(peers) + text[end:]
        else:
            text = text[:end] + rng.choice(("", " ", "\n", "\t", "\r", "\x0b", "\xa0")) + text[after:]
    return text


def read_both_ways(reader, text: str):
    """``reader(text)`` (``parse_canonical_graph``, ``parse_canonical_matrix`` or ``parse_tree_lines``) as a
    ``GameDoc`` or None, which must not raise, and the token reader's ``repr`` of the same text or the type and
    text of its error; an ``AssertionError`` if the first is a document of another ``repr``, or a tree whose
    index (laid out by the reader) differs from ``TreeIndex(root)`` in any slot."""
    fast = reader(text)
    fast = fast and GameDoc(*fast)
    try:
        reference = repr(_Parser(text).parse_doc())
    except Exception as exc:  # the token reader's error, which the canonical reader must have declined
        reference = (type(exc), str(exc))
    assert fast is None or repr(fast) == reference, (text, fast, reference)
    if fast is not None and isinstance(fast.game, Node):
        assert index_slots(fast.game.index) == walked_index_slots(fast.game), text
    return fast, reference


def index_slots(index: TreeIndex) -> tuple:
    """Every slot of ``index``, in ``__slots__`` order."""
    return tuple(getattr(index, name) for name in TreeIndex.__slots__)


def walked_index_slots(tree: Node) -> tuple:
    """The slots of the index ``TreeIndex(root)`` lays out for ``tree``, with ``fault`` found by
    ``require_two_players``: those of a new root over the same branches."""
    root = Node(tree.owner, tree.branches)
    require_two_players(root)
    return index_slots(root.index)


def _documents(rng: random.Random, games: list) -> list[str]:
    """``games`` serialized, each with one of two pairs of player names at random."""
    return [serialize(GameDoc(rng.choice((("Alice", "Bertrand"), ("P", "Q"))), game)) for game in games]


def graph_documents(rng: random.Random, count: int) -> list[str]:
    """``count`` serialized random graph documents, cyclic and param in turn
    (``random_cyclic``, ``random_parametric``)."""
    return _documents(rng, [(random_cyclic, random_parametric)[k % 2](rng) for k in range(count)])


def matrix_documents(rng: random.Random, count: int) -> list[str]:
    """``count`` serialized ``random_matrix`` documents, of one to six rows and columns."""
    return _documents(rng, [random_matrix(rng, 6) for _ in range(count)])


def tree_documents(rng: random.Random, count: int) -> list[str]:
    """``count`` serialized trees, ``random_tree`` and ``deep_random_tree`` in turn, every other one with
    some payoffs made negative."""
    texts = _documents(rng, [(random_tree, deep_random_tree)[k % 2](rng) for k in range(count)])
    return [text.replace("leaf(2,", "leaf(-2,").replace(",1)", ",-1)") if k % 4 > 1 else text
            for k, text in enumerate(texts)]


def referee_canonical_reader(reader, rng: random.Random, bases: list[str], mutations: int) -> tuple[int, int]:
    """Every base document, then ``mutations`` mutated ones, read both ways by ``reader`` (``read_both_ways``);
    how many the canonical reader accepted and how many it declined.  The bases must all be accepted."""
    for text in bases:
        assert read_both_ways(reader, text)[0] is not None, text
    accepted = 0
    for _ in range(mutations):
        accepted += read_both_ways(reader, mutate(rng, rng.choice(bases)))[0] is not None
    return accepted + len(bases), mutations - accepted


def read_profile_both_ways(text: str, game: FiniteGame):
    """``dsl.parse_profile_text(text, game)`` as a list of its items in order, or the type and text of its error;
    an ``AssertionError`` unless ``reference_parse_profile_text`` reads the text to the same list or error."""
    got, want = [], []
    for reader, out in ((parse_profile_text, got), (reference_parse_profile_text, want)):
        try:
            out.append(list(reader(text, game).items()))
        except Exception as exc:  # a stray exception class must fail the comparison too
            out.append((type(exc), str(exc)))
    assert got == want, (text, got, want)
    return got[0]


def referee_profile_reader(rng: random.Random, bases: list[tuple[FiniteGame, str]], mutations: int) -> tuple[int, int]:
    """Each base profile text, then ``mutations`` ``mutate``d ones, read for its tree both ways
    (``read_profile_both_ways``); how many ``parse_profile_text`` accepted and how many it refused.
    The bases must all be accepted."""
    for game, text in bases:
        assert isinstance(read_profile_both_ways(text, game), list), text
    accepted = 0
    for _ in range(mutations):
        game, text = rng.choice(bases)
        accepted += isinstance(read_profile_both_ways(mutate(rng, text), game), list)
    return accepted + len(bases), mutations - accepted


def big_random_tree(rng: random.Random, nodes: int) -> Node:
    """A random tree of exactly ``nodes`` nodes (at least 2), grown
    breadth-first: a slot gets 2 or 3 branches (fewer once the budget runs
    out) unless it is drawn to stay a leaf, which the last open slot never
    is; leaves carry payoffs 0..3."""
    kids: list[list[int]] = [[]]
    queue, budget = [0], nodes - 1
    for position, current in enumerate(queue):  # ``queue`` grows as it is read
        if not budget:
            break
        if position + 1 < len(queue) and rng.random() < 0.4:
            continue
        for _ in range(min(rng.choice((2, 2, 3)), budget)):
            kids[current].append(len(kids))
            queue.append(len(kids))
            kids.append([])
            budget -= 1
    built: list[FiniteGame | None] = [None] * len(kids)
    for current in reversed(range(len(kids))):
        if kids[current]:
            built[current] = node(rng.randint(0, 1), *zip(_LABELS, (built[k] for k in kids[current])))
        else:
            built[current] = leaf(rng.randint(0, 3), rng.randint(0, 3))
    tree = built[0]
    assert isinstance(tree, Node)
    return tree


# --- the parser and DOT referees ----------------------------------------------


class ReferenceParser(_Parser):
    """The tree reader written apart from ``_Parser.parse_tree``: the same
    grammar, errors and checks, and one ``expect*`` call per token."""

    def parse_tree(self, players: tuple[str, str]) -> FiniteGame:
        tokens = self.tokens
        frames: list[tuple[int, list[tuple[str, FiniteGame]], set[str]]] = []
        labels: list[str] = []  # the label of the branch being read, per frame
        while True:
            if tokens[self.pos] == "leaf":
                self.pos += 1
                sub: FiniteGame | None = self.parse_leaf_int()
            else:
                owner = self.owner_index(self.expect_name("'leaf' or a player name"), players)
                self.expect("{")
                frames.append((owner, [], set()))
                sub = None
            while True:
                if sub is not None:
                    if not frames:
                        return sub
                    frames[-1][1].append((labels.pop(), sub))
                    self.skip_separators()
                owner, branches, seen = frames[-1]
                if tokens[self.pos] == "}":
                    if not branches:
                        raise self.fail("at least one branch")
                    self.pos += 1
                    frames.pop()
                    sub = Node(owner, tuple(branches))
                    continue
                index = self.expect_name("an action label")
                label = tokens[index]
                if label in seen:
                    raise self.invalid(index, f"duplicate branch label {label!r}")
                seen.add(label)
                self.expect("->")
                labels.append(label)
                break


def reference_parse(text: str) -> GameDoc:
    return ReferenceParser(text).parse_doc()


def reference_index(tree: FiniteGame) -> tuple:
    """The six ``TreeIndex`` arrays of ``tree`` (``owners``, ``paths``,
    ``outcomes``, ``labels``, ``children``, ``postorder``), by plain
    recursion over ``Node.branches``."""
    owners: list = []
    paths: list = []
    outcomes: list = []
    labels: list = []
    children: list = []
    postorder: list = []

    def visit(sub: FiniteGame, path: tuple[str, ...]) -> int:
        at = len(outcomes)
        if isinstance(sub, Leaf):
            owners.append(None)
            paths.append(None)
            outcomes.append(sub.outcome)
            labels.append(())
            children.append(())
            return at
        owners.append(sub.owner)
        paths.append(path)
        outcomes.append(None)
        labels.append(tuple(label for label, _ in sub.branches))
        children.append(None)
        kids = []
        for label, child in sub.branches:
            kids.append(visit(child, path + (label,)))
        children[at] = tuple(kids)
        postorder.append(at)
        return at

    visit(tree, ())
    return owners, paths, outcomes, labels, children, postorder


def reference_edges(index: TreeIndex):
    """Depth-first edge events in branch order: ``(node, position, True)``
    before the subtree of ``children[node][position]`` and
    ``(node, position, False)`` after it."""
    children = index.children
    stack = [(0, 0)]
    while stack:
        parent, position = stack.pop()
        kids = children[parent]
        if position:
            yield parent, position - 1, False
        while position < len(kids):
            yield parent, position, True
            child = kids[position]
            position += 1
            if children[child]:
                stack.append((parent, position))
                stack.append((child, 0))
                break
            yield parent, position - 1, False


def reference_tree_dot(doc: GameDoc, highlight: dict | None = None) -> str:
    """``to_dot`` of a tree document, with edges written on the leaving
    events of ``reference_edges``."""

    def escape(label: str) -> str:
        return label.replace("\\", "\\\\").replace('"', '\\"')

    game = doc.game
    index = TreeIndex(game)
    picks = None if highlight is None else chosen_branches(game, highlight)
    lines = ["digraph game {"]
    for position, outcome in enumerate(index.outcomes):
        if outcome is None:
            label = escape(doc.players[index.owners[position]])
        else:
            label = ",".join(map(str, outcome))
        lines.append(f'  n{position} [label="{label}"];')
    for parent, position, entering in reference_edges(index):
        if not entering:
            bold = ",penwidth=2,style=bold" if picks is not None and picks[parent] == position else ""
            label = escape(index.labels[parent][position])
            child = index.children[parent][position]
            lines.append(f'  n{parent} -> n{child} [label="{label}"{bold}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- command lines -----------------------------------------------------------

# Values that argparse reads differently from a plain word, or that fail a
# ``type`` or ``choices``: a negative number, a padded or hex or Arabic-Indic
# digit, the empty string, a lone dash, a word outside every ``choices``.
_ODD_VALUES = ("-1", " 7", "0x1", "\u0663", "", "-", "bogus")


def random_argv(rng: random.Random) -> list[str]:
    """A command line drawn mostly from ``cli.COMMANDS``: a command with its
    file, every required flag and some optional ones in a random order, each
    given a fitting value four times in five.  Up to three near misses follow:
    a word dropped or repeated, or an abbreviated flag, a ``--flag=value``,
    ``-h``, ``--help``, ``--``, ``-`` or an odd value inserted."""
    command = rng.choice([*cli.COMMANDS] * 4 + ["", "solv", "-h", "--help"])
    arguments = {**cli.COMMANDS.get(command, ("", {}))[1], **cli._COMMON}

    def value(keywords: dict) -> str:
        fitting = keywords.get("choices") or (("0", "1", "7", "40") if keywords.get("type") is int else ("g.game", "1,0"))
        return rng.choice(fitting) if rng.random() < 0.8 else rng.choice(_ODD_VALUES)

    pieces = [
        [value(keywords)] if arg == "file" else [arg] if keywords.get("action") else [arg, value(keywords)]
        for arg, keywords in arguments.items()
        if arg == "file" or keywords.get("required") or rng.random() < 0.4
    ]
    rng.shuffle(pieces)
    words = [word for piece in pieces for word in piece]
    flags = [flag for flag in arguments if flag.startswith("--")]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        at = rng.randint(0, len(words))
        flag = rng.choice(flags)
        miss = rng.choice(("drop", "repeat", "abbreviate", "equals", "odd", "-h", "--help", "--", "-"))
        if miss == "drop" and words:
            del words[rng.randrange(len(words))]
        elif miss == "repeat" and words:
            words.insert(at, rng.choice(words))
        elif miss == "abbreviate":
            words.insert(at, flag[: rng.randint(3, len(flag) - 1)])
        elif miss == "equals":
            words.insert(at, f"{flag}={value(arguments[flag])}")
        elif miss == "odd":
            words.insert(at, rng.choice(_ODD_VALUES))
        elif miss.startswith("-"):
            words.insert(at, miss)
    return [command, *words]


def argparse_reads(argv: list[str]) -> dict | None:
    """The attributes argparse sets for ``argv``, or None where it exits (the
    help or usage error it prints is dropped)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def table_reads_as_argparse(argv: list[str]) -> bool:
    """Whether ``cli._read`` leaves ``argv`` to argparse or reads what argparse reads."""
    read = cli._read(argv)
    return read is None or vars(read) == argparse_reads(argv)
