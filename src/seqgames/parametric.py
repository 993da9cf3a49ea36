"""Stage-indexed games with affine payoffs, such as the all-pay dollar auction.

A ``ParametricGame`` is a finite family of shapes.  Entering a shape at
stage ``n``, the owner picks a move that either ends the game at a leaf
whose per-player payoffs are affine in ``n``, or advances to another shape
at stage ``n + 1``.  Stationary profiles choose one move per shape, so
equilibrium inequalities can be decided symbolically for all stages at
once by comparing affine coefficients.  A profile is an equilibrium when
its play converges from every shape and no one-shot deviation improves
its owner's payoff; a deviation whose play diverges ranks below every
convergent outcome, as divergent play never reaches a payoff.

A ``CyclicGame``, a graph of nodes whose edges lead to nodes or leaves,
stands for the infinite tree that unrolls it; its strategies are
positional, one edge per node whatever the history.  It is the
``ParametricGame`` whose payoffs all have slope 0, so every analysis here
takes it as it is: messages use the game's ``POINT``, ``CHOICE`` and
``PROFILE``, and its payoffs come back as ``AffineValue``s of slope 0.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping

from .core import (
    FiniteGame, GameError, InvalidArgument, Leaf, LimitExceeded, MalformedGame, Node, OutcomeVector, Record,
    ShapeMismatch, SpeReport, Violation, cached_property, is_player, numeral,
)

DEFAULT_SEARCH_BOUND = 2**20


class UnknownShape(GameError):
    """A shape name is not defined in the game."""


class SearchSpaceTooLarge(LimitExceeded):
    """The profile space exceeds the configured bound."""


class InvalidValue(GameError):
    """The auctioned object's value must be a positive integer."""


class AffineValue(Record):
    """Exact integer affine form ``const + slope * n`` over stages n >= 0."""

    const: int
    slope: int

    def at(self, stage: int) -> int:
        return self.const + self.slope * stage

    def shifted(self, offset: int) -> "AffineValue":
        """The same quantity as a function of a stage ``offset`` steps earlier."""
        return AffineValue(self.const + self.slope * offset, self.slope)

    def __str__(self) -> str:
        if self.slope == 0:
            return str(self.const)
        sign = "+" if self.slope > 0 else "-"
        return f"{self.const}{sign}{abs(self.slope)}*n"


def affine(const: int, slope: int = 0) -> AffineValue:
    return AffineValue(const, slope)


def affine_leq(f: AffineValue, g: AffineValue, start: int = 0) -> bool:
    """True iff ``f(n) <= g(n)`` for every integer ``n >= start``.

    Decided from coefficients: a strictly larger slope eventually wins, so
    compare slopes first, then the values at ``start``.
    """
    if f.slope == g.slope:
        return f.const <= g.const
    if f.slope < g.slope:
        return f.at(start) <= g.at(start)
    return False


class AffineLeaf(Record):
    outcome: tuple[AffineValue, ...]

    LEAF = True  # tells a leaf from an ``Advance`` where this module is not imported, as ``KIND`` tells games

    @cached_property
    def constant(self) -> Leaf | None:
        """The concrete leaf of a payoff that is the same at every stage
        (every slope 0), built once; None when some payoff moves."""
        if any(value.slope for value in self.outcome):
            return None
        return Leaf(tuple(value.const for value in self.outcome))


class Advance(Record):
    shape: str

    LEAF = False


class Shape(Record):
    owner: int
    moves: tuple[tuple[str, AffineLeaf | Advance], ...]

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.moves)


class ParametricGame(Record):
    shapes: Mapping[str, Shape]
    start: str

    # The game kind (see ``Leaf.KIND``), and how messages name a decision point,
    # a choice there and a profile.
    KIND, POINT, CHOICE, PROFILE = "param", "shape", "move", "stationary"

    def __post_init__(self) -> None:
        """``UnknownShape`` for the start, then, shape by shape in declaration order,
        ``MalformedGame`` for an owner other than player 0 or 1, a shape without moves
        or with two moves of one label, then, in move order, ``UnknownShape`` for an
        advance that names no shape and ``MalformedGame`` for a target that is
        neither a leaf nor an advance, or a leaf whose payoffs are not a pair."""
        if self.start not in self.shapes:
            raise UnknownShape(self.start)
        for name, shape in self.shapes.items():
            if not is_player(shape.owner):
                raise MalformedGame(f"{name!r} is owned by {shape.owner!r}, neither player 0 nor player 1")
            if not shape.moves:
                raise MalformedGame(f"{name!r} has no choices")
            if len(dict(shape.moves)) < len(shape.moves):  # one key per label
                labels = shape.labels()
                label = next(label for k, label in enumerate(labels) if label in labels[:k])
                raise MalformedGame(f"{name!r} has two choices labelled {label!r}")
            for label, target in shape.moves:
                if isinstance(target, Advance):
                    if target.shape not in self.shapes:
                        raise UnknownShape(target.shape)
                elif not isinstance(target, AffineLeaf) or len(target.outcome) != 2:
                    where = f"{self.CHOICE} {label!r} at {name!r}"
                    if isinstance(target, AffineLeaf):
                        raise MalformedGame(f"{where} pays {len(target.outcome)} payoffs, not a pair")
                    raise MalformedGame(f"{where} leads to neither a leaf nor a {self.POINT}")

    def check_profile(self, profile: StationaryProfile) -> None:
        """Raise ``ShapeMismatch`` unless ``profile`` picks one label at every decision point.

        A method, so ``dsl`` reaches it through the game it holds without importing this module."""
        try:  # one set test passes a valid profile; what it refuses or raises on is worded below
            if len(profile) == len(self.shapes) and profile.items() <= self.choices:
                return
        except Exception:  # whatever the test raises on (unsized, unhashable, not a mapping) is worded or raised below
            pass
        choice = self.CHOICE
        if profile.keys() != self.shapes.keys():
            raise ShapeMismatch(f"profile must choose exactly one {choice} per {self.POINT}")
        for name, labels in self.labels.items():
            if profile[name] not in labels:  # a tuple, so an unhashable choice is a mismatch too
                article = "an" if choice[0] in "aeiou" else "a"
                raise ShapeMismatch(f"choice {profile[name]!r} at {name!r} is not {article} {choice} label")

    @cached_property
    def targets(self) -> dict[str, dict[str, AffineLeaf | Advance]]:
        """Each shape's moves as a ``{label: target}`` table, built on first use and kept: a game
        is not to be changed once it is built."""
        return {name: dict(shape.moves) for name, shape in self.shapes.items()}

    @cached_property
    def labels(self) -> dict[str, tuple[str, ...]]:
        """Each shape's move labels in move order, read from ``targets`` and kept like it."""
        return {name: tuple(table) for name, table in self.targets.items()}

    @cached_property
    def choices(self) -> frozenset[tuple[str, str]]:
        """Every ``(shape, label)`` pair of the game, read from ``labels`` and kept like it."""
        return frozenset((name, label) for name, labels in self.labels.items() for label in labels)

    @cached_property
    def entries(self) -> dict[str, tuple[int | None, int | None]]:
        """``entry_stages(self)``, built on first use and kept like ``labels``."""
        return entry_stages(self)


class CyclicGame(ParametricGame):
    """A parametric game whose payoffs all have slope 0, named as a graph of nodes and edges."""

    KIND, POINT, CHOICE, PROFILE = "cyclic", "node", "edge", "positional"

    def __post_init__(self) -> None:
        """The ``ParametricGame`` checks, then ``MalformedGame`` for the first payoff,
        in declaration and edge order, whose slope is not 0."""
        super().__post_init__()
        for name, shape in self.shapes.items():
            for label, target in shape.moves:
                if isinstance(target, AffineLeaf) and any(value.slope for value in target.outcome):
                    raise MalformedGame(f"edge {label!r} at {name!r} has a payoff with a nonzero slope")


def CyclicNode(owner: int, edges: tuple[tuple[str, str | Leaf], ...]) -> Shape:
    """The ``Shape`` of a decision node: an edge to a ``Leaf`` becomes a slope-0 ``AffineLeaf``, one to
    a node name an ``Advance``, and any other target stays as it is, for ``CyclicGame`` to refuse."""
    return Shape(owner, tuple(
        (label, AffineLeaf(tuple(map(affine, target.outcome))) if isinstance(target, Leaf)
         else Advance(target) if isinstance(target, str) else target)
        for label, target in edges
    ))


#: One chosen move label per shape name.
StationaryProfile = Mapping[str, str]


class ConvergesAffine(Record):
    """Play moves through the shapes of ``path`` and then takes a leaf; the
    outcome is expressed as affine functions of the stage at which play
    entered."""

    path: tuple[str, ...]
    outcome: tuple[AffineValue, ...]

    @property
    def steps(self) -> int:
        return len(self.path)


class Divergent(Record):
    """Play never takes a leaf: it passes ``stem`` once, then repeats ``cycle``."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]


InducedParamResult = ConvergesAffine | Divergent


def _walk(
    game: ParametricGame, beliefs: tuple[StationaryProfile, ...], name: str
) -> tuple[list[str], AffineLeaf | int]:
    """Induced play from shape ``name``, each move read from its owner's profile in ``beliefs``
    (one validated profile per player): the shapes visited, then the ``AffineLeaf`` taken or,
    when play returns to a visited shape, that shape's index in them, where the cycle starts."""
    shapes, targets = game.shapes, game.targets
    path: list[str] = []
    seen: dict[str, int] = {}
    while name not in seen:
        seen[name] = len(path)
        path.append(name)
        target = targets[name][beliefs[shapes[name].owner][name]]
        if target.LEAF:
            return path, target
        name = target.shape
    return path, seen[name]


def induced_outcome_param(
    game: ParametricGame, profile: StationaryProfile, from_shape: str | None = None
) -> InducedParamResult:
    """Follow the profile's moves from ``from_shape`` at symbolic stage n.

    The profile is stationary, so revisiting a shape proves divergence, and
    the returned lasso splits the visited shapes at the first repeat;
    otherwise a leaf is reached within as many moves as there are shapes.
    """
    name = game.start if from_shape is None else from_shape
    if name not in game.shapes:
        raise UnknownShape(name)
    game.check_profile(profile)
    path, end = _walk(game, (profile, profile), name)
    if end.__class__ is int:
        return Divergent(stem=tuple(path[:end]), cycle=tuple(path[end:]))
    offset = len(path) - 1  # every earlier move advanced one stage
    return ConvergesAffine(tuple(path), tuple(v.shifted(offset) for v in end.outcome))


def _layers(game: ParametricGame, count: int) -> list[list[str]]:
    """Per stage ``0 .. count - 1``, the shapes play can enter at that stage, in the order first
    reached; the list ends at the first empty layer, as every later one is empty too."""
    layers = [[game.start]]
    while len(layers) < count and layers[-1]:
        reached: dict[str, None] = {}
        for name in layers[-1]:
            for _label, target in game.shapes[name].moves:
                if isinstance(target, Advance):
                    reached[target.shape] = None
        layers.append(list(reached))
    return layers


def entry_stages(game: ParametricGame) -> dict[str, tuple[int | None, int | None]]:
    """Per shape, its least and greatest entry stage ``(first, last)``, in one linear pass.

    Every advance adds one stage, so entry stages are path lengths from the start: ``first``
    is the breadth-first distance, and ``last`` the longest path, or None when a cycle that
    play reaches leads to the shape.  Both are None for a shape that play never enters.
    """
    shapes, start = game.shapes, game.start
    first, incoming, queue = {start: 0}, dict.fromkeys(shapes, 0), [start]
    for name in queue:  # breadth first, counting the advances into each shape play enters
        for _label, target in shapes[name].moves:
            if not target.LEAF:
                incoming[target.shape] += 1
                if target.shape not in first:
                    first[target.shape] = first[name] + 1
                    queue.append(target.shape)
    # Kahn's order over the shapes play enters: only the start can be ready first, and a shape
    # that is never ready lies on or below a cycle.
    last, ready = {start: 0}, [] if incoming[start] else [start]
    for name in ready:
        for _label, target in shapes[name].moves:
            if not target.LEAF:
                last[target.shape] = max(last.get(target.shape, 0), last[name] + 1)
                incoming[target.shape] -= 1
                if not incoming[target.shape]:
                    ready.append(target.shape)
    return {name: (first.get(name), None if incoming[name] else last.get(name)) for name in shapes}


def check_spe_param(game: ParametricGame, profile: StationaryProfile) -> SpeReport:
    """Symbolic equilibrium check over all stages at once.

    Requires convergence from every shape; then, per shape, every
    alternative move's value (affine in the entry stage) must not exceed
    the profile's value at any stage where the shape is actually entered.
    A deviation with divergent continuation never improves on a payoff.
    """
    game.check_profile(profile)
    results = _resolve(game, profile)
    if None in results.values():
        return SpeReport((), tuple(name for name in game.shapes if results[name] is None))
    violations = []  # improving one-shot deviations, in declaration and move order
    for name, shape in game.shapes.items():
        owner, result, chosen = shape.owner, results[name], profile[name]
        for label, target in shape.moves:
            after = (0, target.outcome) if target.LEAF else results[target.shape]
            if label != chosen and _improves(game, name, owner, result, after):
                played, value = result[1][owner].shifted(result[0] - 1), after[1][owner].shifted(after[0])
                violations.append(Violation(name, label, played, value))
    return SpeReport(tuple(violations))


def _resolve(game: ParametricGame, profile: StationaryProfile) -> dict[str, tuple | None]:
    """Per shape, in one pass over the profile's functional graph: ``(steps, outcome)`` when
    play takes the unshifted leaf ``outcome`` at its ``steps``-th shape, None when it diverges."""
    results: dict[str, tuple | None] = {}
    targets = game.targets
    for name in profile:
        path = []
        while name not in results:
            results[name] = None  # diverges, should this walk come back here
            path.append(name)
            target = targets[name][profile[name]]
            if target.LEAF:
                end = (0, target.outcome)
                break
            name = target.shape
        else:  # a shape resolved before, or met again on this walk (a cycle)
            end = results[name]
        for steps, name in enumerate(reversed(path), 1):
            results[name] = end and (end[0] + steps, end[1])
    return results


def _improves(game: ParametricGame, name: str, owner: int, result: tuple, after: tuple) -> bool:
    """Whether ``owner`` gains at a stage where play enters ``name`` and resolves to ``result`` by
    one move whose continuation resolves to ``after`` (a leaf as ``(0, outcome)``), as ``_resolve``."""
    played, offset, value, shift = result[1][owner], result[0] - 1, after[1][owner], after[0]
    if value.slope == played.slope:  # the same comparison at every stage
        return value.const + value.slope * shift > played.const + played.slope * offset
    # An affine difference peaks at the least or greatest entry stage; with no greatest, the slope rule is exact.
    (first, last), base, deviation = game.entries[name], played.shifted(offset), value.shifted(shift)
    if last is None:
        return not affine_leq(deviation, base, first or 0)
    return deviation.at(first) > base.at(first) or deviation.at(last) > base.at(last)


def stationary_profiles(game: ParametricGame) -> Iterator[dict[str, str]]:
    """Every stationary profile in canonical order: shape declaration order,
    move order within each shape."""
    for combo in itertools.product(*game.labels.values()):
        yield dict(zip(game.labels, combo))


def _sinks_first(game: ParametricGame) -> tuple[list[str], dict[str, list[tuple[str, str]]]]:
    """The shapes as a depth-first walk of the advances finishes them, roots and moves in declaration order
    (so after their targets, but those on a cycle with them); per shape, the ``(shape, label)`` advances in."""
    shapes, order, seen, into = game.shapes, [], set(), {name: [] for name in game.shapes}
    for root in shapes:
        stack = [] if root in seen else [(root, iter(shapes[root].moves))]
        seen.add(root)
        while stack:
            for label, target in stack[-1][1]:
                if not target.LEAF:
                    into[target.shape].append((stack[-1][0], label))
                    if target.shape not in seen:
                        seen.add(target.shape)
                        stack.append((target.shape, iter(shapes[target.shape].moves)))
                        break
            else:
                order.append(stack.pop()[0])
    return order, into


def enumerate_stationary_spe(
    game: ParametricGame, bound: int = DEFAULT_SEARCH_BOUND
) -> list[StationaryProfile]:
    """The stationary equilibria in canonical order (``stationary_profiles``), keyed in declaration order;
    the bound still applies to the whole profile space.  A backtracking search picks moves in move order at
    shapes taken targets first (``_sinks_first``), then sorts what it found into canonical order."""
    shapes = game.shapes
    space = math.prod(len(shape.moves) for shape in shapes.values())
    if space > bound:
        raise SearchSpaceTooLarge(f"{space} {game.PROFILE} profiles exceed bound {bound}")
    # Per shape: its move; ``_resolve``'s result if play ends; if open, a shape on its way open at its pick.
    pick, decided, ahead, trail = {}, {}, {}, []  # and the shapes decided, in the order decided

    def settle(name: str, target: AffineLeaf | Advance) -> bool:
        """Decide the shapes that picking ``target`` at ``name`` resolves, backwards along the advances picked;
        False if it closes a cycle or a deviation improves at a shape it decides or one with a move into it."""
        after = (0, target.outcome) if target.LEAF else decided.get(target.shape)
        if after is None:  # open, unless the advances picked from the target lead back here
            end = target.shape
            while end != name and end in pick:
                end = ahead[end]
            ahead[name] = end
            return end != name
        decided[name] = (after[0] + 1, after[1])
        trail.append(name)
        i = len(trail) - 1
        while i < len(trail):
            here, i = trail[i], i + 1
            result, shape = decided[here], shapes[here]
            for label, target in shape.moves:
                after = (0, target.outcome) if target.LEAF else decided.get(target.shape)
                if after and label != pick[here] and _improves(game, here, shape.owner, result, after):
                    return False
            for source, label in into[here]:
                if pick.get(source) == label:
                    decided[source] = (result[0] + 1, result[1])
                    trail.append(source)
                elif source in decided and _improves(game, source, shapes[source].owner, decided[source], result):
                    return False
        return True

    order, into = _sinks_first(game)
    levels = list(map({name: k for k, name in enumerate(order)}.get, shapes))
    found, stack = [], [[-1, 0]]  # per level on the way down: the move tried last, the trail's length before it
    while stack:
        k, level = len(stack) - 1, stack[-1]
        name, moves = order[k], shapes[order[k]].moves
        while len(trail) > level[1]:
            del decided[trail.pop()]
        level[0] += 1
        if level[0] == len(moves):
            del pick[name]
            stack.pop()
            continue
        pick[name], target = moves[level[0]]
        if not settle(name, target):
            continue
        if k + 1 < len(order):
            stack.append([-1, len(trail)])
        else:  # every shape picked, and nothing dropped the profile
            found.append(tuple(stack[i][0] for i in levels))
    return [{name: labels[i] for (name, labels), i in zip(game.labels.items(), key)} for key in sorted(found)]


def dollar_auction(value: int) -> ParametricGame:
    """Shubik's all-pay ascending auction with unit bids, two bidders.

    At stage n the mover either abandons, leaving their standing bid of
    n - 1 sunk (nothing is sunk at stage 0, where no bid exists) while the
    opponent wins the object worth ``value`` against their bid of n, or
    bids n + 1, advancing the opponent to stage n + 1.  Three shapes: a
    stage-0 entry shape for the first bidder and a uniform alternating
    pair for stages n >= 1.
    """
    if value.__class__ is not int:  # a float would build float payoffs
        raise InvalidValue(f"object value must be an integer, got {value!r}")
    if value < 1:
        raise InvalidValue(f"object value must be >= 1, got {value}")
    zero = affine(0)
    entry = Shape(0, (("a", AffineLeaf((zero, zero))), ("c", Advance("B"))))
    alice = Shape(0, (("a", AffineLeaf((affine(1, -1), affine(value, -1)))), ("c", Advance("B"))))
    bertrand = Shape(1, (("a", AffineLeaf((affine(value, -1), affine(1, -1)))), ("c", Advance("A"))))
    return ParametricGame({"A0": entry, "A": alice, "B": bertrand}, "A0")


def instantiate(game: ParametricGame, max_stage: int, terminal: OutcomeVector) -> FiniteGame:
    """Concrete finite tree covering stages ``0 .. max_stage - 1``.

    Affine payoffs are evaluated at the stage where their leaf is taken;
    an advance that would enter stage ``max_stage`` is replaced by
    ``Leaf(terminal)``.  The subtree entered at a (shape, stage) pair is
    built once and shared wherever that pair recurs, and a leaf whose
    payoffs all have slope 0 is the same ``Leaf`` (``AffineLeaf.constant``)
    at every stage, so a cyclic game unrolls to ``max_stage`` decision layers.
    """
    if max_stage.__class__ is not int:  # a float unfolds as its ceiling, and a bool is no count
        raise InvalidArgument(f"max_stage must be an int, got {max_stage!r}")
    if max_stage < 1:
        raise InvalidArgument("max_stage must be positive")
    if not (isinstance(terminal, (tuple, list)) and len(terminal) == 2 and {*map(type, terminal)} == {int}):
        raise InvalidArgument(f"terminal must be a pair of ints, got {terminal!r}")  # not float leaves, nor one payoff
    shapes = game.shapes
    cut = Leaf(tuple(terminal))
    layers = _layers(game, max_stage)
    below: dict[str, Node] = {}  # per shape, the node entered at the next stage
    for stage in range(len(layers) - 1, -1, -1):
        built: dict[str, Node] = {}
        for name in layers[stage]:
            shape = shapes[name]
            branches = []
            for move, target in shape.moves:
                if isinstance(target, AffineLeaf):
                    sub = target.constant or Leaf(tuple(v.at(stage) for v in target.outcome))
                else:
                    sub = below.get(target.shape, cut)  # only the last stage has nothing below
                branches.append((move, sub))
            built[name] = Node(shape.owner, tuple(branches))
        below = built
    return below[game.start]


def from_cyclic(game: ParametricGame) -> ParametricGame:
    """The same shapes and start as a plain ``ParametricGame`` (the benchmark harness calls this)."""
    return ParametricGame(game.shapes, game.start)


def parse_payoff(parser, sloped: bool) -> tuple[int, int]:
    """``AFFINE`` as its constant and its slope when ``sloped``, else ``INT`` with slope 0."""
    const = parser.expect_int()
    token = parser.tokens[parser.pos]
    if sloped and token in ("+", "-"):
        sign = 1 if token == "+" else -1
        parser.pos += 1
        magnitude = parser.expect_int()
        parser.expect("*")
        name = parser.expect_name("'n'")
        if parser.tokens[name] != "n":
            raise parser.fail("'n'", name)
        return const, sign * magnitude
    return const, 0


def parse_graph(parser, players: tuple[str, str], parametric: bool) -> ParametricGame:
    """``cyclic`` or ``param`` for ``dsl._Parser`` ``parser``, which ``dsl`` imports for a graph document
    only.  Each node is read straight into a ``Shape`` from a label-to-target dict, which also finds a
    repeated label.  The kind decides only the payoff grammar (``INT`` or ``AFFINE``), whether a target
    starts with ``advance`` and the class built, ``CyclicGame`` or ``ParametricGame``.  References are
    checked once the body is read: edges, then the start.  ``dsl.parse`` comes here for a text outside the layout
    ``serialize`` writes, or in error, which ``parse_canonical_graph`` declines; this reader words every error."""
    make_game = ParametricGame if parametric else CyclicGame
    tokens = parser.tokens
    parser.expect("start")
    parser.expect("=")
    start = parser.expect_name("a node name")
    parser.expect("{")
    definitions: dict[str, Shape] = {}
    references, shared = [], {}  # where targets are named; one ``AffineLeaf`` per payoff pair and ``Advance`` per target
    while not parser.at("}"):
        name = parser.expect_name("a node name")
        if tokens[name] in definitions:
            raise parser.invalid(name, f"node {tokens[name]!r} defined twice")
        parser.expect(":")
        owner = parser.owner_index(parser.expect_name("a player name"), players)
        parser.expect("{")
        moves: dict[str, AffineLeaf | Advance] = {}
        while not parser.at("}"):
            label = parser.expect_name("an action label")
            if tokens[label] in moves:
                raise parser.invalid(label, f"duplicate edge label {tokens[label]!r}")
            parser.expect("->")
            if parser.at("leaf"):
                parser.pos += 1
                parser.expect("(")
                first = parse_payoff(parser, parametric)
                parser.expect(",")
                second = parse_payoff(parser, parametric)
                parser.expect(")")
                leaf = shared.get((first, second)) or AffineLeaf((AffineValue(*first), AffineValue(*second)))
                moves[tokens[label]] = shared[first, second] = leaf
            else:
                if parametric:
                    parser.expect("advance")
                elif parser.at("advance"):  # a node may be named ``advance``; then a label and ``->`` follow
                    first = tokens[parser.pos + 1][:1]
                    if (first.isalpha() or first == "_") and tokens[parser.pos + 2] != "->":
                        raise parser.invalid(parser.pos, "a cyclic edge names its target node, without 'advance'")
                ref = parser.expect_name("a shape name" if parametric else "a node name or 'leaf'")
                references.append(ref)
                moves[tokens[label]] = shared[tokens[ref]] = shared.get(tokens[ref]) or Advance(tokens[ref])
            parser.skip_separators()
        if not moves:
            raise parser.fail("at least one edge")
        parser.expect("}")
        definitions[tokens[name]] = Shape(owner, tuple(moves.items()))
        parser.skip_separators()
    if not definitions:
        raise parser.fail("at least one node definition")
    parser.expect("}")
    for ref in references:
        if tokens[ref] not in definitions:
            raise parser.invalid(ref, f"undefined node {tokens[ref]!r}")
    if tokens[start] not in definitions:
        raise parser.invalid(start, f"undefined start node {tokens[start]!r}")
    return make_game(definitions, tokens[start])


def _payoff(text: str, sloped: bool) -> tuple[int, int] | None:
    """A payoff as ``serialize`` writes it, ``c`` or, when ``sloped``, ``c+s*n`` or ``c-s*n``, as (c, ±s); or None."""
    const, slope = text, "+0"
    if sloped and text[-2:] == "*n":
        cut = max(text.rfind("+"), text.rfind("-"))
        const, slope = text[:cut], text[cut:-2]
    return (int(const), int(slope)) if numeral(const.removeprefix("-")) and numeral(slope[1:]) else None


def _move(rest: str, sloped: bool, seen: dict) -> AffineLeaf | Advance | None:
    """What an edge line says after `` -> ``: ``leaf(p,q)``, or a target named neither ``leaf`` nor ``advance``,
    after ``advance`` in a ``param`` document (``sloped``); or None.  ``seen`` keeps one leaf per payoff pair."""
    if rest[:5] == "leaf(" and rest[-1:] == ")":
        first, _, second = rest[5:-1].partition(",")
        pair = _payoff(first, sloped), _payoff(second, sloped)
        if None not in pair:  # else None below: ``leaf(`` starts no target name
            return seen.get(pair) or seen.setdefault(pair, AffineLeaf((AffineValue(*pair[0]), AffineValue(*pair[1]))))
    target = (rest[8:] if rest[:8] == "advance " else "") if sloped else rest
    return Advance(target) if target.isidentifier() and target not in ("leaf", "advance") else None


def parse_canonical_graph(text: str) -> tuple[tuple[str, str], ParametricGame] | None:
    """A ``cyclic`` or ``param`` document in exactly the layout ``serialize`` writes, read one line at a time
    into its players and what ``parse_graph`` builds, or None for any other text: one without the ``players``
    line, with other blanks or line ends, a comment, a ``;``, a non-ASCII character, a number of over 640
    digits, a repeated node or label, an unknown owner, or a game the constructor refuses.  It never raises:
    ``dsl.parse`` hands what it declines, every error included, to the token reader.  Like ``parse_graph``, it
    builds one ``AffineLeaf`` per payoff pair and one ``Advance`` per target; it reads each distinct target once."""
    head, _, body = text.partition(" {\n")  # the first two lines, and the rest
    header, _, opening = head.partition("\n")
    first, _, second = header[8:].partition(" ")
    kind, _, start = opening.partition(" start=")
    lines = body.split("\n")
    if not (text.isascii() and header[:8] == "players " and first.isidentifier() and second.isidentifier()
            and kind in ("cyclic", "param") and start.isidentifier() and lines[-3:] == ["  }", "}", ""]):
        return None
    players, sloped, seen = (first, second), kind == "param", {}  # seen: each target text's move, each pair's leaf
    definitions: dict[str, Shape] = {}
    moves: dict | None = None  # the open node's moves, or None between nodes
    for line in lines[:-2]:
        if moves is None:
            name, _, owner = line[2:-2].partition(": ")
            if not (line[:2] == "  " and line[-2:] == " {" and name.isidentifier() and name not in definitions
                    and owner in players):
                return None
            moves = {}
        elif line == "  }":
            definitions[name] = Shape(players.index(owner), tuple(moves.items()))
            moves = None
        else:
            label, _, rest = line[4:].partition(" -> ")
            move = seen.get(rest) or seen.setdefault(rest, _move(rest, sloped, seen))
            if not (line[:4] == "    " and label.isidentifier() and label not in moves and move):
                return None
            moves[label] = move
    try:
        return players, (ParametricGame if sloped else CyclicGame)(definitions, start)
    except GameError:  # an empty node, or an undefined start or target
        return None
