"""Stage-indexed games with affine payoffs, such as the all-pay dollar auction.

A ``ParametricGame`` is a finite family of shapes.  Entering a shape at
stage ``n``, the owner picks a move that either ends the game at a leaf
whose per-player payoffs are affine in ``n``, or advances to another shape
at stage ``n + 1``.  Stationary profiles choose one move per shape, so
equilibrium inequalities can be decided symbolically for all stages at
once by comparing affine coefficients.

A ``CyclicGame`` is a ``ParametricGame`` whose payoffs all have slope 0, so
every analysis here takes it as it is: messages use the game's ``POINT``,
``CHOICE`` and ``PROFILE``, and its payoffs come back as ``AffineValue``s of
slope 0.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping

from .core import (
    FiniteGame, GameError, Leaf, LimitExceeded, MalformedGame, Node, OutcomeVector, Record, ShapeMismatch,
    cached_property, is_player,
)
from .finite import SpeReport, Violation

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
    def entries(self) -> dict[str, tuple[int | None, int | None]]:
        """``entry_stages(self)``, built on first use and kept like ``labels``."""
        return entry_stages(self)


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
    divergent = tuple(name for name in game.shapes if results[name] is None)
    if divergent:
        return SpeReport((), divergent)
    return SpeReport(tuple(_violations(game, profile, results)))


def _resolve(game: ParametricGame, profile: StationaryProfile) -> dict[str, object]:
    """Per shape of ``profile``, in one pass over its functional graph: ``(steps, outcome)``
    when play takes the unshifted leaf ``outcome`` at its ``steps``-th shape, None when
    it diverges, and False when it reaches a shape that a partial profile leaves open."""
    results: dict[str, object] = {}
    targets = game.targets
    for first in profile:
        name, path, end = first, [], False
        while name not in results and name in profile:
            results[name] = None  # diverges, should this walk come back here
            path.append(name)
            target = targets[name][profile[name]]
            if target.LEAF:
                end = (0, target.outcome)
                break
            name = target.shape
        else:  # a shape resolved before, on this walk (a cycle) or left open
            end = results.get(name, False)
        for steps, name in enumerate(reversed(path), 1):
            results[name] = (end[0] + steps, end[1]) if end.__class__ is tuple else end
    return results


def _violations(game: ParametricGame, profile: StationaryProfile, results: dict) -> Iterator[Violation]:
    """Improving one-shot deviations in declaration and move order, wherever ``_resolve``
    decided both the play and the deviation's continuation."""
    for name, shape in game.shapes.items():
        result = results.get(name)
        if result.__class__ is not tuple:
            continue
        owner = shape.owner
        played, offset = result[1][owner], result[0] - 1  # every earlier shape advanced one stage
        for label, target in shape.moves:
            after = (0, target.outcome) if isinstance(target, AffineLeaf) else results.get(target.shape)
            if label == profile[name] or after.__class__ is not tuple:  # diverges, or not decided yet
                continue
            value, shift = after[1][owner], after[0]
            if value.slope == played.slope:  # the same comparison at every stage
                if value.const + value.slope * shift <= played.const + played.slope * offset:
                    continue
            else:
                # An affine difference is greatest over the entry stages at the least or the greatest;
                # with no greatest, the slope rule is exact, as an affine inequality fails on a half-line.
                (first, last), base, deviation = game.entries[name], played.shifted(offset), value.shifted(shift)
                if last is None:
                    if affine_leq(deviation, base, first or 0):
                        continue
                elif deviation.at(first) <= base.at(first) and deviation.at(last) <= base.at(last):
                    continue
            yield Violation(name, label, played.shifted(offset), value.shifted(shift))


def stationary_profiles(game: ParametricGame) -> Iterator[dict[str, str]]:
    """Every stationary profile in canonical order: shape declaration order,
    move order within each shape."""
    names = list(game.shapes)
    for combo in itertools.product(*(game.shapes[name].labels() for name in names)):
        yield dict(zip(names, combo))


def enumerate_stationary_spe(
    game: ParametricGame, bound: int = DEFAULT_SEARCH_BOUND
) -> list[StationaryProfile]:
    """The stationary equilibria in canonical order (``stationary_profiles``), by backtracking
    over shapes in declaration order and moves in move order.  A partial profile is dropped once
    its moves close a cycle or an alternative improves on a decided play, faults that every
    completion keeps.  The bound applies to the whole profile space."""
    space = math.prod(len(shape.moves) for shape in game.shapes.values())
    if space > bound:
        raise SearchSpaceTooLarge(f"{space} {game.PROFILE} profiles exceed bound {bound}")
    names, labels = list(game.labels), list(game.labels.values())
    found, profile, picks = [], {}, [-1]  # picks: per shape on the way down, the move tried last
    while picks:
        k = len(picks) - 1
        if k == len(names):  # every shape chosen, and nothing dropped the profile
            found.append(profile)
        elif picks[k] + 1 < len(labels[k]):
            picks[k] += 1
            profile = {names[i]: labels[i][pick] for i, pick in enumerate(picks)}
            results = _resolve(game, profile)
            if None not in results.values() and next(_violations(game, profile, results), None) is None:
                picks.append(-1)
            continue
        picks.pop()
    return found


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
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
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
