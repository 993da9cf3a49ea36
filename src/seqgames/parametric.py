"""Stage-indexed games with affine payoffs, such as the all-pay dollar auction.

A ``ParametricGame`` is a finite family of shapes.  Entering a shape at
stage ``n``, the owner picks a move that either ends the game at a leaf
whose per-player payoffs are affine in ``n``, or advances to another shape
at stage ``n + 1``.  Stationary profiles choose one move per shape, so
equilibrium inequalities can be decided symbolically for all stages at
once by comparing affine coefficients.

The profile functions also take a ``CyclicGame``: they run on its
``embedding`` and word their messages with its ``POINT``, ``CHOICE`` and ``PROFILE``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, Mapping, Union

from .core import FiniteGame, GameError, Leaf, Node, OutcomeVector, ShapeMismatch
from .finite import SpeReport, Violation

if TYPE_CHECKING:
    from .cyclic import CyclicGame

DEFAULT_SEARCH_BOUND = 2**20


class UnknownShape(GameError):
    """A shape name is not defined in the game."""


class SearchSpaceTooLarge(GameError):
    """The profile space exceeds the configured bound."""


class InvalidValue(GameError):
    """The auctioned object's value must be a positive integer."""


@dataclass(frozen=True)
class AffineValue:
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


@dataclass(frozen=True)
class AffineLeaf:
    outcome: tuple[AffineValue, ...]

    @cached_property
    def constant(self) -> Leaf | None:
        """The concrete leaf of a payoff that is the same at every stage
        (every slope 0), built once; None when some payoff moves."""
        if any(value.slope for value in self.outcome):
            return None
        return Leaf(tuple(value.const for value in self.outcome))


@dataclass(frozen=True)
class Advance:
    shape: str


@dataclass(frozen=True)
class Shape:
    owner: int
    moves: tuple[tuple[str, Union[AffineLeaf, Advance]], ...]

    def target(self, label: str) -> Union[AffineLeaf, Advance]:
        for name, tgt in self.moves:
            if name == label:
                return tgt
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.moves)


@dataclass(frozen=True)
class ParametricGame:
    shapes: Mapping[str, Shape]
    start: str

    # How messages name a decision point, a choice there and a profile.
    POINT, CHOICE, PROFILE = "shape", "move", "stationary"

    @property
    def embedding(self) -> ParametricGame:
        """The game the analyses run on: this one (see ``CyclicGame.embedding``)."""
        return self


#: One chosen move label per shape name.
StationaryProfile = Mapping[str, str]


@dataclass(frozen=True)
class ConvergesAffine:
    """Play moves through the shapes of ``path`` and then takes a leaf; the
    outcome is expressed as affine functions of the stage at which play
    entered."""

    path: tuple[str, ...]
    outcome: tuple[AffineValue, ...]

    @property
    def steps(self) -> int:
        return len(self.path)


@dataclass(frozen=True)
class Divergent:
    """Play never takes a leaf: it passes ``stem`` once, then repeats ``cycle``."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]


InducedParamResult = Union[ConvergesAffine, Divergent]


def check_stationary(game: CyclicGame | ParametricGame, profile: StationaryProfile) -> None:
    """Raise ``ShapeMismatch`` unless ``profile`` picks one label at every decision point."""
    shapes, choice = game.embedding.shapes, game.CHOICE
    if set(profile) != set(shapes):
        raise ShapeMismatch(f"profile must choose exactly one {choice} per {game.POINT}")
    for name, shape in shapes.items():
        if profile[name] not in shape.labels():
            article = "an" if choice[0] in "aeiou" else "a"
            raise ShapeMismatch(f"choice {profile[name]!r} at {name!r} is not {article} {choice} label")


def _walk(game: ParametricGame, profile: StationaryProfile, name: str) -> InducedParamResult:
    """Induced play from shape ``name`` under a profile already validated."""
    path: list[str] = []
    seen: dict[str, int] = {}
    while name not in seen:
        seen[name] = len(path)
        path.append(name)
        target = game.shapes[name].target(profile[name])
        if isinstance(target, AffineLeaf):
            offset = len(path) - 1  # every earlier move advanced one stage
            return ConvergesAffine(tuple(path), tuple(v.shifted(offset) for v in target.outcome))
        if target.shape not in game.shapes:
            raise UnknownShape(target.shape)
        name = target.shape
    first = seen[name]
    return Divergent(stem=tuple(path[:first]), cycle=tuple(path[first:]))


def induced_outcome_param(
    game: CyclicGame | ParametricGame, profile: StationaryProfile, from_shape: str | None = None
) -> InducedParamResult:
    """Follow the profile's moves from ``from_shape`` at symbolic stage n.

    The profile is stationary, so revisiting a shape proves divergence, and
    the returned lasso splits the visited shapes at the first repeat;
    otherwise a leaf is reached within as many moves as there are shapes.
    """
    graph = game.embedding
    name = graph.start if from_shape is None else from_shape
    if name not in graph.shapes:
        raise UnknownShape(name)
    check_stationary(game, profile)
    return _walk(graph, profile, name)


@dataclass(frozen=True)
class EntryStages:
    """Stages at which a shape can be entered under some play.

    ``stages`` lists the reachable entry stages up to twice the shape
    count; when ``bounded`` the list is exhaustive (a longer path would
    repeat a shape, and a repeat pumps the set to infinity).
    """

    stages: tuple[int, ...]
    bounded: bool


def entry_stages(game: ParametricGame) -> dict[str, EntryStages]:
    """Per shape, the set of stages at which it can be entered.

    Every advance adds one stage, so entry stages are path lengths from the
    start.  Any path at least as long as the shape count passes a cycle,
    making the set unbounded, and an unbounded set always has a witness no
    longer than twice the shape count.
    """
    count = len(game.shapes)
    horizon = 2 * count
    reach: dict[str, set[int]] = {name: set() for name in game.shapes}
    reach[game.start].add(0)
    current = {game.start}
    for depth in range(1, horizon + 1):
        nxt: set[str] = set()
        for name in current:
            for _label, target in game.shapes[name].moves:
                if isinstance(target, Advance):
                    nxt.add(target.shape)
        for name in nxt:
            reach[name].add(depth)
        current = nxt
    return {
        name: EntryStages(tuple(sorted(stages)), bounded=all(d < count for d in stages))
        for name, stages in reach.items()
    }


def _holds_at_entries(deviation: AffineValue, base: AffineValue, info: EntryStages) -> bool:
    """Whether deviation(n) <= base(n) at every entry stage of a shape.

    Finite entry sets are checked pointwise.  Unbounded sets are exact
    under the slope rule: an affine inequality fails on a half-line, and
    an unbounded set always meets a nonempty half-line.
    """
    if not info.stages:
        return affine_leq(deviation, base, 0)
    if info.bounded:
        return all(deviation.at(stage) <= base.at(stage) for stage in info.stages)
    return affine_leq(deviation, base, info.stages[0])


def check_spe_param(game: CyclicGame | ParametricGame, profile: StationaryProfile) -> SpeReport:
    """Symbolic equilibrium check over all stages at once.

    Requires convergence from every shape; then, per shape, every
    alternative move's value (affine in the entry stage) must not exceed
    the profile's value at any stage where the shape is actually entered.
    A deviation with divergent continuation never improves on a payoff.
    """
    check_stationary(game, profile)
    _check_targets(game.embedding)
    return _spe_report(game.embedding, profile)


def _check_targets(game: ParametricGame) -> None:
    for shape in game.shapes.values():
        for _label, target in shape.moves:
            if isinstance(target, Advance) and target.shape not in game.shapes:
                raise UnknownShape(target.shape)


def _spe_report(game: ParametricGame, profile: StationaryProfile) -> SpeReport:
    """``check_spe_param`` on a validated profile of a game without dangling advances."""
    results = {name: _walk(game, profile, name) for name in game.shapes}
    divergent = tuple(name for name, r in results.items() if isinstance(r, Divergent))
    if divergent:
        return SpeReport((), divergent)
    entries: dict[str, EntryStages] = {}
    violations: list[Violation] = []
    for name, shape in game.shapes.items():
        result = results[name]
        assert isinstance(result, ConvergesAffine)
        base = result.outcome[shape.owner]
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
            if deviation.slope == base.slope:  # the same comparison at every stage
                holds = deviation.const <= base.const
            else:
                entries = entries or entry_stages(game)
                holds = _holds_at_entries(deviation, base, entries[name])
            if not holds:
                violations.append(Violation(name, label, base, deviation))
    return SpeReport(tuple(violations))


def stationary_profiles(game: ParametricGame) -> Iterator[dict[str, str]]:
    """Every stationary profile in canonical order: shape declaration order,
    move order within each shape."""
    names = list(game.shapes)
    for combo in itertools.product(*(game.shapes[name].labels() for name in names)):
        yield dict(zip(names, combo))


def enumerate_stationary_spe(
    game: CyclicGame | ParametricGame, bound: int = DEFAULT_SEARCH_BOUND
) -> list[StationaryProfile]:
    """Brute-force all stationary profiles and keep the equilibria, in
    canonical order (``stationary_profiles``)."""
    graph = game.embedding
    space = math.prod(len(shape.moves) for shape in graph.shapes.values())
    if space > bound:
        raise SearchSpaceTooLarge(f"{space} {game.PROFILE} profiles exceed bound {bound}")
    _check_targets(graph)
    return [profile for profile in stationary_profiles(graph) if _spe_report(graph, profile).ok]


def dollar_auction(value: int) -> ParametricGame:
    """Shubik's all-pay ascending auction with unit bids, two bidders.

    At stage n the mover either abandons, leaving their standing bid of
    n - 1 sunk (nothing is sunk at stage 0, where no bid exists) while the
    opponent wins the object worth ``value`` against their bid of n, or
    bids n + 1, advancing the opponent to stage n + 1.  Three shapes: a
    stage-0 entry shape for the first bidder and a uniform alternating
    pair for stages n >= 1.
    """
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
    at every stage.
    """
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    shapes = game.shapes
    cut = Leaf(tuple(terminal))
    built: dict[tuple[str, int], Node] = {}
    # One frame per node under construction, depth first in move order, so
    # an undefined shape is reported where a recursive walk meets it first.
    stack: list[tuple] = []
    name, stage, label = game.start, 0, None
    while True:
        if name not in shapes:
            raise UnknownShape(name)
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
                    sub = built.get((target.shape, after))  # type: ignore[assignment]
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


def instantiate_profile(
    game: CyclicGame | ParametricGame, profile: StationaryProfile, max_stage: int
) -> dict[tuple[str, ...], str]:
    """Restrict a stationary profile to the tree built by ``instantiate``."""
    check_stationary(game, profile)
    if max_stage < 1:
        raise ValueError("max_stage must be positive")
    graph = game.embedding
    out: dict[tuple[str, ...], str] = {}
    stack: list[tuple[str, int, tuple[str, ...]]] = [(graph.start, 0, ())]
    while stack:  # preorder: children are pushed in reverse move order
        name, stage, path = stack.pop()
        shape = graph.shapes[name]
        out[path] = profile[name]
        if stage + 1 < max_stage:
            stack.extend(
                (target.shape, stage + 1, path + (label,))
                for label, target in reversed(shape.moves)
                if isinstance(target, Advance)
            )
    return out


def from_cyclic(game) -> ParametricGame:
    """Embed a cyclic game (anything with its ``nodes`` and ``start``) as a
    constant-payoff (slope 0) parametric game with the same names and order."""
    shapes: dict[str, Shape] = {}
    for name, node in game.nodes.items():
        moves: list[tuple[str, Union[AffineLeaf, Advance]]] = []
        for label, target in node.edges:
            if isinstance(target, Leaf):
                moves.append((label, AffineLeaf(tuple(affine(v) for v in target.outcome))))
            else:
                moves.append((label, Advance(target)))
        shapes[name] = Shape(node.owner, tuple(moves))
    return ParametricGame(shapes, game.start)
