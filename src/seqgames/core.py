"""Finite extensive-form game trees with ordinal payoffs.

A game is either a payoff ``Leaf`` or a decision ``Node`` owned by one
player, whose ordered branches carry distinct action labels.  Payoffs are
exact integers and only comparisons between them are meaningful; no solver
does arithmetic on them.  A strategy profile chooses an action at every
decision node, including nodes that equilibrium play never reaches, so
deviation checks can reason about counterfactual positions.

All values are immutable after construction and every operation is a pure
function; sharing across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

DEFAULT_PLAYERS = ("Alice", "Bertrand")

PlayLine = tuple[str, ...]
OutcomeVector = tuple[int, ...]


class GameError(Exception):
    """Base class for errors raised by game operations."""


class InvalidPlay(GameError):
    """A play line does not fit the game tree."""

    def __init__(self, position: int, label: str | None) -> None:
        self.position = position
        self.label = label
        if label is None:
            message = f"play stops at position {position} before reaching a leaf"
        else:
            message = f"position {position}: no branch labelled {label!r}"
        super().__init__(message)


class ShapeMismatch(GameError):
    """A profile does not fit the game it was applied to."""


class NotTwoPlayer(GameError):
    """Solvers accept exactly two players; the data model alone does not."""


@dataclass(frozen=True)
class Leaf:
    outcome: OutcomeVector


@dataclass(frozen=True)
class Node:
    owner: int
    branches: tuple[tuple[str, "FiniteGame"], ...]

    def branch(self, label: str) -> "FiniteGame":
        for name, child in self.branches:
            if name == label:
                return child
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.branches)


FiniteGame = Union[Leaf, Node]

#: A tree profile maps every decision-node path (from the root) to the
#: chosen branch label at that node.
TreeProfile = Mapping[PlayLine, str]


def leaf(*outcome: int) -> Leaf:
    """Shorthand leaf constructor: ``leaf(0, 1)``."""
    return Leaf(tuple(outcome))


def node(owner: int, *branches: tuple[str, FiniteGame]) -> Node:
    """Shorthand node constructor: ``node(0, ("a", leaf(0, 1)), ...)``."""
    return Node(owner, tuple(branches))


def outcome_of(game: FiniteGame, play: PlayLine) -> OutcomeVector:
    """Follow ``play`` from the root and return the leaf outcome reached."""
    current = game
    for position, label in enumerate(play):
        if isinstance(current, Leaf):
            raise InvalidPlay(position, label)
        try:
            current = current.branch(label)
        except KeyError:
            raise InvalidPlay(position, label) from None
    if isinstance(current, Node):
        raise InvalidPlay(len(play), None)
    return current.outcome


def subgame_at(game: FiniteGame, prefix: PlayLine) -> FiniteGame:
    """Return the subtree rooted at the position reached by ``prefix``."""
    current = game
    for position, label in enumerate(prefix):
        if isinstance(current, Leaf):
            raise InvalidPlay(position, label)
        try:
            current = current.branch(label)
        except KeyError:
            raise InvalidPlay(position, label) from None
    return current


def node_paths(game: FiniteGame) -> Iterator[PlayLine]:
    """Yield the paths of all decision nodes in preorder."""

    def walk(sub: FiniteGame, path: PlayLine) -> Iterator[PlayLine]:
        if isinstance(sub, Node):
            yield path
            for label, child in sub.branches:
                yield from walk(child, path + (label,))

    return walk(game, ())


def check_profile(game: FiniteGame, profile: TreeProfile) -> None:
    """Raise ShapeMismatch unless ``profile`` fits ``game`` exactly.

    The profile must assign a choice to every decision node (and nothing
    else), and every choice must be one of that node's branch labels.
    """
    paths = set(node_paths(game))
    keys = set(profile)
    if paths != keys:
        missing = sorted(paths - keys)
        extra = sorted(keys - paths)
        raise ShapeMismatch(
            f"profile does not match game shape "
            f"(missing {missing[:3]!r}, extra {extra[:3]!r})"
        )
    for path in paths:
        sub = subgame_at(game, path)
        assert isinstance(sub, Node)
        if profile[path] not in sub.labels():
            raise ShapeMismatch(
                f"choice {profile[path]!r} at {path!r} is not a branch label"
            )


def induced_play(game: FiniteGame, profile: TreeProfile) -> tuple[PlayLine, OutcomeVector]:
    """Follow the profile's choices from the root; return play and outcome."""
    check_profile(game, profile)
    play: list[str] = []
    current = game
    while isinstance(current, Node):
        label = profile[tuple(play)]
        play.append(label)
        current = current.branch(label)
    return tuple(play), current.outcome


def leaf_outcomes(game: FiniteGame) -> Iterator[OutcomeVector]:
    """Yield every leaf outcome in preorder."""
    if isinstance(game, Leaf):
        yield game.outcome
        return
    for _label, child in game.branches:
        yield from leaf_outcomes(child)


def require_two_players(game: FiniteGame) -> None:
    for outcome in leaf_outcomes(game):
        if len(outcome) != 2:
            raise NotTwoPlayer(
                f"solvers need two players, found outcome vector of length {len(outcome)}"
            )


DUPLICATE_LABEL = "duplicate-label"
ARITY_MISMATCH = "arity-mismatch"
EMPTY_BRANCHES = "empty-branches"


@dataclass(frozen=True)
class Finding:
    kind: str
    path: PlayLine
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def validate(game: FiniteGame) -> ValidationReport:
    """Report structural problems: duplicate sibling labels, ragged outcome
    vectors, decision nodes without branches."""
    findings: list[Finding] = []
    arity: int | None = None

    def walk(sub: FiniteGame, path: PlayLine) -> None:
        nonlocal arity
        if isinstance(sub, Leaf):
            if arity is None:
                arity = len(sub.outcome)
            elif len(sub.outcome) != arity:
                findings.append(
                    Finding(ARITY_MISMATCH, path, f"outcome length {len(sub.outcome)} != {arity}")
                )
            return
        if not sub.branches:
            findings.append(Finding(EMPTY_BRANCHES, path, "decision node with no branches"))
            return
        seen: set[str] = set()
        for label, _child in sub.branches:
            if label in seen:
                findings.append(Finding(DUPLICATE_LABEL, path, f"branch label {label!r} repeated"))
            seen.add(label)
        for label, child in sub.branches:
            walk(child, path + (label,))

    walk(game, ())
    return ValidationReport(tuple(findings))
