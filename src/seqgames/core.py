"""Finite extensive-form game trees with ordinal payoffs.

A game is either a payoff ``Leaf`` or a decision ``Node`` owned by one
player, whose ordered branches carry distinct action labels.  Payoffs are
exact integers and only comparisons between them are meaningful; no solver
does arithmetic on them.  A strategy profile chooses an action at every
decision node, including nodes that equilibrium play never reaches, so
deviation checks can reason about counterfactual positions.

All values are immutable after construction and every operation is a pure
function; sharing across threads is safe.  Every routine over a tree runs
on its ``index``: preorder arrays cached on the root.  ``dsl.parse`` fills
them as it reads a tree; a tree built in code is walked once, iteratively,
on first use.  The work is linear in the number of nodes (plus the hashing
of path keys) and no depth exhausts the recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


class MalformedGame(GameError):
    """A game built in code breaks a rule of the text format: every decision
    point needs at least one choice, and its choices need distinct labels."""


@dataclass(frozen=True)
class Leaf:
    outcome: OutcomeVector

    @cached_property
    def index(self) -> "TreeIndex":
        """The one-entry index of a game that is a single leaf."""
        return TreeIndex(self)


@dataclass(frozen=True, eq=False)
class Node:
    """A decision node.  Equality and hashing compare the preorder arrays of
    ``index``, so they do not recurse and work on trees of any depth."""

    owner: int
    branches: tuple[tuple[str, "FiniteGame"], ...]

    def branch(self, label: str) -> "FiniteGame":
        for name, child in self.branches:
            if name == label:
                return child
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.branches)

    @cached_property
    def index(self) -> "TreeIndex":
        """The flat preorder arrays every tree routine runs on, filled by
        ``dsl.parse`` for the tree it reads and otherwise built by one walk
        on first use, then kept: a tree is not to be changed once it is built."""
        return TreeIndex(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.index, other.index  # type: ignore[attr-defined]
        return (
            mine.labels == theirs.labels
            and mine.owners == theirs.owners
            and mine.outcomes == theirs.outcomes
        )

    def __hash__(self) -> int:
        index = self.index
        return hash((tuple(index.owners), tuple(index.labels), tuple(index.outcomes)))


FiniteGame = Union[Leaf, Node]

#: A tree profile maps every decision-node path (from the root) to the
#: chosen branch label at that node.
TreeProfile = Mapping[PlayLine, str]


class TreeIndex:
    """A finite tree flattened into preorder arrays.

    Entry ``i`` describes the ``i``-th node in preorder (the root is 0):
    ``owners[i]`` and ``paths[i]`` are its owner and its path from the root
    for decision nodes and None for leaves; ``outcomes[i]`` is the payoff
    vector of a leaf and None for decision nodes; ``labels[i]`` and
    ``children[i]`` list its branch labels and the indices of its children
    in branch order (both empty for leaves).  ``postorder`` lists the
    decision nodes, each after all of its descendants, so one pass over it
    computes values bottom-up.  The arrays hold no node objects, so caching
    an index on its root creates no reference cycle.

    ``TreeIndex(root)`` indexes a tree built in code by one iterative walk,
    which raises ``MalformedGame`` at a decision node without branches or
    with two branches of the same label.  ``dsl.parse`` fills the index of
    the tree it reads as it reads it, through ``_IndexBuilder``.
    """

    __slots__ = ("owners", "paths", "outcomes", "labels", "children", "postorder")

    def __init__(self, root: FiniteGame) -> None:
        build = _IndexBuilder()
        if isinstance(root, Leaf):
            build.leaf(root.outcome, None)
        else:
            _require_choices(root.branches, build, None)
            build.open(root.owner, None)
            frames = [iter(root.branches)]  # the branches still to visit, per open node
            while frames:
                for label, sub in frames[-1]:
                    if isinstance(sub, Leaf):
                        build.leaf(sub.outcome, label)
                        continue
                    branches = sub.branches
                    if len(branches) < 2 or len(dict(branches)) < len(branches):  # one key per label
                        _require_choices(branches, build, label)
                    build.open(sub.owner, label)
                    frames.append(iter(branches))
                    break
                else:
                    frames.pop()
                    build.close()
        build.fill(self)


def _require_choices(branches: tuple, build: "_IndexBuilder", label: str | None) -> None:
    """``MalformedGame`` unless the branches of the decision node that ``build``
    opens next under ``label`` are present and have distinct labels."""
    if not branches:
        raise MalformedGame(f"no branches at {build.path_to(label)!r}")
    seen: set[str] = set()
    for name, _ in branches:
        if name in seen:
            raise MalformedGame(f"duplicate branch label {name!r} at {build.path_to(label)!r}")
        seen.add(name)


class _IndexBuilder:
    """Fills the arrays of a ``TreeIndex`` in preorder, one step per node:
    ``open`` a decision node, add a ``leaf``, ``close`` the innermost open
    node once its branches are done.  Each step names the label of the
    branch it enters (None at the root).  It checks nothing: its callers
    vouch for the tree."""

    __slots__ = ("_outcomes", "_open", "_closed")

    def __init__(self) -> None:
        self._outcomes: list[OutcomeVector | None] = []  # per node so far; None at decision nodes
        # Per decision node: its index, owner and path, and the labels and
        # indices of its children; in ``_open`` while they are being read,
        # in ``_closed`` (in postorder) once they are done.
        self._open: list[tuple[int, int, PlayLine, list[str], list[int]]] = []
        self._closed: list[tuple[int, int, PlayLine, list[str], list[int]]] = []

    def path_to(self, label: str | None) -> PlayLine:
        """The path of a node entered next under ``label``."""
        return self._open[-1][2] + (label,) if self._open else ()

    def open(self, owner: int, label: str | None) -> None:
        outcomes = self._outcomes
        if self._open:
            parent = self._open[-1]
            parent[3].append(label)  # type: ignore[arg-type]
            parent[4].append(len(outcomes))
            path = parent[2] + (label,)
        else:
            path = ()
        self._open.append((len(outcomes), owner, path, [], []))
        outcomes.append(None)

    def leaf(self, outcome: OutcomeVector, label: str | None) -> None:
        if self._open:
            parent = self._open[-1]
            parent[3].append(label)  # type: ignore[arg-type]
            parent[4].append(len(self._outcomes))
        self._outcomes.append(outcome)

    def close(self) -> None:
        self._closed.append(self._open.pop())

    def fill(self, index: TreeIndex) -> None:
        size = len(self._outcomes)
        owners: list[int | None] = [None] * size
        paths: list[PlayLine | None] = [None] * size
        labels: list[tuple[str, ...]] = [()] * size
        children: list[tuple[int, ...]] = [()] * size
        postorder: list[int] = []
        for at, owner, path, names, kids in self._closed:
            owners[at] = owner
            paths[at] = path
            labels[at] = tuple(names)
            children[at] = tuple(kids)
            postorder.append(at)
        index.owners, index.paths, index.outcomes = owners, paths, self._outcomes
        index.labels, index.children, index.postorder = labels, children, postorder

    def attach(self, root: FiniteGame) -> None:
        """Store the finished index as ``root.index``, as its first use would."""
        index = TreeIndex.__new__(TreeIndex)
        self.fill(index)
        root.__dict__["index"] = index  # where ``cached_property`` keeps it


def leaf(*outcome: int) -> Leaf:
    """Shorthand leaf constructor: ``leaf(0, 1)``."""
    return Leaf(tuple(outcome))


def node(owner: int, *branches: tuple[str, FiniteGame]) -> Node:
    """Shorthand node constructor: ``node(0, ("a", leaf(0, 1)), ...)``."""
    return Node(owner, tuple(branches))


def outcome_of(game: FiniteGame, play: PlayLine) -> OutcomeVector:
    """Follow ``play`` from the root and return the leaf outcome reached."""
    reached = subgame_at(game, play)
    if isinstance(reached, Node):
        raise InvalidPlay(len(play), None)
    return reached.outcome


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
    return (path for path in game.index.paths if path is not None)


_MISSING = object()


def chosen_branches(game: FiniteGame, profile: TreeProfile) -> list[int | None]:
    """Raise ShapeMismatch unless ``profile`` fits ``game`` exactly, and
    return, for every node in preorder, the position of the chosen branch
    (None at leaves).

    The profile must assign a choice to every decision node (and nothing
    else), and every choice must be one of that node's branch labels.
    Sibling labels are assumed distinct, as ``parse`` requires: the key
    check counts decision nodes rather than distinct paths.
    """
    index = game.index
    picks: list[int | None] = []
    bad_choice = None
    complete = True
    decisions = 0
    for path, names in zip(index.paths, index.labels):
        if path is None:
            picks.append(None)
            continue
        decisions += 1
        choice = profile.get(path, _MISSING)
        try:
            picks.append(names.index(choice))
        except ValueError:
            picks.append(None)
            if choice is _MISSING:
                complete = False
            elif bad_choice is None:
                bad_choice = (path, choice)
    if not complete or decisions != len(profile):
        paths = set(node_paths(game))
        keys = set(profile)
        missing = sorted(paths - keys)
        extra = sorted(keys - paths)
        raise ShapeMismatch(
            f"profile does not match game shape "
            f"(missing {missing[:3]!r}, extra {extra[:3]!r})"
        )
    if bad_choice is not None:
        path, choice = bad_choice
        raise ShapeMismatch(f"choice {choice!r} at {path!r} is not a branch label")
    return picks


def induced_play(game: FiniteGame, profile: TreeProfile) -> tuple[PlayLine, OutcomeVector]:
    """Follow the profile's choices from the root; return play and outcome."""
    picks = chosen_branches(game, profile)
    index = game.index
    play: list[str] = []
    current = 0
    while picks[current] is not None:
        pick = picks[current]
        play.append(index.labels[current][pick])
        current = index.children[current][pick]
    return tuple(play), index.outcomes[current]  # type: ignore[return-value]


def require_two_players(game: FiniteGame) -> None:
    for outcome in game.index.outcomes:
        if outcome is not None and len(outcome) != 2:
            raise NotTwoPlayer(
                f"solvers need two players, found outcome vector of length {len(outcome)}"
            )
