"""Finite extensive-form game trees with ordinal payoffs.

A game is either a payoff ``Leaf`` or a decision ``Node`` owned by one
player, whose ordered branches carry distinct action labels.  Payoffs are
exact integers and only comparisons between them are meaningful; no solver
does arithmetic on them.  A strategy profile chooses an action at every
decision node, including nodes that equilibrium play never reaches, so
deviation checks can reason about counterfactual positions.

Values (games, reports, verdicts) are ``Record``s, immutable once built,
and every operation is a pure function; sharing across threads is safe.
Every routine over a tree runs on its ``index``: preorder arrays that
``TreeIndex`` lays out in one iterative walk of the tree on first use and
caches on the root, unless the line reader laid them out as it read the
tree's text (``finite.parse_tree_lines``).  The work is linear in the
number of nodes (plus the hashing of the keys of a profile the package did
not build) and no depth exhausts the recursion limit.
"""

from __future__ import annotations

from collections.abc import Mapping

DEFAULT_PLAYERS = ("Alice", "Bertrand")
DEFAULT_CAP = 1024  # the most equilibria ``finite.enumerate_equilibria`` lists

PlayLine = tuple[str, ...]
OutcomeVector = tuple[int, ...]


class cached_property:
    """``functools.cached_property`` without the lock it takes on first use on
    Python 3.10 and 3.11 (3.12 dropped it): the first read stores the value in
    the instance ``__dict__``."""

    def __init__(self, func) -> None:
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


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


class InvalidArgument(GameError, ValueError):
    """An argument an operation does not take, such as a cap below 1; also a ``ValueError``, so either catches it."""


class LimitExceeded(GameError):
    """An input is past a documented bound on the work an analysis may do."""


class ShapeMismatch(GameError):
    """A profile does not fit the game it was applied to."""


class NotTwoPlayer(GameError):
    """Solvers accept exactly two players; the data model alone does not."""


class MalformedGame(GameError):
    """A game built in code breaks a rule of the text format: every decision
    point needs at least one choice, its choices need distinct labels, and
    each choice leads to an outcome or a decision point."""


class Record:
    """An immutable value with named fields, the base of every value class.

    A subclass declares its fields, after its parent's, as annotations; one
    given a value in the class body has that default.  ``__init_subclass__``
    compiles the class's ``__init__`` (which ends by calling ``__post_init__``
    if the class has one) and, unless the class defines ``__eq__``, an
    ``__eq__`` between instances of the class alone and a ``__hash__`` of the
    tuple of fields.  Setting or deleting an attribute raises
    ``AttributeError``; a ``cached_property`` writes the instance ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)  # the class's own annotations
        defaults = {name: getattr(cls, name) for name in fields if hasattr(cls, name)}  # inherited too
        params = "".join(f", {name}" + (f"=_defaults[{name!r}]" if name in defaults else "") for name in fields)
        body = "".join(f"\n _set(self, {name!r}, {name})" for name in fields)
        body += "\n self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        mine, theirs = ("(" + "".join(f"{who}.{name}, " for name in fields) + ")" for who in ("self", "other"))
        methods: dict = {"_set": object.__setattr__, "_defaults": defaults}
        exec(
            f"def __init__(self{params}):{body or ' pass'}\n"
            f"def __eq__(self, other):\n if other.__class__ is self.__class__: return {mine} == {theirs}\n"
            f" return NotImplemented\n"
            f"def __hash__(self): return hash({mine})\n",
            methods,
        )
        for name in ("__init__",) if "__eq__" in cls.__dict__ else ("__init__", "__eq__", "__hash__"):
            setattr(cls, name, methods[name])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self.__class__.__name__} is immutable: cannot delete {name!r}")


class Leaf(Record):
    outcome: OutcomeVector

    KIND = "finite"  # the game kind, read without importing the module of each kind

    @cached_property
    def index(self) -> "TreeIndex":
        """The one-entry index of a game that is a single leaf."""
        return TreeIndex(self)


class Node(Record):
    """A decision node.  Equality and hashing compare the preorder arrays of
    ``index``, so they do not recurse and work on trees of any depth."""

    owner: int
    branches: tuple[tuple[str, "FiniteGame"], ...]

    KIND = "finite"

    def branch(self, label: str) -> "FiniteGame":
        for name, child in self.branches:
            if name == label:
                return child
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.branches)

    @cached_property
    def index(self) -> "TreeIndex":
        """The flat preorder arrays every tree routine runs on, laid out by
        ``TreeIndex`` on first use, or by the line reader that read the tree,
        and then kept: a tree is not to be changed once it is built."""
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

    def __repr__(self) -> str:
        """What ``Record.__repr__`` prints, written from an explicit stack of the values still
        to print and the text between them, so no depth exhausts the recursion limit."""
        out: list[str] = []
        stack: list[tuple[bool, object]] = [(False, self)]  # (is text, item), the next one last
        while stack:
            text, item = stack.pop()
            if text:
                out.append(item)  # type: ignore[arg-type]
            elif isinstance(item, Node) and item.__class__.__repr__ is Node.__repr__:
                head = f"{item.__class__.__qualname__}(owner={item.owner!r}, branches="
                stack += (True, ")"), (False, item.branches), (True, head)
            elif item.__class__ is tuple and item:
                parts: list[tuple[bool, object]] = [(True, "(")]
                for value in item:
                    parts += (False, value), (True, ", ")
                parts[-1] = (True, ",)" if len(item) == 1 else ")")
                stack += reversed(parts)
            else:
                out.append(repr(item))
        return "".join(out)


FiniteGame = Leaf | Node

#: A tree profile maps every decision-node path (from the root) to the
#: chosen branch label at that node.
TreeProfile = Mapping[PlayLine, str]


class Violation(Record):
    """A one-shot deviation that strictly improves the node owner's utility.

    ``where`` is a node path for tree games and a node or shape name for
    graph games; the two value fields are ints for tree games and affine
    values for graph games (of slope 0 for a cyclic game).
    """

    where: PlayLine | str
    action: str
    profile_value: object
    deviation_value: object


class SpeReport(Record):
    violations: tuple[Violation, ...] = ()
    divergences: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations and not self.divergences


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
    an index on its root creates no reference cycle.  ``fault`` keeps the
    verdict of ``require_two_players``.

    Two walks lay the arrays out in the same order, refereed slot by slot.
    ``TreeIndex(root)``, the one for a tree built in code, walks the nodes
    iteratively: it appends each node's entries as it enters the node, and a
    decision node's ``children`` tuple and ``postorder`` entry once its last
    branch is done.  It raises ``MalformedGame`` at a decision node without
    branches, with two branches of the same label or with a branch to neither
    a leaf nor a node.  The line reader ``finite.parse_tree_lines`` lays them
    out as it reads the nodes' lines and hands them to ``TreeIndex.keep``, with
    ``fault`` empty: it builds only payoff pairs and players 0 and 1.
    """

    __slots__ = ("owners", "paths", "outcomes", "labels", "children", "postorder", "fault")

    def __init__(self, root: FiniteGame) -> None:
        self.owners: list[int | None] = []
        self.paths: list[PlayLine | None] = []
        self.outcomes: list[OutcomeVector | None] = []
        self.labels: list[tuple[str, ...]] = []
        self.children: list = []
        self.postorder: list[int] = []
        self.fault: str | None = None  # why the solvers refuse the tree, "" if they take it, None until looked for
        owners, paths, outcomes, labels, children = self.owners, self.paths, self.outcomes, self.labels, self.children
        # One frame per open decision node: its index, its path, its children so far and the
        # branches still to enter; the first frame holds the root, under no node and no label.
        frames: list = [(None, (), [], iter(((None, root),)))]
        while frames:
            at, path, kids, todo = frames[-1]
            for label, sub in todo:
                kids.append(len(outcomes))
                if isinstance(sub, Leaf):
                    owners.append(None)
                    paths.append(None)
                    outcomes.append(sub.outcome)
                    labels.append(())
                    children.append(())
                    continue
                if not isinstance(sub, Node):
                    raise MalformedGame(f"branch {label!r} at {path!r} leads to neither a leaf nor a node")
                branches = sub.branches
                here = () if at is None else path + (label,)
                if not branches:
                    raise MalformedGame(f"no branches at {here!r}")
                names = dict(branches)  # one key per label
                if len(names) < len(branches):
                    seen = [name for name, _ in branches]
                    twice = next(name for k, name in enumerate(seen) if name in seen[:k])
                    raise MalformedGame(f"duplicate branch label {twice!r} at {here!r}")
                frames.append((len(outcomes), here, [], iter(branches)))
                owners.append(sub.owner)
                paths.append(here)
                outcomes.append(None)
                labels.append(tuple(names))
                children.append(None)
                break
            else:
                frames.pop()
                if at is not None:
                    children[at] = tuple(kids)
                    self.postorder.append(at)

    @classmethod
    def keep(cls, root: Node, slots: tuple) -> None:
        """Keep as ``root.index`` (as the cached property would) the index a reader laid out, its slots in order."""
        index = root.__dict__["index"] = cls.__new__(cls)
        for name, value in zip(cls.__slots__, slots):
            setattr(index, name, value)


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


def tree_index(game: FiniteGame) -> TreeIndex:
    """``game.index``, where the tree routines check their ``game``: ``InvalidArgument`` names another type."""
    if not isinstance(game, (Leaf, Node)):
        raise InvalidArgument(f"game must be a Leaf or a Node, not {type(game).__name__}")
    return game.index


def chosen_branches(game: FiniteGame, profile: TreeProfile) -> list[int | None]:
    """Raise ShapeMismatch unless ``profile`` fits ``game`` exactly, and
    return, for every node in preorder, the position of the chosen branch
    (None at leaves).

    The profile must assign a choice to every decision node (and nothing
    else), and every choice must be one of that node's branch labels.
    Sibling labels are assumed distinct, as ``parse`` requires, so a count of
    keys suffices; only a profile that does not fit is read again, to name why.
    A profile keyed by the index's own ``paths`` objects in postorder (as
    ``finite.solve`` builds it) or preorder (``enumerate_equilibria``, and
    ``dsl.parse_profile_text`` of a file in preorder) is read by identity and
    hashes no path; any other, by hashing its keys, to the same picks and errors.
    """
    index = tree_index(game)
    paths, labels, order = index.paths, index.labels, index.postorder
    if len(profile) == len(order):
        try:  # anything that raises here raises again, or is found to be no fault, in the hashing pass below
            if order and next(iter(profile)) is not paths[order[0]]:
                order = sorted(order)  # the decision nodes in preorder
            picks: list[int | None] = [None] * len(paths)
            for at, (path, action) in zip(order, profile.items()):
                if path is not paths[at]:
                    break
                picks[at] = labels[at].index(action)
            else:
                return picks
        except Exception:
            pass
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


def induced_play(game: FiniteGame, profile: TreeProfile) -> tuple[PlayLine, OutcomeVector]:
    """Follow the profile's choices from the root; return play and outcome."""
    picks = chosen_branches(game, profile)
    index = game.index
    play: list[str] = []
    current = 0
    while (pick := picks[current]) is not None:
        play.append(index.labels[current][pick])
        current = index.children[current][pick]
    return tuple(play), index.outcomes[current]  # type: ignore[return-value]


def is_player(owner: object) -> bool:
    """Whether ``owner`` is the ``int`` 0 or 1.  A float or a ``Fraction`` equal
    to one cannot index a payoff pair, and a ``bool`` is no player number."""
    return owner.__class__ is int and owner in (0, 1)


def numeral(text: str) -> bool:
    """Whether ``text``, from an ASCII document, is 1 to 640 digits, which ``int`` reads under any digit limit."""
    return text.isdigit() and len(text) <= 640


def require_two_players(game: FiniteGame) -> None:
    """``NotTwoPlayer`` unless every payoff vector is a pair and every owner
    is player 0 or 1 (``is_player``); the verdict is found once per index and kept."""
    index = tree_index(game)
    if index.fault is None:
        length = next((len(o) for o in index.outcomes if o is not None and len(o) != 2), None)
        owner = next((o for o in index.owners if o is not None and not is_player(o)), None)
        index.fault = "" if length is None and owner is None else "solvers need two players, found " + (
            f"outcome vector of length {length}" if length is not None else f"a decision node owned by {owner!r}"
        )
    if index.fault:
        raise NotTwoPlayer(index.fault)
