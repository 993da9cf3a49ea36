"""The writers of the text format, ``serialize``, ``to_dot`` and ``render_profile``, which
``dsl`` loads on first use, so a command that writes no game text never compiles them."""

from __future__ import annotations

import itertools

from .core import GameError, Leaf, Node, ShapeMismatch, chosen_branches, is_player, require_two_players
from .dsl import _GRAPHS, _SCAN, render_tree_path

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING`` without loading ``typing``
if TYPE_CHECKING:
    from fractions import Fraction

    from .dsl import AnyProfile, Game, GameDoc


def _serialize_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _serialize_tree(tree: Node, players: tuple[str, str], out: list[str]) -> None:
    """The lines between ``finite {`` and its ``}`` for a decision-node root,
    with an explicit stack of branch iterators (no paths are needed)."""
    out.append(f"  {players[tree.owner]} {{")
    stack = [("    ", iter(tree.branches))]
    while stack:
        pad, pending = stack[-1]
        for label, child in pending:
            if isinstance(child, Leaf):
                out.append(f"{pad}{label} -> leaf({child.outcome[0]},{child.outcome[1]})")
            else:
                out.append(f"{pad}{label} -> {players[child.owner]} {{")
                stack.append((pad + "  ", iter(child.branches)))
                break
        else:
            stack.pop()
            out.append(f"{pad[2:]}}}")


class Unwritable(GameError):
    """A game built in code has no text form: ``serialize`` would write text
    that ``parse`` rejects or reads as another game."""


def _require_names(what: str, names) -> None:
    """``Unwritable`` unless each of ``names`` scans back as one name token."""
    for name in names:
        if isinstance(name, str) and (
            name.isascii() and name.isidentifier()  # [A-Za-z_][A-Za-z0-9_]*, without a regex
            or (name[:1].isalpha() or name[:1] == "_") and _SCAN.match(name).group(1) == name  # type: ignore[union-attr]
        ):
            continue
        raise Unwritable(f"{what} {name!r} does not scan as one name")


def _require_writable(doc: GameDoc) -> None:
    """``Unwritable`` unless ``serialize`` writes text that parses back to ``doc``
    (``MalformedGame`` for a code-built tree whose branches break the rules)."""
    players, game = doc.players, doc.game
    kind = getattr(game, "KIND", None)  # None for an object that is no game
    _require_names("player", players)
    if kind == "finite":
        index = game.index  # a tree built in code is walked here, which checks its branches
        owners = index.owners  # not a set, which keeps one of 1 and 1.0
        decisions = dict.fromkeys(label for names in dict.fromkeys(index.labels) for label in names)  # in preorder
        for outcome in dict.fromkeys(index.outcomes):  # each distinct vector once, in preorder
            if outcome is not None and len(outcome) != 2:
                raise Unwritable(f"payoff vector {outcome!r} is not a pair")
        payoffs = list(itertools.chain.from_iterable(filter(None, index.outcomes)))  # every value of every leaf
        keyword = "leaf"  # an owner named so would read as a leaf
    elif kind in _GRAPHS:
        _require_names("name", game.shapes)
        if kind == "cyclic" and any(
            not target.LEAF and target.shape == "leaf"
            for shape in game.shapes.values()
            for _label, target in shape.moves
        ):
            raise Unwritable("an edge to a node named 'leaf' would read as a leaf")
        owners = {shape.owner for shape in game.shapes.values()}
        decisions = dict.fromkeys(label for labels in game.labels.values() for label in labels)
        leaves = (target for shape in game.shapes.values() for _label, target in shape.moves if target.LEAF)
        payoffs = [number for target in leaves for value in target.outcome for number in (value.const, value.slope)]
        keyword = None
    else:
        return
    if set(map(type, payoffs)) - {int}:  # the types of all, as 1, 1.0 and True are equal
        number = next(number for number in payoffs if type(number) is not int)
        raise Unwritable(f"payoff {number!r} is not an integer")
    for owner in owners:
        if owner is None:
            continue
        if not is_player(owner):
            raise Unwritable(f"owner {owner!r} is neither player 0 nor player 1")
        if players[owner] == keyword:
            raise Unwritable(f"player {keyword!r} owns a decision node, which would read as a leaf")
    if players[0] == players[1] and 1 in owners:  # the name reads back as player 0
        raise Unwritable(f"both players are named {players[0]!r}")
    _require_names("label", decisions)


def serialize(doc: GameDoc) -> str:
    """Canonical text: explicit header, 2-space indents, LF endings.

    Raises ``Unwritable`` for a game built in code that the text cannot
    express, such as a name that does not scan as one name."""
    _require_writable(doc)
    out: list[str] = [f"players {doc.players[0]} {doc.players[1]}"]
    game = doc.game
    kind = getattr(game, "KIND", None)
    if kind == "finite":
        out.append("finite {")
        if isinstance(game, Leaf):
            out.append(f"  leaf({game.outcome[0]},{game.outcome[1]})")
        else:
            _serialize_tree(game, doc.players, out)
        out.append("}")
    elif kind in _GRAPHS:
        # A slope-0 payoff prints as its constant, so a cyclic game's leaves read as ints.
        advance = "" if kind == "cyclic" else "advance "
        out.append(f"{kind} start={game.start} {{")
        for name, shape in game.shapes.items():
            out.append(f"  {name}: {doc.players[shape.owner]} {{")
            for label, target in shape.moves:
                if target.LEAF:
                    out.append(f"    {label} -> leaf({target.outcome[0]},{target.outcome[1]})")
                else:
                    out.append(f"    {label} -> {advance}{target.shape}")
            out.append("  }")
        out.append("}")
    elif kind == "matrix":
        out.append(f"matrix sum={_serialize_rational(game.total)} {{")
        for i, row in enumerate(game.payoffs):
            rendered = " ".join(_serialize_rational(entry) for entry in row)
            out.append(f"  {rendered};" if i < len(game.payoffs) - 1 else f"  {rendered}")
        out.append("}")
    else:
        raise TypeError(f"unsupported game kind: {type(game).__name__}")
    return "\n".join(out) + "\n"


# --- DOT export ----------------------------------------------------------

_HIGHLIGHT = ",penwidth=2,style=bold"


def _dot_escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(doc: GameDoc, highlight: AnyProfile | None = None) -> str:
    """DOT digraph with deterministic node names (preorder/declaration index).

    Decision nodes show player names, leaves show outcome tuples, edges show
    action labels; the edges a highlighted profile chooses are emitted with
    ``penwidth=2,style=bold``.  A tree the solvers refuse raises ``NotTwoPlayer``.
    """
    nodes: list[str] = []
    edges: list[str] = []
    fresh = (f"n{number}" for number in itertools.count())  # node names in creation order
    game = doc.game
    kind = getattr(game, "KIND", None)
    if kind == "finite":
        require_two_players(game)
        index = game.index
        picks = None if highlight is None else chosen_branches(game, highlight)  # type: ignore[arg-type]
        children, labels, paths = index.children, index.labels, index.paths
        owners = [_dot_escape(player) for player in doc.players]
        texts = {outcome: ",".join(map(str, outcome)) for outcome in set(index.outcomes) - {None}}
        nodes = [f'  n{at} [label="{owners[owner] if outcome is None else texts[outcome]}"];'  # type: ignore[index]
                 for at, (owner, outcome) in enumerate(zip(index.owners, index.outcomes))]
        escaped = {name: _dot_escape(name) for names in set(labels) for name in names}
        # The edge into each node but the root goes to the node's rank in the postorder of all nodes:
        # where its subtree ends in preorder (its next sibling, or its parent's end) less its depth and 1.
        edges = [""] * (len(children) - 1)
        ends = [len(children)] * len(children)  # set by each parent, which comes first in the reversed postorder
        for parent in reversed(index.postorder):
            kids, names, shift = children[parent], labels[parent], len(paths[parent]) + 2  # a child's depth + 1
            chosen, end, position = -1 if picks is None else picks[parent], ends[parent], len(kids)
            for child in reversed(kids):
                position -= 1
                ends[child] = end
                bold = _HIGHLIGHT if position == chosen else ""
                edges[end - shift] = f'  n{parent} -> n{child} [label="{escaped[names[position]]}"{bold}];'
                end = child
    elif kind in _GRAPHS:
        if highlight is not None:
            game.check_profile(highlight)
        idents = {name: next(fresh) for name in game.shapes}
        for name, shape in game.shapes.items():
            label = f"{name}: {doc.players[shape.owner]}"
            nodes.append(f'  {idents[name]} [label="{_dot_escape(label)}"];')
        for name, shape in game.shapes.items():
            for label, target in shape.moves:
                if target.LEAF:
                    child = next(fresh)
                    rendered = ",".join(str(v) for v in target.outcome)
                    nodes.append(f'  {child} [label="{_dot_escape(rendered)}"];')
                else:
                    child = idents[target.shape]
                bold = _HIGHLIGHT if highlight is not None and highlight[name] == label else ""  # type: ignore[index]
                edges.append(f'  {idents[name]} -> {child} [label="{_dot_escape(label)}"{bold}];')
    elif kind == "matrix":
        if highlight is not None:
            raise ShapeMismatch("matrix games have no highlightable profile")
        ident = next(fresh)
        label = f"matrix {game.rows}x{game.cols} sum={_serialize_rational(game.total)}"
        nodes.append(f'  {ident} [label="{_dot_escape(label)}"];')
    else:
        raise TypeError(f"unsupported game kind: {type(game).__name__}")
    return "\n".join(["digraph game {", *nodes, *edges, "}"]) + "\n"


# --- profile files --------------------------------------------------------


def render_profile(game: Game, profile: AnyProfile) -> str:
    """Canonical profile-file text for ``game``; the profile must fit the
    game as ``parse_profile_text`` requires."""
    if isinstance(game, (Leaf, Node)):
        index, picks = game.index, chosen_branches(game, profile)  # type: ignore[arg-type]
        lines = [
            f"{render_tree_path(path)} = {names[pick]}"
            for path, names, pick in zip(index.paths, index.labels, picks)
            if pick is not None
        ]
    elif game.KIND in _GRAPHS:
        game.check_profile(profile)  # type: ignore[arg-type]
        lines = [f"{name} = {profile[name]}" for name in game.shapes]  # type: ignore[index]
    else:
        raise ShapeMismatch("matrix games take no profile")
    return "\n".join(lines) + "\n" if lines else ""
