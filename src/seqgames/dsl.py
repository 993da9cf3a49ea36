"""Text format for all four game kinds, plus DOT export.

One small whitespace-insensitive grammar covers finite trees, cyclic
graphs, stage-parametric games and payoff matrices:

    doc     := header? (finite | cyclic | param | matrix)
    header  := "players" NAME NAME
    finite  := "finite" "{" tree "}"
    tree    := "leaf" "(" INT "," INT ")"
             | NAME "{" (LABEL "->" tree)+ "}"
    cyclic  := "cyclic" "start" "=" ID "{" nodedef+ "}"
    nodedef := ID ":" NAME "{" (LABEL "->" (ID | "leaf" "(" INT "," INT ")"))+ "}"
    param   := "param" "start" "=" ID "{" shapedef+ "}"
    shapedef:= ID ":" NAME "{" (LABEL "->" ("advance" ID
             | "leaf" "(" AFFINE "," AFFINE ")"))+ "}"
    AFFINE  := INT (("+"|"-") INT "*" "n")?
    matrix  := "matrix" "sum" "=" RAT "{" RAT+ (";" RAT+)* "}"

`#` starts a comment running to end of line.  A `;` may separate entries
anywhere it is unambiguous; the canonical serialization uses newlines
instead, except between matrix rows where `;` is structural.  ``serialize``
emits the canonical form: two-space indentation, branch order preserved,
LF line endings, no trailing whitespace.

A kind's modules are imported inside that kind's branches, so a process
loads only the kinds it meets.
"""

from __future__ import annotations

import itertools
import re

from .core import (
    DEFAULT_PLAYERS,
    FiniteGame,
    GameError,
    Leaf,
    Node,
    Record,
    ShapeMismatch,
    TreeIndex,
    TreeProfile,
    chosen_branches,
    is_player,
    node_paths,
    require_two_players,
)

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING`` without loading ``typing``
if TYPE_CHECKING:
    from fractions import Fraction

    from .matrix import MatrixGame
    from .parametric import ParametricGame, StationaryProfile

    Game = FiniteGame | ParametricGame | MatrixGame  # a CyclicGame is a ParametricGame
    AnyProfile = TreeProfile | StationaryProfile

_GRAPHS = ("cyclic", "param")


class ParseError(Exception):
    """Syntax error with a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str) -> None:
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found
        super().__init__(f"{line}:{column}: expected {expected}, found {found}")


class ValidationError(ParseError):
    """Structurally invalid game caught at parse time (duplicate labels,
    dangling references, ragged rows, unknown players)."""

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        self.expected = message
        self.found = ""
        Exception.__init__(self, f"{line}:{column}: {message}")


class GameDoc(Record):
    players: tuple[str, str]
    game: Game


_PUNCT = frozenset({"->", "{", "}", "(", ")", ",", ";", ":", "=", "+", "-", "*", "/"})

# Blanks and comments, then one token: punctuation, a decimal integer, a
# word, any other character (rejected by ``_scan``) or the end of input.
# The token group always matches after the greedy skip, so nothing is ever
# backtracked; ``findall`` returns one or two empty tokens at the end.
_SCAN = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(->|[{}(),;:=+\-*/]|\d+|\w+|.|\Z)")


def _offset(text: str, match: re.Match) -> int:
    """Source offset of a scanned token.  The end of input sits at the
    ``#`` of a comment that runs to the end of the text."""
    offset = match.start(1)
    if offset == len(text):
        comment = text.find("#", text.rfind("\n") + 1)
        if comment >= 0:
            return comment
    return offset


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _position(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of the ``index``-th token of ``text``."""
    match = next(itertools.islice(_SCAN.finditer(text), index, None))
    return _line_column(text, _offset(text, match))


def _scan(text: str) -> list[str]:
    """Token texts, ending with one empty string for the end of input.

    A token is punctuation, a run of decimal digits, or a word that starts
    with a letter or ``_`` and goes on with letters, digits or ``_`` (the
    ``str.isalpha``/``str.isalnum`` classes).  Anything else is a
    ``ParseError`` at the first offending character.
    """
    tokens = _SCAN.findall(text)
    if len(tokens) > 1 and not tokens[-2]:
        tokens.pop()
    words = set(tokens) - _PUNCT
    words.discard("")
    bad = {word for word in words if not (word[0].isalpha() or word[0] == "_" or word[0].isdecimal())}
    if bad:
        index = next(index for index, token in enumerate(tokens) if token in bad)
        raise ParseError(*_position(text, index), "a token", repr(tokens[index][0]))
    return tokens


class _Parser:
    """Recursive descent over ``_scan``'s token texts; ``pos`` indexes the
    next token.  Positions are worked out only for errors."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _scan(text)
        self.pos = 0

    def fail(self, expected: str, index: int | None = None) -> ParseError:
        index = self.pos if index is None else index
        token = self.tokens[index]
        found = repr(token) if token else "end of input"
        return ParseError(*_position(self.text, index), expected, found)

    def invalid(self, index: int, message: str) -> ValidationError:
        return ValidationError(*_position(self.text, index), message)

    def at(self, token: str) -> bool:
        return self.tokens[self.pos] == token

    def expect(self, token: str) -> None:
        """Consume one punctuation token or keyword."""
        if self.tokens[self.pos] != token:
            raise self.fail(repr(token))
        self.pos += 1

    def expect_name(self, what: str = "a name") -> int:
        """Consume a name; return its token index."""
        first = self.tokens[self.pos][:1]
        if not (first.isalpha() or first == "_"):
            raise self.fail(what)
        self.pos += 1
        return self.pos - 1

    def skip_separators(self) -> None:
        while self.tokens[self.pos] == ";":
            self.pos += 1

    def expect_int(self) -> int:
        tokens = self.tokens
        negative = tokens[self.pos] == "-"
        if negative:
            self.pos += 1
        token = tokens[self.pos]
        if not token[:1].isdecimal():
            raise self.fail("an integer")
        self.pos += 1
        return -int(token) if negative else int(token)

    # --- document -----------------------------------------------------

    def parse_doc(self) -> GameDoc:
        players = DEFAULT_PLAYERS
        if self.at("players"):
            self.pos += 1
            first = self.tokens[self.expect_name("a player name")]
            second = self.tokens[self.expect_name("a player name")]
            players = (first, second)
        kind = self.tokens[self.pos]
        if kind not in ("finite", "cyclic", "param", "matrix"):
            raise self.fail("'finite', 'cyclic', 'param' or 'matrix'")
        self.pos += 1
        if kind == "finite":
            game: Game = self.parse_finite(players)
        elif kind == "matrix":
            game = self.parse_matrix()
        else:
            game = self.parse_graph(players, parametric=kind == "param")
        if self.tokens[self.pos]:
            raise self.fail("end of input")
        return GameDoc(players, game)

    def owner_index(self, index: int, players: tuple[str, str]) -> int:
        name = self.tokens[index]
        if name not in players:
            raise self.invalid(index, f"unknown player {name!r} (players are {players})")
        return players.index(name)

    # --- finite trees -------------------------------------------------

    def parse_finite(self, players: tuple[str, str]) -> FiniteGame:
        self.expect("{")
        tree = self.parse_tree(players)
        self.expect("}")
        return tree

    def parse_leaf_int(self) -> Leaf:
        self.expect("(")
        first = self.expect_int()
        self.expect(",")
        second = self.expect_int()
        self.expect(")")
        return Leaf((first, second))

    def parse_tree(self, players: tuple[str, str]) -> FiniteGame:
        """``tree`` with an explicit stack of open decision nodes, so any
        depth parses.  ``TreeIndex``'s steps lay out the tree's ``index`` as it is read.

        The common shapes ``Owner {``, ``label ->``, ``leaf ( d , d )`` and
        ``;`` are matched in place at a local position; anything else goes
        through ``expect*`` at that position, which consumes the token or
        raises.  A look-ahead stops at the first token that differs, and
        only the final token is empty, so it never reads past the end."""
        tokens = self.tokens
        index = TreeIndex()
        first_player, second_player = players
        leaves: dict[tuple[str, str], Leaf] = {}  # one leaf per payoff pair written as plain digits
        # The innermost open decision node: its owner, its branches so far,
        # their labels, and the label of the branch it hangs from; the same
        # for each enclosing node is kept in ``frames``.  No node is open
        # while ``branches`` is None.
        owner, branches, seen, into = -1, None, set(), None
        frames: list = []
        label: str | None = None  # the label of the branch being read
        pos = self.pos
        while True:
            token = tokens[pos]
            if token == "leaf":
                if (
                    tokens[pos + 1] == "("
                    and tokens[pos + 2].isdecimal()
                    and tokens[pos + 3] == ","
                    and tokens[pos + 4].isdecimal()
                    and tokens[pos + 5] == ")"
                ):
                    key = (tokens[pos + 2], tokens[pos + 4])
                    sub: FiniteGame | None = leaves.get(key)
                    if sub is None:
                        sub = leaves[key] = Leaf((int(key[0]), int(key[1])))
                    pos += 6
                else:
                    self.pos = pos + 1
                    sub = self.parse_leaf_int()
                    pos = self.pos
                index.leaf(sub.outcome, label)
            else:
                mover = 0 if token == first_player else 1 if token == second_player else -1
                if mover >= 0 and tokens[pos + 1] == "{":
                    pos += 2
                else:
                    self.pos = pos
                    mover = self.owner_index(self.expect_name("'leaf' or a player name"), players)
                    self.expect("{")
                    pos = self.pos
                index.open(mover, label)
                frames.append((owner, branches, seen, into))
                owner, branches, seen, into = mover, [], set(), label
                sub = None
            while True:
                if sub is not None:
                    if branches is None:
                        self.pos = pos
                        index.attach(sub)
                        return sub
                    branches.append((label, sub))
                    while tokens[pos] == ";":
                        pos += 1
                token = tokens[pos]
                if token == "}":
                    if not branches:
                        self.pos = pos
                        raise self.fail("at least one branch")
                    pos += 1
                    sub = Node(owner, tuple(branches))
                    index.close()
                    label = into
                    owner, branches, seen, into = frames.pop()
                    continue
                first = token[:1]
                if (first.isalpha() or first == "_") and token not in seen and tokens[pos + 1] == "->":
                    pos += 2
                else:
                    self.pos = pos
                    self.expect_name("an action label")
                    if token in seen:
                        raise self.invalid(pos, f"duplicate branch label {token!r}")
                    self.expect("->")
                    pos = self.pos
                seen.add(token)
                label = token
                break

    # --- cyclic and parametric graphs ----------------------------------

    def parse_affine(self) -> tuple[int, int]:
        """``AFFINE`` as its constant and its slope."""
        const = self.expect_int()
        token = self.tokens[self.pos]
        if token in ("+", "-"):
            sign = 1 if token == "+" else -1
            self.pos += 1
            magnitude = self.expect_int()
            self.expect("*")
            name = self.expect_name("'n'")
            if self.tokens[name] != "n":
                raise self.fail("'n'", name)
            return const, sign * magnitude
        return const, 0

    def parse_graph(self, players: tuple[str, str], parametric: bool) -> Game:
        from . import parametric as par
        if parametric:
            make_point, make_game = par.Shape, par.ParametricGame
        else:
            from . import cyclic as cy
            make_point, make_game = cy.CyclicNode, cy.CyclicGame
        tokens = self.tokens
        self.expect("start")
        self.expect("=")
        start = self.expect_name("a node name")
        self.expect("{")
        definitions: dict[str, object] = {}
        references: list[int] = []
        while not self.at("}"):
            name = self.expect_name("a node name")
            if tokens[name] in definitions:
                raise self.invalid(name, f"node {tokens[name]!r} defined twice")
            self.expect(":")
            owner = self.owner_index(self.expect_name("a player name"), players)
            self.expect("{")
            edges: list[tuple[str, object]] = []
            seen: set[str] = set()
            while not self.at("}"):
                label = self.expect_name("an action label")
                if tokens[label] in seen:
                    raise self.invalid(label, f"duplicate edge label {tokens[label]!r}")
                seen.add(tokens[label])
                self.expect("->")
                if self.at("leaf"):
                    self.pos += 1
                    if parametric:
                        self.expect("(")
                        first = par.AffineValue(*self.parse_affine())
                        self.expect(",")
                        second = par.AffineValue(*self.parse_affine())
                        self.expect(")")
                        target: object = par.AffineLeaf((first, second))
                    else:
                        target = self.parse_leaf_int()
                elif parametric:
                    self.expect("advance")
                    ref = self.expect_name("a shape name")
                    references.append(ref)
                    target = par.Advance(tokens[ref])
                else:
                    ref = self.expect_name("a node name or 'leaf'")
                    references.append(ref)
                    target = tokens[ref]
                edges.append((tokens[label], target))
                self.skip_separators()
            if not edges:
                raise self.fail("at least one edge")
            self.expect("}")
            definitions[tokens[name]] = make_point(owner, tuple(edges))  # type: ignore[arg-type]
            self.skip_separators()
        if not definitions:
            raise self.fail("at least one node definition")
        self.expect("}")
        for ref in references:
            if tokens[ref] not in definitions:
                raise self.invalid(ref, f"undefined node {tokens[ref]!r}")
        if tokens[start] not in definitions:
            raise self.invalid(start, f"undefined start node {tokens[start]!r}")
        return make_game(definitions, tokens[start])  # type: ignore[arg-type]

    # --- matrices -------------------------------------------------------

    def at_rational_start(self) -> bool:
        token = self.tokens[self.pos]
        return token[:1].isdecimal() or token == "-"

    def parse_matrix(self) -> MatrixGame:
        from fractions import Fraction

        def parse_rational() -> Fraction:
            numerator = self.expect_int()
            if self.at("/"):
                self.pos += 1
                index = self.pos
                denominator = self.expect_int()
                if denominator == 0:
                    raise self.invalid(index, "zero denominator")
                return Fraction(numerator, denominator)
            return Fraction(numerator)

        self.expect("sum")
        self.expect("=")
        total = parse_rational()
        self.expect("{")
        rows: list[tuple[Fraction, ...]] = []
        width: int | None = None
        while True:
            row: list[Fraction] = []
            while self.at_rational_start():
                if width is not None and len(row) == width:
                    raise self.fail(f"';' after {width} entries")
                row.append(parse_rational())
            if not row:
                raise self.fail("a matrix entry")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise self.fail(f"a row of {width} entries")
            rows.append(tuple(row))
            if self.at(";"):
                self.pos += 1
                continue
            break
        self.expect("}")
        from . import matrix

        return matrix.MatrixGame(tuple(rows), total)


def parse(text: str) -> GameDoc:
    """Parse a ``.game`` document; structural problems are parse-time errors."""
    return _Parser(text).parse_doc()


# --- serialization ------------------------------------------------------


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
        decisions = {label for names in set(index.labels) for label in names}
        outcomes = set(index.outcomes)
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
        decisions = {label for labels in game.labels.values() for label in labels}
        outcomes = set()  # the constructor takes pairs only
        keyword = None
    else:
        return
    for outcome in outcomes:
        if outcome is not None and len(outcome) != 2:
            raise Unwritable(f"payoff vector {outcome!r} is not a pair")
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
    lines = ["digraph game {"]
    nodes: list[str] = []
    edges: list[str] = []
    fresh = (f"n{number}" for number in itertools.count())  # node names in creation order
    game = doc.game
    kind = getattr(game, "KIND", None)
    if kind == "finite":
        require_two_players(game)
        index = game.index
        picks = None if highlight is None else chosen_branches(game, highlight)  # type: ignore[arg-type]
        owners = [_dot_escape(player) for player in doc.players]
        for position, outcome in enumerate(index.outcomes):
            if outcome is None:
                label = owners[index.owners[position]]  # type: ignore[index]
            else:
                label = ",".join(map(str, outcome))
            nodes.append(f'  n{position} [label="{label}"];')
        children, labels = index.children, index.labels
        escaped = {name: _dot_escape(name) for names in set(labels) for name in names}

        def edge(parent: int, position: int) -> str:
            bold = _HIGHLIGHT if picks is not None and picks[parent] == position else ""
            label = escaped[labels[parent][position]]
            return f'  n{parent} -> n{children[parent][position]} [label="{label}"{bold}];'

        # An edge is written once its child's subtree is done.  One frame per
        # open decision node: its index and the position of its next branch.
        stack = [(0, 0)]
        while stack:
            parent, position = stack.pop()
            if position:  # back from the subtree of branch position - 1
                edges.append(edge(parent, position - 1))
            kids = children[parent]
            while position < len(kids):
                position += 1
                if children[kids[position - 1]]:
                    stack.append((parent, position))
                    stack.append((kids[position - 1], 0))
                    break
                edges.append(edge(parent, position - 1))
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
                bold = (
                    _HIGHLIGHT
                    if highlight is not None and highlight[name] == label  # type: ignore[index]
                    else ""
                )
                edges.append(f'  {idents[name]} -> {child} [label="{_dot_escape(label)}"{bold}];')
    elif kind == "matrix":
        if highlight is not None:
            raise ShapeMismatch("matrix games have no highlightable profile")
        ident = next(fresh)
        label = f"matrix {game.rows}x{game.cols} sum={_serialize_rational(game.total)}"
        nodes.append(f'  {ident} [label="{_dot_escape(label)}"];')
    else:
        raise TypeError(f"unsupported game kind: {type(game).__name__}")

    lines.extend(nodes)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# --- profile files --------------------------------------------------------


def render_tree_path(path: tuple[str, ...]) -> str:
    return " ".join(path) if path else "."


def parse_profile_text(text: str, game: Game) -> dict:
    """Parse ``key = action`` lines into a profile for ``game``.

    Keys are node/shape names for graph games and space-separated action
    paths for finite trees, with ``.`` standing for the root.  ``#`` starts
    a comment; blank lines are ignored.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = action'")
        key, _, action = line.partition("=")
        key, action = key.strip(), action.strip()
        if not key or not action:
            raise ValueError(f"line {lineno}: expected 'key = action'")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = action
    if isinstance(game, (Leaf, Node)):
        profile = {
            (() if key == "." else tuple(key.split())): action for key, action in entries.items()
        }
        chosen_branches(game, profile)
        return profile
    if game.KIND in _GRAPHS:
        game.check_profile(entries)
        return entries
    raise ShapeMismatch("matrix games take no profile")


def render_profile(game: Game, profile: AnyProfile) -> str:
    """Canonical profile-file text for ``game``; the profile must fit the
    game as ``parse_profile_text`` requires."""
    if isinstance(game, (Leaf, Node)):
        chosen_branches(game, profile)  # type: ignore[arg-type]
        lines = [
            f"{render_tree_path(path)} = {profile[path]}"  # type: ignore[index]
            for path in node_paths(game)
        ]
    elif game.KIND in _GRAPHS:
        game.check_profile(profile)  # type: ignore[arg-type]
        lines = [f"{name} = {profile[name]}" for name in game.shapes]  # type: ignore[index]
    else:
        raise ShapeMismatch("matrix games take no profile")
    return "\n".join(lines) + "\n" if lines else ""
