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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    DEFAULT_PLAYERS,
    FiniteGame,
    Leaf,
    Node,
    ShapeMismatch,
    TreeProfile,
    check_profile,
    node_paths,
)
from .cyclic import CyclicGame, CyclicNode, PositionalProfile, check_positional
from .matrix import MatrixGame
from .parametric import (
    Advance,
    AffineLeaf,
    AffineValue,
    ParametricGame,
    Shape,
    StationaryProfile,
    check_stationary,
)

Game = Union[FiniteGame, CyclicGame, ParametricGame, MatrixGame]


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


@dataclass(frozen=True)
class GameDoc:
    players: tuple[str, str]
    game: Game


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    column: int


_PUNCT = {"{", "}", "(", ")", ",", ";", ":", "=", "+", "-", "*", "/"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
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
            tokens.append(_Token("punct", "->", line, start_col))
            i += 2
            column += 2
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, start_col))
            i += 1
            column += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            column += j - i
            i = j
            continue
        raise ParseError(line, start_col, "a token", repr(ch))
    tokens.append(_Token("eof", "", line, column))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def fail(self, expected: str, token: _Token | None = None) -> ParseError:
        token = token or self.peek()
        found = "end of input" if token.kind == "eof" else repr(token.text)
        return ParseError(token.line, token.column, expected, found)

    def expect_punct(self, text: str) -> _Token:
        token = self.peek()
        if token.kind != "punct" or token.text != text:
            raise self.fail(repr(text))
        return self.advance()

    def expect_name(self, what: str = "a name") -> _Token:
        token = self.peek()
        if token.kind != "name":
            raise self.fail(what)
        return self.advance()

    def expect_keyword(self, word: str) -> _Token:
        token = self.peek()
        if token.kind != "name" or token.text != word:
            raise self.fail(repr(word))
        return self.advance()

    def at_name(self, word: str | None = None) -> bool:
        token = self.peek()
        return token.kind == "name" and (word is None or token.text == word)

    def skip_separators(self) -> None:
        while self.peek().kind == "punct" and self.peek().text == ";":
            self.advance()

    def expect_int(self) -> int:
        negative = False
        if self.peek().kind == "punct" and self.peek().text == "-":
            self.advance()
            negative = True
        token = self.peek()
        if token.kind != "int":
            raise self.fail("an integer")
        self.advance()
        value = int(token.text)
        return -value if negative else value

    # --- document -----------------------------------------------------

    def parse_doc(self) -> GameDoc:
        players = DEFAULT_PLAYERS
        if self.at_name("players"):
            self.advance()
            first = self.expect_name("a player name").text
            second = self.expect_name("a player name").text
            players = (first, second)
        token = self.peek()
        if self.at_name("finite"):
            self.advance()
            game: Game = self.parse_finite(players)
        elif self.at_name("cyclic"):
            self.advance()
            game = self.parse_graph(players, parametric=False)
        elif self.at_name("param"):
            self.advance()
            game = self.parse_graph(players, parametric=True)
        elif self.at_name("matrix"):
            self.advance()
            game = self.parse_matrix()
        else:
            raise self.fail("'finite', 'cyclic', 'param' or 'matrix'", token)
        token = self.peek()
        if token.kind != "eof":
            raise self.fail("end of input", token)
        return GameDoc(players, game)

    def owner_index(self, token: _Token, players: tuple[str, str]) -> int:
        if token.text not in players:
            raise ValidationError(
                token.line, token.column, f"unknown player {token.text!r} (players are {players})"
            )
        return players.index(token.text)

    # --- finite trees -------------------------------------------------

    def parse_finite(self, players: tuple[str, str]) -> FiniteGame:
        self.expect_punct("{")
        tree = self.parse_tree(players)
        self.expect_punct("}")
        return tree

    def parse_leaf_int(self) -> Leaf:
        self.expect_punct("(")
        first = self.expect_int()
        self.expect_punct(",")
        second = self.expect_int()
        self.expect_punct(")")
        return Leaf((first, second))

    def parse_tree(self, players: tuple[str, str]) -> FiniteGame:
        if self.at_name("leaf"):
            self.advance()
            return self.parse_leaf_int()
        owner_token = self.expect_name("'leaf' or a player name")
        owner = self.owner_index(owner_token, players)
        self.expect_punct("{")
        branches: list[tuple[str, FiniteGame]] = []
        seen: dict[str, _Token] = {}
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            label_token = self.expect_name("an action label")
            if label_token.text in seen:
                raise ValidationError(
                    label_token.line,
                    label_token.column,
                    f"duplicate branch label {label_token.text!r}",
                )
            seen[label_token.text] = label_token
            self.expect_punct("->")
            branches.append((label_token.text, self.parse_tree(players)))
            self.skip_separators()
        if not branches:
            raise self.fail("at least one branch")
        self.expect_punct("}")
        return Node(owner, tuple(branches))

    # --- cyclic and parametric graphs ----------------------------------

    def parse_affine(self) -> AffineValue:
        const = self.expect_int()
        token = self.peek()
        if token.kind == "punct" and token.text in "+-":
            sign = 1 if token.text == "+" else -1
            self.advance()
            magnitude = self.expect_int()
            self.expect_punct("*")
            name = self.expect_name("'n'")
            if name.text != "n":
                raise ParseError(name.line, name.column, "'n'", repr(name.text))
            return AffineValue(const, sign * magnitude)
        return AffineValue(const, 0)

    def parse_leaf_affine(self) -> AffineLeaf:
        self.expect_punct("(")
        first = self.parse_affine()
        self.expect_punct(",")
        second = self.parse_affine()
        self.expect_punct(")")
        return AffineLeaf((first, second))

    def parse_graph(self, players: tuple[str, str], parametric: bool) -> Game:
        self.expect_keyword("start")
        self.expect_punct("=")
        start_token = self.expect_name("a node name")
        self.expect_punct("{")
        definitions: dict[str, object] = {}
        reference_tokens: list[_Token] = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            name_token = self.expect_name("a node name")
            if name_token.text in definitions:
                raise ValidationError(
                    name_token.line, name_token.column, f"node {name_token.text!r} defined twice"
                )
            self.expect_punct(":")
            owner = self.owner_index(self.expect_name("a player name"), players)
            self.expect_punct("{")
            edges: list[tuple[str, object]] = []
            seen: set[str] = set()
            while not (self.peek().kind == "punct" and self.peek().text == "}"):
                label_token = self.expect_name("an action label")
                if label_token.text in seen:
                    raise ValidationError(
                        label_token.line,
                        label_token.column,
                        f"duplicate edge label {label_token.text!r}",
                    )
                seen.add(label_token.text)
                self.expect_punct("->")
                if self.at_name("leaf"):
                    self.advance()
                    target: object = (
                        self.parse_leaf_affine() if parametric else self.parse_leaf_int()
                    )
                elif parametric:
                    self.expect_keyword("advance")
                    ref = self.expect_name("a shape name")
                    reference_tokens.append(ref)
                    target = Advance(ref.text)
                else:
                    ref = self.expect_name("a node name or 'leaf'")
                    reference_tokens.append(ref)
                    target = ref.text
                edges.append((label_token.text, target))
                self.skip_separators()
            if not edges:
                raise self.fail("at least one edge")
            self.expect_punct("}")
            if parametric:
                definitions[name_token.text] = Shape(owner, tuple(edges))  # type: ignore[arg-type]
            else:
                definitions[name_token.text] = CyclicNode(owner, tuple(edges))  # type: ignore[arg-type]
            self.skip_separators()
        if not definitions:
            raise self.fail("at least one node definition")
        self.expect_punct("}")
        for ref in reference_tokens:
            if ref.text not in definitions:
                raise ValidationError(ref.line, ref.column, f"undefined node {ref.text!r}")
        if start_token.text not in definitions:
            raise ValidationError(
                start_token.line, start_token.column, f"undefined start node {start_token.text!r}"
            )
        if parametric:
            return ParametricGame(definitions, start_token.text)  # type: ignore[arg-type]
        return CyclicGame(definitions, start_token.text)  # type: ignore[arg-type]

    # --- matrices -------------------------------------------------------

    def parse_rational(self) -> Fraction:
        numerator = self.expect_int()
        if self.peek().kind == "punct" and self.peek().text == "/":
            self.advance()
            denominator_token = self.peek()
            denominator = self.expect_int()
            if denominator == 0:
                raise ValidationError(
                    denominator_token.line, denominator_token.column, "zero denominator"
                )
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    def at_rational_start(self) -> bool:
        token = self.peek()
        return token.kind == "int" or (token.kind == "punct" and token.text == "-")

    def parse_matrix(self) -> MatrixGame:
        self.expect_keyword("sum")
        self.expect_punct("=")
        total = self.parse_rational()
        self.expect_punct("{")
        rows: list[tuple[Fraction, ...]] = []
        width: int | None = None
        while True:
            row: list[Fraction] = []
            while self.at_rational_start():
                if width is not None and len(row) == width:
                    token = self.peek()
                    raise ParseError(
                        token.line, token.column, f"';' after {width} entries", repr(token.text)
                    )
                row.append(self.parse_rational())
            if not row:
                raise self.fail("a matrix entry")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise self.fail(f"a row of {width} entries")
            rows.append(tuple(row))
            if self.peek().kind == "punct" and self.peek().text == ";":
                self.advance()
                continue
            break
        self.expect_punct("}")
        return MatrixGame(tuple(rows), total)


def parse(text: str) -> GameDoc:
    """Parse a ``.game`` document; structural problems are parse-time errors."""
    return _Parser(text).parse_doc()


# --- serialization ------------------------------------------------------


def _serialize_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _serialize_branches(
    tree: Node, players: tuple[str, str], indent: int, out: list[str]
) -> None:
    pad = "  " * indent
    for label, child in tree.branches:
        if isinstance(child, Leaf):
            out.append(f"{pad}{label} -> leaf({child.outcome[0]},{child.outcome[1]})")
        else:
            out.append(f"{pad}{label} -> {players[child.owner]} {{")
            _serialize_branches(child, players, indent + 1, out)
            out.append(f"{pad}}}")


def serialize(doc: GameDoc) -> str:
    """Canonical text: explicit header, 2-space indents, LF endings."""
    out: list[str] = [f"players {doc.players[0]} {doc.players[1]}"]
    game = doc.game
    if isinstance(game, (Leaf, Node)):
        out.append("finite {")
        if isinstance(game, Leaf):
            out.append(f"  leaf({game.outcome[0]},{game.outcome[1]})")
        else:
            out.append(f"  {doc.players[game.owner]} {{")
            _serialize_branches(game, doc.players, 2, out)
            out.append("  }")
        out.append("}")
    elif isinstance(game, CyclicGame):
        out.append(f"cyclic start={game.start} {{")
        for name, node in game.nodes.items():
            out.append(f"  {name}: {doc.players[node.owner]} {{")
            for label, target in node.edges:
                if isinstance(target, Leaf):
                    out.append(f"    {label} -> leaf({target.outcome[0]},{target.outcome[1]})")
                else:
                    out.append(f"    {label} -> {target}")
            out.append("  }")
        out.append("}")
    elif isinstance(game, ParametricGame):
        out.append(f"param start={game.start} {{")
        for name, shape in game.shapes.items():
            out.append(f"  {name}: {doc.players[shape.owner]} {{")
            for label, target in shape.moves:
                if isinstance(target, AffineLeaf):
                    out.append(f"    {label} -> leaf({target.outcome[0]},{target.outcome[1]})")
                else:
                    out.append(f"    {label} -> advance {target.shape}")
            out.append("  }")
        out.append("}")
    elif isinstance(game, MatrixGame):
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


AnyProfile = Union[TreeProfile, PositionalProfile, StationaryProfile]


def to_dot(doc: GameDoc, highlight: AnyProfile | None = None) -> str:
    """DOT digraph with deterministic node names (preorder/declaration index).

    Decision nodes show player names, leaves show outcome tuples, edges show
    action labels; the edges a highlighted profile chooses are emitted with
    ``penwidth=2,style=bold``.
    """
    lines = ["digraph game {"]
    nodes: list[str] = []
    edges: list[str] = []
    counter = 0

    def fresh() -> str:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        return name

    game = doc.game
    if isinstance(game, (Leaf, Node)):
        profile: TreeProfile | None = highlight  # type: ignore[assignment]
        if profile is not None:
            check_profile(game, profile)

        def walk(sub: FiniteGame, path: tuple[str, ...]) -> str:
            ident = fresh()
            if isinstance(sub, Leaf):
                nodes.append(f'  {ident} [label="{",".join(map(str, sub.outcome))}"];')
                return ident
            nodes.append(f'  {ident} [label="{_dot_escape(doc.players[sub.owner])}"];')
            for label, child in sub.branches:
                child_id = walk(child, path + (label,))
                bold = _HIGHLIGHT if profile is not None and profile[path] == label else ""
                edges.append(f'  {ident} -> {child_id} [label="{_dot_escape(label)}"{bold}];')
            return ident

        walk(game, ())
    elif isinstance(game, (CyclicGame, ParametricGame)):
        if highlight is not None:
            (check_positional if isinstance(game, CyclicGame) else check_stationary)(game, highlight)
        graph = game.embedding if isinstance(game, CyclicGame) else game
        idents = {name: fresh() for name in graph.shapes}
        for name, shape in graph.shapes.items():
            label = f"{name}: {doc.players[shape.owner]}"
            nodes.append(f'  {idents[name]} [label="{_dot_escape(label)}"];')
        for name, shape in graph.shapes.items():
            for label, target in shape.moves:
                if isinstance(target, AffineLeaf):
                    child = fresh()
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
    elif isinstance(game, MatrixGame):
        if highlight is not None:
            raise ShapeMismatch("matrix games have no highlightable profile")
        ident = fresh()
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
        check_profile(game, profile)
        return profile
    if isinstance(game, CyclicGame):
        check_positional(game, entries)
        return entries
    if isinstance(game, ParametricGame):
        check_stationary(game, entries)
        return entries
    raise ShapeMismatch("matrix games take no profile")


def render_profile(game: Game, profile: AnyProfile) -> str:
    """Canonical profile-file text for ``game``."""
    if isinstance(game, (Leaf, Node)):
        lines = [
            f"{render_tree_path(path)} = {profile[path]}"  # type: ignore[index]
            for path in node_paths(game)
        ]
    elif isinstance(game, CyclicGame):
        lines = [f"{name} = {profile[name]}" for name in game.nodes]  # type: ignore[index]
    elif isinstance(game, ParametricGame):
        lines = [f"{name} = {profile[name]}" for name in game.shapes]  # type: ignore[index]
    else:
        raise ShapeMismatch("matrix games take no profile")
    return "\n".join(lines) + "\n" if lines else ""
