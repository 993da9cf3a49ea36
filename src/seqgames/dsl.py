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

Here are the scanner and the token reader; the readers ``parse`` tries first
(``_READERS``, by the start of the second line that holds a token) live with
their kernels, and the writers in ``dsl_write``, all loaded on first use.  A
tree whose second line with a token starts with ``finite `` goes to
``finite.parse_tree_lines``, which takes one node, branch or ``}`` per line,
reads each distinct line once and lays out the index as it goes.  A graph or
matrix document in exactly the layout ``serialize`` writes is read with ``str``
methods, one line at a time (``parametric.parse_canonical_graph``) or one row
(``matrix.parse_canonical_matrix``).  Any other text, any text those readers
decline, and every error go through the scanner and the token reader.
"""

from __future__ import annotations

import itertools
import re
import sys

from . import _loader
from .core import (
    DEFAULT_PLAYERS, FiniteGame, InvalidArgument, Leaf, Node, Record, ShapeMismatch, TreeProfile, chosen_branches,
)

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING`` without loading ``typing``
if TYPE_CHECKING:
    from .matrix import MatrixGame
    from .parametric import ParametricGame, StationaryProfile

    Game = FiniteGame | ParametricGame | MatrixGame  # a CyclicGame is a ParametricGame
    AnyProfile = TreeProfile | StationaryProfile

_GRAPHS = ("cyclic", "param")

# Loaded on first use through ``_lazy``, this module: the writers, and the readers ``parse`` tries first.
_LAZY = {**dict.fromkeys(("Unwritable", "render_profile", "serialize", "to_dot"), "dsl_write"),
         "parse_canonical_graph": "parametric", "parse_canonical_matrix": "matrix", "parse_tree_lines": "finite"}
# ``parse``'s reader before the token reader, by the start of the second line with a token up to its first blank.
_READERS = {"cyclic ": "parse_canonical_graph", "param ": "parse_canonical_graph", "matrix ": "parse_canonical_matrix",
            "finite ": "parse_tree_lines"}
__getattr__, __dir__ = _loader(globals(), _LAZY)
_lazy = sys.modules[__name__]


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
_SCAN = re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*(->|[{}(),;:=+\-*/]|\d+|\w+|.|\Z)")


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


def _lines(text: str) -> list[str]:
    """The lines of ``text`` that hold more than blanks, tabs and CRs, each from its first other character.
    ``str.lstrip()`` strips those three fast, so it is used on a text without the other blanks it strips."""
    lines = text.split("\n")
    if text.isascii() and not any(blank in text for blank in "\x0b\x0c\x1c\x1d\x1e\x1f"):
        return list(filter(None, map(str.lstrip, lines)))
    return list(filter(None, [line.lstrip(" \t\r") for line in lines]))


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
        """Consume ``INT``; a ``ParseError`` at its digits if it has more than
        ``int`` reads (``sys.get_int_max_str_digits``)."""
        negative = self.at("-")
        if negative:
            self.pos += 1
        digits = self.tokens[self.pos]
        if not digits[:1].isdecimal():
            raise self.fail("an integer")
        try:
            value = int(digits)
        except ValueError:  # the only one a run of decimal digits raises
            expected = f"an integer of at most {sys.get_int_max_str_digits()} digits"
            raise ParseError(*_position(self.text, self.pos), expected, f"one of {len(digits)}") from None
        self.pos += 1
        return -value if negative else value

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
            from .matrix import parse_matrix
            game = parse_matrix(self)
        else:
            from .parametric import parse_graph
            game = parse_graph(self, players, parametric=kind == "param")
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
        """``tree`` with an explicit stack of open decision nodes, so any depth
        parses; it builds ``Leaf``s and ``Node``s and nothing else, and leaves
        the ``index`` to its first use.  A tree text ``parse`` hands to the line
        reader (``finite.parse_tree_lines``) comes here only if it declines."""
        tokens = self.tokens
        frames: list[tuple[int, dict[str, FiniteGame]]] = []  # each open node's owner and branches so far
        labels: list[str] = []  # the label of the branch being read, per frame
        while True:
            if self.at("leaf"):
                self.pos += 1
                sub: FiniteGame | None = self.parse_leaf_int()
            else:
                owner = self.owner_index(self.expect_name("'leaf' or a player name"), players)
                self.expect("{")
                frames.append((owner, {}))
                sub = None
            while True:
                if sub is not None:
                    if not frames:
                        return sub
                    frames[-1][1][labels.pop()] = sub
                    self.skip_separators()
                owner, branches = frames[-1]
                if self.at("}"):
                    if not branches:
                        raise self.fail("at least one branch")
                    self.pos += 1
                    frames.pop()
                    sub = Node(owner, tuple(branches.items()))
                    continue
                index = self.expect_name("an action label")
                if tokens[index] in branches:
                    raise self.invalid(index, f"duplicate branch label {tokens[index]!r}")
                self.expect("->")
                labels.append(tokens[index])
                break


def parse(text: str) -> GameDoc:
    """Parse a ``.game`` document; structural problems are parse-time errors.  A tree one line at a time, and a
    graph or matrix document in exactly the layout ``serialize`` writes, are read by the reader ``_READERS``
    picks; any text it declines, and every error, by the token reader."""
    line = text.find("\n") + 1  # the second line, or a text of one line
    if text[:1] == "#" or text[:line].isspace():  # a comment or a blank line first: the line after the first token
        line = text.find("\n", _SCAN.match(text).start(1)) + 1 or len(text)
    reader = _READERS.get(text[line:text.find(" ", line, line + 7) + 1])  # "" when no blank is near
    if reader is None and text[line:line + 1] in "#\n\r\t ":  # a comment or a blank there: the next line with a token
        line = _SCAN.match(text, line).start(1)
        reader = _READERS.get(text[line:text.find(" ", line, line + 7) + 1])
    if reader is not None and (read := getattr(_lazy, reader)(text)) is not None:
        return GameDoc(*read)
    return _Parser(text).parse_doc()


# --- profile files --------------------------------------------------------


def render_tree_path(path: tuple[str, ...]) -> str:
    return " ".join(path) if path else "."


def _own_paths(game: FiniteGame) -> dict:
    """The decision paths of ``game.index`` by the key ``parse_profile_text`` reads as each, so that a profile it
    reads is keyed by the index's own paths; empty for a tree with a label its key would not give back: one that is
    no ``str``, is empty or holds a blank, or a ``.`` under the root."""
    index = game.index
    names = set(itertools.chain.from_iterable(dict.fromkeys(index.labels)))  # each tuple of labels once
    if "." in index.labels[0] or not all(isinstance(name, str) and name.split() == [name] for name in names):
        return {}
    return {render_tree_path(path): path for path in index.paths if path is not None}


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
            raise InvalidArgument(f"line {lineno}: expected 'key = action'")
        key, _, action = line.partition("=")
        key, action = key.strip(), action.strip()
        if not key or not action:
            raise InvalidArgument(f"line {lineno}: expected 'key = action'")
        if key in entries:
            raise InvalidArgument(f"line {lineno}: duplicate key {key!r}")
        entries[key] = action
    if isinstance(game, (Leaf, Node)):
        own = _own_paths(game)
        profile = {
            own[key] if key in own else () if key == "." else tuple(key.split()): action
            for key, action in entries.items()
        }
        chosen_branches(game, profile)
        return profile
    if game.KIND in _GRAPHS:
        game.check_profile(entries)
        return entries
    raise ShapeMismatch("matrix games take no profile")

