"""Parser, canonical serializer, DOT export: round-trips and error positions."""

from __future__ import annotations

import inspect
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from helpers import (
    big_random_tree,
    chain01,
    deep_random_tree,
    graph_documents,
    index_slots,
    loop01,
    matrix_documents,
    pennies_seq,
    random_cyclic,
    random_matrix,
    random_parametric,
    random_tree,
    read_both_ways,
    reference_tokenize,
    referee_canonical_reader,
    reference_lines,
    ring,
    scan_tokenize,
    tree_documents,
    walked_index_slots,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgames import dsl, dsl_write
from seqgames.core import GameError, Leaf, MalformedGame, Node, NotTwoPlayer, ShapeMismatch, TreeIndex, leaf, node
from seqgames.dsl import (
    GameDoc,
    ParseError,
    Unwritable,
    ValidationError,
    parse,
    parse_profile_text,
    render_profile,
    serialize,
    to_dot,
)
from seqgames.finite import parse_tree_lines
from seqgames.matrix import MatrixGame, parse_canonical_matrix
from seqgames.parametric import (
    Advance,
    AffineLeaf,
    CyclicGame,
    CyclicNode,
    ParametricGame,
    Shape,
    affine,
    dollar_auction,
    parse_canonical_graph,
)

PLAYERS = ("Alice", "Bertrand")

GAME_FILES = [
    "matching_pennies_seq.game",
    "zero_one_7.game",
    "zero_one_6.game",
    "zero_one_cyclic.game",
    "zero_one_param.game",
    "dollar_auction_v100.game",
    "rps.game",
    "rps_zerosum.game",
    "matching_pennies_matrix.game",
]


def raised(call, *args) -> tuple[type, str] | None:
    """The exact type and text of the error ``call(*args)`` raises."""
    try:
        call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def count_leaves(game) -> int:
    if isinstance(game, Leaf):
        return 1
    return sum(count_leaves(child) for _label, child in game.branches)


class TestParse:
    def test_pennies_corpus_file(self, corpus_dir):
        doc = parse((corpus_dir / "matching_pennies_seq.game").read_text())
        assert doc.players == PLAYERS
        assert count_leaves(doc.game) == 8
        assert doc.game == pennies_seq()

    def test_chain_corpus_files(self, corpus_dir):
        assert parse((corpus_dir / "zero_one_7.game").read_text()).game == chain01(7)
        assert parse((corpus_dir / "zero_one_6.game").read_text()).game == chain01(6)

    def test_cyclic_corpus_file(self, corpus_dir):
        doc = parse((corpus_dir / "zero_one_cyclic.game").read_text())
        assert doc.game == loop01()
        assert isinstance(doc.game, CyclicGame)

    def test_one_line_cyclic_form(self):
        text = (
            "cyclic start=A { A: Alice { a -> leaf(0,1); c -> B } "
            "B: Bertrand { a -> leaf(1,0); c -> A } }"
        )
        assert parse(text).game == loop01()

    def test_auction_corpus_file(self, corpus_dir):
        doc = parse((corpus_dir / "dollar_auction_v100.game").read_text())
        assert doc.game == dollar_auction(100)

    @pytest.mark.parametrize("kind", ["cyclic", "param"])
    def test_a_graph_shares_one_record_per_payoff_pair_and_per_target(self, kind):
        game = ring(10) if kind == "cyclic" else ParametricGame(ring(10).shapes, "N0")
        parsed = parse(serialize(GameDoc(PLAYERS, game))).game
        assert parsed == game and repr(parsed) == repr(game)
        targets = [target for shape in parsed.shapes.values() for _label, target in shape.moves]
        assert len({id(target) for target in targets if target.LEAF}) == 2  # leaf(0,1) and leaf(1,0)
        assert len({id(target) for target in targets if not target.LEAF}) == 10  # one advance per node

    def test_leaf_only(self):
        doc = parse("finite { leaf(0,1) }")
        assert doc.players == PLAYERS  # defaults
        assert doc.game == leaf(0, 1)

    def test_matrix_one_liner(self):
        doc = parse("matrix sum=1 { 1 0 ; 0 1 }")
        assert isinstance(doc.game, MatrixGame)
        assert doc.game.payoffs == ((1, 0), (0, 1))
        assert parse(serialize(doc)) == doc

    def test_comments_and_custom_players(self):
        text = "# a comment\nplayers Col Rowena\nfinite { Col { x -> leaf(1,2) } }\n"
        doc = parse(text)
        assert doc.players == ("Col", "Rowena")
        assert doc.game == node(0, ("x", leaf(1, 2)))


class TestParseErrors:
    def test_position_is_one_based(self):
        with pytest.raises(ParseError) as err:
            parse("finite [ leaf(0,1) }")
        assert (err.value.line, err.value.column) == (1, 8)

    def test_position_on_later_line(self):
        with pytest.raises(ParseError) as err:
            parse("players Alice Bertrand\nfinite {\n  leaf(0 1)\n}")
        assert err.value.line == 3
        assert err.value.column == 10

    def test_unknown_player_is_validation_error(self):
        with pytest.raises(ValidationError):
            parse("finite { Carol { x -> leaf(0,1) } }")

    def test_duplicate_branch_label(self):
        with pytest.raises(ValidationError):
            parse("finite { Alice { c -> leaf(0,1) c -> leaf(1,0) } }")

    def test_outcome_of_wrong_length(self):
        with pytest.raises(ParseError) as err:
            parse("finite { Alice { a -> leaf(0,1) b -> leaf(1,0,0) } }")
        assert (err.value.line, err.value.column) == (1, 46)

    def test_decision_node_without_branches(self):
        with pytest.raises(ParseError) as err:
            parse("finite { Alice { } }")
        assert (err.value.line, err.value.column) == (1, 18)

    def test_dangling_node_reference(self):
        with pytest.raises(ValidationError):
            parse("cyclic start=A { A: Alice { c -> Z } }")

    def test_undefined_start(self):
        with pytest.raises(ValidationError):
            parse("cyclic start=Q { A: Alice { a -> leaf(0,1) } }")

    def test_duplicate_node_definition(self):
        with pytest.raises(ValidationError):
            parse(
                "cyclic start=A { A: Alice { a -> leaf(0,1) } A: Bertrand { a -> leaf(1,0) } }"
            )

    def test_ragged_matrix_row(self):
        with pytest.raises(ParseError):
            parse("matrix sum=1 { 1 0 ; 0 }")

    def test_zero_denominator(self):
        with pytest.raises(ValidationError):
            parse("matrix sum=1 { 1/0 }")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("finite { leaf(0,1) } extra")

    def test_validation_error_is_a_parse_error(self):
        assert issubclass(ValidationError, ParseError)

    @pytest.mark.parametrize("kind", ["cyclic", "param"])
    def test_duplicate_edge_label_in_a_graph(self, kind):
        text = f"{kind} start=A {{\n  A: Alice {{\n    a -> leaf(0,1)\n    a -> leaf(1,0)\n  }}\n}}\n"
        assert raised(parse, text) == (ValidationError, "4:5: duplicate edge label 'a'")

    def test_empty_graph_bodies(self):
        assert raised(parse, "cyclic start=A {\n  A: Alice { }\n}\n") == (
            ParseError,
            "2:14: expected at least one edge, found '}'",
        )
        assert raised(parse, "param start=A { }\n") == (
            ParseError,
            "1:17: expected at least one node definition, found '}'",
        )

    # Malformed graph documents of both kinds, each with the exact error the reader raises.
    # The kind decides the payoff grammar (INT or AFFINE) and whether a target starts with
    # ``advance``; every other fault is worded and placed the same way for both kinds.
    GRAPH_FAULTS = [
        ("cyclic start=A {\n  A: Alice {\n    a -> leaf(1+2*n,0)\n  }\n}\n",
         ParseError, "3:16: expected ',', found '+'"),  # a cyclic payoff has no slope
        ("cyclic start=A {\n  A: Alice {\n    a -> advance B\n  }\n  B: Bertrand {\n    b -> leaf(0,1)\n  }\n}\n",
         ValidationError, "3:10: a cyclic edge names its target node, without 'advance'"),
        ("cyclic start=A {\n  A: Alice {\n    a -> advance B; c -> leaf(1,1)\n  }\n  B: Bertrand {\n    b -> leaf(0,1)\n  }\n}\n",
         ValidationError, "3:10: a cyclic edge names its target node, without 'advance'"),
        ("cyclic start=A {\n  A: Alice {\n    a -> advance _x\n  }\n}\n",
         ValidationError, "3:10: a cyclic edge names its target node, without 'advance'"),
        ("param start=A {\n  A: Alice {\n    a -> B\n  }\n  B: Bertrand {\n    b -> leaf(0,1)\n  }\n}\n",
         ParseError, "3:10: expected 'advance', found 'B'"),
        ("param start=A {\n  A: Alice {\n    a -> leaf(0,1*n)\n  }\n}\n",
         ParseError, "3:18: expected ')', found '*'"),  # a slope follows a constant
        ("param start=A {\n  A: Alice {\n    a -> leaf(0-1*m,1)\n  }\n}\n",
         ParseError, "3:19: expected 'n', found 'm'"),
        ("cyclic start=A {\n  A: Alice {\n    a -> leaf(0,1,2)\n  }\n}\n",
         ParseError, "3:18: expected ')', found ','"),
        ("cyclic start=A {\n  A: Alice {\n    a -> A\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "4:5: duplicate edge label 'a'"),
        ("param start=A {\n  A: Alice {\n    a -> advance A\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "4:5: duplicate edge label 'a'"),
        ("cyclic start=A {\n  A: Alice {\n    a -> leaf(0,1)\n  }\n  A: Bertrand {\n    b -> leaf(1,0)\n  }\n}\n",
         ValidationError, "5:3: node 'A' defined twice"),
        ("param start=A {\n  A: Alice {\n    a -> leaf(0,1)\n  }\n  A: Bertrand {\n    b -> leaf(1,0)\n  }\n}\n",
         ValidationError, "5:3: node 'A' defined twice"),
        ("cyclic start=A {\n  A: Alice {\n    a -> Z\n  }\n}\n",
         ValidationError, "3:10: undefined node 'Z'"),
        ("param start=A {\n  A: Alice {\n    a -> advance Z\n  }\n}\n",
         ValidationError, "3:18: undefined node 'Z'"),
        ("cyclic start=Q {\n  A: Alice {\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "1:14: undefined start node 'Q'"),
        ("param start=Q {\n  A: Alice {\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "1:13: undefined start node 'Q'"),
        ("cyclic start=Q {\n  A: Alice {\n    a -> Z\n  }\n}\n",  # both undefined: the edge is named first
         ValidationError, "3:10: undefined node 'Z'"),
        ("param start=Q {\n  A: Alice {\n    a -> advance Z\n  }\n}\n",
         ValidationError, "3:18: undefined node 'Z'"),
        ("cyclic start=A {\n  A: Carol {\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "2:6: unknown player 'Carol' (players are ('Alice', 'Bertrand'))"),
        ("param start=A {\n  A: Carol {\n    a -> leaf(0,1)\n  }\n}\n",
         ValidationError, "2:6: unknown player 'Carol' (players are ('Alice', 'Bertrand'))"),
        ("cyclic start=A {\n  A: Alice {\n  }\n}\n",
         ParseError, "3:3: expected at least one edge, found '}'"),
        ("param start=A {\n  A: Alice {\n  }\n}\n",
         ParseError, "3:3: expected at least one edge, found '}'"),
        ("cyclic start=A {\n  A: Alice {\n    a leaf(0,1)\n  }\n}\n",
         ParseError, "3:7: expected '->', found 'leaf'"),
        ("param start=A {\n  A: Alice {\n    a advance A\n  }\n}\n",
         ParseError, "3:7: expected '->', found 'advance'"),
    ]

    @pytest.mark.parametrize("text, error, message", GRAPH_FAULTS)
    def test_malformed_graph_documents(self, text, error, message):
        assert raised(parse, text) == (error, message)

    def test_a_cyclic_node_may_be_named_advance(self):
        text = (
            "players Alice Bertrand\ncyclic start=A {\n  A: Alice {\n    a -> advance\n    b -> leaf(0,0)\n  }\n"
            "  advance: Bertrand {\n    c -> A\n  }\n}\n"
        )
        doc = parse(text)
        assert doc.game.shapes["A"].moves[0] == ("a", Advance("advance"))
        assert serialize(doc) == text


_LOOP = (
    "players Alice Bertrand\ncyclic start=A {\n  A: Alice {\n    a -> leaf(0,1)\n    c -> B\n  }\n"
    "  B: Bertrand {\n    a -> leaf(1,0)\n    c -> A\n  }\n}\n"
)
_STAGES = (
    _LOOP.replace("cyclic", "param").replace("leaf(0,1)", "leaf(3+2*n,0)")
    .replace("-> B", "-> advance B").replace("-> A\n", "-> advance A\n")
)


class TestCanonicalGraphReader:
    """``parametric.parse_canonical_graph`` reads a graph document as the token reader does or declines it
    (returns None), and never raises; ``read_both_ways`` asserts that on each text."""

    def test_corpus_random_and_mutated_graphs_read_as_the_token_reader_reads_them(self, corpus_dir):
        rng = random.Random(3700)
        names = ("zero_one_cyclic.game", "zero_one_param.game", "dollar_auction_v100.game")
        bases = [(corpus_dir / name).read_text() for name in names] + graph_documents(rng, 40) + [_LOOP, _STAGES]
        accepted, declined = referee_canonical_reader(parse_canonical_graph, rng, bases, 5000)
        assert accepted > 170 and declined > 2500  # the 5,000 mutations reach both sides

    # ``_LOOP`` in layouts other than the one ``serialize`` writes: the token reader reads each to ``_LOOP``'s document.
    LAYOUTS = {
        "one line without blanks": "cyclic start=A{A:Alice{a->leaf(0,1)c->B}B:Bertrand{a->leaf(1,0)c->A}}",
        "no players line": _LOOP.partition("\n")[2],
        "CRLF line ends": _LOOP.replace("\n", "\r\n"),
        "tab before a node": _LOOP.replace("\n  B:", "\n\tB:"),
        "blank line between nodes": _LOOP.replace("  }\n  B:", "  }\n\n  B:"),
    }

    # Texts the canonical reader declines, though some of them the token reader reads.
    DECLINED = {
        **LAYOUTS,
        "name glued to a keyword": _STAGES.replace("Bertrand\n", "Bertrand", 1),  # players Alice Bertrandparam
        "plus-minus slope": _STAGES.replace("3+2*n", "3+-2*n"),
        "non-ASCII name": _LOOP.replace("B:", "é:").replace("-> B", "-> é"),
        "non-ASCII digit": _LOOP.replace("leaf(0,1)", "leaf(٣,1)"),
        "4,301-digit payoff": _LOOP.replace("leaf(0,1)", f"leaf({'7' * 4301},1)"),
        "comment": "# two nodes\n" + _LOOP,
        "trailing comment": _LOOP + "# end\n",
        "separator": _LOOP.replace("leaf(0,1)", "leaf(0,1);"),
        "vertical tab": _LOOP.replace(" ", "\x0b", 1),
        "node named advance": _LOOP.replace("B:", "advance:").replace("-> B", "-> advance"),
        "node named leaf": _STAGES.replace("B:", "leaf:").replace("advance B", "advance leaf"),
        "advance in a cyclic edge": _LOOP.replace("-> A\n", "-> advance A\n"),
        # A failed match backtracks over a blank run once: two runs that could share the blanks would
        # take minutes here, each split of the 10**5 blanks tried in turn.
        "long blanks, then a form feed": " " * 10**5 + "\x0c" + _LOOP,
        "long blanks, then numbers as players": " " * 10**5 + _LOOP.replace("Alice Bertrand", "1 2", 1),
        "long blanks inside a payoff": _STAGES.replace("3+2*n", "3" + " " * 10**5 + "x"),
        # What ``int`` or ``str.isdigit`` takes but the layout does not: a reader built on ``str`` methods
        # must decline each.
        "underscore in a payoff": _LOOP.replace("leaf(0,1)", "leaf(1_0,1)"),
        "underscore in a slope": _STAGES.replace("3+2*n", "3+1_0*n"),
        "superscript digit": _LOOP.replace("leaf(0,1)", "leaf(²,1)"),
        "full-width digit in a slope": _STAGES.replace("3+2*n", "3+１*n"),
        "blank inside a payoff": _STAGES.replace("3+2*n", "3 +2*n"),
        "tab inside a payoff": _LOOP.replace("leaf(0,1)", "leaf(0,\t1)"),
        "plus sign": _LOOP.replace("leaf(0,1)", "leaf(+1,1)"),
        "doubled sign": _LOOP.replace("leaf(0,1)", "leaf(--1,1)"),
        "doubled slope sign": _STAGES.replace("3+2*n", "3--2*n"),
        "sign after digits": _LOOP.replace("leaf(0,1)", "leaf(1-2,1)"),
        "slope without digits": _STAGES.replace("3+2*n", "3+*n"),
        "slope without a constant": _STAGES.replace("3+2*n", "-2*n"),
        "slope in a cyclic payoff": _LOOP.replace("leaf(0,1)", "leaf(3+2*n,1)"),
        "three payoffs": _LOOP.replace("leaf(0,1)", "leaf(0,1,2)"),
        "cyclic target without advance in param": _STAGES.replace("advance B", "B"),
    }

    @pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
    def test_declined_texts_go_to_the_token_reader(self, text):
        started = time.perf_counter()
        fast, reference = read_both_ways(parse_canonical_graph, text)
        assert time.perf_counter() - started < 1.0
        assert fast is None
        assert (repr(parse(text)) if isinstance(reference, str) else raised(parse, text)) == reference

    @pytest.mark.parametrize("text", LAYOUTS.values(), ids=LAYOUTS)
    def test_other_layouts_read_to_the_same_document(self, text):
        assert read_both_ways(parse_canonical_graph, text) == (None, repr(parse(_LOOP)))

    @pytest.mark.parametrize("name", ["zero_one_cyclic.game", "zero_one_param.game"])
    def test_parse_reads_a_canonical_graph_without_the_token_reader(self, corpus_dir, name):
        text = (corpus_dir / name).read_text()
        reference = repr(dsl._Parser(text).parse_doc())
        with mock.patch.object(dsl, "_Parser", side_effect=AssertionError("the token reader ran")):
            assert repr(parse(text)) == reference


_GRID = "players Alice Bertrand\nmatrix sum=1/2 {\n  1 -2/3 0;\n  3/4 12 -1\n}\n"


class TestCanonicalMatrixReader:
    """``matrix.parse_canonical_matrix`` reads a matrix document as the token reader does or declines it
    (returns None), and never raises; ``read_both_ways`` asserts that on each text."""

    def test_corpus_random_and_mutated_matrices_read_as_the_token_reader_reads_them(self, corpus_dir):
        rng = random.Random(4000)
        names = ("matching_pennies_matrix.game", "rps.game", "rps_zerosum.game")
        bases = [(corpus_dir / name).read_text() for name in names] + matrix_documents(rng, 40) + [_GRID]
        accepted, declined = referee_canonical_reader(parse_canonical_matrix, rng, bases, 5000)
        assert accepted > 500 and declined > 2500  # the 5,000 mutations reach both sides

    def test_one_fraction_per_distinct_entry_text(self):
        game = parse_canonical_matrix("players A B\nmatrix sum=1 {\n  1 0 1/2;\n  0 1/2 1\n}\n")[1]
        assert game.payoffs[0][0] is game.payoffs[1][2] is game.total
        assert game.payoffs[0][2] is game.payoffs[1][1]

    # ``_GRID`` in layouts other than the one ``serialize`` writes: the token reader reads each to ``_GRID``'s document.
    LAYOUTS = {
        "one line": "players Alice Bertrand matrix sum=1/2{1 -2/3 0;3/4 12 -1}",
        "CRLF line ends": _GRID.replace("\n", "\r\n"),
        "tab before a row": _GRID.replace("\n  3/4", "\n\t3/4"),
        "blank line between rows": _GRID.replace(";\n", ";\n\n"),
        "two blanks between entries": _GRID.replace("12 -1", "12  -1"),
        "comment": "# a grid\n" + _GRID,
    }

    # Texts the canonical reader declines, though some of them the token reader reads.
    DECLINED = {
        **LAYOUTS,
        "no players line": _GRID.partition("\n")[2],
        "trailing ';'": _GRID.replace("12 -1", "12 -1;"),
        "no ';' between rows": _GRID.replace(";\n", "\n"),
        "ragged rows": _GRID.replace(" 12 -1", " 12"),
        "empty matrix": "players Alice Bertrand\nmatrix sum=1 {\n}\n",
        "zero denominator": _GRID.replace("-2/3", "1/0"),
        "zero denominator in the total": _GRID.replace("sum=1/2", "sum=1/0"),
        "negative denominator": _GRID.replace("-2/3", "1/-2"),
        "plus sign": _GRID.replace(" 0;", " +1;"),
        "non-ASCII digit": _GRID.replace("12", "1٢"),
        "non-ASCII player name": _GRID.replace("Alice", "Alicé"),
        "641-digit entry": _GRID.replace("12", "7" * 641),
        "4,301-digit entry": _GRID.replace("12", "7" * 4301),
        "text after the end": _GRID + "}\n",
        "no final line end": _GRID[:-1],
        # A failed match takes time linear in the text, whatever run of blanks or digits it stops in.
        "long blanks inside a row": _GRID.replace("12 -1", "12" + " " * 10**5 + "-1"),
        "long digits as an entry": _GRID.replace("12", "1" * 10**5),
        "long digits, then a ragged row": _GRID.replace("1 -2/3 0", " ".join(["1" * 640] * 150)),
        "long blanks after the header": _GRID.replace("{\n", "{" + " " * 10**5 + "\n"),
        # What ``int`` or ``str.isdigit`` takes but the layout does not: a reader built on ``str`` methods
        # must decline each.
        "underscore in an entry": _GRID.replace("12", "1_2"),
        "underscore in the total": _GRID.replace("sum=1/2", "sum=1_0"),
        "superscript digit": _GRID.replace("12", "1²"),
        "full-width digit in a denominator": _GRID.replace("-2/3", "-2/３"),
        "blank inside an entry": _GRID.replace("-2/3", "-2 /3"),
        "tab between entries": _GRID.replace("12 -1", "12\t-1"),
        "plus sign in a denominator": _GRID.replace("-2/3", "-2/+3"),
        "doubled sign": _GRID.replace("-2/3", "--2/3"),
        "sign after digits": _GRID.replace("12", "1-2"),
        "doubled slash": _GRID.replace("-2/3", "-2//3"),
        "slash without a denominator": _GRID.replace("-2/3", "-2/"),
        "two slashes": _GRID.replace("-2/3", "-2/3/4"),
    }

    @pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
    def test_declined_texts_go_to_the_token_reader(self, text):
        started = time.perf_counter()
        fast, reference = read_both_ways(parse_canonical_matrix, text)
        assert time.perf_counter() - started < 1.0
        assert fast is None
        assert (repr(parse(text)) if isinstance(reference, str) else raised(parse, text)) == reference

    @pytest.mark.parametrize("text", LAYOUTS.values(), ids=LAYOUTS)
    def test_other_layouts_read_to_the_same_document(self, text):
        assert read_both_ways(parse_canonical_matrix, text) == (None, repr(parse(_GRID)))

    def test_unreduced_and_signed_zero_entries_read_to_the_same_document(self):
        fast, reference = read_both_ways(parse_canonical_matrix, _GRID.replace("12", "24/2").replace(" 0;", " -0;"))
        assert fast is not None and reference == repr(parse(_GRID))

    @pytest.mark.parametrize("name", ["matching_pennies_matrix.game", "rps.game", "rps_zerosum.game"])
    def test_parse_reads_a_canonical_matrix_without_the_token_reader(self, corpus_dir, name):
        text = (corpus_dir / name).read_text()
        reference = repr(dsl._Parser(text).parse_doc())
        with mock.patch.object(dsl, "_Parser", side_effect=AssertionError("the token reader ran")):
            assert repr(parse(text)) == reference


def test_canonical_graphs_and_matrices_are_read_without_a_pattern(corpus_dir):
    """The canonical graph and matrix readers work with ``str`` methods alone: ``parse`` reads the corpus graphs
    and matrices with no call into ``re``'s compiler or its cache, so a cold command compiles no pattern to read
    its one document, and without the token reader."""
    from seqgames import matrix, parametric  # noqa: F401  loaded, with ``fractions``, before ``re`` is closed

    names = ("zero_one_cyclic", "zero_one_param", "dollar_auction_v100", "matching_pennies_matrix", "rps",
             "rps_zerosum")
    texts = [(corpus_dir / f"{name}.game").read_text() for name in names]
    with mock.patch.object(re, "_compile", side_effect=AssertionError("a pattern was compiled")), \
            mock.patch.object(dsl, "_Parser", side_effect=AssertionError("the token reader ran")):
        kinds = [parse(text).game.KIND for text in texts]
    assert kinds == ["cyclic", "param", "param", "matrix", "matrix", "matrix"]


LIMIT = sys.get_int_max_str_digits()  # 4300 unless the interpreter is told otherwise; 0 for no limit


@pytest.mark.skipif(not LIMIT, reason="the interpreter reads integers of any length")
class TestIntegerDigitLimit:
    """An integer literal longer than ``int`` reads is a ``ParseError`` at the
    literal, on every path that reads one."""

    PLACES = [
        "finite {\n  Alice {\n    a -> leaf(0,1)\n    b -> leaf(@,0)\n  }\n}\n",  # a tree leaf
        "players Alice Bertrand\nfinite {\n  Alice {\n    a -> leaf(@,0)\n  }\n}\n",  # one the line reader declines
        "finite {\n  Alice {\n    a -> leaf(0,@)\n  }\n}\n",
        "finite {\n  Alice {\n    a -> leaf(-@,0)\n  }\n}\n",  # a negative tree leaf
        "finite { leaf(1,@) }\n",
        "cyclic start=A {\n  A: Alice {\n    a -> leaf(@,0)\n  }\n}\n",  # a graph leaf
        "param start=A {\n  A: Alice {\n    a -> leaf(0,1 + @*n)\n  }\n}\n",
        "matrix sum=0 {\n  1 @;\n  0 1\n}\n",  # a matrix entry
        "matrix sum=0 {\n  1 1/@\n}\n",
    ]

    @pytest.mark.parametrize("text", PLACES)
    def test_a_literal_one_digit_over_raises_at_its_position(self, text):
        offset = text.index("@")
        line, column = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        message = f"{line}:{column}: expected an integer of at most {LIMIT} digits, found one of {LIMIT + 1}"
        assert raised(parse, text.replace("@", "7" * (LIMIT + 1))) == (ParseError, message)

    def test_a_literal_at_the_limit_parses(self):
        digits = "9" * LIMIT
        text = f"finite {{\n  Alice {{\n    a -> leaf({digits},-{digits})\n    b -> leaf(0,{digits})\n  }}\n}}\n"
        big = int(digits)
        assert parse(text).game == node(0, ("a", leaf(big, -big)), ("b", leaf(0, big)))
        assert parse(f"matrix sum={digits} {{ {digits} 1/{digits} }}").game.payoffs == ((big, Fraction(1, big)),)


_TREE = (
    "players Alice Bertrand\nfinite {\n  Alice {\n    a -> leaf(0,1)\n    c -> Bertrand {\n      a -> leaf(1,0)\n"
    "      c -> leaf(-2,-3)\n    }\n  }\n}\n"
)


class TestTreeLineReader:
    """``finite.parse_tree_lines`` reads a tree document as the token reader does, with the index ``TreeIndex``
    lays out, or declines it (returns None), and never raises; ``read_both_ways`` asserts that on each text."""

    def test_corpus_random_and_mutated_trees_read_as_the_token_reader_reads_them(self, corpus_dir):
        rng = random.Random(4100)
        names = ("matching_pennies_seq.game", "zero_one_6.game", "zero_one_7.game")
        bases = [(corpus_dir / name).read_text() for name in names] + tree_documents(rng, 40) + [_TREE]
        accepted, declined = referee_canonical_reader(parse_tree_lines, rng, bases, 2000)  # about 1 s
        assert accepted > 200 and declined > 1000  # the 2,000 mutations reach both sides

    @pytest.mark.parametrize(
        "build",
        [
            random_tree,
            deep_random_tree,
            lambda rng: big_random_tree(rng, 3000),
            lambda rng: chain01(300),
        ],
        ids=["random_tree", "deep_random_tree", "big_random_tree", "chain01"],
    )
    def test_the_index_is_the_one_the_walk_lays_out_slot_by_slot(self, build):
        rng = random.Random(41)
        for _ in range(20):
            tree = build(rng)
            read = parse_tree_lines(serialize(GameDoc(PLAYERS, tree)))
            assert read is not None and read[1] == tree
            walked = index_slots(TreeIndex(tree))[:-1] + ("",)  # ``fault``: the two-player verdict, found empty
            assert index_slots(read[1].index) == walked_index_slots(read[1]) == walked

    def test_one_leaf_per_payoff_pair(self):
        tree = parse_tree_lines(_TREE.replace("leaf(-2,-3)", "leaf(0,1)"))[1]
        assert tree.branches[0][1] is tree.branches[1][1].branches[1][1]

    # ``_TREE`` in layouts other than the one ``serialize`` writes, which the line reader takes.
    LAYOUTS = {
        "comments": "# a tree\n" + _TREE.replace("  Alice {\n", "  Alice {  # the root\n    # two branches\n"),
        "CRLF line ends": _TREE.replace("\n", "\r\n"),
        "tabs": _TREE.replace("  ", "\t"),
        "blank lines": _TREE.replace("\n", "\n\n \n"),
        "blanks between tokens": _TREE.replace("a -> leaf(1,0)", "a->leaf ( 1 , 0 ) ").replace("c -> B", "c  ->  B"),
        "no final line end": _TREE[:-1],
        "a long run of blank lines": _TREE.replace("\n  }", "\n" * 10**5 + "  }"),
    }

    @pytest.mark.parametrize("text", LAYOUTS.values(), ids=LAYOUTS)
    def test_other_layouts_read_to_the_same_document(self, text):
        assert read_both_ways(parse_tree_lines, text) == (parse(_TREE), repr(parse(_TREE)))

    @pytest.mark.parametrize("name", LAYOUTS)
    def test_which_layouts_parse_hands_the_line_reader(self, name):
        # ``parse`` routes by the second line that holds a token, so every layout here, a blank line after
        # ``players`` included, reaches the line reader.
        with mock.patch.object(dsl, "_Parser", wraps=dsl._Parser) as token_reader:
            assert parse(self.LAYOUTS[name]) == parse(_TREE)
        assert not token_reader.called

    @pytest.mark.parametrize("head", ["# a tree\n", "\n", " \t\r\n# a tree\n\n", "#\n  # players\n"])
    def test_a_text_that_starts_with_a_comment_or_a_blank_line_takes_the_line_reader(self, head):
        rng = random.Random(4200)
        for text in [_TREE] + tree_documents(rng, 20) + [serialize(GameDoc(PLAYERS, big_random_tree(rng, 2000)))]:
            text = head + text
            with mock.patch.object(dsl, "_Parser", wraps=dsl._Parser) as token_reader:
                doc = parse(text)
            assert not token_reader.called
            assert repr(doc) == repr(dsl._Parser(text).parse_doc())
            decisions, leaves = [doc.game], set()  # the ids of the tree's ``Leaf`` objects: one per payoff pair
            for decision in decisions:  # which grows to every decision node of the tree
                for _, sub in decision.branches:
                    decisions.append(sub) if isinstance(sub, Node) else leaves.add(id(sub))
            assert len(leaves) == len(set(doc.game.index.outcomes) - {None})

    def test_other_texts_that_start_with_a_comment_or_a_blank_line_read_as_the_token_reader_does(self, corpus_dir):
        def read(reader, text):
            try:
                return repr(reader(text))
            except Exception as exc:  # a stray exception class must fail the comparison too
                return type(exc), str(exc)

        graph, matrix = ((corpus_dir / name).read_text() for name in ("zero_one_cyclic.game", "rps.game"))
        for text in ("# a graph\n" + graph, "\n" + matrix, "# one line\nplayers A B finite { leaf(1,2) }",
                     "\n" + _TREE + "# the end", "\n" + _TREE + "}", "# a comment only", "\n\n\n", "\n"):
            assert read(parse, text) == read(lambda text: dsl._Parser(text).parse_doc(), text)

    @pytest.mark.parametrize(
        "text",
        [
            _TREE.replace("Alice", "Алиса"),
            _TREE.replace("c ->", "é_1 ->"),
            _TREE.replace("leaf(1,0)", "leaf(-0,٣)"),
        ],
        ids=["Unicode player", "Unicode label", "signed zero and a non-ASCII decimal digit"],
    )
    def test_other_names_and_digits_are_taken(self, text):
        fast, reference = read_both_ways(parse_tree_lines, text)
        assert fast is not None and repr(fast) == reference

    # Texts the line reader declines, though some of them the token reader reads.
    DECLINED = {
        "root leaf": "players Alice Bertrand\nfinite {\n  leaf(1,2)\n}\n",
        "separator": _TREE.replace("leaf(0,1)", "leaf(0,1);"),
        "two branches on a line": _TREE.replace("leaf(0,1)\n    c", "leaf(0,1) c"),
        "node and branch on a line": _TREE.replace("Bertrand {\n      a", "Bertrand { a"),
        "finite and the root on a line": _TREE.replace("finite {\n  Alice", "finite { Alice"),
        "leaf over two lines": _TREE.replace("leaf(0,1)", "leaf(0,\n1)"),
        "duplicate label": _TREE.replace("c -> leaf(-2,-3)", "a -> leaf(-2,-3)"),
        "duplicate node label": _TREE.replace("a -> leaf(0,1)", "c -> leaf(0,1)"),
        "unknown owner": _TREE.replace("c -> Bertrand", "c -> Carol"),
        "unknown root owner": _TREE.replace("  Alice {", "  Carol {"),
        "empty node": _TREE.replace("      a -> leaf(1,0)\n      c -> leaf(-2,-3)\n", ""),
        "no players line": _TREE.partition("\n")[2],
        "label named leaf": _TREE.replace("a -> leaf(0,1)", "leaf -> leaf(0,1)"),
        "player named leaf": _TREE.replace("Bertrand", "leaf"),
        "plus sign": _TREE.replace("leaf(0,1)", "leaf(+0,1)"),
        "non-decimal digit": _TREE.replace("leaf(0,1)", "leaf(²,1)"),
        "vertical tab": _TREE.replace("  Alice", "\x0b Alice"),
        "no-break space": _TREE.replace("  Alice", "\xa0Alice"),
        "text after the end": _TREE + "}\n",
        "the root never ends": _TREE[: _TREE.rindex("  }")],
        "finite never ends": _TREE[: _TREE.rindex("}")],
        "an empty text": "",
        "long blanks, then a form feed": " " * 10**5 + "\x0c" + _TREE,
        "long digits as a payoff": _TREE.replace("leaf(0,1)", f"leaf({'1' * 10**5},1)"),
    }

    @pytest.mark.parametrize("text", DECLINED.values(), ids=DECLINED)
    def test_declined_texts_go_to_the_token_reader(self, text):
        started = time.perf_counter()
        fast, reference = read_both_ways(parse_tree_lines, text)
        assert time.perf_counter() - started < 1.0
        assert fast is None
        assert (repr(parse(text)) if isinstance(reference, str) else raised(parse, text)) == reference

    @pytest.mark.parametrize("name", ["matching_pennies_seq.game", "zero_one_6.game", "zero_one_7.game"])
    def test_parse_reads_a_serialized_tree_without_the_token_reader(self, corpus_dir, name):
        texts = [(corpus_dir / name).read_text(), serialize(GameDoc(PLAYERS, big_random_tree(random.Random(4), 500)))]
        references = [repr(dsl._Parser(text).parse_doc()) for text in texts]
        with mock.patch.object(dsl, "_Parser", side_effect=AssertionError("the token reader ran")):
            assert [repr(parse(text)) for text in texts] == references


def _read_matrix(text: str) -> str:
    """The game a matrix text reads to, as its total and rows, or the error it raises."""
    try:
        game = parse(text).game
    except ParseError as exc:
        return f"{type(exc).__name__}: {exc}"
    rows = "; ".join(" ".join(str(entry) for entry in row) for row in game.payoffs)
    return f"sum {game.total}: {rows}"


class TestMatrixReader:
    """Matrix texts with one fault each, and what the reader makes of them.  The
    first rows delete each token of one text, put a '-', '/' or ';' before each
    token, and cut the text after each token; then whole entries go, rows turn
    ragged, empty or one entry too long, and denominators are 0."""

    TEXTS = [
        (' sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:2: expected 'finite', 'cyclic', 'param' or 'matrix', found 'sum'"),
        ('matrix =1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:8: expected 'sum', found '='"),
        ('matrix sum1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:8: expected 'sum', found 'sum1'"),
        ('matrix sum=/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:12: expected an integer, found '/'"),
        ('matrix sum=12 {\n  1 -2/3;\n  -4 5/-6\n}\n', 'sum 12: 1 -2/3; -4 -5/6'),
        ('matrix sum=1/ {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:15: expected an integer, found '{'"),
        ('matrix sum=1/2 \n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 2:3: expected '{', found '1'"),
        ('matrix sum=1/2 {\n   -2/3;\n  -4 5/-6\n}\n', "ParseError: 3:6: expected ';' after 1 entries, found '5'"),
        ('matrix sum=1/2 {\n  1 2/3;\n  -4 5/-6\n}\n', 'sum 1/2: 1 2/3; -4 -5/6'),
        ('matrix sum=1/2 {\n  1 -/3;\n  -4 5/-6\n}\n', "ParseError: 2:6: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -23;\n  -4 5/-6\n}\n', 'sum 1/2: 1 -23; -4 -5/6'),
        ('matrix sum=1/2 {\n  1 -2/;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3\n  -4 5/-6\n}\n', 'sum 1/2: 1 -2/3 -4 -5/6'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  4 5/-6\n}\n', 'sum 1/2: 1 -2/3; 4 -5/6'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  - 5/-6\n}\n', "ParseError: 4:1: expected a row of 2 entries, found '}'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 /-6\n}\n', "ParseError: 4:1: expected a row of 2 entries, found '}'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5-6\n}\n', "ParseError: 3:7: expected ';' after 2 entries, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/6\n}\n', 'sum 1/2: 1 -2/3; -4 5/6'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-\n}\n', "ParseError: 4:1: expected an integer, found '}'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n\n', "ParseError: 5:1: expected '}', found end of input"),
        ('-matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:1: expected 'finite', 'cyclic', 'param' or 'matrix', found '-'"),
        ('/matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:1: expected 'finite', 'cyclic', 'param' or 'matrix', found '/'"),
        (';matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:1: expected 'finite', 'cyclic', 'param' or 'matrix', found ';'"),
        ('matrix -sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:8: expected 'sum', found '-'"),
        ('matrix /sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:8: expected 'sum', found '/'"),
        ('matrix ;sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:8: expected 'sum', found ';'"),
        ('matrix sum-=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:11: expected '=', found '-'"),
        ('matrix sum/=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:11: expected '=', found '/'"),
        ('matrix sum;=1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:11: expected '=', found ';'"),
        ('matrix sum=-1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', 'sum -1/2: 1 -2/3; -4 -5/6'),
        ('matrix sum=/1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:12: expected an integer, found '/'"),
        ('matrix sum=;1/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:12: expected an integer, found ';'"),
        ('matrix sum=1-/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:13: expected '{', found '-'"),
        ('matrix sum=1//2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:14: expected an integer, found '/'"),
        ('matrix sum=1;/2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:13: expected '{', found ';'"),
        ('matrix sum=1/-2 {\n  1 -2/3;\n  -4 5/-6\n}\n', 'sum -1/2: 1 -2/3; -4 -5/6'),
        ('matrix sum=1/;2 {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:14: expected an integer, found ';'"),
        ('matrix sum=1/2 -{\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:16: expected '{', found '-'"),
        ('matrix sum=1/2 /{\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:16: expected '{', found '/'"),
        ('matrix sum=1/2 ;{\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:16: expected '{', found ';'"),
        ('matrix sum=1/2 {\n  -1 -2/3;\n  -4 5/-6\n}\n', 'sum 1/2: -1 -2/3; -4 -5/6'),
        ('matrix sum=1/2 {\n  /1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 2:3: expected a matrix entry, found '/'"),
        ('matrix sum=1/2 {\n  ;1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 2:3: expected a matrix entry, found ';'"),
        ('matrix sum=1/2 {\n  1 --2/3;\n  -4 5/-6\n}\n', "ParseError: 2:6: expected an integer, found '-'"),
        ('matrix sum=1/2 {\n  1 /-2/3;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected '}', found '/'"),
        ('matrix sum=1/2 {\n  1 ;-2/3;\n  -4 5/-6\n}\n', "ParseError: 3:6: expected ';' after 1 entries, found '5'"),
        ('matrix sum=1/2 {\n  1 -/2/3;\n  -4 5/-6\n}\n', "ParseError: 2:6: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -;2/3;\n  -4 5/-6\n}\n', "ParseError: 2:6: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2-/3;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -2//3;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -2;/3;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected a matrix entry, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/-3;\n  -4 5/-6\n}\n', 'sum 1/2: 1 2/3; -4 -5/6'),
        ('matrix sum=1/2 {\n  1 -2/;3;\n  -4 5/-6\n}\n', "ParseError: 2:8: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3-;\n  -4 5/-6\n}\n', "ParseError: 2:10: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3/;\n  -4 5/-6\n}\n', "ParseError: 2:9: expected '}', found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;;\n  -4 5/-6\n}\n', "ParseError: 2:10: expected a matrix entry, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  --4 5/-6\n}\n', "ParseError: 3:4: expected an integer, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  /-4 5/-6\n}\n', "ParseError: 3:3: expected a matrix entry, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  ;-4 5/-6\n}\n', "ParseError: 3:3: expected a matrix entry, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -/4 5/-6\n}\n', "ParseError: 3:4: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -;4 5/-6\n}\n', "ParseError: 3:4: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 -5/-6\n}\n', 'sum 1/2: 1 -2/3; -4 5/6'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 /5/-6\n}\n', "ParseError: 3:8: expected a row of 2 entries, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 ;5/-6\n}\n', "ParseError: 3:6: expected a row of 2 entries, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5-/-6\n}\n', "ParseError: 3:7: expected ';' after 2 entries, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5//-6\n}\n', "ParseError: 3:8: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5;/-6\n}\n', "ParseError: 3:8: expected a matrix entry, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/--6\n}\n', "ParseError: 3:9: expected an integer, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/;-6\n}\n', "ParseError: 3:8: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-/6\n}\n', "ParseError: 3:9: expected an integer, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-;6\n}\n', "ParseError: 3:9: expected an integer, found ';'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n-}\n', "ParseError: 4:1: expected ';' after 2 entries, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n/}\n', "ParseError: 4:1: expected '}', found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n;}\n', "ParseError: 4:2: expected a matrix entry, found '}'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}-\n', "ParseError: 4:2: expected end of input, found '-'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}/\n', "ParseError: 4:2: expected end of input, found '/'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n};\n', "ParseError: 4:2: expected end of input, found ';'"),
        ('matrix', "ParseError: 1:7: expected 'sum', found end of input"),
        ('matrix sum', "ParseError: 1:11: expected '=', found end of input"),
        ('matrix sum=', 'ParseError: 1:12: expected an integer, found end of input'),
        ('matrix sum=1', "ParseError: 1:13: expected '{', found end of input"),
        ('matrix sum=1/', 'ParseError: 1:14: expected an integer, found end of input'),
        ('matrix sum=1/2', "ParseError: 1:15: expected '{', found end of input"),
        ('matrix sum=1/2 {', 'ParseError: 1:17: expected a matrix entry, found end of input'),
        ('matrix sum=1/2 {\n  1', "ParseError: 2:4: expected '}', found end of input"),
        ('matrix sum=1/2 {\n  1 -', 'ParseError: 2:6: expected an integer, found end of input'),
        ('matrix sum=1/2 {\n  1 -2', "ParseError: 2:7: expected '}', found end of input"),
        ('matrix sum=1/2 {\n  1 -2/', 'ParseError: 2:8: expected an integer, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3', "ParseError: 2:9: expected '}', found end of input"),
        ('matrix sum=1/2 {\n  1 -2/3;', 'ParseError: 2:10: expected a matrix entry, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -', 'ParseError: 3:4: expected an integer, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4', 'ParseError: 3:5: expected a row of 2 entries, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5', "ParseError: 3:7: expected '}', found end of input"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/', 'ParseError: 3:8: expected an integer, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-', 'ParseError: 3:9: expected an integer, found end of input'),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6', "ParseError: 3:10: expected '}', found end of input"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 5/-6\n}', 'sum 1/2: 1 -2/3; -4 -5/6'),
        ('matrix sum=1/2 {\n  1 ;\n  -4 5/-6\n}\n', "ParseError: 3:6: expected ';' after 1 entries, found '5'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n   5/-6\n}\n', "ParseError: 4:1: expected a row of 2 entries, found '}'"),
        ('matrix sum=1/2 {\n  1 -2/3;\n  -4 \n}\n', "ParseError: 4:1: expected a row of 2 entries, found '}'"),
        ('matrix sum= {\n  1 -2/3;\n  -4 5/-6\n}\n', "ParseError: 1:13: expected an integer, found '{'"),
        ('matrix sum=1 { 1 -2/3 ; -4 5/-6 1 }', "ParseError: 1:33: expected ';' after 2 entries, found '1'"),
        ('matrix sum=1 { 1 -2/3 7 ; -4 5/-6 }', "ParseError: 1:35: expected a row of 3 entries, found '}'"),
        ('matrix sum=1 { 1 -2/3 ; -4 5/-6 ; 7 8 9 }', "ParseError: 1:39: expected ';' after 2 entries, found '9'"),
        ('matrix sum=1 { 1 -2/3 ; -4 5/-6 ; 7 -8/9 -1 }', "ParseError: 1:42: expected ';' after 2 entries, found '-'"),
        ('matrix sum=1 { 1 -2/3 ; ; -4 5/-6 }', "ParseError: 1:25: expected a matrix entry, found ';'"),
        ('matrix sum=1 { ; 1 }', "ParseError: 1:16: expected a matrix entry, found ';'"),
        ('matrix sum=1 { }', "ParseError: 1:16: expected a matrix entry, found '}'"),
        ('matrix sum=1 { 1 2 ; }', "ParseError: 1:22: expected a matrix entry, found '}'"),
        ('matrix sum=1 { 1/0 }', 'ValidationError: 1:18: zero denominator'),
        ('matrix sum=1 { 1/-0 }', 'ValidationError: 1:18: zero denominator'),
        ('matrix sum=1/0 { 1 }', 'ValidationError: 1:14: zero denominator'),
        ('matrix sum=-1/-0 { 1 }', 'ValidationError: 1:15: zero denominator'),
        ('matrix sum=1 { 2 0/5 ; -0/-3 -0 }', 'sum 1: 2 0; 0 0'),
        ('matrix sum=1 { -1/-2 - }', "ParseError: 1:24: expected an integer, found '}'"),
        ('matrix sum=1 { 1 / 2 }', 'sum 1: 1/2'),
        ('matrix sum=1 { 1 2 / }', "ParseError: 1:22: expected an integer, found '}'"),
        ('matrix sum=1 { 1 2 / - }', "ParseError: 1:24: expected an integer, found '}'"),
        ('matrix sum=1 { 1 - - 2 }', "ParseError: 1:20: expected an integer, found '-'"),
        ('matrix sum=1 { 1 x }', "ParseError: 1:18: expected '}', found 'x'"),
        ('matrix sum=1 { 1 2 3 ; 4 5 }', "ParseError: 1:28: expected a row of 3 entries, found '}'"),
        ('matrix sum=1 { 1 2 ; 4 5 6 }', "ParseError: 1:26: expected ';' after 2 entries, found '6'"),
        ('matrix sum=1 { 1 2 ; 4 -5 -6 }', "ParseError: 1:27: expected ';' after 2 entries, found '-'"),
        ('matrix sum=1 { 1 2 ; 4 5/6 -7/8 }', "ParseError: 1:28: expected ';' after 2 entries, found '-'"),
        ('# a comment\nmatrix sum=1 { 1 2 # more\n ; 3 4 }  # end', 'sum 1: 1 2; 3 4'),
        ('players A B matrix sum=3/9 { 6/4 -8/12 }', 'sum 1/3: 3/2 -2/3'),
    ]

    # '@' stands for an integer one digit over the limit the interpreter reads.
    OVER_THE_DIGIT_LIMIT = [
        ('matrix sum=0 { 1 @ }', 'ParseError: 1:18: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=0 { 1 -@ }', 'ParseError: 1:19: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=0 { 1 @/2 }', 'ParseError: 1:18: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=0 { 1 2/@ }', 'ParseError: 1:20: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=0 { 1 -2/-@ }', 'ParseError: 1:22: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=@ { 1 }', 'ParseError: 1:12: expected an integer of at most 4300 digits, found one of 4301'),
        ('matrix sum=1/@ { 1 }', 'ParseError: 1:14: expected an integer of at most 4300 digits, found one of 4301'),
    ]

    @pytest.mark.parametrize("text, expected", TEXTS)
    def test_each_text_reads_as_pinned(self, text, expected):
        assert _read_matrix(text) == expected

    @pytest.mark.skipif(LIMIT != 4300, reason="the messages name the default digit limit")
    @pytest.mark.parametrize("text, expected", OVER_THE_DIGIT_LIMIT)
    def test_an_integer_over_the_digit_limit_raises_where_it_stands(self, text, expected):
        assert _read_matrix(text.replace("@", "7" * (LIMIT + 1))) == expected


class TestWriterErrors:
    """What the writers refuse, by type and text."""

    def test_matrix_has_no_highlight_or_profile(self, corpus_dir):
        doc = parse((corpus_dir / "rps_zerosum.game").read_text())
        assert raised(to_dot, doc, {}) == (ShapeMismatch, "matrix games have no highlightable profile")
        assert raised(render_profile, doc.game, {}) == (ShapeMismatch, "matrix games take no profile")

    @pytest.mark.parametrize("write", [serialize, to_dot])
    def test_unsupported_game_kind(self, write):
        assert raised(write, GameDoc(PLAYERS, 5)) == (TypeError, "unsupported game kind: int")


# Non-decimal digits (``str.isdigit`` but not ``isdecimal``) are the one
# place the scan parts from the reference tokenizer: the reference reads
# them as an integer that ``int()`` then rejects, the scan as a character
# that starts no token.
_TOKEN_CHARS = st.one_of(
    st.sampled_from(list("leafplayers(){}->,;:=+-*/#_ \t\r\n0123456789xyzXYZ@>.²³½É١Ⅷ")),
    st.characters(),
)


def _scan_outcome(tokenize, text: str):
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as exc:
        return ("error", exc.line, exc.column, exc.expected, exc.found)


def _reference_outcome(text: str):
    """``reference_tokenize``'s outcome, with its first integer token that
    holds a non-decimal digit turned into an error at that digit."""
    outcome = _scan_outcome(reference_tokenize, text)
    end = len(text)
    if outcome[0] == "error":
        line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        end = line_starts[outcome[1] - 1] + outcome[2] - 1
    for token in reference_tokenize(text[:end])[:-1]:
        if token.kind != "int":
            continue
        for j, ch in enumerate(token.text):
            if not ch.isdecimal():
                return ("error", token.line, token.column + j, "a token", repr(ch))
    return outcome


# One to four lines joined in a drawn order, so that most lines repeat an earlier one, as a serialized
# tree's do, which the short texts above almost never reach.
_REPEATED_LINES = st.lists(
    st.text(alphabet=_TOKEN_CHARS.filter(lambda ch: ch != "\n"), max_size=12), min_size=1, max_size=4
).flatmap(lambda lines: st.lists(st.sampled_from(lines), max_size=16).map("\n".join))


# Lines of a tree text, and lines of tree tokens and blanks.
_TREE_LINE = st.one_of(
    st.sampled_from([
        "Alice {", "Bertrand {", "a -> leaf(0,1)", "b -> leaf(-1,2)", "c -> Alice {", "a -> Bertrand {", "}", "}",
        "# note", "leaf(1,2)", "a -> leaf(0,1); b -> leaf(1,0)", "players Alice Bertrand", "finite {", "",
    ]),
    st.text(alphabet=st.sampled_from(list("leafplayersAliceBt(){}->,;#_ \t\r0123456789²٣\x0b\xa0")), max_size=14),
)
_TREES = st.recursive(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(lambda pair: leaf(*pair)),
    lambda trees: st.builds(lambda owner, subs: node(owner, *zip("abc", subs)), st.integers(0, 1),
                            st.lists(trees, min_size=1, max_size=3)),
    max_leaves=8,
).filter(lambda tree: isinstance(tree, Node))


@st.composite
def _tree_texts(draw) -> str:
    """A serialized tree with up to two drawn ``_TREE_LINE`` put in at one place, the line there cut half the
    time: the line reader takes some and declines others at any step."""
    lines = serialize(GameDoc(PLAYERS, draw(_TREES))).split("\n")
    at, cut = draw(st.integers(0, len(lines))), draw(st.integers(0, 1))
    return "\n".join(lines[:at] + draw(st.lists(_TREE_LINE, max_size=2)) + lines[at + cut:])


# Lines of graph and matrix texts, and lines of their tokens and blanks.
_GRAPH_LINE = st.one_of(
    st.sampled_from([
        "A: Alice {", "B: Bertrand {", "a -> leaf(0,1)", "c -> B", "c -> advance A", "c -> leaf(1, 2) + 3*s", "}",
        "# note", "cyclic start=A {", "param start=B {", "matrix sum=1 {", "  1/2 1 0;", "  0 -1 2", "1 2; 3 4",
        "players P Q", "",
    ]),
    st.text(alphabet=st.sampled_from(list("cyclicparamstartmtxsuvnlefAB(){}->,;:=+*/#_ \t\r0123456789²\x0b")),
            max_size=14),
)


_GRAPH_AND_MATRIX_GAMES = (random_cyclic, random_parametric, lambda rng: random_matrix(rng, 6))


@st.composite
def _graph_and_matrix_texts(draw) -> str:
    """A serialized cyclic, param or matrix document with up to two drawn ``_GRAPH_LINE`` put in at one place,
    the line there cut half the time."""
    rng, build = random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.sampled_from(_GRAPH_AND_MATRIX_GAMES))
    players = draw(st.sampled_from((PLAYERS, ("P", "Q"))))
    lines = serialize(GameDoc(players, build(rng))).split("\n")
    at, cut = draw(st.integers(0, len(lines))), draw(st.integers(0, 1))
    return "\n".join(lines[:at] + draw(st.lists(_GRAPH_LINE, max_size=2)) + lines[at + cut:])


class TestGraphAndMatrixTexts:
    @settings(max_examples=600, deadline=None)
    @given(_graph_and_matrix_texts())
    def test_parse_returns_a_document_or_raises_a_parse_error(self, text):
        reads = [reader(text) for reader in (parse_canonical_graph, parse_canonical_matrix)]  # which never raise
        try:
            reference = repr(dsl._Parser(text).parse_doc())
        except ParseError:
            reference = None
        try:
            doc = parse(text)
        except ParseError:
            assert reference is None
        else:
            assert isinstance(doc, GameDoc) and repr(doc) == reference
        assert all(read is None or repr(GameDoc(*read)) == reference for read in reads)


class TestTreeTexts:
    @settings(max_examples=600, deadline=None)
    @given(_tree_texts())
    def test_parse_returns_a_document_or_raises_a_parse_error(self, text):
        read = parse_tree_lines(text)  # which never raises
        try:
            doc = parse(text)
        except ParseError:
            assert read is None
        else:
            assert isinstance(doc, GameDoc)
            assert read is None or repr(GameDoc(*read)) == repr(doc)

    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=st.sampled_from(list(" \r\t\x0b\xa0\x0c\x1c\nx#")), max_size=40))
    def test_lines_are_listed_as_the_pattern_listed_them(self, text):
        assert dsl._lines(text) == reference_lines(text)


class TestTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_TOKEN_CHARS, max_size=60))
    def test_matches_the_reference_tokenizer(self, text):
        assert _scan_outcome(scan_tokenize, text) == _reference_outcome(text)

    @settings(max_examples=400, deadline=None)
    @given(_REPEATED_LINES)
    def test_matches_the_reference_on_repeated_lines(self, text):
        assert _scan_outcome(scan_tokenize, text) == _reference_outcome(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a {\na {\nb -> leaf(1,2)\nb -> leaf(1,2)\n",
            "a {\na {\nb -> leaf(1,2)\nc }\n",
            "  x -> leaf(1,2)\r\n  x -> leaf(1,2)\r\n  x -> leaf(1,2)\r\n}\r\n}\r\n",
            "# note\nleaf(1,2)\n  # note\nleaf(1,2)\n",  # a comment-only line that repeats
            "finite { leaf(0,1)\n}\n}\n}\n}\n# no newline at the end",
            # a bad character on a line that repeats: the error names its first occurrence
            "x -> leaf(0,1)\nx -> leaf(0,1)\n  x -> \x0b\nx -> \x0b\n",
            "x -> leaf(0,1)\n  x -> \xa0\nx -> \xa0\nx -> \xa0",
            "x -> leaf(0,1)\nx -> leaf(0,1)\nx -> leaf(²,1)\nx -> leaf(²,1)\n",
            "",
            " \t\r\n  \n\r\n ",  # blanks only: no line to scan
        ],
    )
    def test_both_sides_match_the_reference(self, text):
        assert _scan_outcome(scan_tokenize, text) == _reference_outcome(text)

    @pytest.mark.parametrize(
        "text, tokens",
        [("leaf(0,1)" + "\n" * 30_000, ["leaf", "(", "0", ",", "1", ")", ""]), ("\n" * 30_000, [""])],
        ids=["after-a-line", "alone"],
    )
    def test_a_long_run_of_blank_lines_scans_in_linear_time(self, text, tokens):
        start = time.perf_counter()
        assert dsl._scan(text) == tokens
        assert time.perf_counter() - start < 1.0  # about 1 ms; a line pattern that backtracks takes seconds

    @pytest.mark.parametrize("name", GAME_FILES)
    def test_matches_the_reference_on_the_corpus(self, corpus_dir, name):
        text = (corpus_dir / name).read_text()
        assert _scan_outcome(scan_tokenize, text) == _scan_outcome(reference_tokenize, text)

    def test_non_decimal_digit_is_a_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse("finite { leaf(²,1) }")
        assert (err.value.line, err.value.column) == (1, 15)
        assert (err.value.expected, err.value.found) == ("a token", "'²'")

    def test_unicode_letters_and_decimal_digits_still_scan(self):
        doc = parse("players É B\nfinite { É { x١ -> leaf(١٢,-3) } }")
        assert doc.players == ("É", "B")
        assert doc.game == node(0, ("x١", leaf(12, -3)))

    def test_end_of_input_after_a_trailing_comment(self):
        with pytest.raises(ParseError) as err:
            parse("finite { leaf(0,1)  # no closing brace")
        assert (err.value.line, err.value.column) == (1, 21)
        assert err.value.found == "end of input"


def _token_offsets(text: str):
    lines = text.split("\n")
    line_starts = [0]
    for line in lines[:-1]:
        line_starts.append(line_starts[-1] + len(line) + 1)
    for token in scan_tokenize(text):
        if token.kind == "eof":
            continue
        yield line_starts[token.line - 1] + token.column - 1, token


class TestDeletionProperty:
    @pytest.mark.parametrize(
        "name",
        [f for f in GAME_FILES if "matrix" not in f and "rps" not in f],
    )
    def test_deleting_any_token_fails_at_or_after_the_hole(self, corpus_dir, name):
        # dropping a ';' between matrix rows merges them into one valid row,
        # so the property is stated for the tree and graph corpus only
        text = (corpus_dir / name).read_text()
        lines = text.split("\n")
        line_starts = [0]
        for line in lines[:-1]:
            line_starts.append(line_starts[-1] + len(line) + 1)
        pairs = list(_token_offsets(text))
        for i, (offset, token) in enumerate(pairs):
            mutated = text[:offset] + text[offset + len(token.text) :]
            with pytest.raises(ParseError) as err:
                parse(mutated)
            error_offset = line_starts[err.value.line - 1] + err.value.column - 1
            # deleting punctuation can merge the two neighbouring tokens
            # (leaf(2,... -> leaf2,...); the error then anchors at the start
            # of the merged token, which abuts the hole from the left
            previous_offset, previous = pairs[i - 1] if i else (offset, token)
            floor = (
                previous_offset
                if previous_offset + len(previous.text) == offset
                else offset
            )
            assert error_offset >= floor


class TestSerialize:
    def test_corpus_files_are_canonical(self, corpus_dir):
        for name in GAME_FILES:
            text = (corpus_dir / name).read_text()
            assert serialize(parse(text)) == text, name

    def test_roundtrip_on_seeded_random_docs(self):
        rng = random.Random(47)
        for _ in range(60):
            pick = rng.randrange(4)
            if pick == 0:
                game = random_tree(rng)
            elif pick == 1:
                game = random_cyclic(rng)
            elif pick == 2:
                game = random_parametric(rng)
            else:
                game = random_matrix(rng)
            doc = GameDoc(PLAYERS, game)
            back = parse(serialize(doc))
            assert back == doc
            if pick in (1, 2):  # a graph is read back as the class it was written from, repr and all
                assert type(back.game) is type(game) and repr(back.game) == repr(game)

    def test_graph_writers_run_no_import_statement(self):
        # A move's target says itself whether it is a leaf, so the writers need no graph module.
        assert AffineLeaf.LEAF is True and Advance.LEAF is False
        for writer in (dsl_write._require_writable, serialize, to_dot):
            assert "import" not in inspect.getsource(writer), writer.__name__

    @settings(max_examples=60, deadline=None)
    @given(
        st.recursive(
            st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(Leaf),
            lambda children: st.builds(
                lambda owner, kids: Node(owner, tuple(zip(("p", "f", "q"), kids))),
                st.integers(0, 1),
                st.lists(children, min_size=1, max_size=3),
            ),
            max_leaves=24,
        )
    )
    def test_roundtrip_on_generated_trees(self, tree):
        doc = GameDoc(PLAYERS, tree)
        assert parse(serialize(doc)) == doc


class TestUnwritable:
    """``serialize`` raises for a game built in code that the text cannot
    express, instead of writing text that parses to an error or to another game."""

    def test_node_name_with_a_blank(self):
        game = CyclicGame({"a b": CyclicNode(0, (("x", leaf(1, 0)), ("y", "a b")))}, "a b")
        with pytest.raises(Unwritable, match="^name 'a b' does not scan as one name$"):
            serialize(GameDoc(PLAYERS, game))

    def test_edge_to_a_cyclic_node_named_leaf(self):
        game = CyclicGame({"s": CyclicNode(0, (("x", "leaf"),)), "leaf": CyclicNode(1, (("y", leaf(0, 1)),))}, "s")
        with pytest.raises(Unwritable, match="^an edge to a node named 'leaf' would read as a leaf$"):
            serialize(GameDoc(PLAYERS, game))

    @pytest.mark.parametrize(
        "text",
        [
            "players A A\nfinite {\n  A {\n    x -> leaf(1,0)\n  }\n}\n",
            "players Alice Bertrand\ncyclic start=leaf {\n  leaf: Alice {\n    x -> leaf(1,0)\n  }\n}\n",
        ],
    )
    def test_parsed_documents_still_serialize(self, text):
        assert serialize(parse(text)) == text

    def test_a_parametric_shape_may_be_named_leaf(self):
        game = ParametricGame({"leaf": Shape(0, (("x", Advance("leaf")), ("y", AffineLeaf((affine(1), affine(0, 1))))))}, "leaf")
        doc = GameDoc(PLAYERS, game)
        assert parse(serialize(doc)) == doc

    def test_tree_with_duplicate_sibling_labels(self):
        with pytest.raises(MalformedGame, match=r"^duplicate branch label 'x' at \(\)$"):
            serialize(GameDoc(PLAYERS, node(0, ("x", leaf(1, 0)), ("x", leaf(0, 1)))))

    @pytest.mark.parametrize(
        "players, game, message",
        [
            (PLAYERS, node(0, ("go on", leaf(1, 0))), "^label 'go on' does not scan as one name$"),
            (PLAYERS, node(0, ("1st", leaf(1, 0))), "^label '1st' does not scan as one name$"),
            (PLAYERS, node(0, ("x#", leaf(1, 0))), "^label 'x#' does not scan as one name$"),
            (PLAYERS, node(0, (("x",), leaf(1, 0))), r"^label \('x',\) does not scan as one name$"),
            (("Alice", "leaf"), node(1, ("x", leaf(1, 0))), "^player 'leaf' owns a decision node"),
            (("A", "A"), node(0, ("x", node(1, ("y", leaf(1, 0))))), "^both players are named 'A'$"),
            (("Al ice", "B"), leaf(1, 0), "^player 'Al ice' does not scan as one name$"),
            (PLAYERS, node(2, ("x", leaf(1, 0))), "^owner 2 is neither player 0 nor player 1$"),
            (PLAYERS, node(1.0, ("x", leaf(1, 0))), "^owner 1.0 is neither player 0 nor player 1$"),
            (PLAYERS, node(True, ("x", leaf(1, 0))), "^owner True is neither player 0 nor player 1$"),
            (PLAYERS, node(1, ("x", node(1.0, ("y", leaf(1, 0))))), "^owner 1.0 is neither player 0 nor player 1$"),
            (PLAYERS, node(0, ("x", leaf(1, 0, 0))), r"^payoff vector \(1, 0, 0\) is not a pair$"),
            (PLAYERS, leaf(1), r"^payoff vector \(1,\) is not a pair$"),
            (PLAYERS, leaf(0.5, 1), "^payoff 0.5 is not an integer$"),
            (PLAYERS, leaf(True, 1), "^payoff True is not an integer$"),
            (PLAYERS, Leaf(("1", 2)), "^payoff '1' is not an integer$"),
            (PLAYERS, node(0, ("x", leaf(1, 0)), ("y", leaf(1.0, 0))), "^payoff 1.0 is not an integer$"),
            (PLAYERS, node(0, ("x", leaf(1, 0)), ("y", leaf(True, 0))), "^payoff True is not an integer$"),
            (PLAYERS, ParametricGame({"S": Shape(0, (("x", AffineLeaf((affine(0.5), affine(1)))),))}, "S"),
             "^payoff 0.5 is not an integer$"),
            (PLAYERS, ParametricGame({"S": Shape(0, (("x", AffineLeaf((affine(1), affine(1, 0.5)))),))}, "S"),
             "^payoff 0.5 is not an integer$"),
            (PLAYERS, ParametricGame({"S": Shape(0, (("x", AffineLeaf((affine(1), affine(1)))),
                                                     ("y", AffineLeaf((affine(True), affine(1)))),))}, "S"),
             "^payoff True is not an integer$"),
        ],
    )
    def test_unwritable_trees(self, players, game, message):
        with pytest.raises(Unwritable, match=message):
            serialize(GameDoc(players, game))

    def test_the_first_bad_label_is_named_whatever_the_hash_seed(self):
        # A set of labels was walked in string-hash order, so the label named changed with the seed.
        script = (
            "from seqgames.core import leaf, node\n"
            "from seqgames.parametric import CyclicGame, CyclicNode\n"
            "from seqgames.dsl import GameDoc, Unwritable, serialize\n"
            "edges = [(name, leaf(1, 0)) for name in ('a b', 'c d', 'e f')]\n"
            "for game in node(0, ('x', node(1, *edges[::-1])), ('y', node(1, *edges))), CyclicGame({'N': CyclicNode(0, edges)}, 'N'):\n"
            "    try:\n"
            "        serialize(GameDoc(('Alice', 'Bertrand'), game))\n"
            "    except Unwritable as exc:\n"
            "        print(exc)\n"
        )
        root = pathlib.Path(__file__).resolve().parent.parent
        outputs = set()
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(root / "src"))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
            outputs.add(run.stdout)
        assert outputs == {"label 'e f' does not scan as one name\nlabel 'a b' does not scan as one name\n"}

    def test_a_player_named_leaf_may_own_no_tree_node(self):
        doc = GameDoc(("Alice", "leaf"), node(0, ("x", leaf(1, 0))))
        assert parse(serialize(doc)) == doc


# Names for the round-trip property: most scan as one name, some do not,
# and some are words of the grammar.
_NAMES = ["x", "y", "z", "A", "B", "_b", "é", "x1", "leaf", "advance", "players", "n"]
_NOT_NAMES = ["a b", "1a", "x#", "", "-", "²", "Ⅷ"]


def _relabel(tree, labels: dict):
    if isinstance(tree, Leaf):
        return tree
    return Node(tree.owner, tuple((labels[label], _relabel(child, labels)) for label, child in tree.branches))


def _renamed_doc(rng: random.Random) -> GameDoc | None:
    """A seeded tree, cyclic or parametric game whose names are drawn at
    random, mostly from ``_NAMES``; None when a constructor rejects it."""

    def name() -> str:
        return rng.choice(_NAMES if rng.random() < 0.9 else _NOT_NAMES)

    players = (name(), name()) if rng.random() < 0.5 else PLAYERS
    labels = {label: name() for label in ("x", "y", "z")}
    kind = rng.randrange(3)
    try:
        if kind == 0:
            return GameDoc(players, _relabel(random_tree(rng), labels))
        game = random_cyclic(rng) if kind == 1 else random_parametric(rng)
        names = {old: name() for old in game.shapes}
        shapes = {
            names[old]: Shape(
                shape.owner,
                tuple(
                    (labels[label], Advance(names[target.shape]) if isinstance(target, Advance) else target)
                    for label, target in shape.moves
                ),
            )
            for old, shape in game.shapes.items()
        }
        return GameDoc(players, type(game)(shapes, names[game.start]))
    except GameError:
        return None


def test_constructed_games_serialize_to_text_that_parses_back_or_raise():
    rng = random.Random(48)
    written = refused = 0
    for _ in range(600):
        doc = _renamed_doc(rng)
        if doc is None:
            continue
        try:
            text = serialize(doc)
        except GameError:
            refused += 1
            continue
        assert parse(text) == doc, text
        written += 1
    assert written >= 100 and refused >= 100


LOOP_DOT = """digraph game {
  n0 [label="A: Alice"];
  n1 [label="B: Bertrand"];
  n2 [label="0,1"];
  n3 [label="1,0"];
  n0 -> n2 [label="a",penwidth=2,style=bold];
  n0 -> n1 [label="c"];
  n1 -> n3 [label="a"];
  n1 -> n0 [label="c",penwidth=2,style=bold];
}
"""


class TestDot:
    def test_loop_with_highlight_matches_golden(self):
        doc = GameDoc(PLAYERS, loop01())
        assert to_dot(doc, {"A": "a", "B": "c"}) == LOOP_DOT

    def test_highlight_bold_edge_counts(self):
        doc = GameDoc(PLAYERS, loop01())
        rendered = to_dot(doc, {"A": "a", "B": "c"})
        edges = [line for line in rendered.splitlines() if "->" in line]
        assert len(edges) == 4
        assert sum("penwidth=2,style=bold" in line for line in edges) == 2

    def test_leaf_only_game(self):
        rendered = to_dot(GameDoc(PLAYERS, leaf(0, 1)))
        assert rendered.count("label") == 1
        assert "->" not in rendered

    def test_pennies_node_and_edge_counts(self):
        rendered = to_dot(GameDoc(PLAYERS, pennies_seq()))
        node_lines = [l for l in rendered.splitlines() if "label" in l and "->" not in l]
        edge_lines = [l for l in rendered.splitlines() if "->" in l]
        assert len(node_lines) == 15  # 7 decision nodes + 8 leaves
        assert len(edge_lines) == 14

    def test_byte_stable_across_calls(self, corpus_dir):
        for name in GAME_FILES:
            doc = parse((corpus_dir / name).read_text())
            assert to_dot(doc) == to_dot(doc)

    @pytest.mark.parametrize("owner", [2, -1])
    def test_a_tree_owner_other_than_player_0_or_1_is_refused(self, owner):
        game = node(0, ("a", leaf(1, 0)), ("b", node(owner, ("c", leaf(0, 1)))))
        with pytest.raises(NotTwoPlayer, match=f"^solvers need two players, found a decision node owned by {owner}$"):
            to_dot(GameDoc(PLAYERS, game))

    def test_finite_highlight(self):
        game = pennies_seq()
        from helpers import pennies_equilibrium

        rendered = to_dot(GameDoc(PLAYERS, game), pennies_equilibrium("p"))
        bold = [l for l in rendered.splitlines() if "bold" in l]
        assert len(bold) == 7  # one chosen branch per decision node


class TestProfileFiles:
    def test_roundtrip_tree_profile(self):
        from helpers import pennies_equilibrium

        game = pennies_seq()
        profile = pennies_equilibrium("p")
        text = render_profile(game, profile)
        assert parse_profile_text(text, game) == profile

    def test_roundtrip_graph_profile(self):
        game = loop01()
        text = render_profile(game, {"A": "a", "B": "c"})
        assert parse_profile_text(text, game) == {"A": "a", "B": "c"}
        assert "A = a" in text

    @pytest.mark.parametrize(
        "game, profile, message",
        [
            (loop01(), {"A": "a"}, "profile must choose exactly one edge per node"),
            (loop01(), {"A": "zz", "B": "a"}, "choice 'zz' at 'A' is not an edge label"),
            (dollar_auction(100), {"A0": "a", "A": "zz", "B": "a"}, "choice 'zz' at 'A' is not a move label"),
            (dollar_auction(100), {"A0": "a", "B": "a"}, "profile must choose exactly one move per shape"),
        ],
        ids=["cyclic-missing", "cyclic-wrong", "param-wrong", "param-missing"],
    )
    def test_render_rejects_what_parse_rejects_graph(self, game, profile, message):
        from seqgames.core import ShapeMismatch

        text = "".join(f"{key} = {action}\n" for key, action in profile.items())
        for call in (lambda: render_profile(game, profile), lambda: parse_profile_text(text, game)):
            with pytest.raises(ShapeMismatch) as caught:
                call()
            assert str(caught.value) == message

    @pytest.mark.parametrize("fault", ["missing", "wrong"])
    def test_render_rejects_what_parse_rejects_tree(self, fault):
        from helpers import pennies_equilibrium

        from seqgames.core import ShapeMismatch
        from seqgames.dsl import render_tree_path

        game = pennies_seq()
        profile = pennies_equilibrium("p")
        if fault == "missing":
            del profile[("p",)]
        else:
            profile[("f",)] = "zz"
        text = "".join(f"{render_tree_path(path)} = {action}\n" for path, action in profile.items())
        with pytest.raises(ShapeMismatch) as parsed:
            parse_profile_text(text, game)
        with pytest.raises(ShapeMismatch) as rendered:
            render_profile(game, profile)
        assert str(rendered.value) == str(parsed.value)

    def test_comments_and_blanks_ignored(self):
        game = loop01()
        text = "# crossed\nA = c\n\nB = a  # his side\n"
        assert parse_profile_text(text, game) == {"A": "c", "B": "a"}

    def test_missing_entry_rejected(self):
        from seqgames.core import ShapeMismatch

        with pytest.raises(ShapeMismatch):
            parse_profile_text("A = a\n", loop01())

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_profile_text("A a\n", loop01())

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            parse_profile_text("A = a\nA = c\nB = c\n", loop01())
