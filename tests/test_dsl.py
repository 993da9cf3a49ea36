"""Parser, canonical serializer, DOT export: round-trips and error positions."""

from __future__ import annotations

import random

import pytest
from helpers import (
    chain01,
    loop01,
    pennies_seq,
    random_cyclic,
    random_matrix,
    random_parametric,
    random_tree,
    reference_tokenize,
    scan_tokenize,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from seqgames.core import Leaf, Node, leaf, node
from seqgames.dsl import (
    GameDoc,
    ParseError,
    ValidationError,
    parse,
    parse_profile_text,
    render_profile,
    serialize,
    to_dot,
)
from seqgames.matrix import MatrixGame
from seqgames.parametric import dollar_auction

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

    def test_one_line_cyclic_form(self):
        text = (
            "cyclic start=A { A: Alice { a -> leaf(0,1); c -> B } "
            "B: Bertrand { a -> leaf(1,0); c -> A } }"
        )
        assert parse(text).game == loop01()

    def test_auction_corpus_file(self, corpus_dir):
        doc = parse((corpus_dir / "dollar_auction_v100.game").read_text())
        assert doc.game == dollar_auction(100)

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


class TestTokenizer:
    @settings(max_examples=400, deadline=None)
    @given(st.text(alphabet=_TOKEN_CHARS, max_size=60))
    def test_matches_the_reference_tokenizer(self, text):
        assert _scan_outcome(scan_tokenize, text) == _reference_outcome(text)

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
            assert parse(serialize(doc)) == doc

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
