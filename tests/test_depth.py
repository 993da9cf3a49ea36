"""Finite-tree routines on trees far deeper than the recursion limit.

Every routine here runs under the interpreter's default recursion limit;
before the routines were rewritten over flat preorder arrays, ``Node``
equality failed from depth 199, ``solve`` and ``enumerate_equilibria``
from depth 498 and the parser and serializer at about 990.
"""

from __future__ import annotations

import sys
from unittest import mock

import pytest
from helpers import chain01, loop01

from seqgames import dsl
from seqgames.cli import run
from seqgames.core import Record, induced_play, leaf, node
from seqgames.dsl import GameDoc, parse, parse_profile_text, render_profile, serialize, to_dot
from seqgames.finite import TiePolicy, check_spe, enumerate_equilibria, parse_tree_lines, solve
from seqgames.parametric import instantiate

DEPTH = 2000
PLAYERS = ("Alice", "Bertrand")


@pytest.fixture(scope="module")
def deep_text() -> str:
    return serialize(GameDoc(PLAYERS, chain01(DEPTH)))


def test_recursion_limit_is_the_default():
    assert sys.getrecursionlimit() == 1000


def test_chain_pipeline(deep_text):
    doc = parse(deep_text)
    game = doc.game
    first = solve(game, TiePolicy.FIRST_BRANCH)
    last = solve(game, TiePolicy.LAST_BRANCH)
    assert len(first) == len(last) == DEPTH
    # an even chain: Bertrand moves last, so Alice gets 0 whatever she does
    assert induced_play(game, first) == (("a",), (0, 1))
    play, outcome = induced_play(game, last)
    assert len(play) == DEPTH and outcome == (0, 1)
    text = render_profile(game, first)
    assert parse_profile_text(text, game) == first
    assert check_spe(game, first).ok and check_spe(game, last).ok
    result = enumerate_equilibria(game, cap=4)
    assert len(result.profiles) == 4 and result.truncated
    assert all(check_spe(game, profile).ok for profile in result.profiles)
    assert serialize(doc) == deep_text
    dot = to_dot(doc, first)
    nodes = 2 * DEPTH + 1
    assert len(dot.splitlines()) == 2 + nodes + (nodes - 1)
    assert dot.count("penwidth=2") == DEPTH


def test_the_token_reader_reads_a_deep_chain(deep_text):
    """Without its ``players`` line the text is one the tree line reader declines, so the token reader's tree
    loop reads all 2,000 levels, on its explicit stack."""
    text = deep_text.partition("\n")[2]
    assert text.startswith("finite {") and parse_tree_lines(text) is None
    with mock.patch.object(dsl, "_Parser", wraps=dsl._Parser) as token_reader:
        assert parse(text).game == chain01(DEPTH)
    token_reader.assert_called_once_with(text)


def test_enumerate_a_chain_tied_only_at_its_deepest_node():
    game = node((DEPTH - 1) % 2, ("a", leaf(1, 1)), ("b", leaf(1, 1)))
    for level in reversed(range(DEPTH - 1)):  # every owner strictly prefers going on
        game = node(level % 2, ("a", leaf(0, 0)), ("c", game))
    result = enumerate_equilibria(game, cap=4)
    assert len(result.profiles) == 2 and not result.truncated
    bottom = ("c",) * (DEPTH - 1)
    assert [profile[bottom] for profile in result.profiles] == ["a", "b"]
    assert result.profiles[0] == solve(game)
    assert {**result.profiles[1], bottom: "a"} == result.profiles[0]


def test_equality_and_hash(deep_text):
    parsed = parse(deep_text).game
    built = chain01(DEPTH)
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed != chain01(DEPTH - 1)
    assert node(0, ("a", built)) != node(0, ("a", parsed), ("b", leaf(0, 0)))
    assert built != leaf(0, 1) and leaf(0, 1) != built


def test_repr_of_a_deep_chain():
    heads = "".join(
        f"Node(owner={i % 2}, branches=(('a', Leaf(outcome={(0, 1) if i % 2 == 0 else (1, 0)})), ('c', "
        for i in range(DEPTH)
    )
    assert repr(chain01(DEPTH)) == heads + "Leaf(outcome=(0, 1))" + ")))" * DEPTH
    shallow = chain01(100)
    assert repr(shallow) == Record.__repr__(shallow)  # what every other record prints


def test_unfold_matches_the_chain():
    assert instantiate(loop01(), 1500, (0, 1)) == chain01(1500)


def test_cli_auction_truncated_deep(capsys):
    assert run(["auction", "--value", "100", "--max-stage", "2000"]) == 0
    out = capsys.readouterr().out
    assert "truncation at stage 2000 (terminal 0,0)" in out


def test_cli_unfold_deep(capsys, corpus_dir):
    game = str(corpus_dir / "zero_one_cyclic.game")
    assert run(["unfold", game, "--depth", "1500", "--terminal", "1,0"]) == 0
    tree = parse(capsys.readouterr().out).game
    assert len(tree.index.postorder) == 1500
    assert tree == instantiate(loop01(), 1500, (1, 0))
