"""Finite-tree routines on trees far deeper than the recursion limit.

Every routine here runs under the interpreter's default recursion limit;
before the routines were rewritten over flat preorder arrays, ``Node``
equality failed from depth 199, ``solve`` and ``enumerate_equilibria``
from depth 498 and the parser and serializer at about 990.
"""

from __future__ import annotations

import sys

import pytest
from helpers import chain01, loop01

from seqgames.cli import run
from seqgames.core import induced_play, leaf, node
from seqgames.dsl import GameDoc, parse, parse_profile_text, render_profile, serialize, to_dot
from seqgames.finite import TiePolicy, check_spe, enumerate_equilibria, solve
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


def test_equality_and_hash(deep_text):
    parsed = parse(deep_text).game
    built = chain01(DEPTH)
    assert parsed == built and hash(parsed) == hash(built)
    assert parsed != chain01(DEPTH - 1)
    assert node(0, ("a", built)) != node(0, ("a", parsed), ("b", leaf(0, 0)))
    assert built != leaf(0, 1) and leaf(0, 1) != built


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
