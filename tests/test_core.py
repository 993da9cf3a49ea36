"""Tree operations against hand-derived values and exhaustive enumeration."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from helpers import all_plays, pennies_equilibrium, pennies_seq, random_profile, random_tree

from seqgames.core import (
    DEFAULT_PLAYERS,
    InvalidPlay,
    MalformedGame,
    Node,
    ShapeMismatch,
    induced_play,
    leaf,
    node,
    outcome_of,
    subgame_at,
)
from seqgames.dsl import GameDoc, serialize
from seqgames.finite import check_spe, solve


class TestOutcomeOf:
    def test_pennies_mismatch_line(self):
        assert outcome_of(pennies_seq(), ("p", "f", "p")) == (0, 2)

    def test_single_leaf_empty_play(self):
        assert outcome_of(leaf(1, 0), ()) == (1, 0)

    def test_pennies_all_face(self):
        # recomputed by pair counting: ff and ff both match
        assert outcome_of(pennies_seq(), ("f", "f", "f")) == (2, 0)

    def test_all_eight_plays_against_pair_counting(self):
        game = pennies_seq()
        plays = all_plays(game)
        assert len(plays) == 8
        for play in plays:
            matches = sum(play[i] == play[i + 1] for i in range(2))
            assert outcome_of(game, play) == (matches, 2 - matches)

    def test_outcome_multiset(self):
        game = pennies_seq()
        counts = Counter(outcome_of(game, play) for play in all_plays(game))
        assert counts == {(2, 0): 2, (1, 1): 4, (0, 2): 2}

    def test_unknown_label(self):
        with pytest.raises(InvalidPlay) as err:
            outcome_of(pennies_seq(), ("p", "q", "p"))
        assert err.value.position == 1
        assert err.value.label == "q"

    def test_play_too_short(self):
        with pytest.raises(InvalidPlay) as err:
            outcome_of(pennies_seq(), ("p", "f"))
        assert err.value.position == 2
        assert err.value.label is None

    def test_play_too_long(self):
        with pytest.raises(InvalidPlay):
            outcome_of(leaf(0, 1), ("p",))


class TestInducedPlay:
    def test_first_equilibrium_profile(self):
        play, outcome = induced_play(pennies_seq(), pennies_equilibrium("p"))
        assert play == ("p", "f", "f")
        assert outcome == (1, 1)

    def test_second_equilibrium_profile(self):
        play, outcome = induced_play(pennies_seq(), pennies_equilibrium("f"))
        assert play == ("f", "p", "p")
        assert outcome == (1, 1)

    def test_leaf_game(self):
        assert induced_play(leaf(0, 1), {}) == ((), (0, 1))

    def test_profile_missing_node(self):
        profile = pennies_equilibrium("p")
        del profile[("f", "f")]
        with pytest.raises(ShapeMismatch):
            induced_play(pennies_seq(), profile)

    def test_profile_extra_key(self):
        profile = pennies_equilibrium("p")
        profile[("p", "p", "p")] = "p"
        with pytest.raises(ShapeMismatch):
            induced_play(pennies_seq(), profile)

    def test_profile_bad_choice(self):
        profile = pennies_equilibrium("p")
        profile[("p",)] = "q"
        with pytest.raises(ShapeMismatch):
            induced_play(pennies_seq(), profile)

    def test_consistency_with_outcome_of_on_random_games(self):
        rng = random.Random(11)
        for _ in range(50):
            game = random_tree(rng)
            profile = random_profile(rng, game)
            play, outcome = induced_play(game, profile)
            assert outcome_of(game, play) == outcome


class TestSubgameAt:
    def test_empty_prefix_is_identity(self):
        game = pennies_seq()
        assert subgame_at(game, ()) is game

    def test_after_p_f(self):
        expected = node(0, ("p", leaf(0, 2)), ("f", leaf(1, 1)))
        assert subgame_at(pennies_seq(), ("p", "f")) == expected

    def test_full_play_reaches_leaf(self):
        assert subgame_at(pennies_seq(), ("f", "p", "p")) == leaf(1, 1)

    def test_bad_prefix(self):
        with pytest.raises(InvalidPlay):
            subgame_at(pennies_seq(), ("q",))

    def test_composes_with_outcome_of(self):
        rng = random.Random(23)
        for _ in range(50):
            game = random_tree(rng)
            for play in all_plays(game):
                for cut in range(len(play) + 1):
                    sub = subgame_at(game, play[:cut])
                    assert outcome_of(sub, play[cut:]) == outcome_of(game, play)


class TestNodeEquality:
    def test_equal_trees_are_equal_and_hash_alike(self):
        assert pennies_seq() == pennies_seq()
        assert hash(pennies_seq()) == hash(pennies_seq())
        assert len({pennies_seq(), pennies_seq()}) == 1

    def test_every_field_counts(self):
        base = pennies_seq()
        left, right = base.branches
        assert node(1, left, right) != base  # owner at the root
        assert node(0, ("q", left[1]), right) != base  # a label
        assert node(0, left, ("f", node(1, *right[1].branches[:1]))) != base  # a branch count
        inner = node(0, ("p", leaf(2, 0)), ("f", leaf(1, 2)))  # one payoff differs
        assert node(0, left, ("f", node(1, ("p", right[1].branches[0][1]), ("f", inner)))) != base
        assert node(0, ("a", node(1, ("b", leaf(0, 0))))) != node(0, ("a", node(0, ("b", leaf(0, 0)))))

    def test_nodes_and_leaves_differ(self):
        assert node(0, ("a", leaf(0, 1))) != leaf(0, 1)
        assert leaf(0, 1) != node(0, ("a", leaf(0, 1)))
        assert node(0, ("a", leaf(0, 1))) != node(0, ("a", node(0, ("a", leaf(0, 1)))))


class TestMalformedTrees:
    """The walk that indexes a tree built in code rejects what ``parse``
    rejects in text: two sibling branches of one label, a node without any,
    a branch to something that is neither a leaf nor a node."""

    def test_duplicate_sibling_labels(self):
        game = node(0, ("x", leaf(1, 0)), ("y", node(1, ("x", leaf(0, 1)), ("x", leaf(1, 1)))))
        with pytest.raises(MalformedGame, match=r"^duplicate branch label 'x' at \('y',\)$"):
            solve(game)
        with pytest.raises(MalformedGame):
            check_spe(game, {(): "x", ("y",): "x"})

    def test_duplicate_labels_at_the_root(self):
        with pytest.raises(MalformedGame, match=r"^duplicate branch label 'x' at \(\)$"):
            node(0, ("x", leaf(1, 0)), ("x", leaf(0, 1))).index

    def test_node_without_branches(self):
        with pytest.raises(MalformedGame, match=r"^no branches at \('a',\)$"):
            solve(node(0, ("a", Node(1, ())), ("b", leaf(0, 0))))
        with pytest.raises(MalformedGame, match=r"^no branches at \(\)$"):
            solve(Node(0, ()))

    @pytest.mark.parametrize("child", [5, "x", None, ("x", leaf(0, 0))])
    def test_child_that_is_neither_a_leaf_nor_a_node(self, child):
        at_root = node(0, ("a", child))
        below = node(0, ("a", leaf(1, 1)), ("b", node(1, ("x", child), ("y", leaf(0, 0)))))
        for game, message in ((at_root, r"^branch 'a' at \(\) "), (below, r"^branch 'x' at \('b',\) ")):
            message += "leads to neither a leaf nor a node$"
            for use in (lambda g: g.index, solve, lambda g: serialize(GameDoc(DEFAULT_PLAYERS, g))):
                with pytest.raises(MalformedGame, match=message):
                    use(game)
