"""Cyclic-game equilibrium checking, enumeration, and unfolding."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from helpers import chain01, instantiate_profile, loop01, random_cyclic, reference_is_spe, reference_report_cyclic

from seqgames import cyclic, parametric
from seqgames.core import MalformedGame, ShapeMismatch, leaf, node
from seqgames.cyclic import (
    CyclicGame,
    CyclicNode,
    SearchSpaceTooLarge,
    UnknownNode,
    enumerate_positional_spe,
)
from seqgames.finite import check_spe, enumerate_equilibria
from seqgames.parametric import (
    Advance,
    AffineLeaf,
    ConvergesAffine,
    Divergent,
    ParametricGame,
    Shape,
    affine,
    check_spe_param,
    induced_outcome_param,
    instantiate,
)


class TestInducedOutcome:
    def test_alice_abandons_from_start(self):
        result = induced_outcome_param(loop01(), {"A": "a", "B": "c"}, "A")
        assert result == ConvergesAffine(("A",), (affine(0), affine(1)))

    def test_both_continue_diverges(self):
        result = induced_outcome_param(loop01(), {"A": "c", "B": "c"}, "A")
        assert result == Divergent(stem=(), cycle=("A", "B"))

    def test_immediate_abandon_from_b(self):
        result = induced_outcome_param(loop01(), {"A": "c", "B": "a"}, "B")
        assert result == ConvergesAffine(("B",), (affine(1), affine(0)))

    def test_default_start(self):
        assert induced_outcome_param(loop01(), {"A": "a", "B": "c"}) == ConvergesAffine(("A",), (affine(0), affine(1)))

    def test_stem_before_cycle(self):
        game = CyclicGame(
            {
                "S": CyclicNode(0, (("go", "A"),)),
                "A": CyclicNode(0, (("a", leaf(0, 1)), ("c", "B"))),
                "B": CyclicNode(1, (("a", leaf(1, 0)), ("c", "A"))),
            },
            "S",
        )
        result = induced_outcome_param(game, {"S": "go", "A": "c", "B": "c"})
        assert result == Divergent(stem=("S",), cycle=("A", "B"))

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            induced_outcome_param(loop01(), {"A": "a", "B": "c"}, "Z")

    def test_invalid_profile(self):
        with pytest.raises(ShapeMismatch):
            induced_outcome_param(loop01(), {"A": "a"})

    def test_convergent_path_length_bounded_by_node_count(self):
        rng = random.Random(3)
        for _ in range(80):
            game = random_cyclic(rng)
            for profile in _profiles(game):
                result = induced_outcome_param(game, profile)
                if isinstance(result, ConvergesAffine):
                    assert len(result.path) <= len(game.shapes)
                    assert len(set(result.path)) == len(result.path)


def _profiles(game: CyclicGame):
    names = list(game.shapes)
    for combo in itertools.product(*(game.shapes[n].labels() for n in names)):
        yield dict(zip(names, combo))


class TestCheckSpe:
    def test_alice_abandons_is_equilibrium(self):
        assert check_spe_param(loop01(), {"A": "a", "B": "c"}).ok

    def test_alice_continues_is_equilibrium(self):
        assert check_spe_param(loop01(), {"A": "c", "B": "a"}).ok

    def test_both_abandon_rejected_with_deviation_at_a(self):
        report = check_spe_param(loop01(), {"A": "a", "B": "a"})
        assert not report.ok
        violation = next(v for v in report.violations if v.where == "A")
        assert violation.action == "c"
        assert violation.profile_value == affine(0)
        assert violation.deviation_value == affine(1)

    def test_both_continue_rejected_for_divergence(self):
        report = check_spe_param(loop01(), {"A": "c", "B": "c"})
        assert not report.ok
        assert report.divergences == ("A", "B")
        assert report.violations == ()

    def test_agrees_with_reference_checker_on_random_games(self):
        rng = random.Random(29)
        for _ in range(60):
            game = random_cyclic(rng)
            for profile in _profiles(game):
                assert check_spe_param(game, profile).ok == reference_is_spe(game, profile)

    def test_full_report_matches_reference_on_random_games(self):
        rng = random.Random(41)
        checked = 0
        for _ in range(300):
            game = random_cyclic(rng)
            for profile in _profiles(game):
                report = check_spe_param(game, profile)
                divergent, violations = reference_report_cyclic(game, profile)
                assert report.divergences == divergent
                assert [
                    (v.where, v.action, v.profile_value, v.deviation_value)
                    for v in report.violations
                ] == [(where, action, affine(p), affine(d)) for where, action, p, d in violations]
                checked += 1
        assert checked > 2000

    def test_dangling_edge_raises_unknown_node(self):
        with pytest.raises(UnknownNode):
            game = CyclicGame(
                {
                    "A": CyclicNode(0, (("a", leaf(0, 1)), ("c", "Z"))),
                    "B": CyclicNode(1, (("a", leaf(1, 0)), ("c", "A"))),
                },
                "A",
            )
            check_spe_param(game, {"A": "a", "B": "c"})
            induced_outcome_param(game, {"A": "c", "B": "a"})


class TestEngine:
    """A cyclic game is the parametric game whose payoffs all have slope 0."""

    def test_a_cyclic_game_is_a_parametric_game(self):
        game = loop01()
        assert isinstance(game, ParametricGame)
        assert repr(game).startswith("CyclicGame(shapes={'A': Shape(owner=0, moves=(('a', AffineLeaf(")

    def test_a_node_is_a_shape(self):
        built = CyclicNode(0, (("a", leaf(0, 1)), ("c", "B")))
        assert built == Shape(0, (("a", AffineLeaf((affine(0), affine(1)))), ("c", Advance("B"))))
        assert loop01().shapes["A"] == built

    def test_from_cyclic_is_the_same_shapes_as_a_plain_parametric_game(self):
        game = loop01()
        plain = parametric.from_cyclic(game)
        assert plain == ParametricGame(game.shapes, game.start)
        assert type(plain) is ParametricGame
        assert plain != game and game != plain  # one kind is not the other

    def test_a_sloped_payoff_is_rejected(self):
        sloped = Shape(1, (("y", AffineLeaf((affine(1), affine(2, -1)))),))
        shapes = {"s": CyclicNode(0, (("x", "t"),)), "t": sloped}
        with pytest.raises(MalformedGame, match="^edge 'y' at 't' has a payoff with a nonzero slope$"):
            CyclicGame(shapes, "s")
        assert ParametricGame(shapes, "s").shapes is shapes  # the parametric kind takes it

    def test_shared_names_are_the_engine_objects(self):
        assert cyclic.SearchSpaceTooLarge is parametric.SearchSpaceTooLarge
        assert cyclic.DEFAULT_SEARCH_BOUND is parametric.DEFAULT_SEARCH_BOUND
        assert UnknownNode is parametric.UnknownShape

    def test_duplicate_edge_labels_are_rejected(self):
        with pytest.raises(MalformedGame, match="^'s' has two choices labelled 'x'$"):
            CyclicGame({"s": CyclicNode(0, (("x", leaf(1, 0)), ("x", "s")))}, "s")

    def test_node_without_edges_is_rejected(self):
        with pytest.raises(MalformedGame, match="^'t' has no choices$"):
            CyclicGame({"s": CyclicNode(0, (("x", "t"),)), "t": CyclicNode(1, ())}, "s")

    def test_a_raw_shape_with_a_target_of_the_wrong_type_is_rejected(self):
        shapes = {"s": CyclicNode(0, (("x", "t"),)), "t": Shape(1, (("y", leaf(1, 0)), ("z", "s")))}
        with pytest.raises(MalformedGame, match="^edge 'y' at 't' leads to neither a leaf nor a node$"):
            CyclicGame(shapes, "s")

    def test_an_owner_other_than_player_0_or_1_is_rejected(self):
        with pytest.raises(MalformedGame, match="^'s' is owned by 2, neither player 0 nor player 1$"):
            CyclicGame({"s": CyclicNode(2, (("x", leaf(1, 0)),))}, "s")
        with pytest.raises(MalformedGame, match="^edge 'x' at 's' pays 3 payoffs, not a pair$"):
            CyclicGame({"s": CyclicNode(0, (("x", leaf(1, 0, 0)),))}, "s")

    @pytest.mark.parametrize("owner", [1.0, Fraction(1), True])
    def test_an_owner_equal_to_player_0_or_1_that_is_no_int_is_rejected(self, owner):
        message = f"^'s' is owned by {re.escape(repr(owner))}, neither player 0 nor player 1$"
        with pytest.raises(MalformedGame, match=message):
            CyclicGame({"s": CyclicNode(owner, (("x", leaf(1, 0)),))}, "s")

    def test_search_bound_message_names_positional_profiles(self):
        pair = (("x", leaf(0, 0)), ("y", leaf(1, 1)))
        game = CyclicGame({f"N{i}": CyclicNode(0, pair) for i in range(3)}, "N0")
        with pytest.raises(SearchSpaceTooLarge, match="^8 positional profiles exceed bound 7$"):
            enumerate_positional_spe(game, bound=7)


class TestEnumerate:
    def test_loop_has_exactly_two_equilibria(self):
        assert enumerate_positional_spe(loop01()) == [
            {"A": "a", "B": "c"},
            {"A": "c", "B": "a"},
        ]

    def test_single_node_single_edge(self):
        game = CyclicGame({"N": CyclicNode(0, (("stop", leaf(4, 2)),))}, "N")
        assert enumerate_positional_spe(game) == [{"N": "stop"}]

    def test_raised_abandon_payoff_changes_the_set(self):
        # abandoning now pays Alice 2, strictly better than the (1,0) she can
        # force by continuing, so only her abandoning equilibrium survives
        game = CyclicGame(
            {
                "A": CyclicNode(0, (("a", leaf(2, 1)), ("c", "B"))),
                "B": CyclicNode(1, (("a", leaf(1, 0)), ("c", "A"))),
            },
            "A",
        )
        accepted = enumerate_positional_spe(game)
        assert accepted == [{"A": "a", "B": "c"}]
        assert [p for p in _profiles(game) if reference_is_spe(game, p)] == accepted

    def test_matches_filtering_definition(self):
        rng = random.Random(31)
        for _ in range(40):
            game = random_cyclic(rng)
            expected = [p for p in _profiles(game) if check_spe_param(game, p).ok]
            assert enumerate_positional_spe(game) == expected

    def test_search_space_bound(self):
        nodes = {
            f"N{i}": CyclicNode(0, tuple((lab, leaf(0, 1)) for lab in ("x", "y", "z")))
            for i in range(3)
        }
        game = CyclicGame(nodes, "N0")
        with pytest.raises(SearchSpaceTooLarge):
            enumerate_positional_spe(game, bound=26)


class TestUnfold:
    def test_depth_seven_gives_the_seven_round_chain(self):
        assert instantiate(loop01(), 7, (1, 0)) == chain01(7)

    def test_depth_six_gives_the_six_round_chain(self):
        assert instantiate(loop01(), 6, (0, 1)) == chain01(6)

    def test_depth_one(self):
        assert instantiate(loop01(), 1, (9, 9)) == node(0, ("a", leaf(0, 1)), ("c", leaf(9, 9)))

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            instantiate(loop01(), 0, (0, 0))

    def test_accepted_profiles_survive_truncation(self):
        # cutting at the profile's own continuation value keeps it subgame
        # perfect at every depth
        game = loop01()
        for profile in enumerate_positional_spe(game):
            for depth in range(1, 21):
                boundary = "A" if depth % 2 == 0 else "B"
                cut_value = induced_outcome_param(game, profile, boundary)
                assert isinstance(cut_value, ConvergesAffine)
                tree = instantiate(game, depth, tuple(v.at(0) for v in cut_value.outcome))
                restriction = instantiate_profile(game, profile, depth)
                assert check_spe(tree, restriction).ok

    def test_unfold_profile_keys_match_tree(self):
        from helpers import tree_paths

        game = loop01()
        for depth in (1, 3, 6):
            tree = instantiate(game, depth, (0, 0))
            restriction = instantiate_profile(game, {"A": "a", "B": "c"}, depth)
            assert set(restriction) == set(tree_paths(tree))


class TestNonExtrapolation:
    def test_finite_answers_oscillate_with_depth(self):
        game = loop01()
        for depth in range(1, 13):
            expected = (1, 0) if depth % 2 else (0, 1)
            tree = instantiate(game, depth, expected)
            result = enumerate_equilibria(tree)
            assert not result.truncated
            from seqgames.core import induced_play

            outcomes = {induced_play(tree, p)[1] for p in result.profiles}
            assert outcomes == {expected}
