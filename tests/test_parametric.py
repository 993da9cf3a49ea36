"""Stage-parametric games: symbolic checks against concrete-trace oracles."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from helpers import chain01, instantiate_profile, loop01, random_parametric, reference_report_param
from hypothesis import given
from hypothesis import strategies as st

from seqgames.core import InvalidArgument, MalformedGame, ShapeMismatch, induced_play, leaf, node
from seqgames.finite import check_spe, enumerate_equilibria, solve, TiePolicy
from seqgames.parametric import (
    Advance,
    AffineLeaf,
    ConvergesAffine,
    Divergent,
    InvalidValue,
    ParametricGame,
    Shape,
    UnknownShape,
    affine,
    affine_leq,
    check_spe_param,
    dollar_auction,
    entry_stages,
    enumerate_stationary_spe,
    from_cyclic,
    induced_outcome_param,
    instantiate,
    stationary_profiles,
)

ALICE_CONTINUES = {"A0": "c", "A": "c", "B": "a"}
ALICE_ABANDONS = {"A0": "a", "A": "a", "B": "c"}
NEVER_BID = {"A0": "a", "A": "a", "B": "a"}
BOTH_CONTINUE = {"A0": "c", "A": "c", "B": "c"}


def all_stationary(game: ParametricGame):
    names = list(game.shapes)
    for combo in itertools.product(*(game.shapes[n].labels() for n in names)):
        yield dict(zip(names, combo))


def trace_concrete(game: ParametricGame, profile: dict, shape: str, stage: int, bound: int = 500):
    """Independent oracle: walk shapes with an explicit integer stage."""
    name = shape
    for _ in range(bound):
        target = dict(game.shapes[name].moves)[profile[name]]
        if isinstance(target, AffineLeaf):
            return tuple(v.const + v.slope * stage for v in target.outcome)
        name = target.shape
        stage += 1
    return None


class TestAffineLeq:
    def test_reflexive_zero(self):
        assert affine_leq(affine(0), affine(0), 0)

    def test_equal_slopes_compare_constants(self):
        assert affine_leq(affine(1, -1), affine(99, -1), 0)
        assert not affine_leq(affine(99, -1), affine(1, -1), 0)

    def test_larger_slope_eventually_wins(self):
        assert not affine_leq(affine(0, 1), affine(100, 0), 0)

    def test_smaller_slope_checked_at_start(self):
        assert affine_leq(affine(100, 0), affine(0, 1), 100)
        assert not affine_leq(affine(100, 0), affine(0, 1), 99)

    @given(
        st.integers(-50, 50),
        st.integers(-5, 5),
        st.integers(-50, 50),
        st.integers(-5, 5),
        st.integers(0, 10),
    )
    def test_matches_pointwise_oracle(self, fc, fs, gc, gs, start):
        f, g = affine(fc, fs), affine(gc, gs)
        pointwise = all(fc + fs * n <= gc + gs * n for n in range(start, start + 1001))
        assert affine_leq(f, g, start) == pointwise


class TestInducedOutcome:
    def test_crossed_profile_from_alice_shape(self):
        result = induced_outcome_param(dollar_auction(100), ALICE_CONTINUES, "A")
        assert isinstance(result, ConvergesAffine)
        assert result.steps == 2
        # Alice wins the object at the next stage, Bertrand leaves his bid sunk
        assert result.outcome == (affine(99, -1), affine(0, -1))

    def test_both_continue_diverges(self):
        assert isinstance(
            induced_outcome_param(dollar_auction(100), BOTH_CONTINUE), Divergent
        )

    def test_divergence_carries_the_lasso(self):
        assert induced_outcome_param(dollar_auction(100), BOTH_CONTINUE) == Divergent(
            stem=("A0",), cycle=("B", "A")
        )

    def test_path_and_steps_agree(self):
        result = induced_outcome_param(dollar_auction(100), ALICE_CONTINUES)
        assert result.path == ("A0", "B")
        assert result.steps == 2
        assert tuple(v.at(0) for v in result.outcome) == (99, 0)

    def test_immediate_leaf(self):
        result = induced_outcome_param(dollar_auction(100), NEVER_BID, "A0")
        assert isinstance(result, ConvergesAffine)
        assert result.steps == 1
        assert result.outcome == (affine(0), affine(0))

    def test_unknown_shape(self):
        with pytest.raises(UnknownShape):
            induced_outcome_param(dollar_auction(100), NEVER_BID, "Z")

    def test_symbolic_agrees_with_concrete_traces(self):
        game = dollar_auction(100)
        for profile in all_stationary(game):
            for shape in game.shapes:
                symbolic = induced_outcome_param(game, profile, shape)
                for stage in range(0, 51):
                    concrete = trace_concrete(game, profile, shape, stage)
                    if isinstance(symbolic, Divergent):
                        assert concrete is None
                    else:
                        assert concrete == tuple(v.at(stage) for v in symbolic.outcome)


class TestConstruction:
    """A shape needs at least one move, and its moves distinct labels."""

    def test_duplicate_move_labels_are_rejected(self):
        stop = AffineLeaf((affine(0), affine(0)))
        shape = Shape(0, (("a", stop), ("c", Advance("S")), ("a", Advance("S"))))
        with pytest.raises(MalformedGame, match="^'S' has two choices labelled 'a'$"):
            ParametricGame({"S": shape}, "S")

    def test_shape_without_moves_is_rejected(self):
        with pytest.raises(MalformedGame, match="^'T' has no choices$"):
            ParametricGame({"S": Shape(0, (("c", Advance("T")),)), "T": Shape(1, ())}, "S")

    def test_a_target_that_is_neither_a_leaf_nor_an_advance_is_rejected(self):
        # Cyclic-style edges (a node name, a finite leaf) handed to ``Shape`` itself.
        shape = Shape(0, (("x", "S"), ("y", leaf(1, 0))))
        with pytest.raises(MalformedGame, match="^move 'x' at 'S' leads to neither a leaf nor a shape$"):
            ParametricGame({"S": shape}, "S")

    def test_a_bad_target_is_reported_in_move_order(self):
        stop = AffineLeaf((affine(0), affine(0)))
        shape = Shape(0, (("a", stop), ("b", Advance("Z")), ("c", leaf(0, 0))))
        with pytest.raises(UnknownShape, match="^Z$"):
            ParametricGame({"S": shape}, "S")
        shape = Shape(0, (("a", stop), ("b", leaf(0, 0)), ("c", Advance("Z"))))
        with pytest.raises(MalformedGame, match="^move 'b' at 'S' leads to neither a leaf nor a shape$"):
            ParametricGame({"S": shape}, "S")

    @pytest.mark.parametrize("owner", [2, -1, 1.0, Fraction(1), True])  # the int 0 or 1 only
    def test_an_owner_other_than_player_0_or_1_is_rejected(self, owner):
        shape = Shape(owner, (("a", AffineLeaf((affine(0), affine(0)))),))
        message = f"^'S' is owned by {re.escape(repr(owner))}, neither player 0 nor player 1$"
        with pytest.raises(MalformedGame, match=message):
            ParametricGame({"S": shape}, "S")

    @pytest.mark.parametrize("outcome", [(affine(1),), (affine(1), affine(0), affine(0))])
    def test_a_payoff_vector_that_is_not_a_pair_is_rejected(self, outcome):
        shape = Shape(0, (("a", Advance("S")), ("b", AffineLeaf(outcome))))
        with pytest.raises(MalformedGame, match=f"^move 'b' at 'S' pays {len(outcome)} payoffs, not a pair$"):
            ParametricGame({"S": shape}, "S")

    def test_an_undefined_start_is_reported_first(self):
        with pytest.raises(UnknownShape, match="^Z$"):
            ParametricGame({"S": Shape(0, ())}, "Z")


class TestEntryStages:
    def test_auction_entry_stages(self):
        # (least, greatest) entry stage; B and A lie on the bidding cycle, so have no greatest
        assert entry_stages(dollar_auction(100)) == {"A0": (0, 0), "A": (2, None), "B": (1, None)}

    def test_a_shape_entered_at_two_stages_is_checked_at_both(self):
        # D is entered at stage 1 straight from S, and at stage 3 by way of M and N.  Against
        # its payoff 0, "late" gains n - 2 only at stage 3, and "early" gains 2 - n only at 1.
        zero = affine(0)
        game = ParametricGame(
            {
                "S": Shape(0, (("short", Advance("D")), ("long", Advance("M")))),
                "M": Shape(1, (("on", Advance("N")),)),
                "N": Shape(1, (("on", Advance("D")),)),
                "D": Shape(
                    0,
                    (
                        ("stop", AffineLeaf((zero, zero))),
                        ("late", AffineLeaf((affine(-2, 1), zero))),
                        ("early", AffineLeaf((affine(2, -1), zero))),
                    ),
                ),
            },
            "S",
        )
        assert entry_stages(game)["D"] == (1, 3)
        report = check_spe_param(game, {"S": "short", "M": "on", "N": "on", "D": "stop"})
        assert [(v.where, v.action, v.deviation_value) for v in report.violations] == [
            ("D", "late", affine(-2, 1)),
            ("D", "early", affine(2, -1)),
        ]


class TestCheckSpe:
    def test_both_one_sided_profiles_are_equilibria(self):
        game = dollar_auction(100)
        assert check_spe_param(game, ALICE_CONTINUES).ok
        assert check_spe_param(game, ALICE_ABANDONS).ok

    def test_never_bid_rejected_with_witness(self):
        report = check_spe_param(dollar_auction(100), NEVER_BID)
        assert not report.ok
        violation = next(v for v in report.violations if v.where == "A")
        assert violation.action == "c"
        assert violation.profile_value == affine(1, -1)  # keeping the standing bid sunk
        assert violation.deviation_value == affine(99, -1)  # winning the object instead

    def test_both_continue_rejected_for_divergence(self):
        report = check_spe_param(dollar_auction(100), BOTH_CONTINUE)
        assert not report.ok
        assert set(report.divergences) == {"A0", "A", "B"}

    def test_constant_payoff_embedding_agrees_with_cyclic_checker(self):
        graph = loop01()
        embedded = from_cyclic(graph)
        for a_choice in ("a", "c"):
            for b_choice in ("a", "c"):
                profile = {"A": a_choice, "B": b_choice}
                assert (
                    check_spe_param(embedded, profile).ok
                    == check_spe_param(graph, profile).ok
                )

    def test_invalid_profile(self):
        with pytest.raises(ShapeMismatch):
            check_spe_param(dollar_auction(100), {"A0": "a"})

    def test_matches_concrete_stage_reference_on_random_games(self):
        rng = random.Random(53)
        rejected = 0
        for _ in range(150):
            game = random_parametric(rng)
            for profile in stationary_profiles(game):
                report = check_spe_param(game, profile)
                divergent, violations = reference_report_param(game, profile)
                assert report.divergences == divergent
                assert [(v.where, v.action) for v in report.violations] == violations
                rejected += bool(violations)
        assert rejected > 100


class TestEnumerate:
    def test_value_100_has_exactly_the_one_sided_equilibria(self):
        assert enumerate_stationary_spe(dollar_auction(100)) == [
            ALICE_ABANDONS,
            ALICE_CONTINUES,
        ]

    def test_value_1_regression(self):
        # dollar at its own price: never bidding becomes an equilibrium, and
        # so does a single opening bid that the opponent concedes to
        assert enumerate_stationary_spe(dollar_auction(1)) == [
            {"A0": "a", "A": "a", "B": "a"},
            {"A0": "c", "A": "a", "B": "a"},
        ]

    def test_matches_filtering_definition(self):
        game = dollar_auction(5)
        expected = [p for p in all_stationary(game) if check_spe_param(game, p).ok]
        assert enumerate_stationary_spe(game) == expected

    def test_profiles_in_canonical_order(self):
        assert list(stationary_profiles(dollar_auction(5))) == list(all_stationary(dollar_auction(5)))
        assert next(stationary_profiles(dollar_auction(5))) == NEVER_BID
        assert len(list(stationary_profiles(dollar_auction(5)))) == 8


class TestDollarAuction:
    def test_rejects_nonpositive_value(self):
        with pytest.raises(InvalidValue):
            dollar_auction(0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_rejects_a_value_that_is_not_an_int(self, value):
        # 2.5 built float payoffs, which serialize then wrote as text parse rejects
        with pytest.raises(InvalidValue, match=f"^object value must be an integer, got {value!r}$"):
            dollar_auction(value)

    def test_stage_zero_abandon_outcome(self):
        game = dollar_auction(100)
        assert trace_concrete(game, NEVER_BID, "A0", 0) == (0, 0)

    def test_open_then_concede(self):
        # Alice bids 1 at stage 0, Bertrand abandons at stage 1
        game = dollar_auction(100)
        assert trace_concrete(game, ALICE_CONTINUES, "A0", 0) == (99, 0)

    def test_escalation_premise(self):
        # the all-continue profile diverges, yet each accepted equilibrium
        # prescribes perpetual continuation to one of the players
        game = dollar_auction(100)
        assert isinstance(induced_outcome_param(game, BOTH_CONTINUE), Divergent)
        accepted = enumerate_stationary_spe(game)
        assert any(p["A0"] == "c" and p["A"] == "c" for p in accepted)
        assert any(p["B"] == "c" for p in accepted)


class TestInstantiate:
    def test_constant_embedding_matches_the_finite_chains(self):
        embedded = from_cyclic(loop01())
        assert instantiate(embedded, 6, (0, 1)) == chain01(6)
        assert instantiate(embedded, 7, (1, 0)) == chain01(7)

    def test_single_stage_auction(self):
        tree = instantiate(dollar_auction(100), 1, (0, 0))
        assert tree == node(0, ("a", leaf(0, 0)), ("c", leaf(0, 0)))

    def test_max_stage_must_be_positive(self):
        with pytest.raises(ValueError):
            instantiate(dollar_auction(100), 0, (0, 0))

    @pytest.mark.parametrize(
        "max_stage, terminal, field",
        [
            (2.5, (0, 0), "max_stage"),  # which unfolded three stages
            (True, (0, 0), "max_stage"),  # which was read as 1
            (3, (0.5, 0), "terminal"),  # which built float leaves that solve then compared
            (3, (0,), "terminal"),  # which failed only later, as NotTwoPlayer
        ],
    )
    def test_max_stage_and_terminal_must_be_ints(self, max_stage, terminal, field):
        with pytest.raises(InvalidArgument, match=f"^{field} must be "):
            instantiate(dollar_auction(3), max_stage, terminal)

    def test_value_3_truncation_regression(self):
        # frozen from the finite solver: truncating the auction changes the
        # analysis entirely (the infinite game's equilibria are one-sided)
        tree = instantiate(dollar_auction(3), 5, (0, 0))
        result = enumerate_equilibria(tree)
        assert len(result.profiles) == 3
        outcomes = sorted({induced_play(tree, p)[1] for p in result.profiles})
        assert outcomes == [(0, 0), (2, 0)]
        first = solve(tree, TiePolicy.FIRST_BRANCH)
        assert induced_play(tree, first) == (("c", "a"), (2, 0))

    def test_truncation_coherence_for_accepted_profiles(self):
        game = dollar_auction(100)
        for profile in enumerate_stationary_spe(game):
            for depth in range(2, 41):
                cut_shape = "A" if depth % 2 == 0 else "B"
                symbolic = induced_outcome_param(game, profile, cut_shape)
                assert isinstance(symbolic, ConvergesAffine)
                terminal = tuple(v.at(depth) for v in symbolic.outcome)
                tree = instantiate(game, depth, terminal)
                restriction = instantiate_profile(game, profile, depth)
                assert check_spe(tree, restriction).ok

    def test_truncation_oracle_agrees_on_every_convergent_verdict(self):
        game = dollar_auction(100)
        depth = 40
        for profile in all_stationary(game):
            symbolic = check_spe_param(game, profile)
            results = {s: induced_outcome_param(game, profile, s) for s in game.shapes}
            if any(isinstance(r, Divergent) for r in results.values()):
                assert not symbolic.ok
                continue
            cut_shape = "A" if depth % 2 == 0 else "B"
            cut = results[cut_shape]
            assert isinstance(cut, ConvergesAffine)
            terminal = tuple(v.at(depth) for v in cut.outcome)
            tree = instantiate(game, depth, terminal)
            restriction = instantiate_profile(game, profile, depth)
            assert check_spe(tree, restriction).ok == symbolic.ok
