"""The one-pass graph check and the backtracking enumerator, refereed.

``check_spe_param`` resolves a profile's play from every shape in one pass,
and ``enumerate_stationary_spe`` searches profiles by pruned backtracking.
Both must give exactly what the walk-from-every-shape report and the
product-plus-filter enumeration give (``tests/helpers.py``): the same
violations with the same affine values, the same divergences, the same
equilibria in the same order.  The scale tests pin sizes the quadratic
check and the exhaustive enumeration could not reach; they assert answers,
not times.
"""

from __future__ import annotations

import random

import pytest
from helpers import (
    loop01,
    random_cyclic,
    random_graph,
    random_parametric,
    reference_entry_stages,
    reference_enumerate_stationary,
    reference_spe_report_param,
    ring,
)

from seqgames import cyclic as cy
from seqgames import dsl
from seqgames import escalation as esc
from seqgames import parametric as par
from seqgames.core import ShapeMismatch

NEVER_BID = {"A0": "a", "A": "a", "B": "a"}


def _small_games(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_cyclic(rng) if i % 2 else random_parametric(rng)


def _wide_games(seed: int, count: int):
    """Games as wide as the benchmark's random graphs: 5 to 8 decision points."""
    rng = random.Random(seed)
    for i in range(count):
        widths = [rng.choice((2, 2, 2, 3)) for _ in range(rng.randint(5, 8))]
        yield random_graph(rng, widths, parametric=bool(i % 2))


class TestCheckMatchesReference:
    def test_every_profile_of_small_random_games(self):
        checked = diverging = violating = 0
        for game in _small_games(81, 400):
            graph = game.embedding
            for profile in par.stationary_profiles(graph):
                report = par.check_spe_param(game, profile)
                assert report == reference_spe_report_param(graph, profile)
                checked += 1
                diverging += bool(report.divergences)
                violating += bool(report.violations)
        assert checked > 3000 and diverging > 500 and violating > 500

    def test_sampled_profiles_of_wide_random_games(self):
        rng = random.Random(83)
        slopes = 0
        for game in _wide_games(85, 60):
            graph = game.embedding
            profiles = list(par.stationary_profiles(graph))
            for profile in rng.sample(profiles, min(len(profiles), 40)):
                report = par.check_spe_param(game, profile)
                assert report == reference_spe_report_param(graph, profile)
                slopes += any(v.profile_value.slope != v.deviation_value.slope for v in report.violations)
        assert slopes > 20  # the entry-stage comparison is exercised, not only the constant one

    def test_cyclic_report_is_the_slope_zero_report(self):
        for game in _small_games(87, 200):
            if isinstance(game, cy.CyclicGame):
                for profile in par.stationary_profiles(game.embedding):
                    report = cy.check_spe_cyclic(game, profile)
                    expected = reference_spe_report_param(game.embedding, profile)
                    assert report.divergences == expected.divergences
                    assert [(v.where, v.action, v.profile_value, v.deviation_value) for v in report.violations] == [
                        (v.where, v.action, v.profile_value.const, v.deviation_value.const)
                        for v in expected.violations
                    ]

    def test_entry_stages_match_the_layered_search(self):
        for game in _small_games(89, 300):
            assert par.entry_stages(game.embedding) == reference_entry_stages(game.embedding)


class TestEnumerationMatchesReference:
    def test_small_random_games(self):
        found = 0
        for game in _small_games(91, 400):
            accepted = par.enumerate_stationary_spe(game)
            assert accepted == reference_enumerate_stationary(game.embedding)
            assert all(list(profile) == list(game.embedding.shapes) for profile in accepted)
            found += len(accepted)
        assert found > 200

    def test_wide_random_games(self):
        found = 0
        for game in _wide_games(93, 40):
            accepted = par.enumerate_stationary_spe(game)
            assert accepted == reference_enumerate_stationary(game.embedding)
            found += len(accepted)
        assert found > 20

    def test_auction_and_loop(self):
        for game in (par.dollar_auction(1), par.dollar_auction(100), loop01(), ring(6)):
            assert par.enumerate_stationary_spe(game) == reference_enumerate_stationary(game.embedding)


class TestScale:
    def test_ring_20_has_every_equilibrium_in_canonical_order(self):
        game = ring(20)
        found = cy.enumerate_positional_spe(game)
        assert len(found) == 2 ** (20 // 2 + 1) - 2 == 2046
        ranks = [tuple(profile[name] for name in game.nodes) for profile in found]
        assert ranks == sorted(set(ranks))  # "a" < "c": product order, no repeats
        assert all(cy.check_spe_cyclic(game, profile).ok for profile in found[::97])

    def test_ring_2000_continuing_everywhere_diverges_from_every_node(self):
        game = ring(2000)
        report = cy.check_spe_cyclic(game, {name: "c" for name in game.nodes})
        assert report.divergences == tuple(game.nodes)
        assert report.violations == ()

    def test_bound_is_still_on_the_product(self):
        with pytest.raises(cy.SearchSpaceTooLarge, match=r"^2097152 positional profiles exceed bound 1048576$"):
            cy.enumerate_positional_spe(ring(21))


class TestListValuedChoice:
    """Label lookups stay tuple lookups: an unhashable choice is a mismatch."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda profile: par.check_stationary(loop01(), profile),
            lambda profile: esc.detect_escalation(
                loop01(), esc.BeliefPair(profile, {"A": "a", "B": "c"}), require_equilibria=False
            ),
            lambda profile: dsl.render_profile(loop01(), profile),
            lambda profile: dsl.to_dot(dsl.GameDoc(("Alice", "Bertrand"), loop01()), profile),
        ],
        ids=["check_stationary", "detect_escalation unchecked", "render_profile", "to_dot"],
    )
    def test_list_choice_is_a_shape_mismatch(self, call):
        with pytest.raises(ShapeMismatch, match=r"^choice \['a'\] at 'A' is not an edge label$"):
            call({"A": ["a"], "B": "c"})


@pytest.mark.parametrize(
    "call, instead",
    [
        (lambda game: cy.induced_outcome(game, NEVER_BID), "induced_outcome_param"),
        (lambda game: cy.check_spe_cyclic(game, NEVER_BID), "check_spe_param"),
        (lambda game: cy.unfold(game, 3, (0, 0)), "instantiate"),
        (lambda game: cy.unfold_profile(game, NEVER_BID, 3), "instantiate_profile"),
    ],
    ids=["induced_outcome", "check_spe_cyclic", "unfold", "unfold_profile"],
)
def test_cyclic_adapters_reject_a_parametric_game(call, instead):
    with pytest.raises(TypeError, match=rf"^expected a CyclicGame, got ParametricGame; use parametric\.{instead}$"):
        call(par.dollar_auction(100))


def test_escalation_reports_a_start_the_game_lacks():
    game = par.ParametricGame(par.dollar_auction(100).shapes, "Z")
    with pytest.raises(par.UnknownShape, match="^Z$"):
        esc.detect_escalation(game, esc.BeliefPair(NEVER_BID, NEVER_BID), require_equilibria=False)
