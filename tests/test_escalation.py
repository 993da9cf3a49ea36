"""Belief composition, escalation detection, and memoryless simulation."""

from __future__ import annotations

import random
import re

import pytest
from helpers import loop01, random_cyclic, random_graph, random_parametric, reference_detect_escalation, ring

from seqgames.core import InvalidArgument, ShapeMismatch, leaf
from seqgames.escalation import (
    BeliefNotEquilibrium,
    BeliefPair,
    Escalates,
    FixedIndex,
    NoEquilibria,
    SplitMix64,
    Terminates,
    compose_beliefs,
    detect_escalation,
    simulate,
)
from seqgames.dsl import parse
from seqgames.parametric import (
    CyclicGame,
    CyclicNode,
    Divergent,
    dollar_auction,
    enumerate_stationary_spe,
    from_cyclic,
    stationary_profiles,
)

# Each player believes the game follows the equilibrium in which the OTHER
# player eventually gives up.
LOOP_CROSSED = BeliefPair({"A": "c", "B": "a"}, {"A": "a", "B": "c"})
AUCTION_CROSSED = BeliefPair(
    {"A0": "c", "A": "c", "B": "a"}, {"A0": "a", "A": "a", "B": "c"}
)


class TestSplitMix64:
    def test_known_sequence_for_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_below_is_deterministic(self):
        assert [SplitMix64(42).below(2) for _ in range(1)] == [
            SplitMix64(42).below(2)
        ]


class TestCompose:
    def test_crossed_beliefs_give_mutual_continuation(self):
        assert compose_beliefs(loop01(), LOOP_CROSSED) == {"A": "c", "B": "c"}

    def test_identical_beliefs_compose_to_themselves(self):
        belief = {"A": "a", "B": "c"}
        assert compose_beliefs(loop01(), BeliefPair(belief, belief)) == belief

    def test_auction_crossed_beliefs(self):
        composed = compose_beliefs(dollar_auction(100), AUCTION_CROSSED)
        assert composed == {"A0": "c", "A": "c", "B": "c"}

    def test_idempotent(self):
        composed = compose_beliefs(loop01(), LOOP_CROSSED)
        again = compose_beliefs(loop01(), BeliefPair(composed, composed))
        assert again == composed

    def test_commutes_with_label_renaming(self):
        renamed = CyclicGame(
            {
                "A": CyclicNode(0, (("quit", leaf(0, 1)), ("go", "B"))),
                "B": CyclicNode(1, (("quit", leaf(1, 0)), ("go", "A"))),
            },
            "A",
        )
        swap = {"a": "quit", "c": "go"}
        pair = BeliefPair(
            {k: swap[v] for k, v in LOOP_CROSSED.belief_of_a.items()},
            {k: swap[v] for k, v in LOOP_CROSSED.belief_of_b.items()},
        )
        composed = compose_beliefs(renamed, pair)
        reference = compose_beliefs(loop01(), LOOP_CROSSED)
        assert composed == {k: swap[v] for k, v in reference.items()}

    def test_rejects_malformed_belief(self):
        with pytest.raises(ShapeMismatch):
            compose_beliefs(loop01(), BeliefPair({"A": "c"}, {"A": "a", "B": "c"}))


class TestDetect:
    def test_crossed_beliefs_escalate_on_the_loop(self):
        verdict = detect_escalation(loop01(), LOOP_CROSSED)
        assert isinstance(verdict, Escalates)
        assert verdict.witness == Divergent(stem=(), cycle=("A", "B"))

    def test_shared_abandon_belief_terminates_immediately(self):
        belief = {"A": "a", "B": "c"}
        verdict = detect_escalation(loop01(), BeliefPair(belief, belief))
        assert verdict == Terminates(stage=0, outcome=(0, 1))

    def test_swapped_beliefs_terminate(self):
        swapped = BeliefPair(LOOP_CROSSED.belief_of_b, LOOP_CROSSED.belief_of_a)
        assert detect_escalation(loop01(), swapped) == Terminates(stage=0, outcome=(0, 1))

    def test_auction_crossed_beliefs_escalate_symbolically(self):
        verdict = detect_escalation(dollar_auction(100), AUCTION_CROSSED)
        assert isinstance(verdict, Escalates)
        assert isinstance(verdict.witness, Divergent)

    def test_auction_escalation_witness_is_the_lasso(self):
        verdict = detect_escalation(dollar_auction(100), AUCTION_CROSSED)
        assert verdict == Escalates(Divergent(stem=("A0",), cycle=("B", "A")))

    def test_auction_swapped_beliefs_terminate_at_stage_zero(self):
        swapped = BeliefPair(AUCTION_CROSSED.belief_of_b, AUCTION_CROSSED.belief_of_a)
        assert detect_escalation(dollar_auction(100), swapped) == Terminates(
            stage=0, outcome=(0, 0)
        )

    def test_non_equilibrium_belief_is_refused(self):
        bad = BeliefPair({"A": "a", "B": "a"}, {"A": "a", "B": "c"})
        with pytest.raises(BeliefNotEquilibrium) as err:
            detect_escalation(loop01(), bad)
        assert err.value.player == 0

    def test_non_equilibrium_belief_allowed_when_not_required(self):
        bad = BeliefPair({"A": "a", "B": "a"}, {"A": "a", "B": "c"})
        verdict = detect_escalation(loop01(), bad, require_equilibria=False)
        assert verdict == Terminates(stage=0, outcome=(0, 1))


def _small_games(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        yield random_cyclic(rng) if i % 2 else random_parametric(rng)


def _verdict(game, beliefs, require_equilibria, judge):
    """``judge``'s verdict, or the ``BeliefNotEquilibrium`` it raises."""
    try:
        return judge(game, beliefs, require_equilibria=require_equilibria)
    except BeliefNotEquilibrium as err:
        return err.__class__, err.player, str(err)


class TestDetectMatchesReference:
    """``detect_escalation`` against ``reference_detect_escalation``, which composes the
    beliefs by hand and walks the composed profile with a loop of its own: equal verdicts
    and witnesses on every ordered pair of stationary profiles."""

    @staticmethod
    def _games(corpus_dir):
        games = [ring(n) for n in range(2, 9)] + [dollar_auction(100)]
        loops = ("zero_one_cyclic.game", "zero_one_param.game")
        games += [parse((corpus_dir / name).read_text()).game for name in loops]
        return games

    @staticmethod
    def _pairs(game):
        profiles = list(stationary_profiles(game))
        return [BeliefPair(a, b) for a in profiles for b in profiles]

    def test_every_pair_unchecked(self, corpus_dir):
        escalating = terminating = 0
        for game in [*self._games(corpus_dir), *_small_games(161, 120)]:
            for beliefs in self._pairs(game):
                verdict = detect_escalation(game, beliefs, require_equilibria=False)
                assert verdict == reference_detect_escalation(game, beliefs, require_equilibria=False), beliefs
                escalating += isinstance(verdict, Escalates)
                terminating += isinstance(verdict, Terminates)
        assert escalating > 5000 and terminating > 100000  # both verdicts are well exercised

    def test_every_pair_of_equilibria_of_wider_games(self):
        """The table the benchmark builds: every ordered pair of equilibria, unchecked, on rings up
        to 10 nodes (cyclic and as param games), the auction and seeded random graphs of 2 to 8
        decision points of either kind."""
        rng = random.Random(163)
        games = [ring(n) for n in range(2, 11)] + [from_cyclic(ring(n)) for n in range(2, 11)] + [dollar_auction(7)]
        for i in range(200):
            widths = [rng.choice((1, 2, 2, 3)) for _ in range(rng.randint(2, 8))]
            games.append(random_graph(rng, widths, parametric=bool(i % 2)))
        verdicts: dict[str, set] = {"cyclic": set(), "param": set()}
        for game in games:
            equilibria = enumerate_stationary_spe(game)
            for beliefs in (BeliefPair(a, b) for a in equilibria for b in equilibria):
                verdict = detect_escalation(game, beliefs, require_equilibria=False)
                assert verdict == reference_detect_escalation(game, beliefs, require_equilibria=False), beliefs
                verdicts[game.KIND].add(verdict.__class__)
        assert verdicts == {"cyclic": {Escalates, Terminates}, "param": {Escalates, Terminates}}

    def test_every_pair_checked(self, corpus_dir):
        refused = accepted = 0
        for game in [*self._games(corpus_dir)[-3:], ring(4), *_small_games(162, 60)]:
            for beliefs in self._pairs(game):
                verdict = _verdict(game, beliefs, True, detect_escalation)
                assert verdict == _verdict(game, beliefs, True, reference_detect_escalation), beliefs
                refused += verdict.__class__ is tuple
                accepted += verdict.__class__ is not tuple
        assert refused > 7000 and accepted > 100


class TestSimulate:
    def test_equilibrium_beliefs_for_the_loop(self):
        assert enumerate_stationary_spe(loop01()) == [
            {"A": "a", "B": "c"},
            {"A": "c", "B": "a"},
        ]

    def test_fixed_crossed_beliefs_hit_the_horizon(self):
        # Alice pinned to her continuing equilibrium, Bertrand to his
        trace = simulate(loop01(), 50, 0, FixedIndex((1, 0)))
        assert trace.horizon_hit
        assert len(trace.steps) == 50
        assert all(step.action == "c" for step in trace.steps)

    def test_fixed_crossed_beliefs_on_the_auction(self):
        trace = simulate(dollar_auction(100), 30, 0, FixedIndex((1, 0)))
        assert trace.horizon_hit
        assert [step.stage for step in trace.steps] == list(range(30))

    @pytest.mark.parametrize("indices", [(1,), (1, 0, 5)], ids=["one index", "three indices"])
    def test_fixed_index_needs_one_index_per_player(self, indices):
        with pytest.raises(ValueError, match=f"^FixedIndex needs one belief index per player, got {len(indices)}$"):
            simulate(dollar_auction(10), 5, 1, FixedIndex(indices))

    @pytest.mark.parametrize(
        ("horizon", "seed", "field", "value"),
        [
            ("x", 0, "horizon", "'x'"),
            (2.5, 0, "horizon", "2.5"),
            (3.0, 0, "horizon", "3.0"),
            (True, 0, "horizon", "True"),
            (None, 0, "horizon", "None"),
            (3, "x", "seed", "'x'"),
            (3, 1.5, "seed", "1.5"),
            (3, False, "seed", "False"),
            (3, None, "seed", "None"),
            ("x", "y", "horizon", "'x'"),  # the horizon is checked first
        ],
    )
    def test_a_horizon_or_seed_that_is_no_int_is_refused(self, horizon, seed, field, value):
        with pytest.raises(InvalidArgument, match=rf"^{field} must be an int, got {re.escape(value)}$"):
            simulate(loop01(), horizon, seed)

    def test_horizon_zero(self):
        trace = simulate(loop01(), 0, 7)
        assert trace.steps == ()
        assert trace.horizon_hit

    def test_bit_reproducible(self):
        for seed in range(20):
            assert simulate(loop01(), 1000, seed) == simulate(loop01(), 1000, seed)

    def test_every_step_is_locally_rational(self):
        beliefs = enumerate_stationary_spe(loop01())
        for seed in range(200):
            trace = simulate(loop01(), 1000, seed)
            for step in trace.steps:
                name = "A" if step.mover == 0 else "B"
                assert step.action in {belief[name] for belief in beliefs}

    def test_stopping_frequency_near_one_half(self):
        stops = turns = 0
        for seed in range(2000):
            trace = simulate(loop01(), 1000, seed)
            turns += len(trace.steps)
            stops += 0 if trace.horizon_hit else 1
        assert abs(stops / turns - 0.5) < 0.05

    def test_uniform_terminating_run_reports_outcome(self):
        trace = simulate(loop01(), 1000, 42)
        assert not trace.horizon_hit
        final = trace.steps[-1]
        expected = (0, 1) if final.mover == 0 else (1, 0)
        assert trace.outcome == expected

    def test_no_equilibria(self):
        hopeless = CyclicGame({"N": CyclicNode(0, (("c", "N"),))}, "N")
        with pytest.raises(NoEquilibria):
            simulate(hopeless, 10, 0)

    @pytest.mark.parametrize("indices", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_fixed_index_out_of_range_is_refused_before_the_first_step(self, indices):
        bad = next(i for i in indices if not 0 <= i < 2)
        with pytest.raises(ValueError, match=rf"belief index {bad} .* 2 beliefs"):
            simulate(loop01(), 5, 1, FixedIndex(indices))

    def test_fixed_index_is_checked_against_an_explicit_belief_list(self):
        with pytest.raises(ValueError, match="1 beliefs"):
            simulate(loop01(), 5, 1, FixedIndex((0, 1)), equilibria=[{"A": "c", "B": "a"}])

    def test_explicit_belief_list_is_used(self):
        trace = simulate(loop01(), 10, 0, FixedIndex((0, 0)), equilibria=[{"A": "c", "B": "a"}])
        assert not trace.horizon_hit
        assert trace.outcome == (1, 0)

    def test_only_a_given_belief_list_is_checked(self, monkeypatch):
        checked = []
        monkeypatch.setattr(CyclicGame, "check_profile", lambda game, profile: checked.append(profile))
        simulate(loop01(), 10, 0)
        assert checked == []
        simulate(loop01(), 10, 0, equilibria=[{"A": "c", "B": "a"}])
        assert checked == [{"A": "c", "B": "a"}]
