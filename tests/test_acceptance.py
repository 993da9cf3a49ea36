"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).  Every tolerance is exact except the simulation
frequency band, which is +/- 0.02 around 1/2 over 10,000 seeded runs.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from helpers import (
    all_plays,
    brute_equilibria,
    chain01,
    loop01,
    pennies_seq,
    random_tree,
)

from seqgames.core import induced_play, outcome_of
from seqgames.cyclic import enumerate_positional_spe
from seqgames.dsl import GameDoc, parse, serialize, to_dot
from seqgames.escalation import (
    BeliefPair,
    Escalates,
    detect_escalation,
    simulate,
)
from seqgames.finite import check_spe, enumerate_equilibria
from seqgames.matrix import best_response_value, matrix_game, solve_constant_sum
from seqgames.parametric import (
    ConvergesAffine,
    Divergent,
    affine,
    check_spe_param,
    dollar_auction,
    from_cyclic,
    induced_outcome_param,
    instantiate,
)


def report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


def profile_set(profiles) -> set:
    return {tuple(sorted(p.items())) for p in profiles}


def test_criterion_1_sequential_pennies():
    game = pennies_seq()
    result = enumerate_equilibria(game)
    lines = {induced_play(game, p) for p in result.profiles}
    plays_ok = {play for play, _ in lines} == {("p", "f", "f"), ("f", "p", "p")}
    outcomes_ok = all(outcome == (1, 1) for _, outcome in lines)
    pricing_ok = outcome_of(game, ("p", "f", "p")) == (0, 2) and Counter(
        outcome_of(game, play) for play in all_plays(game)
    ) == {(2, 0): 2, (1, 1): 4, (0, 2): 2} and len(all_plays(game)) == 8
    report(
        "criterion 1: pennies has the two equilibrium play lines, all 8 plays priced",
        plays_ok and outcomes_ok and pricing_ok and not result.truncated,
    )


def test_criterion_2_finite_chains():
    ok = True
    for rounds, forced_player, outcome in ((7, 0, (1, 0)), (6, 1, (0, 1))):
        game = chain01(rounds)
        result = enumerate_equilibria(game)
        ok &= len(result.profiles) == 8
        for profile in result.profiles:
            ok &= all(
                choice == "c"
                for path, choice in profile.items()
                if len(path) % 2 == forced_player
            )
            ok &= induced_play(game, profile)[1] == outcome
        ok &= profile_set(result.profiles) == profile_set(brute_equilibria(game))
    report(
        "criterion 2: 7- and 6-round chains each have exactly 8 equilibria, "
        "verified by brute force over all profiles",
        bool(ok),
    )


def test_criterion_3_cyclic_loop():
    game = loop01()
    accepted = enumerate_positional_spe(game)
    exact = accepted == [{"A": "a", "B": "c"}, {"A": "c", "B": "a"}]
    divergence = check_spe_param(game, {"A": "c", "B": "c"})
    divergence_ok = not divergence.ok and divergence.divergences == ("A", "B")
    both_abandon = check_spe_param(game, {"A": "a", "B": "a"})
    witness = next((v for v in both_abandon.violations if v.where == "A"), None)
    witness_ok = (
        not both_abandon.ok
        and witness is not None
        and witness.action == "c"
        and (witness.profile_value, witness.deviation_value) == (affine(0), affine(1))
    )
    report(
        "criterion 3: the cyclic loop has exactly the two one-sided equilibria; "
        "all-continue diverges, all-abandon has an improving deviation at A",
        exact and divergence_ok and witness_ok,
    )


def test_criterion_4_non_extrapolation():
    game = loop01()
    ok = True
    for depth in range(1, 13):
        expected = (1, 0) if depth % 2 else (0, 1)
        tree = instantiate(game, depth, expected)
        result = enumerate_equilibria(tree)
        ok &= not result.truncated
        ok &= {induced_play(tree, p)[1] for p in result.profiles} == {expected}
    report(
        "criterion 4: truncations alternate between (1,0) at odd and (0,1) at "
        "even depths for d in 1..12",
        bool(ok),
    )


def test_criterion_5_dollar_auction():
    game = dollar_auction(100)
    alice_continues = {"A0": "c", "A": "c", "B": "a"}
    alice_abandons = {"A0": "a", "A": "a", "B": "c"}
    never_bid = {"A0": "a", "A": "a", "B": "a"}
    accepts = check_spe_param(game, alice_continues).ok and check_spe_param(
        game, alice_abandons
    ).ok
    never = check_spe_param(game, never_bid)
    witness = next((v for v in never.violations if v.where == "A"), None)
    witness_ok = (
        not never.ok
        and witness is not None
        and witness.profile_value == affine(1, -1)
        and witness.deviation_value == affine(99, -1)
    )
    # stage-40 truncation referee: same verdict for every convergent profile
    from seqgames.parametric import instantiate, instantiate_profile

    depth = 40
    truncation_ok = True
    names = list(game.shapes)
    for combo in itertools.product("ac", repeat=3):
        profile = dict(zip(names, combo))
        symbolic = check_spe_param(game, profile)
        results = {s: induced_outcome_param(game, profile, s) for s in names}
        if any(isinstance(r, Divergent) for r in results.values()):
            truncation_ok &= not symbolic.ok
            continue
        cut = results["A" if depth % 2 == 0 else "B"]
        assert isinstance(cut, ConvergesAffine)
        terminal = tuple(v.at(depth) for v in cut.outcome)
        tree = instantiate(game, depth, terminal)
        restriction = instantiate_profile(game, profile, depth)
        truncation_ok &= check_spe(tree, restriction).ok == symbolic.ok
    report(
        "criterion 5: auction v=100 accepts both one-sided profiles, rejects "
        "never-bid with the 99-1*n > 1-1*n witness, stage-40 truncation agrees",
        accepts and witness_ok and bool(truncation_ok),
    )


def test_criterion_6_escalation():
    loop = loop01()
    loop_beliefs = BeliefPair({"A": "c", "B": "a"}, {"A": "a", "B": "c"})
    loop_ok = (
        check_spe_param(loop, loop_beliefs.belief_of_a).ok
        and check_spe_param(loop, loop_beliefs.belief_of_b).ok
        and isinstance(detect_escalation(loop, loop_beliefs), Escalates)
    )
    auction = dollar_auction(100)
    auction_beliefs = BeliefPair(
        {"A0": "c", "A": "c", "B": "a"}, {"A0": "a", "A": "a", "B": "c"}
    )
    auction_ok = (
        check_spe_param(auction, auction_beliefs.belief_of_a).ok
        and check_spe_param(auction, auction_beliefs.belief_of_b).ok
        and isinstance(detect_escalation(auction, auction_beliefs), Escalates)
    )
    report(
        "criterion 6: crossed equilibrium beliefs escalate on the loop and on "
        "the auction while each belief passes its own check",
        loop_ok and auction_ok,
    )


def test_criterion_7_memoryless_simulation():
    game = loop01()
    stops = turns = 0
    for seed in range(10_000):
        trace = simulate(game, 1000, seed)
        turns += len(trace.steps)
        stops += 0 if trace.horizon_hit else 1
    frequency = stops / turns
    reproducible = all(
        simulate(game, 1000, seed) == simulate(game, 1000, seed) for seed in range(100)
    )
    report(
        f"criterion 7: per-turn stopping frequency {frequency:.4f} within 0.02 "
        "of 1/2 over 10,000 seeded runs; traces reproducible",
        abs(frequency - 0.5) <= 0.02 and reproducible,
    )


def test_criterion_8_matrix_games():
    rps = matrix_game(
        [[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 1], [1, 0, Fraction(1, 2)]], 1
    )
    pennies = matrix_game([[1, 0], [0, 1]], 1)
    third = (Fraction(1, 3),) * 3
    half = (Fraction(1, 2),) * 2
    rps_profile = solve_constant_sum(rps)
    pennies_profile = solve_constant_sum(pennies)
    certificates = (
        best_response_value(rps, rps_profile.column, "row") == rps_profile.value
        and best_response_value(rps, rps_profile.row, "column")
        == rps.total - rps_profile.value
        and best_response_value(pennies, pennies_profile.column, "row")
        == pennies_profile.value
        and best_response_value(pennies, pennies_profile.row, "column")
        == pennies.total - pennies_profile.value
    )
    report(
        "criterion 8: exact (1/3,1/3,1/3) for rock-paper-scissors and "
        "(1/2,1/2) for pennies, with exact certificates",
        rps_profile.row == third
        and rps_profile.column == third
        and pennies_profile.row == half
        and pennies_profile.column == half
        and certificates,
    )


def test_criterion_9_oracle_equivalence():
    rng = random.Random(2024)
    finite_ok = True
    for _ in range(200):
        game = random_tree(rng, max_nodes=12)
        result = enumerate_equilibria(game)
        finite_ok &= not result.truncated
        finite_ok &= profile_set(result.profiles) == profile_set(brute_equilibria(game))
    loop = loop01()
    embedded = from_cyclic(loop)
    agreement = all(
        check_spe_param(loop, {"A": a, "B": b}).ok
        == check_spe_param(embedded, {"A": a, "B": b}).ok
        for a in ("a", "c")
        for b in ("a", "c")
    )
    report(
        "criterion 9: enumeration equals the brute-force filter on 200 random "
        "games; cyclic and parametric checkers agree on all 4 loop profiles",
        bool(finite_ok) and agreement,
    )


def test_criterion_10_dsl(corpus_dir):
    files = sorted(corpus_dir.glob("*.game"))
    corpus_ok = len(files) == 9 and all(
        serialize(parse(path.read_text())) == path.read_text() for path in files
    )
    rng = random.Random(77)
    random_ok = True
    for _ in range(500):
        doc = GameDoc(("Alice", "Bertrand"), random_tree(rng))
        random_ok &= parse(serialize(doc)) == doc
    dot_ok = all(
        to_dot(parse(path.read_text())) == to_dot(parse(path.read_text()))
        for path in files
    )
    report(
        "criterion 10: byte-identical round-trip on the corpus, 500 random "
        "round-trips, stable DOT output",
        corpus_ok and bool(random_ok) and dot_ok,
    )
