"""Backward induction against the brute-force one-deviation oracle."""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction

import pytest
from helpers import (
    big_random_tree,
    brute_equilibria,
    chain01,
    deep_random_tree,
    pennies_equilibrium,
    pennies_seq,
    random_profile,
    random_tree,
    reference_check_profile,
    reference_check_spe,
    reference_enumerate_equilibria,
    reference_solve,
    tied_chain_tree,
    tree_paths,
)

from seqgames.core import InvalidArgument, NotTwoPlayer, Leaf, ShapeMismatch, chosen_branches, induced_play, leaf, node
from seqgames.finite import TiePolicy, check_spe, enumerate_equilibria, solve


def profile_key(profile: dict) -> tuple:
    return tuple(sorted(profile.items()))


def profile_set(profiles) -> set:
    return {profile_key(p) for p in profiles}


class TestSolve:
    def test_pennies_first_branch(self):
        profile = solve(pennies_seq(), TiePolicy.FIRST_BRANCH)
        assert profile[()] == "p"
        play, outcome = induced_play(pennies_seq(), profile)
        assert play == ("p", "f", "f")
        assert outcome == (1, 1)
        assert profile == pennies_equilibrium("p")

    def test_pennies_last_branch(self):
        profile = solve(pennies_seq(), TiePolicy.LAST_BRANCH)
        assert profile == pennies_equilibrium("f")
        assert induced_play(pennies_seq(), profile)[1] == (1, 1)

    def test_seven_rounds_alice_always_continues(self):
        game = chain01(7)
        for ties in TiePolicy:
            profile = solve(game, ties)
            alice_paths = [path for path in tree_paths(game) if len(path) % 2 == 0]
            assert all(profile[path] == "c" for path in alice_paths)
            assert induced_play(game, profile)[1] == (1, 0)

    def test_leaf_game(self):
        assert solve(leaf(0, 1)) == {}

    def test_rejects_three_players(self):
        with pytest.raises(NotTwoPlayer):
            solve(node(0, ("a", Leaf((0, 1, 2)))))

    @pytest.mark.parametrize("owner", [2, -1, 1.0, Fraction(1), True, 0.0])  # the int 0 or 1 only
    def test_rejects_an_owner_other_than_player_0_or_1(self, owner):
        game = node(0, ("a", leaf(1, 2)), ("b", node(owner, ("c", leaf(0, 0)))))
        message = f"^solvers need two players, found a decision node owned by {re.escape(repr(owner))}$"
        for run in (solve, enumerate_equilibria, lambda g: check_spe(g, {(): "a", ("b",): "c"})):
            with pytest.raises(NotTwoPlayer, match=message):
                run(game)

    def test_the_verdict_is_found_once_per_index(self):
        game = node(0, ("a", leaf(1, 2)), ("b", leaf(2, 1)))
        assert game.index.fault is None
        assert solve(game) == {(): "b"}
        assert game.index.fault == ""
        game.index.fault = "kept"  # a second call reads the kept verdict instead of scanning again
        with pytest.raises(NotTwoPlayer, match="^kept$"):
            enumerate_equilibria(game)

    def test_solved_profiles_pass_check(self):
        rng = random.Random(5)
        for _ in range(40):
            game = random_tree(rng)
            for ties in TiePolicy:
                assert check_spe(game, solve(game, ties)).ok

    def test_tie_free_games_are_policy_independent(self):
        # distinct utilities everywhere kill all ties
        rng = random.Random(7)
        for _ in range(30):
            game = random_tree(rng)
            counter = [0]

            def relabel(sub):
                if isinstance(sub, Leaf):
                    counter[0] += 1
                    return leaf(counter[0], -counter[0])
                return node(sub.owner, *((l, relabel(c)) for l, c in sub.branches))

            distinct = relabel(game)
            assert solve(distinct, TiePolicy.FIRST_BRANCH) == solve(
                distinct, TiePolicy.LAST_BRANCH
            )

    def test_ties_by_member_or_value(self):
        game = node(0, ("a", leaf(1, 0)), ("b", leaf(1, 0)))
        assert solve(game, "first") == solve(game, TiePolicy.FIRST_BRANCH) == {(): "a"}
        assert solve(game, "last") == {(): "b"}
        for ties in ("bogus", None, "FIRST_BRANCH", 0, [], TiePolicy):
            # Enum's own message, on an error that is both a GameError and a ValueError
            with pytest.raises(InvalidArgument, match=f"^{re.escape(repr(ties))} is not a valid TiePolicy$"):
                solve(game, ties)


class TestEnumerate:
    def test_pennies_exactly_two(self):
        game = pennies_seq()
        result = enumerate_equilibria(game)
        assert not result.truncated
        assert profile_set(result.profiles) == profile_set(
            [pennies_equilibrium("p"), pennies_equilibrium("f")]
        )
        lines = {induced_play(game, p)[0] for p in result.profiles}
        assert lines == {("p", "f", "f"), ("f", "p", "p")}

    def test_seven_rounds_eight_profiles(self):
        game = chain01(7)
        result = enumerate_equilibria(game)
        assert len(result.profiles) == 8
        for profile in result.profiles:
            assert all(profile[path] == "c" for path in profile if len(path) % 2 == 0)
            assert induced_play(game, profile)[1] == (1, 0)
        assert profile_set(result.profiles) == profile_set(brute_equilibria(game))

    def test_six_rounds_eight_profiles(self):
        game = chain01(6)
        result = enumerate_equilibria(game)
        assert len(result.profiles) == 8
        for profile in result.profiles:
            # Bertrand owns the odd-depth nodes and must continue
            assert all(profile[path] == "c" for path in profile if len(path) % 2 == 1)
            assert induced_play(game, profile)[1] == (0, 1)
        assert profile_set(result.profiles) == profile_set(brute_equilibria(game))

    def test_leaf_game(self):
        result = enumerate_equilibria(leaf(3, 3))
        assert result.profiles == ({},)

    def test_cap_truncates_with_flag(self):
        # all-equal payoffs tie everywhere: 2^5 = 32 equilibria on a 5-node chain
        game = leaf(1, 1)
        for _ in range(5):
            game = node(0, ("x", leaf(1, 1)), ("y", game))
        full = enumerate_equilibria(game)
        assert len(full.profiles) == 32 and not full.truncated
        capped = enumerate_equilibria(game, cap=10)
        assert len(capped.profiles) == 10 and capped.truncated

    @pytest.mark.parametrize("cap", [4.5, 10.0, True])
    def test_cap_must_be_an_int(self, cap):
        # a float cap was never reached, so every one of the 32 profiles came back
        game = leaf(1, 1)
        for _ in range(5):
            game = node(0, ("x", leaf(1, 1)), ("y", game))
        with pytest.raises(ValueError, match=f"^cap must be an int, got {cap!r}$"):
            enumerate_equilibria(game, cap)
        with pytest.raises(ValueError, match="^cap must be positive$"):
            enumerate_equilibria(game, 0)

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(13)
        for _ in range(60):
            game = random_tree(rng)
            result = enumerate_equilibria(game)
            assert not result.truncated
            assert profile_set(result.profiles) == profile_set(brute_equilibria(game))

    def test_monotone_utility_rescaling_preserves_equilibria(self):
        rng = random.Random(17)
        for _ in range(30):
            game = random_tree(rng)
            player = rng.randint(0, 1)
            shift = rng.randint(1, 5)

            def rescale(value: int) -> int:
                # strictly increasing: affine plus cube keeps order, stretches gaps
                return value**3 + shift * value + shift

            def remap(sub):
                if isinstance(sub, Leaf):
                    out = list(sub.outcome)
                    out[player] = rescale(out[player])
                    return Leaf(tuple(out))
                return node(sub.owner, *((l, remap(c)) for l, c in sub.branches))

            rescaled = remap(game)
            assert profile_set(enumerate_equilibria(game).profiles) == profile_set(
                enumerate_equilibria(rescaled).profiles
            )


class TestCheckSpe:
    def test_both_pennies_equilibria_pass(self):
        game = pennies_seq()
        assert check_spe(game, pennies_equilibrium("p")).ok
        assert check_spe(game, pennies_equilibrium("f")).ok

    def test_tampered_profile_fails_at_the_tampered_node(self):
        game = pennies_seq()
        tampered = pennies_equilibrium("p")
        tampered[("p", "f")] = "p"  # toward (0,2): worse for the owner
        report = check_spe(game, tampered)
        assert not report.ok
        violation = next(v for v in report.violations if v.where == ("p", "f"))
        assert violation.action == "f"
        assert violation.profile_value == 0
        assert violation.deviation_value == 1

    def test_leaf_vacuously_ok(self):
        assert check_spe(leaf(0, 1), {}).ok

    def test_agrees_with_oracle_on_random_profiles(self):
        from helpers import all_profiles, one_deviation_stable

        rng = random.Random(19)
        for _ in range(25):
            game = random_tree(rng, max_nodes=9)
            for profile in all_profiles(game):
                assert check_spe(game, profile).ok == one_deviation_stable(game, profile)

    def test_violations_at_unreachable_nodes_are_found(self):
        # root goes left; the right subtree still must be stable
        game = node(
            0,
            ("x", leaf(5, 5)),
            ("y", node(1, ("x", leaf(0, 0)), ("y", leaf(0, 9)))),
        )
        profile = {(): "x", ("y",): "x"}
        report = check_spe(game, profile)
        assert not report.ok
        assert report.violations[0].where == ("y",)


@pytest.fixture(scope="module")
def referee_trees() -> list:
    """300 seeded trees: 1-3 branches, payoffs 0..2 (ties are frequent),
    depth up to 40."""
    rng = random.Random(404)
    return [deep_random_tree(rng, max_nodes=40) for _ in range(300)]


def items(profile: dict) -> list:
    """A profile's entries in insertion order, so order is compared too."""
    return list(profile.items())


def shape_error(check, game, profile):
    try:
        check(game, profile)
    except ShapeMismatch as exc:
        return str(exc)
    return None


class TestRecursiveReferees:
    """The flat preorder kernels give the recursive kernels' answers exactly:
    same dicts in the same insertion order, same violation order, same
    enumeration order and truncation flag, same shape errors."""

    def test_trees_are_deep_and_tied(self, referee_trees):
        depths = [max(len(path) for path in tree_paths(game)) + 1 for game in referee_trees]
        assert max(depths) >= 35
        assert sum(enumerate_equilibria(game, cap=4).truncated for game in referee_trees) >= 50

    def test_solve(self, referee_trees):
        for game in referee_trees:
            for ties in TiePolicy:
                assert items(solve(game, ties)) == items(reference_solve(game, ties))

    @pytest.mark.parametrize("cap", [1, 4, 1024])
    def test_enumerate_equilibria(self, referee_trees, cap):
        for game in referee_trees:
            got = enumerate_equilibria(game, cap)
            want = reference_enumerate_equilibria(game, cap)
            assert got == want
            assert [list(p) for p in got.profiles] == [list(p) for p in want.profiles]
            assert got.profiles[0] == solve(game, TiePolicy.FIRST_BRANCH)  # as dicts: solve keys in postorder

    def test_check_spe(self, referee_trees):
        rng = random.Random(405)
        for game in referee_trees:
            profiles = [solve(game, ties) for ties in TiePolicy]
            profiles += [random_profile(rng, game) for _ in range(3)]
            for profile in profiles:
                assert check_spe(game, profile) == reference_check_spe(game, profile)

    def test_check_profile(self, referee_trees):
        rng = random.Random(406)
        for game in referee_trees:
            good = random_profile(rng, game)
            path = rng.choice(sorted(good))
            missing = {key: value for key, value in good.items() if key != path}
            extra = {**good, path + ("w",): "x"}
            replaced = {**missing, path + ("w",): "x"}  # the right size, with one key that is no path
            bad_label = {**good, path: "w"}
            two_bad = {**good, **dict.fromkeys(rng.sample(sorted(good), min(2, len(good))), "w")}
            unhashable = {**good, path: ["w"]}
            for profile in (good, missing, extra, replaced, bad_label, two_bad, unhashable):
                expected = shape_error(reference_check_profile, game, profile)
                assert shape_error(chosen_branches, game, profile) == expected
                assert (expected is None) == (profile is good)
            first = next(key for key in tree_paths(game) if two_bad[key] == "w")
            assert shape_error(chosen_branches, game, two_bad) == f"choice 'w' at {first!r} is not a branch label"
        for profile in ({}, {(): "x"}):  # a leaf game has no decision node
            expected = shape_error(reference_check_profile, leaf(1, 0), profile)
            assert shape_error(chosen_branches, leaf(1, 0), profile) == expected
        assert chosen_branches(leaf(1, 0), {}) == [None]


def tie_pattern_games():
    """Every tie pattern of one decision node: each owner over 1-4 leaves whose
    payoffs to the owner run over {0,1,2}^k, alone and one level below a
    choice of the other player, as its first or its last branch.  The other
    player scores branch ``i`` at ``2 * i`` and the leaf beside it at 3 or 2,
    so which of its tied branches the node takes decides the choice above,
    which is strict beside a 3 and a tie beside a 2 when the node takes ``b``."""
    for owner in (0, 1):
        for k in range(1, 5):
            for scores in itertools.product(range(3), repeat=k):
                branches = []
                for i, score in enumerate(scores):
                    pair = [0, 0]
                    pair[owner], pair[1 - owner] = score, 2 * i
                    branches.append(("abcd"[i], leaf(*pair)))
                pattern = node(owner, *branches)
                yield pattern
                for other in (3, 2):
                    beside = [0, 0]
                    beside[1 - owner] = other
                    yield node(1 - owner, ("p", pattern), ("s", leaf(*beside)))
                    yield node(1 - owner, ("s", leaf(*beside)), ("p", pattern))


class TestTiePatterns:
    """The scoring loops against the recursive referees at every position of
    a tie: the strict ``>`` that keeps the first best branch, the ``>=`` that
    takes the last, the count of tied branches that lists a node for
    enumeration, and the listing of a node above a listed one."""

    def test_solve(self):
        for game in tie_pattern_games():
            for ties in TiePolicy:
                assert items(solve(game, ties)) == items(reference_solve(game, ties))

    @pytest.mark.parametrize("cap", [1, 1024])
    def test_enumerate_equilibria(self, cap):
        games = list(tie_pattern_games())
        assert len(games) == 5 * 2 * (3 + 9 + 27 + 81)
        for game in games:
            got = enumerate_equilibria(game, cap)
            want = reference_enumerate_equilibria(game, cap)
            assert got == want
            assert [items(p) for p in got.profiles] == [items(p) for p in want.profiles]


def branch_positions(game, profile: dict) -> tuple:
    """The positions of a profile's choices, read in ``index.postorder``."""
    index = game.index
    return tuple(index.labels[node].index(profile[index.paths[node]]) for node in index.postorder)


class TestSearchOrder:
    """The canonical order is the lexicographic order of the branch positions
    read in postorder, the premise of the depth-first search; and the search
    keeps the reference's answers on ``tied_chain_tree``, where every move of
    a tie on the left resets a long chain."""

    def assert_increasing(self, game, cap: int) -> int:
        keys = [branch_positions(game, profile) for profile in enumerate_equilibria(game, cap).profiles]
        assert all(before < after for before, after in zip(keys, keys[1:]))
        return len(keys)

    def test_referee_trees(self, referee_trees):
        counts = [self.assert_increasing(game, 1024) for game in referee_trees]
        assert max(counts) == 1024

    def test_big_tree(self):
        assert self.assert_increasing(big_random_tree(random.Random(2020), 10_000), 64) == 64

    @pytest.mark.parametrize("cap", [1, 4, 1024])
    def test_tied_chain(self, cap):
        game = tied_chain_tree(200)
        got = enumerate_equilibria(game, cap)
        want = reference_enumerate_equilibria(game, cap)
        assert got == want
        assert [list(p) for p in got.profiles] == [list(p) for p in want.profiles]
        assert got.truncated
