"""Exact constant-sum matrix solving: certificates, symmetry, determinism."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from helpers import dominated_first, random_matrix, reference_constant_sum

from seqgames import matrix
from seqgames.core import InvalidArgument
from seqgames.matrix import (
    DimensionMismatch,
    MatrixGame,
    TooLarge,
    best_response_value,
    matrix_game,
    solve_constant_sum,
)

RPS = matrix_game(
    [
        [Fraction(1, 2), 1, 0],
        [0, Fraction(1, 2), 1],
        [1, 0, Fraction(1, 2)],
    ],
    1,
)
RPS_ZERO_SUM = matrix_game([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], 0)
PENNIES = matrix_game([[1, 0], [0, 1]], 1)
UNIFORM3 = (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))


class TestSolve:
    def test_rps_is_uniform_third(self):
        profile = solve_constant_sum(RPS)
        assert profile.row == UNIFORM3
        assert profile.column == UNIFORM3
        assert profile.value == Fraction(1, 2)

    def test_rps_zero_sum_encoding_same_distributions(self):
        profile = solve_constant_sum(RPS_ZERO_SUM)
        assert profile.row == UNIFORM3
        assert profile.column == UNIFORM3
        assert profile.value == 0

    def test_pennies_is_even_coin(self):
        profile = solve_constant_sum(PENNIES)
        assert profile.row == (Fraction(1, 2), Fraction(1, 2))
        assert profile.column == (Fraction(1, 2), Fraction(1, 2))
        assert profile.value == Fraction(1, 2)

    def test_one_by_one(self):
        profile = solve_constant_sum(matrix_game([[7]], 7))
        assert profile.row == (1,)
        assert profile.column == (1,)
        assert profile.value == 7

    def test_degenerate_all_equal_picks_lex_smallest_support(self):
        profile = solve_constant_sum(matrix_game([[1, 1], [1, 1]], 2))
        assert profile.row == (1, 0)
        assert profile.column == (1, 0)
        assert profile.value == 1

    def test_dominant_pure_strategy(self):
        game = matrix_game([[3, 2], [1, 0]], 3)
        profile = solve_constant_sum(game)
        assert profile.row == (1, 0)
        assert profile.value == 2

    def test_too_large(self):
        with pytest.raises(TooLarge):
            solve_constant_sum(matrix_game([[0] * 10], 0))

    @pytest.mark.parametrize(
        "payoffs, message",
        [
            ((), "^matrix must have at least one row and one column$"),
            (((),), "^matrix must have at least one row and one column$"),
            (((Fraction(1), Fraction(2)), (Fraction(3),)), "^matrix rows must have equal length$"),
        ],
    )
    def test_a_code_built_game_is_checked_at_construction(self, payoffs, message):
        with pytest.raises(ValueError, match=message):
            MatrixGame(payoffs, Fraction(0))
        with pytest.raises(ValueError, match=message):
            matrix_game(payoffs, 0)

    @pytest.mark.parametrize(
        "payoffs, total, kind",
        [
            (((1.5, Fraction(0)),), Fraction(1), "float"),
            (((Fraction(1), Fraction(0)),), 1.0, "float"),
            (((True, Fraction(0)),), Fraction(1), "bool"),
            (((Fraction(1), Fraction(0)),), False, "bool"),
            ((("1", Fraction(0)),), Fraction(1), "str"),
        ],
    )
    def test_a_code_built_game_refuses_inexact_payoffs(self, payoffs, total, kind):
        with pytest.raises(ValueError, match=f"^matrix payoffs must be int or Fraction, not {kind}$"):
            MatrixGame(payoffs, total)

    def test_a_subclass_entry_passes_the_per_entry_check_and_a_bool_fails_it(self):
        class Payoff(int):
            pass

        class Share(Fraction):
            pass

        game = MatrixGame(((Payoff(1), Share(0)), (Fraction(0), 1)), Share(1))
        assert solve_constant_sum(game) == solve_constant_sum(PENNIES)
        with pytest.raises(InvalidArgument, match="^matrix payoffs must be int or Fraction, not bool$"):
            MatrixGame(((Share(1), Fraction(0)), (Fraction(0), True)), Fraction(1))

    def test_a_code_built_game_takes_int_payoffs(self):
        profile = solve_constant_sum(MatrixGame(((1, 0), (0, 1)), 1))
        assert profile == solve_constant_sum(PENNIES)

    def test_results_are_exact_fractions(self):
        profile = solve_constant_sum(RPS)
        for p in (*profile.row, *profile.column, profile.value):
            assert isinstance(p, Fraction)


class TestBestResponse:
    def test_rps_rows_vs_uniform(self):
        assert best_response_value(RPS, UNIFORM3, "row") == Fraction(1, 2)

    def test_pennies_vs_even_coin(self):
        half = (Fraction(1, 2), Fraction(1, 2))
        assert best_response_value(PENNIES, half, "row") == Fraction(1, 2)

    def test_point_mass_picks_column_maximum(self):
        mass = (Fraction(0), Fraction(1), Fraction(0))
        assert best_response_value(RPS, mass, "row") == 1  # scissors beat paper

    def test_column_side_uses_complement_payoffs(self):
        mass = (Fraction(1), Fraction(0), Fraction(0))
        # against pure rock the column player plays paper: 1 - 0 = 1
        assert best_response_value(RPS, mass, "column") == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            best_response_value(RPS, (Fraction(1, 2), Fraction(1, 2)), "row")

    def test_rejects_non_distribution(self):
        with pytest.raises(ValueError):
            best_response_value(PENNIES, (Fraction(1, 2), Fraction(1, 4)), "row")

    @pytest.mark.parametrize("side", ["diag", "Row", "", None, 0])
    def test_rejects_an_unknown_side(self, side):
        half = (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError, match="^side must be 'row' or 'column', not "):
            best_response_value(PENNIES, half, side)


class TestArguments:
    """A call the kernels cannot answer is an ``InvalidArgument`` that names the argument."""

    @pytest.mark.parametrize("game", [3, None, ((1, 0), (0, 1)), "matrix"])
    def test_a_non_game_is_refused(self, game):
        message = f"^game must be a MatrixGame, not {type(game).__name__}$"
        with pytest.raises(InvalidArgument, match=message):
            solve_constant_sum(game)
        with pytest.raises(InvalidArgument, match=message):
            best_response_value(game, (Fraction(1, 2), Fraction(1, 2)), "row")

    @pytest.mark.parametrize("mix", [["a", "b"], [None, 1], [float("nan"), 1], [float("inf"), 0], ["1/0", 1], 3])
    def test_a_mix_of_non_numbers_is_refused(self, mix):
        with pytest.raises(InvalidArgument, match="^opponent_mix must be a sequence of numbers$"):
            best_response_value(PENNIES, mix, "row")


class TestInvariants:
    def test_certificates_on_random_games(self):
        rng = random.Random(37)
        for _ in range(60):
            game = random_matrix(rng)
            profile = solve_constant_sum(game)
            assert sum(profile.row) == 1 and all(p >= 0 for p in profile.row)
            assert sum(profile.column) == 1 and all(p >= 0 for p in profile.column)
            assert best_response_value(game, profile.column, "row") == profile.value
            assert best_response_value(game, profile.row, "column") == game.total - profile.value

    def test_symmetric_games_get_equal_distributions(self):
        rng = random.Random(41)
        for _ in range(60):
            size = rng.randint(1, 4)
            total = Fraction(rng.randint(-4, 4))
            entries = [[Fraction(0)] * size for _ in range(size)]
            for i in range(size):
                entries[i][i] = total / 2
                for j in range(i + 1, size):
                    entries[i][j] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                    entries[j][i] = total - entries[i][j]
            game = matrix_game(entries, total)
            profile = solve_constant_sum(game)
            assert profile.row == profile.column
            assert profile.value == total / 2

    def test_deterministic(self):
        rng = random.Random(43)
        for _ in range(20):
            game = random_matrix(rng)
            assert solve_constant_sum(game) == solve_constant_sum(game)


def referee_game(rng: random.Random, index: int, size: int | None = None):
    """Seeded games of up to 5x5 (``size`` x ``size`` if given) in three kinds,
    taken in turn: 0..2 integers summing to 2 (many tied optima), rationals,
    and integers under a total that is often negative."""
    rows, cols = (size, size) if size else (rng.randint(1, 5), rng.randint(1, 5))
    kind = index % 3
    if kind == 0:
        entries = [[rng.randint(0, 2) for _ in range(cols)] for _ in range(rows)]
        return matrix_game(entries, 2)
    if kind == 1:
        entries = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
        return matrix_game(entries, Fraction(rng.randint(-2, 5), rng.randint(1, 3)))
    entries = [[rng.randint(-3, 9) for _ in range(cols)] for _ in range(rows)]
    return matrix_game(entries, rng.randint(-2, 5))


def with_dominated_strategies(rng: random.Random, game: MatrixGame) -> MatrixGame:
    """``game`` with a row strictly below one of its rows and a column
    strictly above one of its columns, inserted at random places."""
    rows = [list(row) for row in game.payoffs]
    j, at = rng.randrange(len(rows[0])), rng.randint(0, len(rows[0]))
    for row in rows:
        row.insert(at, row[j] + rng.randint(1, 3))
    model = rows[rng.randrange(len(rows))]
    rows.insert(rng.randint(0, len(rows)), [entry - rng.randint(1, 3) for entry in model])
    return matrix_game(rows, game.total)


def systems_built(monkeypatch, game: MatrixGame) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (rows, columns) of every square system ``solve_constant_sum(game)``
    builds, in order: both the row player's and the column player's.  The
    first system solved is on the row player's matrix; the column player's
    are told from it by the matrix object, since a square game's two
    matrices have the same length."""
    built, primal = [], []
    solve = matrix._equalizing_mix

    def counted(payoffs, support, against):
        primal[:] = primal or [payoffs]
        built.append((support, against) if payoffs is primal[0] else (against, support))
        return solve(payoffs, support, against)

    monkeypatch.setattr(matrix, "_equalizing_mix", counted)
    solve_constant_sum(game)
    return built


class TestReferee:
    def test_matches_rational_reference(self):
        rng = random.Random(53)
        for index in range(540):
            game = referee_game(rng, index)
            assert solve_constant_sum(game) == reference_constant_sum(game), game

    def test_matches_rational_reference_at_six_by_six(self):
        rng = random.Random(59)
        for index in range(12):
            game = referee_game(rng, index, size=6)
            assert solve_constant_sum(game) == reference_constant_sum(game), game

    def test_matches_rational_reference_with_dominated_strategies(self):
        rng = random.Random(61)
        for index in range(90):
            game = with_dominated_strategies(rng, referee_game(rng, index))
            assert solve_constant_sum(game) == reference_constant_sum(game), game
        for index in range(12):
            game = dominated_first(rng, 2 + index % 3, 1 + index % 2)
            assert solve_constant_sum(game) == reference_constant_sum(game), game

    def test_a_row_only_iterated_removal_drops_is_in_no_answer(self):
        # Row 0 ties row 1 in column 0, which is above column 2 in every row;
        # once column 0 goes, row 0 is below row 1.  Rows 1-3 tie, so the scan
        # runs, and it judges supports holding row 0 and rejects each.
        game = matrix_game([[3, -1, 1], [3, 0, 2], [1, 2, 0], [2, 1, 1]], 2)
        profile = solve_constant_sum(game)
        assert profile == reference_constant_sum(game)
        assert profile.row[0] == 0 and profile.column[0] == 0

    def test_no_system_holds_a_strictly_dominated_row(self, monkeypatch):
        # Row 0 is strictly below row 3; rows 1-3 are all optimal, so the game
        # is degenerate and the support scan runs past the simplex's pair.
        game = matrix_game([[-1, -1], [2, 0], [0, 2], [1, 1]], 2)
        built = systems_built(monkeypatch, game)
        assert len(built) > 2 and all(0 not in rows for rows, _cols in built)
        assert solve_constant_sum(game) == reference_constant_sum(game)

    def test_no_system_holds_a_strictly_dominated_column(self, monkeypatch):
        # Column 0 is strictly above column 1; columns 1-3 are all optimal.
        game = matrix_game([[4, 2, 0, 1], [5, 0, 2, 1]], 2)
        built = systems_built(monkeypatch, game)
        assert len(built) > 2 and all(0 not in cols for _rows, cols in built)
        assert solve_constant_sum(game) == reference_constant_sum(game)

    def test_the_strict_pair_ends_the_work(self, monkeypatch):
        # Its only optimal pair is fully mixed and strictly complementary, so it
        # is read off the simplex's tableau and no square system is built.
        game = matrix_game([[3, 0, 1], [0, 2, 4], [1, 3, 0]], 4)
        assert systems_built(monkeypatch, game) == []
        assert solve_constant_sum(game) == reference_constant_sum(game)

    def test_tie_break_is_first_support_then_smallest_mix(self):
        # The optimal row strategies here form a segment with ends
        # (0, 1/3, 2/3) and (1/3, 0, 2/3).  Row supports are tried in
        # lexicographic order and the smallest accepted mix on the first
        # support wins, which is not the lexicographically greatest optimum.
        game = matrix_game([[1, 2, 0], [0, 2, 0], [1, 0, 1]], 2)
        third = Fraction(1, 3)
        greatest = (third, Fraction(0), 2 * third)
        profile = solve_constant_sum(game)
        assert profile.row == (Fraction(0), third, 2 * third)
        assert profile.column == (Fraction(0), third, 2 * third)
        assert profile.value == 2 * third
        assert best_response_value(game, greatest, "column") == game.total - profile.value
        assert profile.row < greatest


def systems_at_values(monkeypatch, game: MatrixGame) -> list[tuple[str, Fraction | None]]:
    """Each square system ``solve_constant_sum(game)`` builds, in order, as the
    player whose mix it solves ("row" or "column", told apart as in
    ``systems_built``) and its value in the solver's scaled units, or None
    when it is singular."""
    built: list[tuple[str, Fraction | None]] = []
    primal: list = []
    solve = matrix._equalizing_mix

    def counted(payoffs, support, against):
        primal[:] = primal or [payoffs]
        solved = solve(payoffs, support, against)
        built.append(("row" if payoffs is primal[0] else "column", solved and Fraction(solved[1], solved[2])))
        return solved

    monkeypatch.setattr(matrix, "_equalizing_mix", counted)
    solve_constant_sum(game)
    return built


def no_sign_tests(monkeypatch) -> None:
    """Every sign mask all ones, so the scans judge every pair of the strategies they keep."""
    monkeypatch.setattr(matrix, "_sign_masks", lambda lines, *_: ([(1 << len(lines[0])) - 1] * len(lines),) * 2)


class TestValueTest:
    def test_no_column_system_is_built_for_a_primal_off_the_game_value(self, monkeypatch):
        # A pair whose row system solves at another value than the simplex's cannot
        # be accepted, so its column system is never built.  These games are
        # degenerate, so the scans judge many pairs off the value once the sign
        # tests, which skip most of those pairs unsolved, are off.
        no_sign_tests(monkeypatch)
        rng = random.Random(73)
        tie_break = matrix_game([[1, 2, 0], [0, 2, 0], [1, 0, 1]], 2)
        off_value = 0
        for game in [tie_break, *(referee_game(rng, 3 * k) for k in range(80))]:
            value = reference_constant_sum(game).value * scale_of(game)
            built = systems_at_values(monkeypatch, game)
            for (side, at), (next_side, _) in zip(built, [*built[1:], ("row", None)]):
                if side == "row" and at is not None and at != value:
                    off_value += 1
                    assert next_side == "row", game
                if side == "column":
                    assert at == value, game
        assert off_value >= 300


class TestSignTests:
    def test_a_pair_the_sign_tests_skip_is_rejected(self, monkeypatch):
        # Each scan also judges every square pair of the strategies it keeps: each
        # one its sign tests pass over must be rejected, so no answer changes.
        scan, skipped, scans = matrix._first_support_pair, [], []

        def every_pair(mine, theirs, judge, side, signs):
            passed: set = set()
            with pytest.raises(AssertionError):  # a judge that accepts nothing sees every pair the tests pass
                scan(mine, theirs, lambda *pair: passed.add(pair), side, signs)
            for support in matrix._lex_supports(mine):
                for against in itertools.combinations(theirs, len(support)):
                    if (support, against) not in passed:
                        assert judge(support, against) is None, (support, against)
                        skipped.append((support, against))
            scans.append(side)
            return scan(mine, theirs, judge, side, signs)

        monkeypatch.setattr(matrix, "_first_support_pair", every_pair)
        rng = random.Random(79)
        while len(scans) < 2 * 200:  # 200 degenerate games, each scanned on both sides
            n_rows, n_cols = rng.randint(1, 6), rng.randint(1, 6)
            game = matrix_game([[rng.randint(0, 2) for _ in range(n_cols)] for _ in range(n_rows)], 2)
            assert solve_constant_sum(game) == reference_constant_sum(game), game
        assert len(skipped) > 20 * len(scans)

    def test_the_sign_tests_build_fewer_systems(self, monkeypatch):
        # Six degenerate 6x6 games under three strictly dominated rows and columns.
        def built(rng: random.Random) -> tuple[int, list]:
            games = [dominated_first(rng, 6, 3) for _ in range(6)]
            return sum(len(systems_built(monkeypatch, game)) for game in games), [
                solve_constant_sum(game) for game in games
            ]

        count, answers = built(random.Random(29))
        no_sign_tests(monkeypatch)
        assert built(random.Random(29)) == (4567, answers)
        assert count == 1599


class TestDualSystem:
    def test_the_dual_is_singular_with_the_primal_and_has_its_value(self):
        # Why ``solve_constant_sum`` checks neither on the dual system: its bordered
        # matrix is the primal's transposed up to signs, and both values are xᵀMy.
        rng = random.Random(67)
        singular = 0
        for _ in range(3000):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            payoffs = [[rng.randint(-2, 2) for _ in range(n_cols)] for _ in range(n_rows)]
            transposed = [list(column) for column in zip(*payoffs)]
            size = rng.randint(1, min(n_rows, n_cols))
            rows = tuple(sorted(rng.sample(range(n_rows), size)))
            cols = tuple(sorted(rng.sample(range(n_cols), size)))
            primal = matrix._equalizing_mix(payoffs, rows, cols)
            dual = matrix._equalizing_mix(transposed, cols, rows)
            assert (primal is None) == (dual is None), (payoffs, rows, cols)
            if primal is None:
                singular += 1
            else:
                (_xs, v, d), (_ys, w, e) = primal, dual
                assert v * e == w * d, (payoffs, rows, cols)
        assert singular > 100


def support(mix) -> tuple[int, ...]:
    return tuple(i for i, p in enumerate(mix) if p > 0)


def strictly_complementary(game: MatrixGame, profile) -> bool:
    """Every pure strategy of either player has positive weight or is worth
    strictly less to its player than the value, never both and never neither."""
    rows = [sum(entry * q for entry, q in zip(row, profile.column)) for row in game.payoffs]
    cols = [sum(p * row[j] for p, row in zip(profile.row, game.payoffs)) for j in range(game.cols)]
    return all((p > 0) == (worth == profile.value) for p, worth in zip(profile.row, rows)) and all(
        (q > 0) == (worth == profile.value) for q, worth in zip(profile.column, cols)
    )


def scale_of(game: MatrixGame) -> int:
    """The factor that makes every entry of ``game`` an integer, as the solver scales it."""
    return math.lcm(*(entry.denominator for row in game.payoffs for entry in row))


def scaled_game(game: MatrixGame) -> list[list[int]]:
    """The scaled integer matrix the solver hands to its simplex: the whole game."""
    scale = scale_of(game)
    return [[int(entry * scale) for entry in row] for row in game.payoffs]


class TestSimplexFirst:
    def test_a_nondegenerate_game_builds_no_square_system(self, monkeypatch):
        # Wide-range entries make a tie, and so a degenerate game, unlikely.
        rng = random.Random(67)
        for index in range(6):
            size = 7 + index % 3
            game = matrix_game(
                [[rng.randint(-10**6, 10**6) for _ in range(size)] for _ in range(size)], rng.randint(-9, 9)
            )
            profile = solve_constant_sum(game)
            assert systems_built(monkeypatch, game) == []
            assert len(support(profile.row)) == len(support(profile.column))
            assert best_response_value(game, profile.column, "row") == profile.value
            assert best_response_value(game, profile.row, "column") == game.total - profile.value
            assert strictly_complementary(game, profile)

    def test_the_simplex_finds_every_strictly_complementary_answer(self):
        rng = random.Random(71)
        strict = 0
        for index in range(360):
            game = referee_game(rng, index)
            if index % 6 == 5:  # dominated strategies carry weight 0 and are worth less than the value
                game = with_dominated_strategies(rng, game)
            expected = reference_constant_sum(game)
            row, column, value, total, flagged = matrix._simplex(scaled_game(game))  # numerators over total
            row, column = (tuple(Fraction(p, total) for p in mix) for mix in (row, column))
            value = Fraction(value, total)
            assert value == expected.value * scale_of(game), game  # every game's, in scaled units
            assert flagged == strictly_complementary(game, expected), game
            if flagged:
                strict += 1
                assert (row, column) == (expected.row, expected.column), game
        assert strict >= 200


class TestFractionsOnlyForTheAnswer:
    def test_a_solve_builds_one_fraction_per_entry_of_its_answer(self, monkeypatch):
        # The solver stays in integers until it returns, so the answer's rows + cols + 1 entries are
        # the only Fractions it builds: on strict games, on degenerate ones and on games that scan
        # past strictly dominated strategies.
        rng, new, built = random.Random(83), Fraction.__new__, []

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        wide = [matrix_game([[rng.randint(-99, 99) for _ in range(size)] for _ in range(size)], 0)
                for size in (2, 3, 4, 5, 6) * 4]
        ties = [referee_game(rng, 3 * index, 2 + index % 5) for index in range(40)]
        dominated = [dominated_first(rng, 2 + index % 4, 1 + index % 3) for index in range(20)]
        strict = []
        for game in wide + ties + dominated:
            built.clear()
            with monkeypatch.context() as patched:
                patched.setattr(Fraction, "__new__", counted)
                profile = solve_constant_sum(game)
            assert len(built) == game.rows + game.cols + 1, (game, built)
            assert best_response_value(game, profile.column, "row") == profile.value
            assert best_response_value(game, profile.row, "column") == game.total - profile.value
            strict.append(matrix._simplex(scaled_game(game))[-1])
        assert strict.count(True) >= 20 and strict.count(False) >= 40
