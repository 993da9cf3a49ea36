"""Two-player constant-sum matrix games solved exactly in rationals.

The row player's payoffs are given as a matrix of fractions; the column
player receives the constant sum minus the entry.  ``solve_constant_sum``
finds an exact minimax/maximin pair by exhaustive square support
enumeration (Shapley & Snow 1950).  The payoffs are scaled once to
integers, and each square system is solved by fraction-free (Bareiss)
elimination, whose divisions are all exact; fractions are built only for
accepted solutions, so results carry no rounding at all.

Under ties the row mix is the smallest accepted mix on the first row
support, in lexicographic order over all nonempty subsets, that has an
accepted square pair; the column mix follows the same rule over column
supports.  This is not always the lexicographically greatest optimal
strategy.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterable, Literal, Sequence

from .core import GameError, LimitExceeded, Record

SUPPORT_LIMIT = 9


class TooLarge(LimitExceeded):
    """Support enumeration is bounded at 9x9 matrices."""


class DimensionMismatch(GameError):
    """A distribution's length does not fit the matrix."""


class MatrixGame(Record):
    payoffs: tuple[tuple[Fraction, ...], ...]
    total: Fraction

    KIND = "matrix"  # see ``Leaf.KIND``

    @property
    def rows(self) -> int:
        return len(self.payoffs)

    @property
    def cols(self) -> int:
        return len(self.payoffs[0])


class MixedProfile(Record):
    row: tuple[Fraction, ...]
    column: tuple[Fraction, ...]
    value: Fraction


def matrix_game(rows: Iterable[Iterable[object]], total: object) -> MatrixGame:
    """Build a game from any Fraction-convertible entries."""
    payoffs = tuple(tuple(Fraction(entry) for entry in row) for row in rows)
    if not payoffs or not payoffs[0]:
        raise ValueError("matrix must have at least one row and one column")
    if any(len(row) != len(payoffs[0]) for row in payoffs):
        raise ValueError("matrix rows must have equal length")
    return MatrixGame(payoffs, Fraction(total))


def _integer_solve(aug: list[list[int]]) -> tuple[list[int], int] | None:
    """Fraction-free (Bareiss) Gauss-Jordan on an n x (n+1) augmented integer
    matrix.  Returns numerators over one positive shared determinant, or None
    when the system is singular.  Every division is exact (Bareiss 1968).

    Each step drops the column it clears, so after the last step every row
    holds just its right-hand side, scaled by the determinant.
    """
    n = len(aug)
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][0]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        top = aug[col]
        p = top[0]
        del top[0]
        for r in range(n):
            if r != col:
                row = aug[r]
                f = row[0]
                aug[r] = [(p * u - f * t) // previous for u, t in zip(row[1:], top)]
        previous = p
    if previous < 0:
        return [-row[0] for row in aug], -previous
    return [row[0] for row in aug], previous


def _equalizing_mix(
    matrix: Sequence[Sequence[int]], support: tuple[int, ...], against: tuple[int, ...]
) -> tuple[list[int], int, int] | None:
    """Mix on ``support`` making every column of ``against`` worth the same
    value v: sum_i x_i M[i][j] = v for j in against, sum x_i = 1.

    v is eliminated by differencing against the first column of ``against``,
    leaving a square system in x alone.  Returns (x numerators, v numerator,
    determinant) with determinant > 0, or None when the system is singular.
    """
    first = against[0]
    aug = [[matrix[i][j] - matrix[i][first] for i in support] + [0] for j in against[1:]]
    aug.append([1] * len(support) + [1])
    solved = _integer_solve(aug)
    if solved is None:
        return None
    mix, det = solved
    return mix, sum(p * matrix[i][first] for i, p in zip(support, mix)), det


def _lex_supports(size: int) -> list[tuple[int, ...]]:
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(size), k) for k in range(1, size + 1)
    )
    return sorted(subsets)


def _first_support_mix(
    size: int,
    other: int,
    judge: Callable[[tuple[int, ...], tuple[int, ...]], tuple | None],
    side: int,
) -> tuple[tuple[Fraction, ...], Fraction]:
    """Scan this side's supports of ``size`` strategies in lexicographic
    order; for the first one with any accepted square pair, return the
    smallest of this side's mixes (entry ``side`` of the accepted pair)
    together with the value."""
    for support in _lex_supports(size):
        found = [
            (accepted[side], accepted[2])
            for against in itertools.combinations(range(other), len(support))
            if (accepted := judge(support, against)) is not None
        ]
        if found:
            return min(found)
    raise AssertionError("no square-kernel solution found; unreachable for valid input")


def solve_constant_sum(game: MatrixGame) -> MixedProfile:
    """Exact minimax/maximin pair, deterministic under ties.

    The row mix is the smallest accepted mix on the first row support, in
    lexicographic order, that has an accepted square pair; the column mix
    follows the same rule over column supports, which is the row rule run on
    the column player's own matrix ``total - payoffs`` transposed, so
    symmetric games get identical distributions on both sides.  A pair of
    supports is accepted when both equalizing systems are nonsingular with
    non-negative solutions of equal value and the two mixes certify that
    value against every pure strategy.  That test reads the same from either
    side, so each pair is judged once per call and serves both scans.
    """
    if game.rows > SUPPORT_LIMIT or game.cols > SUPPORT_LIMIT:
        raise TooLarge(f"support enumeration bounded at {SUPPORT_LIMIT}x{SUPPORT_LIMIT}")
    n_rows, n_cols = game.rows, game.cols
    scale = math.lcm(*(entry.denominator for row in game.payoffs for entry in row))
    scaled = [
        [entry.numerator * (scale // entry.denominator) for entry in row] for row in game.payoffs
    ]
    transposed = [[scaled[i][j] for i in range(n_rows)] for j in range(n_cols)]
    judged: dict[tuple[tuple[int, ...], tuple[int, ...]], tuple | None] = {}

    def judge(support: tuple[int, ...], against: tuple[int, ...]) -> tuple | None:
        primal = _equalizing_mix(scaled, support, against)
        if primal is None:
            return None
        xs, v, d = primal
        # x must guarantee >= v against every column and y (below) must cap
        # every row at v; together they certify v as the game value.
        if any(p < 0 for p in xs) or any(
            sum(p * column[i] for i, p in zip(support, xs)) < v for column in transposed
        ):
            return None
        dual = _equalizing_mix(transposed, against, support)
        if dual is None:
            return None
        ys, w, e = dual
        if v * e != w * d or any(q < 0 for q in ys):
            return None
        if any(sum(row[j] * q for j, q in zip(against, ys)) > w for row in scaled):
            return None
        x = [Fraction(0)] * n_rows
        for i, p in zip(support, xs):
            x[i] = Fraction(p, d)
        y = [Fraction(0)] * n_cols
        for j, q in zip(against, ys):
            y[j] = Fraction(q, e)
        return tuple(x), tuple(y), Fraction(v, d * scale)

    def pair(support: tuple[int, ...], against: tuple[int, ...]) -> tuple | None:
        key = (support, against)
        if key not in judged:
            judged[key] = judge(support, against)
        return judged[key]

    x, value = _first_support_mix(n_rows, n_cols, pair, 0)
    y, _ = _first_support_mix(n_cols, n_rows, lambda cols, rows: pair(rows, cols), 1)
    return MixedProfile(x, y, value)


def best_response_value(
    game: MatrixGame, opponent_mix: Sequence[Fraction], side: Literal["row", "column"]
) -> Fraction:
    """Maximum expected payoff over the responder's pure strategies."""
    mix = [Fraction(p) for p in opponent_mix]
    expected_len = game.cols if side == "row" else game.rows
    if len(mix) != expected_len:
        raise DimensionMismatch(f"expected a distribution of length {expected_len}, got {len(mix)}")
    if any(p < 0 for p in mix) or sum(mix) != 1:
        raise ValueError("opponent_mix must be a probability distribution")
    if side == "row":
        return max(
            sum(game.payoffs[i][j] * mix[j] for j in range(game.cols)) for i in range(game.rows)
        )
    return max(
        game.total - sum(mix[i] * game.payoffs[i][j] for i in range(game.rows))
        for j in range(game.cols)
    )
