"""Two-player constant-sum matrix games solved exactly in rationals.

The row player's payoffs are given as a matrix of fractions; the column
player receives the constant sum minus the entry.  ``solve_constant_sum``
finds an exact minimax/maximin pair.  The payoffs are scaled once to
integers; an exact simplex and the fraction-free (Bareiss) elimination of
square systems both divide only exactly, and fractions are built only for
the answer, so results carry no rounding at all.

Under ties the row mix is the smallest accepted mix on the first row
support, in lexicographic order over all nonempty subsets, that has an
accepted square pair (Shapley & Snow 1950); the column mix follows the
same rule over column supports.  This is not always the lexicographically
greatest optimal strategy.

Three exact steps keep that rule's answer with less work.  The simplex
runs first.  When its final tableau is strictly complementary, every
variable basic and positive or of positive reduced cost, the LP's primal
and dual optima are both unique, so the pair read off it is the only
optimal pair, on square supports with a nonsingular system (Goldman &
Tucker 1956): it is the answer, and no square system is built.  Only
degenerate games, with tied optima, are scanned on both sides, each up to
its first accepted support in full, so their work stays exponential in
the matrix side: hence ``SUPPORT_LIMIT``.  The scans skip each pure
strategy strictly dominated by another: whatever the other side mixes,
such a row is worth less than its dominator, so less than the value,
while an accepted pair makes each row of its support worth exactly the
value (a dominated column likewise).  And the simplex gives the game's
value exactly, which every accepted pair certifies, so a pair whose row
system solves at another value is rejected before its certificates are
checked and before its column system is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .core import GameError, InvalidArgument, LimitExceeded, Record

TYPE_CHECKING = False  # ``typing.TYPE_CHECKING`` without loading ``typing``
if TYPE_CHECKING:
    from typing import Literal

SUPPORT_LIMIT = 9


class TooLarge(LimitExceeded):
    """Support enumeration is bounded at 9x9 matrices."""


class DimensionMismatch(GameError):
    """A distribution's length does not fit the matrix."""


class MatrixGame(Record):
    payoffs: tuple[tuple[Fraction, ...], ...]
    total: Fraction

    KIND = "matrix"  # see ``Leaf.KIND``

    def __post_init__(self) -> None:
        """``InvalidArgument`` for a matrix without a row or a column, with ragged
        rows, or with an entry or total that is not an exact ``int`` or
        ``Fraction`` (a ``bool`` is no payoff)."""
        payoffs = self.payoffs
        if not payoffs or not payoffs[0]:
            raise InvalidArgument("matrix must have at least one row and one column")
        if any(len(row) != len(payoffs[0]) for row in payoffs):
            raise InvalidArgument("matrix rows must have equal length")
        for value in (self.total, *(entry for row in payoffs for entry in row)):
            if value.__class__ is bool or not isinstance(value, (int, Fraction)):
                raise InvalidArgument(f"matrix payoffs must be int or Fraction, not {value.__class__.__name__}")

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
    return MatrixGame(tuple(tuple(Fraction(entry) for entry in row) for row in rows), Fraction(total))


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
        for pivot in range(col, n):
            if aug[pivot][0]:
                break
        else:
            return None
        top = aug[pivot]
        aug[col], aug[pivot] = top, aug[col]
        p = top.pop(0)
        for r, row in enumerate(aug):
            if r != col:
                f = row[0]
                if previous == 1:  # the first step divides by 1
                    aug[r] = [p * u - f * t for u, t in zip(row[1:], top)]
                else:
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
    if len(support) == 1:  # x = (1,) against the one column
        return [1], matrix[support[0]][first], 1
    aug = [[matrix[i][j] - matrix[i][first] for i in support] + [0] for j in against[1:]]
    aug.append([1] * len(support) + [1])
    solved = _integer_solve(aug)
    if solved is None:
        return None
    mix, det = solved
    return mix, sum(p * matrix[i][first] for i, p in zip(support, mix)), det


def _lex_supports(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    subsets = itertools.chain.from_iterable(
        itertools.combinations(items, k) for k in range(1, len(items) + 1)
    )
    return sorted(subsets)


def _simplex(matrix: Sequence[Sequence[int]]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction, bool]:
    """(row mix, column mix, value, strict) of one optimal pair of the game
    ``matrix``, from the LP max sum(w) s.t. P w <= 1, w >= 0, where P is the
    game shifted so every entry is at least 1 (von Stengel 2002): the column
    mix is w over sum(w), the row mix the slacks' prices in the objective
    row (the dual) over the same sum, and sum(w) is one over the value of P.
    ``strict``: every variable is basic and positive or has a positive
    reduced cost, so the pair is the only optimal one (module docstring).
    Integer pivoting keeps the tableau as integers over one shared positive
    determinant, so every division, the objective row's too, is exact
    (Edmonds 1967); Bland's rule (entering: the smallest index with a
    negative reduced cost; leaving: the smallest basic index among tied
    ratios) cannot cycle (Bland 1977)."""
    m, n = len(matrix), len(matrix[0])
    shift = 1 - min(min(row) for row in matrix)
    tableau = [  # columns: w, then the slacks, then the right-hand side
        [entry + shift for entry in row] + [int(k == s) for s in range(m)] + [1]
        for k, row in enumerate(matrix)
    ]
    tableau.append([-1] * n + [0] * (m + 1))  # the objective row
    basis, det = list(range(n, n + m)), 1
    while True:
        objective = tableau[m]
        for enter in range(n + m):
            if objective[enter] < 0:
                break
        else:
            break
        leave, p, rhs = None, 0, 0  # the smallest ratio rhs / p over p > 0
        for r, row in enumerate(tableau[:m]):
            a, b = row[enter], row[-1]
            if a > 0 and (leave is None or b * p < rhs * a or (b * p == rhs * a and basis[r] < basis[leave])):
                leave, p, rhs = r, a, b
        top = tableau[leave]
        for r, row in enumerate(tableau):
            if r != leave:
                f = row[enter]
                tableau[r] = [(p * u - f * t) // det for u, t in zip(row, top)]
        basis[leave], det = enter, p
    total, level = objective[-1], [0] * (n + m)  # sum(w) and each basic variable, both times det
    for r, b in enumerate(basis):
        level[b] = tableau[r][-1]
    row = tuple(Fraction(objective[n + k], total) for k in range(m))
    column = tuple(Fraction(level[j], total) for j in range(n))
    return row, column, Fraction(det, total) - shift, all(level[c] or objective[c] for c in range(n + m))


def _first_support_pair(
    mine: tuple[int, ...],
    theirs: tuple[int, ...],
    judge: Callable[[tuple[int, ...], tuple[int, ...]], tuple | None],
    side: int,
) -> tuple:
    """Scan this side's supports over the strategies ``mine`` in
    lexicographic order; for the first one with any accepted square pair,
    return the accepted ``(x, y)`` whose mix on this side (entry ``side``)
    is the smallest."""
    for support in _lex_supports(mine):
        judged = (judge(support, against) for against in itertools.combinations(theirs, len(support)))
        found = [accepted for accepted in judged if accepted is not None]
        if found:
            return min(found, key=lambda accepted: accepted[side])
    raise AssertionError("no square-kernel solution found; unreachable for valid input")


def solve_constant_sum(game: MatrixGame) -> MixedProfile:
    """Exact minimax/maximin pair, deterministic under ties.

    The row mix is the smallest accepted mix on the first row support, in
    lexicographic order, that has an accepted square pair; the column mix
    follows the same rule over column supports, which is the row rule run on
    the column player's own matrix ``total - payoffs`` transposed, so
    symmetric games get identical distributions on both sides.  A pair of
    supports is accepted when both equalizing systems are nonsingular with
    non-negative solutions (of one value, xᵀMy) and the two mixes certify
    that value against every pure strategy.  That test reads the same from
    either side, so each pair is judged once per call and serves both scans.

    A strictly complementary pair read off the exact simplex's final
    tableau, the only optimal pair, is the answer, and nothing is judged;
    only a degenerate game is scanned, where the scans skip every strictly
    dominated pure strategy and a pair off the simplex's value is rejected
    once its row system is solved (see the module docstring).  None changes
    a result.  ``TooLarge`` beyond ``SUPPORT_LIMIT``: a degenerate game can
    still judge every support pair.
    """
    if game.rows > SUPPORT_LIMIT or game.cols > SUPPORT_LIMIT:
        raise TooLarge(f"support enumeration bounded at {SUPPORT_LIMIT}x{SUPPORT_LIMIT}")
    n_rows, n_cols = game.rows, game.cols
    scale = math.lcm(*(entry.denominator for row in game.payoffs for entry in row))
    scaled = [
        [entry.numerator * (scale // entry.denominator) for entry in row] for row in game.payoffs
    ]
    row_mix, column_mix, value, strict = _simplex(scaled)
    if strict:  # the only optimal pair
        return MixedProfile(row_mix, column_mix, value / scale)
    value_num, value_den = value.numerator, value.denominator
    transposed = [[scaled[i][j] for i in range(n_rows)] for j in range(n_cols)]

    @functools.cache  # each pair is judged once per call and serves both scans
    def judge(support: tuple[int, ...], against: tuple[int, ...]) -> tuple | None:
        primal = _equalizing_mix(scaled, support, against)
        if primal is None:
            return None
        xs, v, d = primal
        # x must guarantee >= v against every column and y (below) must cap every row at v, which
        # certifies v as the game value: so a pair at another value than the simplex's fails at once.
        if v * value_den != d * value_num or any(p < 0 for p in xs):
            return None
        if any(sum(p * column[i] for i, p in zip(support, xs)) < v for column in transposed):
            return None
        # Nonsingular as the primal is (its bordered matrix, transposed up to signs); w / e = xᵀMy = v / d.
        ys, w, e = _equalizing_mix(transposed, against, support)  # type: ignore[misc]
        if any(q < 0 for q in ys):
            return None
        if any(sum(row[j] * q for j, q in zip(against, ys)) > w for row in scaled):
            return None
        x = [Fraction(0)] * n_rows
        for i, p in zip(support, xs):
            x[i] = Fraction(p, d)
        y = [Fraction(0)] * n_cols
        for j, q in zip(against, ys):
            y[j] = Fraction(q, e)
        return tuple(x), tuple(y)

    # One round of strict dominance (module docstring); what only a later round drops is judged and rejected.
    rows = tuple(i for i, row in enumerate(scaled)
                 if not any(all(a > b for a, b in zip(other, row)) for other in scaled))
    cols = tuple(j for j, column in enumerate(transposed)
                 if not any(all(a < b for a, b in zip(other, column)) for other in transposed))
    x = _first_support_pair(rows, cols, judge, 0)[0]
    y = _first_support_pair(cols, rows, lambda mine, theirs: judge(theirs, mine), 1)[1]
    return MixedProfile(x, y, value / scale)


def best_response_value(
    game: MatrixGame, opponent_mix: Sequence[Fraction], side: Literal["row", "column"]
) -> Fraction:
    """Maximum expected payoff over the responder's pure strategies; ``side``
    names the responder, and anything but "row" or "column" is an ``InvalidArgument``."""
    if side not in ("row", "column"):
        raise InvalidArgument(f"side must be 'row' or 'column', not {side!r}")
    mix = [Fraction(p) for p in opponent_mix]
    expected_len = game.cols if side == "row" else game.rows
    if len(mix) != expected_len:
        raise DimensionMismatch(f"expected a distribution of length {expected_len}, got {len(mix)}")
    if any(p < 0 for p in mix) or sum(mix) != 1:
        raise InvalidArgument("opponent_mix must be a probability distribution")
    if side == "row":
        return max(
            sum(game.payoffs[i][j] * mix[j] for j in range(game.cols)) for i in range(game.rows)
        )
    return max(
        game.total - sum(mix[i] * game.payoffs[i][j] for i in range(game.rows))
        for j in range(game.cols)
    )


def parse_matrix(parser) -> MatrixGame:
    """``matrix`` for ``dsl._Parser`` ``parser``, which ``dsl`` imports for a matrix document only.

    The total and then each entry (``d``, ``-d``, ``d/d`` or ``-d/d``) are
    read in one loop at a local position, as ``parse_tree`` reads a tree; each
    fault raises through ``parser.fail``, ``invalid`` or ``integer`` at its token."""
    tokens = parser.tokens
    parser.expect("sum")
    parser.expect("=")
    pos, total, rows, row, width = parser.pos, None, [], [], None
    while True:
        token = tokens[pos]
        if total is not None and not (token.isdecimal() or token == "-"):  # no entry starts here
            if not row:
                raise parser.fail("a matrix entry", pos)
            if len(row) != (width or len(row)):
                raise parser.fail(f"a row of {width} entries", pos)
            width = len(row)
            rows.append(tuple(row))
            if token != ";":
                break
            pos, row = pos + 1, []
            continue
        if len(row) == width:
            raise parser.fail(f"';' after {width} entries", pos)
        negative = token == "-"
        pos += negative
        if not tokens[pos].isdecimal():
            raise parser.fail("an integer", pos)
        parts = (-parser.integer(pos) if negative else parser.integer(pos),)  # the numerator, then any denominator
        pos += 1
        if tokens[pos] == "/":
            index = pos + 1
            pos = index + (tokens[index] == "-")
            if not tokens[pos].isdecimal():
                raise parser.fail("an integer", pos)
            denominator = parser.integer(pos)
            if denominator == 0:
                raise parser.invalid(index, "zero denominator")
            parts += (-denominator if pos > index else denominator,)
            pos += 1
        value = Fraction(*parts)
        if total is not None:
            row.append(value)
            continue
        total, parser.pos = value, pos
        parser.expect("{")
        pos += 1
    parser.pos = pos
    parser.expect("}")
    return MatrixGame(tuple(rows), total)
