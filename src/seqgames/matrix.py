"""Two-player constant-sum matrix games solved exactly in rationals.

The row player's payoffs are given as a matrix of fractions; the column
player receives the constant sum minus the entry.  ``solve_constant_sum``
finds an exact minimax/maximin pair.  The payoffs are scaled once to
integers; an exact simplex and the fraction-free (Bareiss) elimination of
square systems both divide only exactly, and every mix and value stays an
integer numerator over a positive denominator until ``solve_constant_sum``
returns, so results carry no rounding at all: its only ``Fraction``s are
the answer's entries, one per row and column and one for the value.

Under ties the row mix is the smallest accepted mix on the first row
support, in lexicographic order over all nonempty subsets, that has an
accepted square pair (Shapley & Snow 1950); the column mix follows the
same rule over column supports.  This is not always the lexicographically
greatest optimal strategy.

Four exact steps keep that rule's answer with less work.  The simplex
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
value (a dominated column likewise).  The simplex gives the game's value
v exactly, which every accepted pair certifies, so the sign of each entry
against v rules pairs out unsolved, on either side: a support is skipped
unless every opposing strategy meets one of its strategies at an entry
that gets its player at least v (the mix must guarantee v everywhere);
only opposing strategies whose entries on the support lie on both sides
of v, or at it, can be equalized at v, so only they are drawn; and the
drawn support must pass both tests in turn against this one.  And a pair
whose row system solves at another value is rejected before its
certificates are checked and before its column system is built.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from operator import gt, lt, mul

from .core import GameError, InvalidArgument, LimitExceeded, Record, numeral

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
        if {type(self.total), *map(type, itertools.chain.from_iterable(payoffs))} <= {int, Fraction}:
            return  # every entry an exact int or Fraction, as the readers build them
        for value in (self.total, *(entry for row in payoffs for entry in row)):  # a subclass passes here
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


def _require_game(game: object) -> None:
    if not isinstance(game, MatrixGame):
        raise InvalidArgument(f"game must be a MatrixGame, not {type(game).__name__}")


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


def _simplex(matrix: Sequence[Sequence[int]]) -> tuple[list[int], list[int], int, int, bool]:
    """(row mix, column mix, value, denominator, strict) of one optimal pair
    of the game ``matrix``: the two mixes and the value are integer
    numerators over the one positive denominator returned after them.  It
    solves the LP max sum(w) s.t. P w <= 1, w >= 0, where P is the
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
                if det == 1:  # the first pivot divides by 1
                    tableau[r] = [p * u - f * t for u, t in zip(row, top)]
                else:
                    tableau[r] = [(p * u - f * t) // det for u, t in zip(row, top)]
        basis[leave], det = enter, p
    total, level = objective[-1], [0] * (n + m)  # sum(w) and each basic variable, both times det
    for r, b in enumerate(basis):
        level[b] = tableau[r][-1]
    strict = all(level[c] or objective[c] for c in range(n + m))
    return objective[n:n + m], level[:n], det - shift * total, total, strict  # the value: det / total - shift


def _sign_masks(lines: Sequence[Sequence[int]], value_num: int, value_den: int) -> tuple[list[int], list[int]]:
    """Per line, the bitmasks of its positions whose entry is at least, and at most, ``value_num / value_den``."""
    low, high = -(-value_num // value_den), value_num // value_den  # the value's ceiling and floor
    at_least, at_most = [], []
    for line in lines:
        above = below = 0
        for k, entry in enumerate(line):
            if entry >= low:
                above |= 1 << k
            if entry <= high:
                below |= 1 << k
        at_least.append(above)
        at_most.append(below)
    return at_least, at_most


def _below(mix: tuple[list[int], int], least: tuple[list[int], int]) -> bool:
    """Whether ``mix`` is lexicographically below ``least``, each integer numerators over a positive denominator."""
    (ps, d), (qs, e) = mix, least
    return [p * e for p in ps] < [q * d for q in qs]  # ps / d < qs / e entry by entry, by cross-multiplication


def _first_support_pair(
    mine: tuple[int, ...],
    theirs: tuple[int, ...],
    judge: Callable[[tuple[int, ...], tuple[int, ...]], tuple | None],
    side: int,
    signs: tuple[tuple[list[int], list[int]], tuple[list[int], list[int]]],
) -> tuple:
    """Scan this side's supports over the strategies ``mine`` in
    lexicographic order; for the first one with any accepted square pair,
    return the accepted ``(x, y)`` whose mix on this side (entry ``side``)
    is the smallest, each mix as ``judge`` returns it: integer numerators
    over a positive denominator, compared exactly by cross-multiplication,
    the first of equal mixes kept.  ``signs`` holds, for this side and then
    the other, each strategy's masks of the opposing strategies against
    which it gets its player at least the value, and at most.  A pair that
    fails a sign test (module docstring) is not judged; the pairs left keep
    their order, so the same accepted pair wins."""
    (covers, others), (their_covers, their_others) = signs
    full, their_full = (1 << len(covers)) - 1, (1 << len(their_covers)) - 1
    for support in _lex_supports(mine):
        cover = other = mask = 0
        for s in support:
            cover, other, mask = cover | covers[s], other | others[s], mask | 1 << s
        if cover != their_full:  # an opposing strategy holds the whole support below the value
            continue
        best = None
        straddling = [t for t in theirs if other >> t & 1]  # the strategies the support can equalize at the value
        for against in itertools.combinations(straddling, len(support)):
            cover = other = 0
            for t in against:
                cover, other = cover | their_covers[t], other | their_others[t]
            if cover == full and other & mask == mask:  # the same two tests from the other side
                accepted = judge(support, against)
                if accepted is not None and (best is None or _below(accepted[side], best[side])):
                    best = accepted
        if best is not None:
            return best
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
    dominated pure strategy and every pair that fails a sign test against
    the simplex's value, and a pair off that value is rejected once its row
    system is solved (see the module docstring).  None changes a result.
    ``TooLarge`` beyond ``SUPPORT_LIMIT``: a degenerate game can still judge
    every support pair.
    """
    _require_game(game)
    if game.rows > SUPPORT_LIMIT or game.cols > SUPPORT_LIMIT:
        raise TooLarge(f"support enumeration bounded at {SUPPORT_LIMIT}x{SUPPORT_LIMIT}")
    n_rows, n_cols = game.rows, game.cols
    scale = math.lcm(*(entry.denominator for row in game.payoffs for entry in row))
    scaled = [[entry.numerator * (scale // entry.denominator) for entry in row] for row in game.payoffs]
    row_mix, column_mix, value_num, value_den, strict = _simplex(scaled)
    value = Fraction(value_num, value_den * scale)
    if strict:  # the only optimal pair
        return MixedProfile(_fractions(row_mix, value_den), _fractions(column_mix, value_den), value)
    transposed = [[scaled[i][j] for i in range(n_rows)] for j in range(n_cols)]

    @functools.cache  # each pair is judged once per call and serves both scans
    def judge(support: tuple[int, ...], against: tuple[int, ...]) -> tuple | None:
        """The accepted pair's ``((x, d), (y, e))``: integer mixes over every row and column, each over its
        positive determinant; or None."""
        primal = _equalizing_mix(scaled, support, against)
        if primal is None:
            return None
        xs, v, d = primal
        # x must guarantee >= v against every column and y (below) must cap every row at v, which
        # certifies v as the game value: so a pair at another value than the simplex's fails at once.
        if v * value_den != d * value_num or min(xs) < 0:
            return None
        if any(sum(map(mul, xs, column)) < v for column in zip(*map(scaled.__getitem__, support))):
            return None
        # Nonsingular as the primal is (its bordered matrix, transposed up to signs); w / e = xᵀMy = v / d.
        ys, w, e = _equalizing_mix(transposed, against, support)  # type: ignore[misc]
        if min(ys) < 0:
            return None
        if any(sum(map(mul, row, ys)) > w for row in zip(*map(transposed.__getitem__, against))):
            return None
        x, y = [0] * n_rows, [0] * n_cols
        for i, p in zip(support, xs):
            x[i] = p
        for j, q in zip(against, ys):
            y[j] = q
        return (x, d), (y, e)

    # One round of strict dominance (module docstring); what only a later round drops is judged and rejected.
    rows = tuple(i for i, row in enumerate(scaled) if not any(all(map(gt, other, row)) for other in scaled))
    cols = tuple(j for j, column in enumerate(transposed)
                 if not any(all(map(lt, other, column)) for other in transposed))
    # A column gets the column player at least its value where it pays the row player at most v.
    row_signs = _sign_masks(scaled, value_num, value_den)
    col_signs = _sign_masks(transposed, value_num, value_den)[::-1]
    x = _first_support_pair(rows, cols, judge, 0, (row_signs, col_signs))[0]
    y = _first_support_pair(cols, rows, lambda mine, theirs: judge(theirs, mine), 1, (col_signs, row_signs))[1]
    return MixedProfile(_fractions(*x), _fractions(*y), value)


def _fractions(numerators: Iterable[int], denominator: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(p, denominator) for p in numerators)


def best_response_value(
    game: MatrixGame, opponent_mix: Sequence[Fraction], side: Literal["row", "column"]
) -> Fraction:
    """Maximum expected payoff over the responder's pure strategies; ``side``
    names the responder, and anything but "row" or "column" is an ``InvalidArgument``,
    as is an ``opponent_mix`` entry that is no number ``Fraction`` takes."""
    _require_game(game)
    if side not in ("row", "column"):
        raise InvalidArgument(f"side must be 'row' or 'column', not {side!r}")
    try:
        mix = [Fraction(p) for p in opponent_mix]
    except (TypeError, ValueError, ArithmeticError):  # not a number, or not a finite one
        raise InvalidArgument("opponent_mix must be a sequence of numbers") from None
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
    """``matrix`` for ``dsl._Parser`` ``parser``, imported for a matrix text ``parse_canonical_matrix`` declines."""
    def parse_rational() -> Fraction:
        numerator = parser.expect_int()
        if parser.at("/"):
            parser.pos += 1
            index = parser.pos
            denominator = parser.expect_int()
            if denominator == 0:
                raise parser.invalid(index, "zero denominator")
            return Fraction(numerator, denominator)
        return Fraction(numerator)

    parser.expect("sum")
    parser.expect("=")
    total = parse_rational()
    parser.expect("{")
    rows: list[tuple[Fraction, ...]] = []
    width: int | None = None
    while True:
        row: list[Fraction] = []
        while parser.tokens[parser.pos][:1].isdecimal() or parser.at("-"):  # an entry starts here
            if len(row) == width:
                raise parser.fail(f"';' after {width} entries")
            row.append(parse_rational())
        if not row:
            raise parser.fail("a matrix entry")
        if len(row) != (width or len(row)):
            raise parser.fail(f"a row of {width} entries")
        width = len(row)
        rows.append(tuple(row))
        if not parser.at(";"):
            break
        parser.pos += 1
    parser.expect("}")
    return MatrixGame(tuple(rows), total)


def parse_canonical_matrix(text: str) -> tuple[tuple[str, str], MatrixGame] | None:
    """A matrix document in exactly the layout ``serialize`` writes, read with ``str`` methods into its players
    and what ``parse_matrix`` builds, with one ``Fraction`` per distinct entry text; or None for any other text
    (one with a non-ASCII character or a number of over 640 digits, say), a ragged matrix or a zero denominator.
    It never raises: ``dsl.parse`` hands what it declines, every error included, to the token reader."""
    head, _, rest = text.partition("\nmatrix sum=")
    total, _, body = rest.partition(" {\n  ")
    first, _, second = head[8:].partition(" ")
    rows = [row.split(" ") for row in body[:-3].split(";\n  ")]
    if not (text.isascii() and head[:8] == "players " and first.isidentifier() and second.isidentifier()
            and body[-3:] == "\n}\n" and all(len(row) == len(rows[0]) for row in rows)):
        return None
    values: dict[str, Fraction] = {}
    for entry in {total, *itertools.chain(*rows)}:
        numerator, slash, denominator = entry.partition("/")
        if not numeral(numerator.removeprefix("-")) or slash and not (numeral(denominator) and int(denominator)):
            return None  # not a number, or a zero denominator
        values[entry] = Fraction(int(numerator), int(denominator)) if slash else Fraction(int(numerator))
    return (first, second), MatrixGame(tuple(tuple(map(values.__getitem__, row)) for row in rows), values[total])
