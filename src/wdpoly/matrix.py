"""Dense tropical matrices, tropical determinants and genericity tests.

Rows, columns and all public indices are 1-based, matching the usual
combinatorial notation; storage is a plain tuple of tuples.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, reduce
from math import comb
from typing import Iterable, Sequence

from .errors import CapabilityError, ShapeError, ValueTypeError
from .semiring import INF, TVal, _bound, _index, _iterable, _position, tadd, tmul, tsum, tval
from .semiring import _Record, _instance, _scaled


class TropicalMatrix(_Record):
    """A rows-by-cols matrix over the min-plus semiring, stored as a tuple of rows."""

    rows: int
    cols: int
    entries: tuple[tuple[TVal, ...], ...]

    def __post_init__(self):
        """Refuse what ``make`` refuses: a shape below 1x1, a ragged row, an inexact value."""
        rows, cols = _index(self.rows, "a row count"), _index(self.cols, "a column count")
        if len(self.entries) != rows or {cols} != set(map(len, self.entries)) or not cols:
            raise ShapeError(f"expected {rows} rows of {cols} entries, at least one of each")
        if not {Fraction, type(INF)}.issuperset(map(type, itertools.chain(*self.entries))):
            raise ValueTypeError("entries must be Fractions or INF; make coerces other values")

    @classmethod
    def make(cls, data: Iterable[Iterable]) -> "TropicalMatrix":
        rows = tuple(
            tuple(tval(x) for x in _iterable(row, "a matrix row"))
            for row in _iterable(data, "a matrix")
        )
        return cls(len(rows), len(rows[0]) if rows else 0, rows)

    @classmethod
    def identity(cls, k: int) -> "TropicalMatrix":
        """Min-tropical unit: zero diagonal, infinity elsewhere."""
        return cls.make(
            [[0 if i == j else INF for j in range(k)] for i in range(_index(k, "a size"))]
        )

    def entry(self, i: int, j: int) -> TVal:
        """Entry at 1-based position (i, j)."""
        return self.entries[_position(i, self.rows, "row")][_position(j, self.cols, "column")]

    def row(self, i: int) -> tuple[TVal, ...]:
        return self.entries[_position(i, self.rows, "row")]

    def col(self, j: int) -> tuple[TVal, ...]:
        c = _position(j, self.cols, "column")
        return tuple(r[c] for r in self.entries)

    def _finite(self) -> dict[tuple[int, int], TVal]:
        """The finite entries, keyed by their 1-based (row, column) in sorted order."""
        rows = enumerate(self.entries, start=1)
        return {(i, j): x for i, r in rows for j, x in enumerate(r, start=1) if x is not INF}

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def oplus(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise minimum."""
        if (self.rows, self.cols) != (_instance(other, TropicalMatrix).rows, other.cols):
            raise ShapeError("entrywise minimum needs equal shapes")
        return TropicalMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(tadd(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def odot(self, other: "TropicalMatrix") -> "TropicalMatrix":
        return trop_mat_mul(self, other)

    def transpose(self) -> "TropicalMatrix":
        return TropicalMatrix(
            self.cols, self.rows, tuple(zip(*self.entries))
        )

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "TropicalMatrix":
        """Submatrix by 1-based row and column index sequences; ``ShapeError`` if one is empty."""
        rs = [_position(i, self.rows, "row") for i in rows]
        cs = [_position(j, self.cols, "column") for j in cols]
        if not (rs and cs):
            raise ShapeError("a submatrix needs at least one row and one column")
        return TropicalMatrix(
            len(rs), len(cs), tuple(tuple(self.entries[i][j] for j in cs) for i in rs)
        )


def trop_mat_mul(a: TropicalMatrix, b: TropicalMatrix) -> TropicalMatrix:
    """Min-plus matrix product: entry (i,j) = min over l of a[i,l] + b[l,j]."""
    if _instance(a, TropicalMatrix).cols != _instance(b, TropicalMatrix).rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.transpose().entries
    out = tuple(
        tuple(
            tsum(tmul(x, y) for x, y in zip(row, col) if x is not INF)
            for col in bt
        )
        for row in a.entries
    )
    return TropicalMatrix(a.rows, b.cols, out)


def _int_rows(rows: Sequence[Sequence[TVal]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(L, each row's finite entries as (column bit, entry times L)), scaled by ``_scaled``."""
    scale, ints = _scaled({(i, j): x for i, r in enumerate(rows) for j, x in enumerate(r)
                           if x is not INF})
    return scale, [[(1 << j, ints[i, j]) for j, x in enumerate(r) if x is not INF]
                   for i, r in enumerate(rows)]


def _add_row(table: dict, row: Sequence[tuple[int, int]]) -> dict:
    """Add a row of ``_int_rows`` to an assignment table: each column set (a bitmask) that a
    bijection of finite entries from the rows so far reaches maps to the least sum, an int at
    the rows' scale, and the number of bijections attaining it.  An absent set's sum is INF."""
    out: dict[int, tuple[int, int]] = {}
    for mask, (val, cnt) in table.items():
        for bit, e in row:
            if mask & bit:
                continue
            key, w = mask | bit, val + e
            cur = out.get(key)
            if cur is None or w < cur[0]:
                out[key] = (w, cnt)
            elif w == cur[0]:
                out[key] = (w, cur[1] + cnt)
    return out


class TropicalDetResult(_Record):
    """A tropical determinant; ``optimal_permutations`` is listed on first read."""

    value: TVal
    vanishes: bool
    _rows: tuple[tuple[TVal, ...], ...]

    @cached_property
    def optimal_permutations(self) -> frozenset[tuple[int, ...]]:
        """Every sigma attaining the value, sigma[i-1] the column of row i."""
        k = len(self._rows)
        if self.value is INF:
            return frozenset(itertools.permutations(range(1, k + 1)))
        # an optimal bijection is optimal on every row prefix: walk the levels down
        rows = _int_rows(self._rows)[1]
        levels = list(itertools.accumulate(rows, _add_row, initial={0: (0, 1)}))
        paths = [((1 << k) - 1, ())]
        for i in range(k, 0, -1):
            here, below = levels[i], levels[i - 1]
            paths = [
                (m, (bit.bit_length(),) + tail)
                for mask, tail in paths
                for bit, e in rows[i - 1]
                if mask & bit and (m := mask ^ bit) in below
                and below[m][0] + e == here[mask][0]
            ]
        return frozenset(tail for _, tail in paths)


def trop_det(a: TropicalMatrix, *, perm_bound: int = 9) -> TropicalDetResult:
    """Tropical determinant: minimum over permutations of the diagonal sum.

    An assignment table over column subsets grows one row at a time (k * 2^(k-1)
    additions of ints, the entries times the LCM of their denominators).  The result
    *vanishes* if the value is INF or attained at least twice.  ``perm_bound`` caps
    k, because reading ``optimal_permutations`` may list up to k! permutations.
    """
    if not _instance(a, TropicalMatrix).is_square:
        raise ShapeError("tropical determinant needs a square matrix")
    k = a.rows
    if k > _bound(perm_bound, "a permutation bound"):
        raise CapabilityError(f"tropical determinant is limited to k <= {perm_bound}, got {k}")
    scale, rows = _int_rows(a.entries)
    value, count = reduce(_add_row, rows, {0: (0, 1)}).get((1 << k) - 1, (None, 0))
    return TropicalDetResult(Fraction(value, scale) if count else INF, count != 1, a.entries)


def is_generic(
    v: TropicalMatrix,
    *,
    submatrix_bound: int = 200_000,
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """Whether no square submatrix has a vanishing tropical determinant.

    Returns ``(True, None)`` or ``(False, (rows, cols))``, the first witness
    by size, rows, columns.  The assignment table of k rows extends the one
    of their first k-1 and holds all their k x k minors.  A guard raises
    CapabilityError when there are more than ``submatrix_bound`` minors.
    """
    d, n = _instance(v, TropicalMatrix).rows, v.cols
    total = sum(comb(d, k) * comb(n, k) for k in range(1, min(d, n) + 1))
    if total > _bound(submatrix_bound, "a submatrix bound"):
        raise CapabilityError(
            f"genericity test would enumerate {total} submatrices (bound {submatrix_bound})"
        )
    ints, tables = _int_rows(v.entries)[1], {(): {0: (0, 1)}}
    for k in range(1, min(d, n) + 1):
        prefixes, tables = tables, {}
        col_sets = itertools.combinations(range(1, n + 1), k)
        minors = [(cols, sum(1 << j - 1 for j in cols)) for cols in col_sets]
        for rows in itertools.combinations(range(1, d + 1), k):
            table = tables[rows] = _add_row(prefixes[rows[:-1]], ints[rows[-1] - 1])
            for cols, mask in minors:
                if table.get(mask, (None, 0))[1] != 1:  # INF or attained twice
                    return False, (rows, cols)
    return True, None
