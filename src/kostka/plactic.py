"""Schensted insertion, tableau products, the combinatorial R-matrix,
and the local and tail energy statistics.

The R-matrix on a pair of rectangle crystals is pinned down by plactic
equivalence: swapping the two factors must preserve the Schensted
product.  That characterization is turned into a lookup table per pair
of shapes, built once and cached.  `rmatrix` and `local_energy` are
memoized per ordered pair of tableaux, so each runs one Schensted product
per distinct pair for the life of the process.  Like the tables, the
memos hold at most sum |B^{r,s}| * |B^{r',s'}| entries over the pairs of
shapes met.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

from .crystal import Path, RectTableau, enumerate_crystal
from .errors import InvariantError


@dataclass(frozen=True)
class SkewlessTableau:
    """A semistandard tableau of arbitrary partition shape."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, 'rows', rows)
        lengths = [len(row) for row in rows]
        if any(a < b for a, b in zip(lengths, lengths[1:])):
            raise ValueError('row lengths must weakly decrease')
        if any(not row for row in rows):
            raise ValueError('empty rows are not allowed')
        for row in rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError('rows must weakly increase')
        for upper, lower in zip(rows, rows[1:]):
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise ValueError('columns must strictly increase')

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(row) for row in self.rows)

    def size(self) -> int:
        return sum(len(row) for row in self.rows)

    def weight_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for row in self.rows:
            for x in row:
                counts[x] = counts.get(x, 0) + 1
        return counts


EMPTY_TABLEAU = SkewlessTableau(())


def insert_word(t: SkewlessTableau, word) -> SkewlessTableau:
    """Classical Schensted row insertion of the letters of word in turn."""
    rows = [list(row) for row in t.rows]
    for x in word:
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return SkewlessTableau(tuple(tuple(row) for row in rows))


def row_insert(t: SkewlessTableau, x: int) -> SkewlessTableau:
    """Classical Schensted row insertion of the letter x."""
    return insert_word(t, (x,))


def product(b: RectTableau, b2: RectTableau) -> SkewlessTableau:
    """Schensted product: insert the row word of b2 into b."""
    return insert_word(SkewlessTableau(b.rows), b2.word())


@cache
def _rmatrix_table(r: int, s: int, r2: int, s2: int, n: int):
    """Map each Schensted product to its unique preimage in B^{r2,s2} x B^{r,s}.

    Uniqueness of the preimage is exactly the defining property of the
    R-matrix; a collision here would be an implementation bug.
    """
    table: dict[SkewlessTableau, tuple[RectTableau, RectTableau]] = {}
    for left in enumerate_crystal(r2, s2, n):
        for right in enumerate_crystal(r, s, n):
            key = product(left, right)
            if key in table:
                raise InvariantError(
                    f'plactic product not injective on B^{r2},{s2} x B^{r},{s}')
            table[key] = (left, right)
    return table


@cache
def rmatrix(b: RectTableau, b2: RectTableau) -> tuple[RectTableau, RectTableau]:
    """The combinatorial R-matrix applied to b (x) b2.

    Returns the unique pair (c2, c) with c2 of b2's shape and c of b's
    shape such that c2 * c equals b * b2 as Schensted products.
    """
    if b.n != b2.n:
        raise ValueError('factors must share an alphabet')
    r, s = b.shape
    r2, s2 = b2.shape
    table = _rmatrix_table(r, s, r2, s2, b.n)
    key = product(b, b2)
    try:
        return table[key]
    except KeyError:
        raise InvariantError('no R-matrix image found; enumeration bug') from None


@cache
def local_energy(b: RectTableau, b2: RectTableau) -> int:
    """Cells of the product shape outside the rowwise concatenation.

    The reference shape has k-th row of length s*(k<=r) + s2*(k<=r2)
    for the input shapes (s^r) and (s2^r2).
    """
    r, s = b.shape
    r2, s2 = b2.shape
    prod_shape = product(b, b2).shape
    outside = 0
    for k, length in enumerate(prod_shape, start=1):
        ref = (s if k <= r else 0) + (s2 if k <= r2 else 0)
        outside += max(0, length - ref)
    return outside


def tail_energy(path: Path) -> int:
    """Sum of local energies over all factor pairs after R-matrix transport.

    Factor positions are numbered 1..k from the rightmost factor.  The
    term for a pair i < j is H_{j-1} R_{j-2} ... R_i applied to the
    path, where R_m swaps positions m and m+1 and H_m evaluates the
    local energy of the adjacent pair (position m+1 tensor position m).

    R_i, ..., R_{j-2} only carry the factor at position i leftward past
    the original factors b_{i+1}, ..., b_{j-1}.  So for each i the carried
    factor c starts as b_i and moves one position at a time: the term for
    j is local_energy(b_j, c), after which c becomes rmatrix(b_j, c)[0].
    The R-matrix is the identity on equal shapes, so there c becomes b_j
    without an R-matrix call.  This makes O(k^2) R applications in all.
    """
    tabs = path.tableaux                # left to right: b_k, ..., b_1
    total = 0
    for i in range(1, len(tabs)):
        c = tabs[i]
        for b in tabs[i - 1:0:-1]:
            total += local_energy(b, c)
            c = b if b.shape == c.shape else rmatrix(b, c)[0]
        total += local_energy(tabs[0], c)
    return total
