"""Schensted insertion, tableau products, the combinatorial R-matrix,
and the local and tail energy statistics.

A tableau of partition shape, such as a Schensted product, is held as
the tuple of its row tuples, top row first; it has no class of its own.

The R-matrix on a pair of rectangle crystals is pinned down by plactic
equivalence: swapping the two factors must preserve the Schensted
product.  That characterization is turned into a lookup table per pair
of shapes, built once and cached.  `rmatrix` and `local_energy` are
memoized per ordered pair of tableaux, so each runs one Schensted product
per distinct pair for the life of the process.  A tableau carries its
shape and its hash from construction, so a memo lookup reads both
without rehashing the rows.  Like the tables, the memos hold at most
sum |B^{r,s}| * |B^{r',s'}| entries over the pairs of shapes met.  The
table for a pair lists one entry per element pair, and `path_polynomial`
folds with the largest crystal leftmost, so it builds no table that
carries the largest crystal past another factor.

`carry` is the one transport step: a factor meets the factors carried
up to it, adds their local energies and lets them pass.  `tail_energy`
folds it over one path; `kostka check` calls it on every path it
checks.  The `paths` module never calls `tail_energy`: its one transfer
step folds the same `carry` over all the paths of a weight at once, once
per group of states that carry the same factors and element of the next
factor.  `path_polynomial` folds with the factors reordered, since the
energy is invariant under the R-matrix, and packs each state's energies
into one int; `enumerate_paths` keeps each state's tableaux suffixes
with their energies, so it lists each path with its energy.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache

from .crystal import Path, RectTableau, enumerate_crystal
from .errors import BadInputError, InvariantError


def insert_word(rows: tuple, word) -> tuple[tuple[int, ...], ...]:
    """Classical Schensted row insertion of the letters of word in turn.

    rows is a semistandard tableau as a tuple of row tuples, top row
    first (the empty tuple for the empty tableau); the result is another.
    Row insertion keeps the shape a partition, the rows weakly
    increasing and the columns strictly increasing.
    """
    rows = [list(row) for row in rows]
    for x in word:
        for row in rows:
            j = bisect_right(row, x)
            if j == len(row):
                row.append(x)
                break
            row[j], x = x, row[j]
        else:
            rows.append([x])
    return tuple(tuple(row) for row in rows)


def product(b: RectTableau, b2: RectTableau) -> tuple[tuple[int, ...], ...]:
    """Schensted product: insert the row word of b2 into b.

    Returns the product's rows, top row first.  The factors must be
    RectTableaux on one alphabet, or BadInputError is raised; `rmatrix`
    and `local_energy` read every pair through here first, so they refuse
    the same pairs.
    """
    if not (isinstance(b, RectTableau) and isinstance(b2, RectTableau)):
        raise BadInputError('each factor must be a RectTableau')
    if b.n != b2.n:
        raise BadInputError('factors must share an alphabet')
    return insert_word(b.rows, b2.word())


@cache
def _rmatrix_table(r: int, s: int, r2: int, s2: int, n: int):
    """Map each Schensted product, keyed by its rows, to its unique
    preimage in B^{r2,s2} x B^{r,s}.

    Uniqueness of the preimage is exactly the defining property of the
    R-matrix; a collision here would be an implementation bug.  Both
    factors are listed on one alphabet, so the pair loop inserts without
    the checks of `product`.
    """
    table: dict[tuple, tuple[RectTableau, RectTableau]] = {}
    for left in enumerate_crystal(r2, s2, n):
        for right in enumerate_crystal(r, s, n):
            key = insert_word(left.rows, right.word())
            if key in table:
                raise InvariantError(
                    f'plactic product not injective on B^{r2},{s2} x B^{r},{s}')
            table[key] = (left, right)
    return table


@cache
def rmatrix(b: RectTableau, b2: RectTableau) -> tuple[RectTableau, RectTableau]:
    """The combinatorial R-matrix applied to b (x) b2.

    Returns the unique pair (c2, c) with c2 of b2's shape and c of b's
    shape such that c2 * c equals b * b2 as Schensted products.  The
    product is taken first, so a pair on two alphabets raises its
    BadInputError before any table is built.
    """
    key = product(b, b2)
    r, s = b.shape
    r2, s2 = b2.shape
    table = _rmatrix_table(r, s, r2, s2, b.n)
    try:
        return table[key]
    except KeyError:
        raise InvariantError('no R-matrix image found; enumeration bug') from None


@cache
def local_energy(b: RectTableau, b2: RectTableau) -> int:
    """Cells of the product shape outside the rowwise concatenation.

    The product shape is the lengths of the product's rows.  The
    reference shape has k-th row of length s*(k<=r) + s2*(k<=r2) for
    the input shapes (s^r) and (s2^r2).
    """
    rows = product(b, b2)
    r, s = b.shape
    r2, s2 = b2.shape
    outside = 0
    for k, row in enumerate(rows, start=1):
        ref = (s if k <= r else 0) + (s2 if k <= r2 else 0)
        outside += max(0, len(row) - ref)
    return outside


def carry(t: RectTableau, carried) -> tuple[int, list[RectTableau]]:
    """One step of R-matrix transport: the carried factors pass t.

    Returns the sum of local_energy(t, c) over the carried factors c,
    and the factors carried on past t: t itself, then each c after it
    has passed t, as rmatrix(t, c)[0].  The R-matrix is the identity on
    equal shapes, so there c becomes t without an R-matrix call.
    """
    energy = 0
    moved = [t]
    for c in carried:
        energy += local_energy(t, c)
        moved.append(t if t.shape == c.shape else rmatrix(t, c)[0])
    return energy, moved


def tail_energy(path: Path) -> int:
    """Sum of local energies over all factor pairs after R-matrix transport.

    Factor positions are numbered 1..k from the rightmost factor.  The
    term for a pair i < j is H_{j-1} R_{j-2} ... R_i applied to the
    path, where R_m swaps positions m and m+1 and H_m evaluates the
    local energy of the adjacent pair (position m+1 tensor position m).

    R_i, ..., R_{j-2} only carry the factor at position i leftward past
    the original factors b_{i+1}, ..., b_{j-1}, and the carried factors
    never act on each other.  So the sum folds `carry` over the factors
    right to left: each factor b_j adds the local energies of the factors
    carried up to it, which then pass it, and joins them.  The leftmost
    factor b_k only adds its local energies; nothing is carried past it.
    This makes O(k^2) R applications in all.
    """
    if not isinstance(path, Path):
        raise BadInputError('path must be a Path')
    tabs = path.tableaux                # left to right: b_k, ..., b_1
    total = 0
    carried = []
    for t in tabs[:0:-1]:
        energy, carried = carry(t, carried)
        total += energy
    for c in carried:
        total += local_energy(tabs[0], c)
    return total
