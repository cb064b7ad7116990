"""Enumeration of paths of a prescribed weight and the polynomial they
generate, graded by the tail energy.

Both run one right-to-left fold (`_fold`) of one transfer step
(`_transfer`), whose states are the letters still unused, packed into one
int with a guard bit per letter (`qpoly._fields`), and the multiset of
factors that the tail energy carries leftward; each step is the
`plactic.carry` that `tail_energy` folds over one path.  The step reads
each crystal grouped by letter counts (`crystal._weight_classes`, built
once per crystal) and packs only the weights under the target.  The fold
keeps one level of states at a time, grouped by their carried factors,
and merges equal states; the step runs `carry` once per group and
element of the next factor.  It returns only states with nothing left to
fill, so a weight that no path has, by its total or otherwise, yields
nothing without a check of its own.  The two callers differ only in what
a state carries: `path_polynomial` packs its energies into one int, so it
builds no path, and `enumerate_paths` keeps its list of (tableaux suffix,
energy) pairs, so it lists each path with its energy.

`enumerate_paths` folds the factors in the order the spec lists them.
`path_polynomial` folds them in its own order, by decreasing crystal
size |B^{r,s}|, then by decreasing shape (r, s).  The combinatorial
R-matrix is an affine crystal isomorphism between the orders that keeps
the energy (Kang-Kashiwara-Misra-Miwa-Nakashima-Nakayashiki, "Affine
crystals and vertex models"; Shimozono, "Affine type A crystal structure
on tensor products of rectangles"), so the polynomial does not depend on
the order.  The largest crystal then sits leftmost, where the step looks
it up by weight and takes no R-matrix image of it, and the smallest
crystals are carried the farthest, which keeps the R-matrix tables and
the carried states few.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product, repeat
from math import prod
from operator import attrgetter, le, lshift

from .crystal import CrystalSpec, Path, _weight_classes, check_weight, enumerate_crystal
from .errors import BadInputError
from .plactic import carry, local_energy
from .qpoly import QPolynomial, _fields


def _transfer(spec: CrystalSpec, weight: tuple[int, ...]):
    """(step, bound, start): the transfer step over the paths of a weight,
    the product of how many elements of each factor fit under the weight,
    which bounds the paths and sets path_polynomial's field width, and the
    packed weight the fold starts from.

    A weight is packed into one int, letter i in field i (the layout of
    qpoly._fields): the bits of the largest target entry plus a guard bit
    on top.  The step is
    step(m, carried, states), as `_fold` calls it: `states` maps each
    packed weight still to fill to a payload, which the step never reads,
    for states that carry `carried` up to factor m.
    It yields (t, after, d, fits) for each element t of factor m whose
    weight leaves at least one state fillable by factors 0..m-1, with
    `after` the sorted factors carried on past t, d the energy t adds, and
    `fits` the (left, payload) of those states.  `carry` and the sort run
    once per yielded t, so once per (carried group, tableau).  Factor 0
    carries nothing on, so it is looked up by each state's weight and adds
    only its local energies: it takes no R-matrix image, whose table for
    the leftmost factor would list every pair.

    Each shape's crystal is indexed by packed weight: of its weight
    classes (`crystal._weight_classes`), only the weights at most the
    target are packed, compared as tuples, since a tableau may hold more
    equal letters than a field.  reach[m] holds the weights that
    factors 0..m-1 fill exactly; a sum u of two weights at most the target
    has u_i <= 2 * target_i, so (target | guard) - u keeps every guard bit
    exactly when u is at most the target.  A left weight that borrows
    matches no member of reach: its lowest borrowing field sets its guard
    bit, or it is negative.
    """
    width = max(weight).bit_length() + 1
    shifts, unit = _fields(spec.n, width)
    guard = unit << width - 1           # the top bit of every field
    by_weight = {shape: {sum(map(lshift, w, shifts)): ts
                         for w, ts in _weight_classes(*shape, spec.n).items()
                         if all(map(le, w, weight))}
                 for shape in set(spec.factors)}
    indexes = [by_weight[shape] for shape in spec.factors]
    bound = prod(sum(map(len, index.values())) for index in indexes)

    start = sum(map(lshift, weight, shifts))
    room = start | guard
    reach = [{0}]
    for index in indexes[:-1]:
        sums = {w + v for w in reach[-1] for v in index}
        reach.append({u for u in sums if (room - u) & guard == guard})

    def step(m, carried, states):
        if m == 0:
            for remaining, payload in states.items():
                for t in indexes[0].get(remaining, ()):
                    yield t, (), sum(map(local_energy, repeat(t), carried)), [(0, payload)]
            return
        reached = reach[m]
        index = indexes[m]
        fitting = {}
        for remaining, payload in states.items():
            for v in index:
                left = remaining - v
                if left in reached:
                    fitting.setdefault(v, []).append((left, payload))
        for v, fits in fitting.items():
            for t in index[v]:
                d, moved = carry(t, carried)
                moved.sort(key=attrgetter('rows'))
                yield t, tuple(moved), d, fits

    return step, bound, start


def _fold(step, k: int, start, absorb) -> list:
    """The payloads left after folding the transfer step over factors
    k-1, ..., 0, from the group of states `start` that carries nothing,
    each state keyed by its packed weight still to fill (`_transfer`).

    Each level holds its states grouped by their carried factors, and
    drops a group once the step has read it.  absorb(target, t, d, fits)
    merges the states in fits, reached through the element t that adds
    energy d, into target, the next level's group for the factors carried
    past t.  Only the payload of a state with nothing left to fill is
    returned: after factor 0 at most one state is left, and none when no
    path has the weight; with no factor, the start state, if its weight
    is zero.  So no caller checks the weight's total first.
    """
    groups = {(): start}
    for m in range(k - 1, -1, -1):
        merged = defaultdict(dict)
        while groups:
            carried, states = groups.popitem()
            for t, after, d, fits in step(m, carried, states):
                absorb(merged[after], t, d, fits)
        groups = merged
    return [states[0] for states in groups.values() if 0 in states]


def enumerate_paths(spec: CrystalSpec, weight) -> list[tuple[Path, int]]:
    """Each element of the tensor product with the given letter counts,
    paired with its tail energy.

    The states of the fold carry lists of (tableaux suffix, energy)
    pairs: each element t of the next factor puts t in front of every
    suffix of the states that fit and adds its energy.  After the last
    level each pair becomes a (Path, energy) pair in place, and the pairs
    are sorted back into the order of enumerate_all_paths: by each
    factor's position in its crystal, the leftmost factor slowest.
    """
    weight = check_weight(spec, weight)
    step, _bound, start = _transfer(spec, weight)

    def absorb(target, t, d, fits):
        for left, pairs in fits:
            target.setdefault(left, []).extend([((t,) + suffix, e + d) for suffix, e in pairs])

    listed = [pair for pairs in _fold(step, len(spec.factors), {start: [((), 0)]}, absorb)
              for pair in pairs]
    for i, (tableaux, energy) in enumerate(listed):
        listed[i] = Path._trusted(spec, tableaux), energy
    position = {t: i for shape in set(spec.factors)
                for i, t in enumerate(enumerate_crystal(*shape, spec.n))}
    listed.sort(key=lambda pair: tuple([position[t] for t in pair[0].tableaux]))
    return listed


def enumerate_all_paths(spec: CrystalSpec) -> list[Path]:
    """Every element of the tensor product, regardless of weight."""
    if not isinstance(spec, CrystalSpec):
        raise BadInputError('spec must be a CrystalSpec')
    crystals = [enumerate_crystal(r, s, spec.n) for r, s in spec.factors]
    return [Path._trusted(spec, tableaux) for tableaux in product(*crystals)]


def path_polynomial(spec: CrystalSpec, weight) -> QPolynomial:
    """Sum of q^(tail energy) over all paths of the given weight.

    `tail_energy` carries each factor but the leftmost one leftward and
    adds one local energy per factor it passes.  The carried factors never
    act on each other, so once the factors right of a position are chosen,
    the rest of the energy depends only on the letters still unused and on
    the multiset of carried factors.  This folds the transfer step right to
    left over those states (`_fold`), level by level, grouped by their
    carried factors, sorted so that equal states merge.  Each state keeps
    its energies packed into one int, as `_transfer` packs its weight: the
    count of q^e sits in bits width*e .. width*e + width - 1, and adding d
    to every energy is a shift by width*d (d >= 0, since a local energy
    counts cells).  The width is the bit length of the product, over the
    factors, of how many of their elements fit under the weight, and at
    least 1; that product bounds every count of every state, so no field
    overflows into the next.  A weight that no path has leaves no state
    (`_fold`), and the sum is 0.  Two prunings keep the states few: a
    state is kept only if the factors left of it can fill its remaining
    weight exactly, and the leftmost factor, which carries nothing, is
    looked up by that weight.

    The weight is checked on the given spec, and the fold runs on a copy
    of it with the factors sorted by decreasing crystal size, then by
    decreasing shape (r, s), so the largest crystal is the leftmost
    factor and the cost does not depend on the order the factors are
    listed in.  The energy is invariant under the R-matrix, an affine
    crystal isomorphism between any two orders of the factors
    (Kang-Kashiwara-Misra-Miwa-Nakashima-Nakayashiki; Shimozono), so the
    sum is the given order's.  A spec with fewer than two distinct shapes
    is folded as it is.
    """
    weight = check_weight(spec, weight)
    n, factors = spec.n, spec.factors
    if len(set(factors)) > 1:
        order = sorted(factors, key=lambda f: (len(enumerate_crystal(*f, n)), f), reverse=True)
        spec = CrystalSpec._trusted(n, tuple(order))
    step, bound, start = _transfer(spec, weight)
    width = bound.bit_length() or 1     # bound is 0 when a factor has no element under it

    def absorb(target, _t, d, fits):
        shift = width * d
        for left, packed in fits:
            target[left] = target.get(left, 0) + (packed << shift)

    total = sum(_fold(step, len(spec.factors), {start: 1}, absorb))
    mask = (1 << width) - 1
    return QPolynomial({e: total >> shift & mask
                        for e, shift in enumerate(range(0, total.bit_length(), width))})
