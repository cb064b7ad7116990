"""Enumeration of paths of a prescribed weight and the polynomial they
generate, graded by the tail energy.

Both read one right-to-left transfer step (`_transfer`), whose states
are the letters still unused and the multiset of factors that the tail
energy carries leftward; each step is the `plactic.carry` that
`tail_energy` folds over one path.  The step takes a group of states
that carry the same factors and runs `carry` once per element of the
next factor for the whole group.  `path_polynomial` folds it breadth
first over the states grouped by their carried factors, each state's
energies packed into one int, and merges equal states, so it builds no
path; `enumerate_paths` folds it depth first, one crystal.depth_first
branch per path with each state alone in its group, and so lists each
path with its energy.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product, repeat
from math import prod
from operator import add, attrgetter, le, sub

from .crystal import CrystalSpec, Path, depth_first, enumerate_crystal
from .plactic import carry, local_energy
from .qpoly import QPolynomial


def _transfer(spec: CrystalSpec, weight: tuple[int, ...]):
    """The transfer step over the paths of a weight, and the product of
    how many elements of each factor fit under the weight, which bounds
    the paths and sets path_polynomial's field width.

    The step is step(m, carried, states): `states` maps each weight still
    to fill to a payload, for states that carry `carried` up to factor m.
    It yields (t, after, d, fits) for each element t of factor m whose
    weight leaves at least one state fillable by factors 0..m-1, with
    `after` the sorted factors carried on past t, d the energy t adds, and
    `fits` the (left, payload) of those states.  `carry` and the sort run
    once per yielded t, so once per (carried group, tableau).  Factor 0
    carries nothing on, so it is looked up by each state's weight and adds
    only its local energies: it takes no R-matrix image, whose table for
    the leftmost factor would list every pair.

    Each shape's crystal is indexed by weight, keeping only the weights at
    most the target, and reach[m] holds the weights that factors 0..m-1
    fill exactly.
    """
    by_weight = {}
    for shape in set(spec.factors):
        index = defaultdict(list)
        for t in enumerate_crystal(*shape, spec.n):
            w = t.weight()
            if all(map(le, w, weight)):
                index[w].append(t)
        by_weight[shape] = index
    indexes = [by_weight[shape] for shape in spec.factors]
    bound = prod(sum(map(len, index.values())) for index in indexes)

    zero = (0,) * spec.n
    reach = [{zero}]
    for index in indexes[:-1]:
        sums = {tuple(map(add, w, v)) for w in reach[-1] for v in index}
        reach.append({w for w in sums if all(map(le, w, weight))})

    def step(m, carried, states):
        if m == 0:
            for remaining, payload in states.items():
                for t in indexes[0].get(remaining, ()):
                    yield t, (), sum(map(local_energy, repeat(t), carried)), [(zero, payload)]
            return
        reached = reach[m]
        index = indexes[m]
        fitting = {}
        for remaining, payload in states.items():
            for v in index:
                left = tuple(map(sub, remaining, v))
                if left in reached:
                    fitting.setdefault(v, []).append((left, payload))
        for v, fits in fitting.items():
            for t in index[v]:
                d, moved = carry(t, carried)
                moved.sort(key=attrgetter('rows'))
                yield t, tuple(moved), d, fits

    return step, bound


def enumerate_paths(spec: CrystalSpec, weight) -> list[tuple[Path, int]]:
    """Each element of the tensor product with the given letter counts,
    paired with its tail energy.

    One crystal.depth_first branch per path folds the transfer step over
    the factors right to left, each state alone in its group, summing the
    energy on the way.  The pairs are sorted back into the order of
    enumerate_all_paths: by each factor's position in its crystal, the
    leftmost factor slowest.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return []
    step, _bound = _transfer(spec, weight)
    k = len(spec.factors)

    # A state is the step's own yield (t, after, d, fits); its one fit
    # holds the weight still to fill.  Paths share states, at every level
    # on (1,1)^L, so a state met a second time keeps its children for the
    # rest of the listing; a state met once keeps none.
    kept = {}

    def below(level, state):
        key = state[3][0][0], state[1]
        found = kept.get(key)
        if found is None:
            found = step(k - 1 - level, state[1], {key[0]: None})
            if key in kept:
                found = kept[key] = list(found)
            else:
                kept[key] = None
        return found

    branches = depth_first((None, (), 0, [(weight, None)]), k, below)
    listed = [(Path._trusted(spec, tuple([s[0] for s in reversed(branch)])),
               sum([s[2] for s in branch])) for branch in branches]
    kept.clear()                        # before the sort keys, at the listing's peak
    position = {t: i for shape in set(spec.factors)
                for i, t in enumerate(enumerate_crystal(*shape, spec.n))}
    listed.sort(key=lambda pair: tuple([position[t] for t in pair[0].tableaux]))
    return listed


def enumerate_all_paths(spec: CrystalSpec) -> list[Path]:
    """Every element of the tensor product, regardless of weight."""
    crystals = [enumerate_crystal(r, s, spec.n) for r, s in spec.factors]
    return [Path._trusted(spec, tableaux) for tableaux in product(*crystals)]


def path_polynomial(spec: CrystalSpec, weight) -> QPolynomial:
    """Sum of q^(tail energy) over all paths of the given weight.

    `tail_energy` carries each factor but the leftmost one leftward and
    adds one local energy per factor it passes.  The carried factors never
    act on each other, so once the factors right of a position are chosen,
    the rest of the energy depends only on the letters still unused and on
    the multiset of carried factors.  This folds the transfer step right to
    left over those states, level by level, grouped by their carried
    factors, sorted so that equal states merge.  Each state keeps its
    energies packed into one int: the count of q^e sits in bits
    width*e .. width*e + width - 1, and adding d to every energy is a shift
    by width*d (d >= 0, since a local energy counts cells).  The width is
    the bit length of the product, over the factors, of how many of their
    elements fit under the weight; that product bounds every count of
    every state, so no field overflows into the next.  Two prunings keep
    the states few: a state is kept only if the factors left of it can
    fill its remaining weight exactly, and the leftmost factor, which
    carries nothing, is looked up by that weight.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return QPolynomial.zero()
    step, bound = _transfer(spec, weight)
    if not bound:                       # some factor has no element under the weight
        return QPolynomial.zero()
    width = bound.bit_length()
    groups = {(): {weight: 1}}
    for m in range(len(spec.factors) - 1, -1, -1):
        merged = defaultdict(dict)
        for carried, states in groups.items():
            for _t, after, d, fits in step(m, carried, states):
                target = merged[after]
                shift = width * d
                for left, packed in fits:
                    target[left] = target.get(left, 0) + (packed << shift)
        groups = merged
    total = sum([packed for states in groups.values() for packed in states.values()])
    mask = (1 << width) - 1
    return QPolynomial({e: total >> shift & mask
                        for e, shift in enumerate(range(0, total.bit_length(), width))})
