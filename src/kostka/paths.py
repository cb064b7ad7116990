"""Enumeration of paths of a prescribed weight and the polynomial they
generate, graded by the tail energy.

Both read one right-to-left transfer step (`_transfer`), whose states
are the letters still unused and the multiset of factors that the tail
energy carries leftward; each step is the `plactic.carry` that
`tail_energy` folds over one path.  `path_polynomial` folds the step
breadth first and merges equal states, so it builds no path;
`enumerate_paths` folds it depth first, one crystal.depth_first branch
per path, and so lists each path with its energy.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product
from operator import add, attrgetter, le, sub

from .crystal import CrystalSpec, Path, depth_first, enumerate_crystal
from .plactic import carry, local_energy
from .qpoly import QPolynomial


def _transfer(spec: CrystalSpec, weight: tuple[int, ...]):
    """The transfer step over the paths of a weight, as step(m, remaining,
    carried): it yields (t, left, after, d) for each element t of factor m
    whose weight leaves `left` of `remaining` for factors 0..m-1 to fill
    exactly, with `after` the sorted factors carried on past t and d the
    energy t adds.  Factor 0 carries nothing on, so it is looked up by
    `remaining` and adds only its local energies: it takes no R-matrix
    image, whose table for the leftmost factor would list every pair.

    Each shape's crystal is indexed by weight, keeping only the weights at
    most the target, and reach[m] holds the weights that factors 0..m-1
    fill exactly; the memo of `carry` results lives as long as the step.
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

    zero = (0,) * spec.n
    reach = [{zero}]
    for index in indexes[:-1]:
        sums = {tuple(map(add, w, v)) for w in reach[-1] for v in index}
        reach.append({w for w in sums if all(map(le, w, weight))})

    moves = {}          # many states share their carried factors

    def step(m, remaining, carried):
        if m == 0:
            for t in indexes[0].get(remaining, ()):
                yield t, zero, (), sum(local_energy(t, c) for c in carried)
            return
        for v, tableaux in indexes[m].items():
            left = tuple(map(sub, remaining, v))
            if left not in reach[m]:
                continue
            for t in tableaux:
                move = moves.get((t, carried))
                if move is None:
                    d, moved = carry(t, carried)
                    moved.sort(key=attrgetter('rows'))
                    move = moves[t, carried] = d, tuple(moved)
                yield t, left, move[1], move[0]

    return step


def enumerate_paths(spec: CrystalSpec, weight) -> list[tuple[Path, int]]:
    """Each element of the tensor product with the given letter counts,
    paired with its tail energy.

    One crystal.depth_first branch per path folds the transfer step over
    the factors right to left, summing the energy on the way.  The pairs
    are sorted back into the order of enumerate_all_paths: by each
    factor's position in its crystal, the leftmost factor slowest.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return []
    step = _transfer(spec, weight)
    k = len(spec.factors)
    branches = depth_first((None, weight, ()), k, lambda d, s: step(k - 1 - d, s[1], s[2]))
    listed = [(Path._trusted(spec, tuple([s[0] for s in reversed(branch)])),
               sum([s[3] for s in branch])) for branch in branches]
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
    left over those states, level by level, with the carried factors
    sorted so that equal states merge, and keeps each state's energies in
    a Counter.  Two prunings keep it small: a state is kept only if the
    factors left of it can fill its remaining weight exactly, and the
    leftmost factor, which carries nothing, is looked up by that weight.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return QPolynomial.zero()
    step = _transfer(spec, weight)
    states = {(weight, ()): Counter({0: 1})}
    for m in range(len(spec.factors) - 1, -1, -1):
        merged = defaultdict(Counter)
        for (remaining, carried), energies in states.items():
            for _t, left, after, d in step(m, remaining, carried):
                target = merged[left, after]
                for e, count in energies.items():
                    target[e + d] += count
        states = merged
    return QPolynomial(sum(states.values(), Counter()))
