"""Enumeration of paths of a prescribed weight and the polynomial they
generate, graded by the tail energy.

`enumerate_paths` lists the paths, the branches of crystal.depth_first;
`kostka paths` and `kostka check` call `tail_energy` on every path.
`path_polynomial` needs only the energy distribution and builds no path:
it runs a transfer matrix over the factors instead, whose steps are the
same `plactic.carry` that `tail_energy` folds over one path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import product
from operator import attrgetter

from .crystal import CrystalSpec, Path, depth_first, enumerate_crystal
from .plactic import carry, local_energy
from .qpoly import QPolynomial


def enumerate_paths(spec: CrystalSpec, weight) -> list[Path]:
    """All elements of the tensor product with the given letter counts,
    one crystal.depth_first branch each over the factors left to right,
    pruning any prefix whose letter usage already exceeds the weight.
    Each crystal element is paired with its weight once per call."""
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return []
    weighted = {shape: [(t, t.weight()) for t in enumerate_crystal(*shape, spec.n)]
                for shape in set(spec.factors)}
    factors = [weighted[shape] for shape in spec.factors]

    def step(k, state):
        remaining = state[1]
        for t, w in factors[k]:
            if all(x <= y for x, y in zip(w, remaining)):
                yield t, tuple([y - x for x, y in zip(w, remaining)])

    return [Path._trusted(spec, tuple([t for t, _left in branch]))
            for branch in depth_first((None, weight), len(factors), step)]


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
    the multiset of carried factors.  This runs right to left over those
    states, one `carry` per factor and state, sorts the carried factors so
    that equal states merge, and keeps each state's energies in a
    Counter.  Two prunings keep it small: a state is kept only if the
    factors left of it can fill its remaining weight exactly, and the
    leftmost factor, which carries nothing, is looked up by that weight.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return QPolynomial.zero()
    if not spec.factors:
        return QPolynomial.one()

    by_weight = {}
    for shape in set(spec.factors):
        index = defaultdict(list)
        for t in enumerate_crystal(*shape, spec.n):
            index[t.weight()].append(t)
        by_weight[shape] = index
    indexes = [by_weight[shape] for shape in spec.factors]

    # reach[m]: the weights at most `weight` that factors 0..m-1 fill exactly.
    reach = [{(0,) * spec.n}]
    for index in indexes[:-1]:
        sums = {tuple([a + b for a, b in zip(w, v)]) for w in reach[-1] for v in index}
        reach.append({w for w in sums if all(x <= y for x, y in zip(w, weight))})

    states = {(weight, ()): Counter({0: 1})}
    for m in range(len(indexes) - 1, 0, -1):
        step = defaultdict(Counter)
        moves = {}      # many states share their carried factors
        for (remaining, carried), energies in states.items():
            for v, tableaux in indexes[m].items():
                left = tuple([a - b for a, b in zip(remaining, v)])
                if left not in reach[m]:
                    continue
                for t in tableaux:
                    move = moves.get((t, carried))
                    if move is None:
                        d, moved = carry(t, carried)
                        moved.sort(key=attrgetter('rows'))
                        move = moves[t, carried] = d, tuple(moved)
                    d, after = move
                    target = step[left, after]
                    for e, count in energies.items():
                        target[e + d] += count
        states = step

    total = Counter()
    for (remaining, carried), energies in states.items():
        for t in indexes[0].get(remaining, ()):
            d = sum(local_energy(t, c) for c in carried)
            for e, count in energies.items():
                total[e + d] += count
    return QPolynomial(total)
