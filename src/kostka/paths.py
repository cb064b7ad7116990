"""Enumeration of paths of a prescribed weight and the polynomial they
generate, graded by the tail energy."""

from __future__ import annotations

from collections import Counter
from itertools import product

from .crystal import CrystalSpec, Path, enumerate_crystal
from .plactic import tail_energy
from .qpoly import QPolynomial


def enumerate_paths(spec: CrystalSpec, weight) -> list[Path]:
    """All elements of the tensor product with the given letter counts.

    Backtracks over factors left to right, pruning any prefix whose
    letter usage already exceeds the target weight.  Each crystal
    element is paired with its weight once per call.
    """
    weight = spec.check_weight(weight)
    if spec.total_boxes() != sum(weight):
        return []

    weighted = {shape: [(t, t.weight()) for t in enumerate_crystal(*shape, spec.n)]
                for shape in set(spec.factors)}
    factors = [weighted[shape] for shape in spec.factors]
    out: list[Path] = []
    chosen = []

    def extend(idx, remaining):
        if idx == len(factors):
            out.append(Path(spec, tuple(chosen)))
            return
        for t, w in factors[idx]:
            if all(x <= y for x, y in zip(w, remaining)):
                chosen.append(t)
                extend(idx + 1, tuple([y - x for x, y in zip(w, remaining)]))
                chosen.pop()

    extend(0, weight)
    return out


def enumerate_all_paths(spec: CrystalSpec) -> list[Path]:
    """Every element of the tensor product, regardless of weight."""
    crystals = [enumerate_crystal(r, s, spec.n) for r, s in spec.factors]
    return [Path(spec, tableaux) for tableaux in product(*crystals)]


def path_polynomial(spec: CrystalSpec, weight) -> QPolynomial:
    """Sum of q^(tail energy) over all paths of the given weight."""
    return QPolynomial(Counter(tail_energy(b) for b in enumerate_paths(spec, weight)))
