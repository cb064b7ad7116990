"""Raising and lowering operators on rigged configurations.

The operators act on a single component: lowering adds a box to the
string with the smallest nonpositive rigging (a fresh string when all
riggings are positive), raising removes a box from the string with the
smallest negative rigging.  The changed string is re-rigged by an
absolute shift; every other string keeps its colabel, the gap between
vacancy number and rigging.

On an admissible configuration, f at a is defined exactly when
phi_a > 0, and f reads that off the closed form.  e checks that its
result is admissible, as an internal invariant.
"""

from __future__ import annotations

from .errors import InvariantError
from .rc import RiggedConfiguration, spec_vacancy


def _rebuild(rc: RiggedConfiguration, a: int, sel_index: int | None,
             new_sel: tuple[int, int] | None, new_weight) -> RiggedConfiguration:
    """Replace string sel_index of component a by new_sel (None drops
    it; sel_index None appends), keeping all other colabels fixed."""
    n = rc.n
    parts = rc.partitions
    colabels = []
    for b in range(1, n):
        comp = []
        for idx, (l, x) in enumerate(rc.strings[b - 1]):
            if b == a and idx == sel_index:
                continue
            comp.append((l, spec_vacancy(rc.spec, parts, b, l) - x))
        colabels.append(comp)

    working = [[(l, 0) for l, _ in comp] for comp in colabels]
    if new_sel is not None:
        working[a - 1].append(new_sel)
    new_parts = tuple(tuple(l for l, _ in comp) for comp in working)
    strings = []
    for b in range(1, n):
        comp = list(working[b - 1])
        for idx, (l, colabel) in enumerate(colabels[b - 1]):
            comp[idx] = (l, spec_vacancy(rc.spec, new_parts, b, l) - colabel)
        strings.append(tuple(comp))
    return RiggedConfiguration(rc.spec, tuple(new_weight), tuple(strings))


def f(rc: RiggedConfiguration, a: int) -> RiggedConfiguration | None:
    """Lowering operator on component a, or None off the crystal.

    Targets the smallest nonpositive rigging, breaking ties toward
    longer strings; with no nonpositive rigging a new length-one
    string is started.  The target gains a box and its rigging drops
    by one more.
    """
    if phi(rc, a) == 0:
        return None
    comp = rc.strings[a - 1]
    nonpos = [(x, -l, idx) for idx, (l, x) in enumerate(comp) if x <= 0]
    if nonpos:
        x, neg_l, idx = min(nonpos)
        sel_index, new_sel = idx, (-neg_l + 1, x - 1)
    else:
        sel_index, new_sel = None, (1, -1)
    new_weight = list(rc.weight)
    new_weight[a - 1] -= 1
    new_weight[a] += 1
    return _rebuild(rc, a, sel_index, new_sel, new_weight)


def e(rc: RiggedConfiguration, a: int) -> RiggedConfiguration | None:
    """Raising operator on component a, or None at the top.

    Targets the smallest negative rigging, breaking ties toward
    shorter strings.  The target loses a box and its rigging rises by
    one more; a length-zero string disappears.
    """
    n = rc.n
    if not 1 <= a <= n - 1:
        raise ValueError(f'component {a} outside 1..{n - 1}')
    comp = rc.strings[a - 1]
    negative = [(x, l, idx) for idx, (l, x) in enumerate(comp) if x < 0]
    if not negative:
        return None
    x, l, idx = min(negative)
    new_sel = (l - 1, x + 1) if l - 1 >= 1 else None
    new_weight = list(rc.weight)
    new_weight[a - 1] += 1
    new_weight[a] -= 1
    if new_weight[a] < 0:
        raise InvariantError(f'raising at {a} empties letter {a + 1} of {rc}')
    out = _rebuild(rc, a, idx, new_sel, new_weight)
    if not out.is_admissible():
        raise InvariantError(f'raising at {a} left {rc} inadmissible')
    return out


def phi(rc: RiggedConfiguration, a: int) -> int:
    """Number of lowering steps available on component a.

    Closed form: the weight gap mu_a - mu_{a+1} (the vacancy number of
    the component at large lengths, the sizes being forced) plus
    epsilon.
    """
    return epsilon(rc, a) + rc.weight[a - 1] - rc.weight[a]


def epsilon(rc: RiggedConfiguration, a: int) -> int:
    """Number of raising steps available on component a.

    Closed form: minus the smallest rigging of the component, zero when
    none is negative.
    """
    n = rc.n
    if not 1 <= a <= n - 1:
        raise ValueError(f'component {a} outside 1..{n - 1}')
    return -min(0, min((x for _, x in rc.strings[a - 1]), default=0))
