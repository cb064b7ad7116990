"""Raising and lowering operators on rigged configurations.

The operators act on a single component: lowering adds a box to the
string with the smallest nonpositive rigging (a fresh string when all
riggings are positive), raising removes a box from the string with the
smallest negative rigging.  The changed string is re-rigged by an
absolute shift; every other string keeps its colabel, the gap between
vacancy number and rigging.  Moving one box of component a past length
t changes the vacancy numbers only at lengths above t, by a fixed step
in components a and a +- 1, so the riggings shift by that step and no
vacancy number is read.

On an admissible configuration, f at a is defined exactly when
phi_a > 0, and f reads that off the closed form.  e checks that its
result is admissible, as an internal invariant.
"""

from __future__ import annotations

from .crystal import json_index
from .errors import BadInputError, InvariantError
from .rc import RiggedConfiguration


def _check(rc, a) -> None:
    """Refuse rc if it is not a RiggedConfiguration, and a if json_index
    refuses it as a component of rc; e and epsilon, which f and phi call
    first, read their arguments here."""
    if not isinstance(rc, RiggedConfiguration):
        raise BadInputError('configuration must be a RiggedConfiguration')
    json_index(a, rc.n - 1, 'component')


def _rebuild(rc: RiggedConfiguration, a: int, sel_index: int | None,
             new_sel: tuple[int, int] | None, sign: int, t: int) -> RiggedConfiguration:
    """Replace string sel_index of component a by new_sel (None drops
    it; sel_index None appends), turning a letter a + 1 into a when sign
    is +1 (raising) and a into a + 1 when it is -1 (lowering), and
    keeping all other colabels fixed.

    t is the shorter length of the changed string.  Every vacancy number
    at a length above t moves by 2 * sign in component a and by -sign in
    components a - 1 and a + 1, and no other one changes.  The strings go
    to the configuration in any order; it sorts them.
    """
    weight = list(rc.weight)
    weight[a - 1] += sign
    weight[a] -= sign
    strings = []
    for b, comp in enumerate(rc.strings, start=1):
        shift = 2 * sign if b == a else -sign if abs(b - a) == 1 else 0
        strings.append([(l, x + shift) if l > t else (l, x) for l, x in comp])
    changed = strings[a - 1]
    if sel_index is not None:
        del changed[sel_index]
    if new_sel is not None:
        changed.append(new_sel)
    return RiggedConfiguration._trusted(rc.spec, tuple(weight), strings)


def f(rc: RiggedConfiguration, a: int) -> RiggedConfiguration | None:
    """Lowering operator on component a, or None off the crystal.

    Targets the smallest nonpositive rigging, breaking ties toward
    longer strings; with no nonpositive rigging a new length-one
    string is started.  The target gains a box and its rigging drops
    by one more.
    """
    if phi(rc, a) == 0:
        return None
    if rc.weight[a - 1] < 1:
        raise InvariantError(f'lowering at {a} empties letter {a} of {rc}')
    comp = rc.strings[a - 1]
    nonpos = [(x, -l, idx) for idx, (l, x) in enumerate(comp) if x <= 0]
    if nonpos:
        x, neg_l, idx = min(nonpos)
        return _rebuild(rc, a, idx, (-neg_l + 1, x - 1), -1, -neg_l)
    return _rebuild(rc, a, None, (1, -1), -1, 0)


def e(rc: RiggedConfiguration, a: int) -> RiggedConfiguration | None:
    """Raising operator on component a, or None at the top.

    Targets the smallest negative rigging, breaking ties toward
    shorter strings.  The target loses a box and its rigging rises by
    one more; a length-zero string disappears.
    """
    _check(rc, a)
    comp = rc.strings[a - 1]
    negative = [(x, l, idx) for idx, (l, x) in enumerate(comp) if x < 0]
    if not negative:
        return None
    x, l, idx = min(negative)
    if rc.weight[a] < 1:
        raise InvariantError(f'raising at {a} empties letter {a + 1} of {rc}')
    out = _rebuild(rc, a, idx, (l - 1, x + 1) if l > 1 else None, 1, l - 1)
    if not out.is_admissible():
        raise InvariantError(f'raising at {a} left {rc} inadmissible')
    return out


def phi(rc: RiggedConfiguration, a: int) -> int:
    """Number of lowering steps available on component a.

    Closed form: the weight gap mu_a - mu_{a+1} (the vacancy number of
    the component at large lengths, since every configuration has the
    sizes its weight forces) plus epsilon.
    """
    return epsilon(rc, a) + rc.weight[a - 1] - rc.weight[a]


def epsilon(rc: RiggedConfiguration, a: int) -> int:
    """Number of raising steps available on component a.

    Closed form: minus the smallest rigging of the component, zero when
    none is negative.
    """
    _check(rc, a)
    return -min(0, min((x for _, x in rc.strings[a - 1]), default=0))
