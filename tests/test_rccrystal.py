from functools import cache

import pytest

from kostka.bijection import path_to_rc
from kostka.cli import _compositions, sweep_specs
from kostka.crystal import CrystalSpec
from kostka.errors import InvariantError
from kostka.paths import enumerate_all_paths
from kostka.rc import RiggedConfiguration, enumerate_rcs
from kostka.rccrystal import e, epsilon, f, phi

from oracles import (N5_SPECS, N6_SPEC, admissible_f, colabel_e, empty_rc,
                     iterated_epsilon, sweep_rcs)

SPEC44 = CrystalSpec(4, ((1, 3), (3, 2), (2, 1)))
RC44 = RiggedConfiguration(SPEC44, (1, 4, 3, 3), (
    ((4, -3), (1, -1)),
    ((3, 0), (1, 1)),
    ((2, -1), (1, -1)),
))


def test_trusted_configurations_pass_the_constructor_checks():
    # enumerate_rcs and the operators build their configurations without
    # the constructor's checks; the checked constructor changes nothing.
    rcs = [rc for spec in sweep_specs(4, 5)
           for weight in _compositions(spec.total_boxes(), spec.n)
           for rc in enumerate_rcs(spec, weight)]
    images = [image for rc in rcs for a in range(1, rc.n)
              for image in (f(rc, a), e(rc, a)) if image is not None]
    assert len(rcs) == 15924 and len(images) == 48734
    for rc in rcs + images:
        checked = RiggedConfiguration(rc.spec, rc.weight, rc.strings)
        assert checked == rc and checked.strings == rc.strings, rc


def test_lowering_golden():
    assert RC44.is_admissible()
    down = f(RC44, 3)
    assert down == RiggedConfiguration(SPEC44, (1, 4, 2, 4), (
        ((4, -3), (1, -1)),
        ((3, 1), (1, 1)),
        ((3, -2), (1, -1)),
    ))
    assert e(down, 3) == RC44


def test_raising_golden():
    up = e(RC44, 3)
    assert up == RiggedConfiguration(SPEC44, (1, 4, 4, 2), (
        ((4, -3), (1, -1)),
        ((3, -1), (1, 0)),
        ((2, 1),),
    ))
    assert f(up, 3) == RC44
    assert phi(RC44, 3) == epsilon(RC44, 3) == 1


def test_lowering_starts_fresh_string():
    rc = RiggedConfiguration(CrystalSpec(2, ((1, 1),)), (1, 0), ((),))
    down = f(rc, 1)
    assert down == RiggedConfiguration(rc.spec, (0, 1), (((1, -1),),))
    assert f(down, 1) is None       # weight would go negative
    assert e(down, 1) == rc


def test_raising_none_without_negative_riggings():
    rc = RiggedConfiguration(CrystalSpec(2, ((1, 1), (1, 1))), (2, 0), ((),))
    assert e(rc, 1) is None
    assert e(empty_rc(3), 1) is None
    assert e(empty_rc(3), 2) is None


def test_operators_never_empty_a_letter():
    # Off the admissible configurations, where phi and epsilon overstate
    # the steps, the operators raise instead of building a negative weight.
    spec = CrystalSpec(2, ((1, 1),))
    over = RiggedConfiguration(spec, (0, 1), (((1, -2),),))
    assert not over.is_admissible() and phi(over, 1) == 1
    with pytest.raises(InvariantError, match='empties letter 1'):
        f(over, 1)
    # The sizes are not forced, so only the unchecked constructor builds it.
    wrong_size = RiggedConfiguration._trusted(spec, (1, 0), (((1, -1),),))
    assert not wrong_size.is_admissible()
    with pytest.raises(InvariantError, match='empties letter 2'):
        e(wrong_size, 1)


def test_residue_validation():
    for op in (f, e, phi, epsilon):
        for a in (0, 4):
            with pytest.raises(ValueError, match=f'^component {a} outside 1..3$'):
                op(RC44, a)
        for a in (True, 1.0):
            with pytest.raises(ValueError, match='expected an integer'):
                op(RC44, a)


def test_operators_invert_each_other():
    for rc in enumerate_rcs(CrystalSpec(4, ((2, 2), (2, 1))), (2, 2, 1, 1)):
        for a in range(1, 4):
            down = f(rc, a)
            if down is not None:
                assert down.is_admissible()
                assert e(down, a) == rc
            up = e(rc, a)
            if up is not None:
                assert up.is_admissible()
                assert f(up, a) == rc


def test_phi_minus_epsilon_is_the_weight_gap():
    # phi is computed as epsilon plus the gap; the raising steps are
    # counted independently, by iterating e.
    for rc in enumerate_rcs(CrystalSpec(4, ((2, 2), (2, 1))), (2, 2, 1, 1)):
        for a in range(1, 4):
            steps = iterated_epsilon(rc, a)
            assert epsilon(rc, a) == steps
            assert phi(rc, a) - steps == rc.weight[a - 1] - rc.weight[a]


def test_phi_counts_lowering_steps():
    for rc in enumerate_rcs(CrystalSpec(4, ((2, 2), (2, 1))), (2, 2, 1, 1)):
        for a in range(1, 4):
            count = 0
            current = f(rc, a)
            while current is not None:
                count += 1
                current = f(current, a)
            assert count == phi(rc, a)


def test_operators_match_path_operators():
    families = [
        CrystalSpec(2, ((1, 1), (1, 1), (1, 1))),
        CrystalSpec(3, ((2, 1), (1, 2))),
    ]
    for spec in families:
        for p in enumerate_all_paths(spec):
            rc = path_to_rc(p)
            for a in range(1, spec.n):
                assert phi(rc, a) == p.phi(a)
                assert epsilon(rc, a) == p.epsilon(a)
                down = p.f(a)
                if down is None:
                    assert f(rc, a) is None
                else:
                    assert f(rc, a) == path_to_rc(down)
                up = p.e(a)
                if up is None:
                    assert e(rc, a) is None
                else:
                    assert e(rc, a) == path_to_rc(up)


@cache
def operator_rcs():
    """sweep_rcs() and every configuration of N5_SPECS and of N6_SPEC at
    (3, 2, 2, 2, 2, 2): 19,821 (configuration, component) pairs."""
    rcs = list(sweep_rcs())
    for spec, weight in N5_SPECS + [(N6_SPEC, (3, 2, 2, 2, 2, 2))]:
        rcs += enumerate_rcs(spec, weight)
    return rcs


# The reference rebuilds recompute every vacancy number before and after
# the box moves; the operators shift riggings in closed form.
def test_lowering_is_defined_exactly_where_the_result_is_admissible():
    assert sum(rc.n - 1 for rc in operator_rcs()) == 19821
    for rc in operator_rcs():
        for a in range(1, rc.n):
            assert f(rc, a) == admissible_f(rc, a)


def test_raising_matches_the_colabel_rebuild():
    raised = 0
    for rc in operator_rcs():
        for a in range(1, rc.n):
            up = e(rc, a)
            assert up == colabel_e(rc, a)
            raised += up is not None
    assert raised > 0
