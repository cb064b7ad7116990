"""Acceptance suite: seven frozen criteria, one verdict line each.

Each test prints `criterion N ...: PASS` (or FAIL) past the capture so
the verdicts are visible in any pytest run.  All comparisons are exact
integer or polynomial equality.
"""

import time
from contextlib import contextmanager

from kostka.bijection import Working, extract_letter, path_to_rc, rc_to_path
from kostka.cli import main
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.paths import enumerate_paths, path_polynomial
from kostka.plactic import local_energy, rmatrix, tail_energy
from kostka.qpoly import QPolynomial
from kostka.rc import (LowerBoundTableau, RiggedConfiguration, bound_tableaux,
                       fermionic_polynomial, rc_polynomial)
from kostka import rccrystal


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f'{label}: FAIL')
        raise
    with capsys.disabled():
        print(f'{label}: PASS')


SPEC1 = CrystalSpec(4, ((2, 2), (2, 1)))
WEIGHT1 = (2, 2, 1, 1)

# (factor rows, configuration strings, energy = cocharge)
ROWS1 = [
    ((((1, 1), (2, 2)), ((3,), (4,))),
     (((1, 0),), ((1, -1), (1, -1)), ((1, 0),)), 0),
    ((((1, 1), (2, 4)), ((2,), (3,))),
     (((1, -1),), ((1, 0), (1, 0)), ((1, 0),)), 1),
    ((((1, 2), (2, 3)), ((1,), (4,))),
     (((1, 0),), ((1, 0), (1, 0)), ((1, -1),)), 1),
    ((((1, 2), (2, 4)), ((1,), (3,))),
     (((1, 0),), ((1, 0), (1, -1)), ((1, 0),)), 1),
    ((((1, 3), (2, 4)), ((1,), (2,))),
     (((1, 0),), ((1, 0), (1, 0)), ((1, 0),)), 2),
    ((((1, 1), (2, 3)), ((2,), (4,))),
     (((1, -1),), ((2, 0),), ((1, -1),)), 0),
    ((((1, 2), (3, 4)), ((1,), (2,))),
     (((1, -1),), ((2, 1),), ((1, -1),)), 1),
]

EXB_SPEC = CrystalSpec(6, ((1, 1), (2, 1), (2, 3)))
EXB_PATH = Path(EXB_SPEC, (
    RectTableau(((3,),), 6),
    RectTableau(((1,), (2,)), 6),
    RectTableau(((1, 2, 3), (4, 5, 6)), 6),
))
EXB_RC = RiggedConfiguration(EXB_SPEC, (2, 2, 2, 1, 1, 1), (
    ((2, -1), (1, 0)),
    ((3, 0), (1, -1), (1, -1)),
    ((3, 0),),
    ((2, -1),),
    ((1, -1),),
))
EXB_DELTA = RiggedConfiguration(CrystalSpec(6, ((2, 1), (2, 3))),
                                (2, 2, 1, 1, 1, 1), (
    ((2, -1),),
    ((3, 0), (1, -1)),
    ((3, 0),),
    ((2, -1),),
    ((1, -1),),
))

SPEC5 = CrystalSpec(4, ((1, 3), (3, 2), (2, 1)))
RC5 = RiggedConfiguration(SPEC5, (1, 4, 3, 3), (
    ((4, -3), (1, -1)),
    ((3, 0), (1, 1)),
    ((2, -1), (1, -1)),
))


def test_criterion_1_seven_path_instance(capsys):
    with verdict(capsys, 'criterion 1 (graded count, three methods agree)'):
        start = time.perf_counter()
        target = QPolynomial({0: 2, 1: 4, 2: 1})
        paths = enumerate_paths(SPEC1, WEIGHT1)
        assert len(paths) == 7
        by_rows = {tuple(t.rows for t in p.tableaux): (p, energy) for p, energy in paths}
        assert set(by_rows) == {rows for rows, _, _ in ROWS1}
        for rows, strings, value in ROWS1:
            p, energy = by_rows[rows]
            rc = path_to_rc(p)
            assert rc == RiggedConfiguration(SPEC1, WEIGHT1, strings)
            assert energy == tail_energy(p) == rc.cocharge() == value
        assert path_polynomial(SPEC1, WEIGHT1) == target
        assert rc_polynomial(SPEC1, WEIGHT1) == target
        assert fermionic_polynomial(SPEC1, WEIGHT1) == target
        assert time.perf_counter() - start < 1.0


def test_criterion_2_three_factor_instance(capsys):
    with verdict(capsys, 'criterion 2 (three-factor map and box extraction)'):
        start = time.perf_counter()
        rc = path_to_rc(EXB_PATH)
        assert rc == EXB_RC
        assert tail_energy(EXB_PATH) == rc.cocharge() == 2
        assert rc_to_path(rc) == EXB_PATH
        work = Working(rc)
        assert extract_letter(work) == 3
        assert work.freeze() == EXB_DELTA
        assert time.perf_counter() - start < 1.0


def test_criterion_3_witness_bounds(capsys):
    with verdict(capsys, 'criterion 3 (witness tableaux and vacancy numbers)'):
        witnesses = bound_tableaux((0, 1, 1, 1))
        assert len(witnesses) == 6
        assert {t.columns for t in witnesses} == {
            ((3, 2, 1), (3, 2), (2,)),
            ((3, 2, 1), (3, 2), (1,)),
            ((3, 2, 1), (3, 1), (2,)),
            ((3, 2, 1), (3, 1), (1,)),
            ((3, 2, 1), (2, 1), (2,)),
            ((3, 2, 1), (2, 1), (1,)),
        }
        rc = RiggedConfiguration(CrystalSpec(4, ((1, 1),) * 6), (2, 2, 1, 1),
                                 (((3, -2), (1, 0)), ((2, 0),), ((1, -1),)))
        assert rc.vacancy(1, 3) == 0
        assert rc.vacancy(1, 1) == 3
        witness = LowerBoundTableau(((4, 3, 2, 1), (4, 3), (1,)), (2, 2, 1, 1))
        assert witness.bound(1, 3) == -2
        assert witness.bound(1, 1) == -1
        assert rc.is_admissible()


def test_criterion_4_operators_and_exchange(capsys):
    with verdict(capsys, 'criterion 4 (tensor operators and factor exchange)'):
        p = Path(CrystalSpec(5, ((2, 2), (3, 2))),
                 (RectTableau(((1, 2), (2, 3)), 5),
                  RectTableau(((2, 3), (3, 4), (4, 5)), 5)))
        assert ''.join(map(str, p.word())) == '2312453423'
        lowered = p.f(2)
        assert lowered.tableaux[0].rows == ((1, 2), (3, 3))
        assert lowered.tableaux[1] == p.tableaux[1]
        raised = p.e(2)
        assert raised.tableaux[0] == p.tableaux[0]
        assert raised.tableaux[1].rows == ((2, 2), (3, 4), (4, 5))
        assert p.phi(2) == 1 and p.epsilon(2) == 1

        b = RectTableau(((1, 2), (2, 4)), 4)
        b2 = RectTableau(((1,), (3,), (4,)), 4)
        left, right = rmatrix(b, b2)
        assert left.rows == ((1,), (2,), (4,))
        assert right.rows == ((1, 3), (2, 4))
        assert local_energy(b, b2) == 0


def test_criterion_5_configuration_operators(capsys):
    with verdict(capsys, 'criterion 5 (configuration operators with label shifts)'):
        down = rccrystal.f(RC5, 3)
        assert down == RiggedConfiguration(SPEC5, (1, 4, 2, 4), (
            ((4, -3), (1, -1)),
            ((3, 1), (1, 1)),
            ((3, -2), (1, -1)),
        ))
        up = rccrystal.e(RC5, 3)
        assert up == RiggedConfiguration(SPEC5, (1, 4, 4, 2), (
            ((4, -3), (1, -1)),
            ((3, -1), (1, 0)),
            ((2, 1),),
        ))
        assert rccrystal.e(down, 3) == RC5
        assert rccrystal.f(up, 3) == RC5


def test_criterion_6_property_suite(capsys):
    with verdict(capsys, 'criterion 6 (generated property suite)'):
        start = time.perf_counter()
        code = main(['check'])
        out, _ = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[-1] == 'checked 121 specs: all properties hold'
        assert time.perf_counter() - start < 300.0


def test_criterion_7_two_box_instance(capsys):
    with verdict(capsys, 'criterion 7 (two-box instance)'):
        spec = CrystalSpec(2, ((1, 1), (1, 1)))
        target = QPolynomial({0: 1, 1: 1})
        assert len(enumerate_paths(spec, (1, 1))) == 2
        assert path_polynomial(spec, (1, 1)) == target
        assert rc_polynomial(spec, (1, 1)) == target
        assert fermionic_polynomial(spec, (1, 1)) == target
