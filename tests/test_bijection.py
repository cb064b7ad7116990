import random
from collections import Counter
from copy import deepcopy

import pytest

from kostka import bijection, cli, rccrystal
from kostka.bijection import (Working, extract_letter, insert_letter, merge_box_rc,
                              merge_column_rc, path_to_rc, peel_box_rc,
                              peel_column_rc, rc_to_path)
from kostka.crystal import CrystalSpec, Path, RectTableau, enumerate_crystal
from kostka.errors import BadInputError, InvariantError
from kostka.paths import enumerate_all_paths, enumerate_paths
from kostka.plactic import rmatrix, tail_energy
from kostka.rc import RiggedConfiguration, component_vacancy, enumerate_rcs, spec_vacancy

from oracles import (N5_SPECS, N6_SPEC, extracted, listed_extract_letter,
                     listed_insert_letter, peel_box, peel_column, pop_letter,
                     recursive_correspondence, stepped, sweep_rcs)

FAMILIES = [
    CrystalSpec(2, ((1, 1), (1, 1), (1, 1))),
    CrystalSpec(3, ((1, 2), (2, 1))),
    CrystalSpec(3, ((2, 1), (1, 1), (1, 2))),
    CrystalSpec(4, ((2, 2), (2, 1))),
]

TWO_FACTOR_SPEC = CrystalSpec(4, ((2, 2), (2, 1)))
N6_WEIGHT = (3, 2, 2, 2, 2, 2)

# (factor rows, configuration strings, shared energy/cocharge value)
CORRESPONDENCE = [
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


def test_pop_letter():
    letter, rest = pop_letter(EXB_PATH)
    assert letter == 3
    assert rest.spec.factors == ((2, 1), (2, 3))
    assert rest.tableaux == EXB_PATH.tableaux[1:]


def test_peel_column():
    split = peel_column(Path(CrystalSpec(4, ((2, 2), (2, 1))), (
        RectTableau(((1, 2), (2, 4)), 4), RectTableau(((1,), (3,)), 4))))
    assert split.spec.factors == ((2, 1), (2, 1), (2, 1))
    assert split.tableaux[0].rows == ((1,), (2,))
    assert split.tableaux[1].rows == ((2,), (4,))
    assert split.tableaux[2].rows == ((1,), (3,))


def test_peel_box_preserves_word():
    path = Path(CrystalSpec(4, ((3, 1), (1, 1))),
                (RectTableau(((1,), (2,), (4,)), 4), RectTableau(((2,),), 4)))
    split = peel_box(path)
    assert split.spec.factors == ((1, 1), (2, 1), (1, 1))
    assert split.tableaux[0].rows == ((4,),)
    assert split.word() == path.word()


def test_split_validation():
    column = Path(CrystalSpec(3, ((2, 1),)), (RectTableau(((1,), (2,)), 3),))
    wide = Path(CrystalSpec(3, ((1, 2),)), (RectTableau(((1, 1),), 3),))
    box = Path(CrystalSpec(3, ((1, 1),)), (RectTableau(((1,),), 3),))
    empty = Path(CrystalSpec(3, ()), ())
    with pytest.raises(ValueError):
        pop_letter(column)
    with pytest.raises(ValueError):
        pop_letter(empty)
    with pytest.raises(ValueError):
        peel_column(empty)
    with pytest.raises(ValueError):
        peel_column(column)
    with pytest.raises(ValueError):
        peel_box(empty)
    with pytest.raises(ValueError):
        peel_box(wide)
    with pytest.raises(ValueError):
        peel_box(box)


def test_correspondence_two_factor_goldens():
    weight = (2, 2, 1, 1)
    paths = enumerate_paths(TWO_FACTOR_SPEC, weight)
    assert len(paths) == 7
    expected = {rows: (strings, value) for rows, strings, value in CORRESPONDENCE}
    for p, energy in paths:
        key = tuple(t.rows for t in p.tableaux)
        strings, value = expected.pop(key)
        rc = path_to_rc(p)
        assert rc == RiggedConfiguration(TWO_FACTOR_SPEC, weight, strings)
        assert energy == tail_energy(p) == rc.cocharge() == value
        assert rc_to_path(rc) == p
    assert not expected


def test_correspondence_three_factor_golden():
    rc = path_to_rc(EXB_PATH)
    assert rc == EXB_RC
    assert tail_energy(EXB_PATH) == rc.cocharge() == 2
    assert rc_to_path(EXB_RC) == EXB_PATH
    assert recursive_correspondence(EXB_PATH) == EXB_RC


def test_single_letter_golden():
    path = Path(CrystalSpec(3, ((1, 1),)), (RectTableau(((2,),), 3),))
    assert path_to_rc(path) == RiggedConfiguration(
        path.spec, (0, 1, 0), (((1, -1),), ()))


def test_matches_defining_recursion():
    for spec in FAMILIES:
        for p in enumerate_all_paths(spec):
            assert recursive_correspondence(p) == path_to_rc(p)


def test_roundtrip_over_families():
    for spec in FAMILIES:
        for p in enumerate_all_paths(spec):
            rc = path_to_rc(p)
            assert rc.is_admissible()
            assert rc_to_path(rc) == p


def test_energy_equals_cocharge_over_families():
    for spec in FAMILIES:
        for p in enumerate_all_paths(spec):
            assert tail_energy(p) == path_to_rc(p).cocharge()


def test_the_rmatrix_leaves_the_configuration_and_the_energy():
    # Exchanging two neighbouring factors by the combinatorial R-matrix
    # changes neither the image of the bijection nor the tail energy.
    moves = 0
    for spec in cli.sweep_specs(5, 4):
        for i in range(len(spec.factors) - 1):
            if spec.factors[i] == spec.factors[i + 1]:
                continue
            factors = list(spec.factors)
            factors[i:i + 2] = factors[i + 1], factors[i]
            swapped = CrystalSpec(spec.n, factors)
            for p in enumerate_all_paths(spec):
                tableaux = list(p.tableaux)
                tableaux[i:i + 2] = rmatrix(tableaux[i], tableaux[i + 1])
                q = Path(swapped, tableaux)
                image, moved = path_to_rc(p), path_to_rc(q)
                assert (moved.weight, moved.strings) == (image.weight, image.strings), (p, i)
                assert tail_energy(q) == tail_energy(p), (p, i)
                moves += 1
    assert moves == 5514


def test_image_is_the_full_rc_set():
    weight = (2, 2, 1, 1)
    image = {path_to_rc(p) for p, _energy in enumerate_paths(TWO_FACTOR_SPEC, weight)}
    assert image == set(enumerate_rcs(TWO_FACTOR_SPEC, weight))


@pytest.mark.parametrize('spec, weight, count', [
    # Three rectangles with r, s >= 2 in two of them.
    (N6_SPEC, N6_WEIGHT, 935),
    # Only rectangles with r, s >= 2, then two of them and a box.
    (CrystalSpec(6, ((2, 3), (4, 2))), (3, 3, 2, 2, 2, 2), 211),
    (CrystalSpec(6, ((5, 2), (2, 2), (1, 1))), (3, 3, 3, 2, 2, 2), 102),
], ids=['N6_SPEC', 'B23-B42', 'B52-B22-B11'])
def test_bijection_at_n6(spec, weight, count):
    paths = enumerate_paths(spec, weight)
    assert len(paths) == count
    image = set()
    for p, energy in paths:
        rc = path_to_rc(p)
        assert rc_to_path(rc) == p
        assert rc.cocharge() == tail_energy(p) == energy, p
        image.add(rc)
    assert image == set(enumerate_rcs(spec, weight))


def test_operators_commute_with_the_bijection_at_n6():
    # Every 10th path keeps the cost within the tier-1 budget.
    for p, _energy in enumerate_paths(N6_SPEC, N6_WEIGHT)[::10]:
        rc = path_to_rc(p)
        for a in range(1, N6_SPEC.n):
            for moved, image in ((p.f(a), rccrystal.f(rc, a)),
                                 (p.e(a), rccrystal.e(rc, a))):
                assert image == (None if moved is None else path_to_rc(moved)), (p, a)


# Specs past the exhaustive sweeps, with the paths drawn from each.
LARGE_N_SPECS = [
    (CrystalSpec(10, ((2, 1), (1, 2), (3, 1), (1, 1), (2, 2))), 24),
    (CrystalSpec(15, ((2, 1), (1, 3), (3, 1), (1, 2))), 24),
    (CrystalSpec(20, ((1, 2), (2, 1), (1, 1), (3, 1), (1, 2))), 24),
    (CrystalSpec(12, ((2, 2),) * 3), 24),
]


def test_bijection_facts_on_sampled_paths_at_n10_to_20():
    # Each factor's tableau is drawn uniformly from its crystal, so the
    # paths are uniform over the whole product but not within a weight.
    # Energy is compared with cocharge only on the spec of equal shapes:
    # each new pair of shapes builds a full R-matrix table, too slow here.
    rng = random.Random(20)
    checked = 0
    for spec, count in LARGE_N_SPECS:
        n = spec.n
        crystals = [enumerate_crystal(r, s, n) for r, s in spec.factors]
        for _ in range(count):
            p = Path(spec, tuple(rng.choice(crystal) for crystal in crystals))
            rc = path_to_rc(p)
            assert rc.is_admissible(), p
            assert rc_to_path(rc) == p and path_to_rc(rc_to_path(rc)) == rc, p
            for a in range(1, n):
                for moved, image in ((p.f(a), rccrystal.f(rc, a)),
                                     (p.e(a), rccrystal.e(rc, a))):
                    assert image == (None if moved is None else path_to_rc(moved)), (p, a)
                assert p.phi(a) == rccrystal.phi(rc, a), (p, a)
                assert p.epsilon(a) == rccrystal.epsilon(rc, a), (p, a)
            # The letter round trips of cli.check_spec, on one state.
            work = Working(rc)
            for letter in range(1, n + 1):
                insert_letter(work, letter)
                assert work.freeze().is_admissible(), (p, letter)
                assert extract_letter(work) == letter and work.freeze() == rc, (p, letter)
            if len(set(spec.factors)) == 1:
                assert tail_energy(p) == rc.cocharge(), p
            checked += 1
    assert checked == 96


def test_extract_letter_goldens():
    out, rank = extracted(EXB_RC)
    assert rank == 3
    assert out == EXB_DELTA
    assert stepped(insert_letter, out, rank) == EXB_RC

    four = CrystalSpec(5, ((1, 1),) * 4)
    start = RiggedConfiguration(four, (0, 1, 0, 1, 2), (
        ((3, -1), (1, 2)),
        ((2, 0), (1, 0)),
        ((2, -1), (1, -1)),
        ((2, -1),),
    ))
    out, rank = extracted(start)
    assert rank == 5
    assert out == RiggedConfiguration(CrystalSpec(5, ((1, 1),) * 3),
                                      (0, 1, 0, 1, 1), (
        ((3, -1),),
        ((2, 0),),
        ((2, -1),),
        ((1, -1),),
    ))
    assert stepped(insert_letter, out, rank) == start


def test_insert_letter_golden():
    four = CrystalSpec(5, ((1, 1),) * 4)
    start = RiggedConfiguration(four, (0, 1, 1, 1, 1), (
        ((3, -1), (1, 1)),
        ((2, -1), (1, 0)),
        ((1, -1), (1, -1)),
        ((1, 0),),
    ))
    grown = stepped(insert_letter, start, 3)
    assert grown == RiggedConfiguration(CrystalSpec(5, ((1, 1),) * 5),
                                        (0, 1, 2, 1, 1), (
        ((3, -1), (1, 1), (1, 1)),
        ((3, -1), (1, 0)),
        ((1, -1), (1, -1)),
        ((1, 0),),
    ))
    assert extracted(grown) == (start, 3)


def test_insert_extract_roundtrip():
    spec = CrystalSpec(3, ((1, 1), (2, 1)))
    for p in enumerate_all_paths(spec):
        rc = path_to_rc(p)
        for letter in range(1, 4):
            assert extracted(stepped(insert_letter, rc, letter)) == (rc, letter)
        out, rank = extracted(rc)
        assert stepped(insert_letter, out, rank) == rc


def test_letter_validation():
    for letter in (0, 4):
        with pytest.raises(ValueError, match=f'^letter {letter} outside 1..3$'):
            insert_letter(Working(3), letter)
    # True would insert a 1 and 1.0 fail on a list index, if they were read.
    for letter in (True, 1.0):
        with pytest.raises(ValueError, match='expected an integer'):
            insert_letter(Working(3), letter)
    with pytest.raises(ValueError):
        extract_letter(Working(3))
    with pytest.raises(ValueError):
        extract_letter(Working(EXB_DELTA))    # leading factor is a column


def test_extracting_an_absent_letter_is_an_invariant_error():
    # The component walk stops at letter 1, which the weight does not hold.
    # The sizes are not forced, so only the unchecked constructor builds it.
    rc = RiggedConfiguration._trusted(CrystalSpec(2, ((1, 1),)), (0, 1), ((),))
    with pytest.raises(InvariantError, match='extracting letter 1'):
        rc_to_path(rc)


def test_peel_column_rc_shifts_vacancies():
    for rc in enumerate_rcs(TWO_FACTOR_SPEC, (2, 2, 1, 1)):
        split = stepped(peel_column_rc, rc)
        assert split.spec.factors == ((2, 1), (2, 1), (2, 1))
        assert split.strings == rc.strings
        for a in range(1, 4):
            for i in range(1, 5):
                shift = 1 if a == 2 and i < 2 else 0
                assert split.vacancy(a, i) == rc.vacancy(a, i) + shift
        assert stepped(merge_column_rc, split) == rc


def test_peel_box_rc_adds_singular_strings():
    for rc in enumerate_rcs(TWO_FACTOR_SPEC, (2, 2, 1, 1)):
        work = stepped(peel_column_rc, rc)
        out = stepped(peel_box_rc, work)
        assert out.spec.factors == ((1, 1), (1, 1), (2, 1), (2, 1))
        assert len(out.strings[0]) == len(work.strings[0]) + 1
        assert out.strings[1:] == work.strings[1:]
        assert (1, out.vacancy(1, 1)) in out.strings[0]
        for a in range(1, 4):
            assert out.vacancy(a, 1) == work.vacancy(a, 1)
        assert stepped(merge_box_rc, out) == work


def test_peel_rc_validation():
    with pytest.raises(BadInputError):
        peel_column_rc(Working(3))
    with pytest.raises(BadInputError):
        peel_box_rc(Working(3))
    single = path_to_rc(Path(CrystalSpec(3, ((1, 1),)),
                             (RectTableau(((1,),), 3),)))
    with pytest.raises(BadInputError):
        peel_column_rc(Working(single))
    with pytest.raises(BadInputError):
        peel_box_rc(Working(single))


def test_merge_box_rc_cases():
    spec = CrystalSpec(3, ((1, 1), (1, 1)))
    good = RiggedConfiguration(spec, (1, 1, 0), (((1, 0),), ()))
    merged = stepped(merge_box_rc, good)
    assert merged.spec.factors == ((2, 1),)
    assert merged.strings == ((), ())
    bad = RiggedConfiguration(spec, (1, 1, 0), (((1, -1),), ()))
    with pytest.raises(RuntimeError):
        stepped(merge_box_rc, bad)
    with pytest.raises(BadInputError):
        stepped(merge_box_rc, merged)


def test_merge_column_rc_cases():
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    blocked = RiggedConfiguration(spec, (1, 1), (((1, 0),),))
    with pytest.raises(RuntimeError):
        stepped(merge_column_rc, blocked)
    clear = RiggedConfiguration(spec, (1, 1), (((1, -1),),))
    merged = stepped(merge_column_rc, clear)
    assert merged.spec.factors == ((1, 2),)
    assert merged.strings == (((1, -1),),)
    assert merged.is_admissible()
    with pytest.raises(BadInputError):
        stepped(merge_column_rc, merged)
    mixed = RiggedConfiguration(CrystalSpec(3, ((1, 1), (2, 1))),
                                (2, 1, 0), ((), ()))
    with pytest.raises(BadInputError):
        stepped(merge_column_rc, mixed)  # factor heights differ


STEPS = ('insert_letter', 'extract_letter', 'peel_column_rc', 'merge_column_rc',
         'peel_box_rc', 'merge_box_rc')


def test_working_vacancies_match_the_frozen_configuration(monkeypatch):
    # After every step of rc_to_path on every configuration of sweep_rcs()
    # and of N5_SPECS, and of path_to_rc back on those of N5_SPECS, the
    # state's vacancy numbers equal those of its frozen configuration.
    checked = Counter()

    def checking(step):
        def run(work, *args):
            out = step(work, *args)
            rc = work.freeze()
            # What rc.vacancy computes, with the partitions read once.
            padded = ((), *rc.partitions, ())
            longest = max((l for part in padded for l in part), default=0)
            for a in range(1, rc.n):
                for l in range(1, longest + 2):
                    assert (work.vacancy(a, l)
                            == component_vacancy(rc.spec.factors, padded, a, l)), (rc, a, l)
            checked[step.__name__] += 1
            return out
        return run

    for name in STEPS:
        monkeypatch.setattr(bijection, name, checking(getattr(bijection, name)))
    for rc in sweep_rcs():
        rc_to_path(rc)
    for spec, weight in N5_SPECS:
        for rc in enumerate_rcs(spec, weight):
            assert path_to_rc(rc_to_path(rc)) == rc
    assert set(checked) == set(STEPS)


def test_one_pass_picks_match_the_candidate_lists(monkeypatch):
    # At every letter step of path_to_rc and rc_to_path on every path of
    # sweep_specs(3, 4) and every configuration of N5_SPECS, the listed
    # reference step, run on a copy of the state, returns the same letter
    # and leaves the same lists, position by position: among singular
    # strings of one length the same index is picked.
    checked = Counter()

    def comparing(step, reference):
        def run(work, *args):
            twin = deepcopy(work)
            expected = reference(twin, *args)
            out = step(work, *args)
            assert out == expected, (step.__name__, args)
            assert (work.lengths, work.riggings) == (twin.lengths, twin.riggings), args
            assert (work.factors, work.weight) == (twin.factors, twin.weight), args
            checked[step.__name__] += 1
            return out
        return run

    monkeypatch.setattr(bijection, 'extract_letter',
                        comparing(extract_letter, listed_extract_letter))
    monkeypatch.setattr(bijection, 'insert_letter',
                        comparing(insert_letter, listed_insert_letter))
    for spec in cli.sweep_specs(3, 4):
        for p in enumerate_all_paths(spec):
            assert rc_to_path(path_to_rc(p)) == p
    for spec, weight in N5_SPECS:
        for rc in enumerate_rcs(spec, weight):
            assert path_to_rc(rc_to_path(rc)) == rc
    assert checked['extract_letter'] == checked['insert_letter'] > 0


def test_singular_strings_and_frozen_specs_match_the_checked_objects(monkeypatch):
    # After every step of path_to_rc and rc_to_path on every path of
    # sweep_specs(3, 4): Working.singular lists exactly the strings whose
    # rigging is the frozen configuration's vacancy number, and the
    # trusted spec of freeze() is the spec the checked constructor builds.
    checked = Counter()

    def checking(step):
        def run(work, *args):
            out = step(work, *args)
            rc = work.freeze()
            for a in range(1, rc.n):
                pairs = list(enumerate(zip(work.lengths[a], work.riggings[a])))
                for low, high in ((1, float('inf')), (1, 1), (2, 3)):
                    assert work.singular(a, low, high) == [
                        (l, idx) for idx, (l, x) in pairs
                        if low <= l <= high and x == rc.vacancy(a, l)], (rc, a, low)
            spec = rc.spec
            assert type(spec.n) is int and type(spec.factors) is tuple
            assert all(type(f) is tuple for f in spec.factors)
            built = CrystalSpec(spec.n, spec.factors)
            assert built == spec and hash(built) == hash(spec), spec
            checked[step.__name__] += 1
            return out
        return run

    for name in STEPS:
        monkeypatch.setattr(bijection, name, checking(getattr(bijection, name)))
    for spec in cli.sweep_specs(3, 4):
        for p in enumerate_all_paths(spec):
            rc = path_to_rc(p)
            assert rc_to_path(rc) == p
            assert CrystalSpec(rc.spec.n, rc.spec.factors) == rc.spec == p.spec
    assert set(checked) == set(STEPS)


def test_frozen_configurations_pass_the_constructor_checks():
    # Working.freeze builds its configuration without the constructor's
    # checks; the checked constructor changes nothing.
    paths = [p for spec in FAMILIES for p in enumerate_all_paths(spec)]
    for p in paths + [p for p, _energy in enumerate_paths(N6_SPEC, N6_WEIGHT)]:
        rc = path_to_rc(p)
        checked = RiggedConfiguration(rc.spec, rc.weight, rc.strings)
        assert checked == rc and checked.strings == rc.strings, p


def test_the_maps_freeze_once_and_leave_no_memo(monkeypatch):
    # Configurations are built checked or trusted; each map builds one.
    built = Counter()
    original = RiggedConfiguration.__post_init__
    original_trusted = RiggedConfiguration._trusted

    def counting(self):
        built['rc'] += 1
        original(self)

    def counting_trusted(*args):
        built['rc'] += 1
        return original_trusted(*args)

    monkeypatch.setattr(RiggedConfiguration, '__post_init__', counting)
    monkeypatch.setattr(RiggedConfiguration, '_trusted', counting_trusted)
    paths = [p for spec in FAMILIES for p in enumerate_all_paths(spec)]
    paths += [p for p, _energy in enumerate_paths(N6_SPEC, N6_WEIGHT)]
    spec_vacancy.cache_clear()
    images = []
    for p in paths:
        before = built['rc']
        rc = path_to_rc(p)
        assert built['rc'] == before + 1
        assert rc_to_path(rc) == p
        assert built['rc'] == before + 1
        images.append(rc)
    assert spec_vacancy.cache_info().currsize == 0
    # Admissibility, the operators and the property suite compute their
    # vacancy numbers per configuration, so they add no entries either.
    for rc in images:
        assert rc.is_admissible()
        for a in range(1, rc.n):
            rccrystal.f(rc, a)
            rccrystal.e(rc, a)
    for spec in FAMILIES[1:3]:
        assert cli.check_spec(spec) is None
    assert spec_vacancy.cache_info().currsize == 0
