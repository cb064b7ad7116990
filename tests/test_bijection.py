import pytest

from kostka import rccrystal
from kostka.bijection import (extract_letter, insert_letter, merge_box_rc,
                              merge_column_rc, path_to_rc, peel_box,
                              peel_box_rc, peel_column, peel_column_rc,
                              pop_letter, rc_to_path)
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.paths import enumerate_all_paths, enumerate_paths
from kostka.plactic import tail_energy
from kostka.rc import RiggedConfiguration, empty_rc, enumerate_rcs

from oracles import N6_SPEC, recursive_correspondence

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
    for p in paths:
        key = tuple(t.rows for t in p.tableaux)
        strings, value = expected.pop(key)
        rc = path_to_rc(p)
        assert rc == RiggedConfiguration(TWO_FACTOR_SPEC, weight, strings)
        assert tail_energy(p) == rc.cocharge() == value
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


def test_image_is_the_full_rc_set():
    weight = (2, 2, 1, 1)
    image = {path_to_rc(p) for p in enumerate_paths(TWO_FACTOR_SPEC, weight)}
    assert image == set(enumerate_rcs(TWO_FACTOR_SPEC, weight))


def test_bijection_at_n6():
    # Three rectangles with r, s >= 2 in two of them: 935 paths.
    paths = enumerate_paths(N6_SPEC, N6_WEIGHT)
    assert len(paths) == 935
    image = set()
    for p in paths:
        rc = path_to_rc(p)
        assert rc_to_path(rc) == p
        assert rc.cocharge() == tail_energy(p), p
        image.add(rc)
    assert image == set(enumerate_rcs(N6_SPEC, N6_WEIGHT))


def test_operators_commute_with_the_bijection_at_n6():
    # Every 10th path keeps the cost within the tier-1 budget.
    for p in enumerate_paths(N6_SPEC, N6_WEIGHT)[::10]:
        rc = path_to_rc(p)
        for a in range(1, N6_SPEC.n):
            for moved, image in ((p.f(a), rccrystal.f(rc, a)),
                                 (p.e(a), rccrystal.e(rc, a))):
                assert image == (None if moved is None else path_to_rc(moved)), (p, a)


def test_extract_letter_goldens():
    out, rank = extract_letter(EXB_RC)
    assert rank == 3
    assert out == EXB_DELTA
    assert insert_letter(out, rank) == EXB_RC

    four = CrystalSpec(5, ((1, 1),) * 4)
    start = RiggedConfiguration(four, (0, 1, 0, 1, 2), (
        ((3, -1), (1, 2)),
        ((2, 0), (1, 0)),
        ((2, -1), (1, -1)),
        ((2, -1),),
    ))
    out, rank = extract_letter(start)
    assert rank == 5
    assert out == RiggedConfiguration(CrystalSpec(5, ((1, 1),) * 3),
                                      (0, 1, 0, 1, 1), (
        ((3, -1),),
        ((2, 0),),
        ((2, -1),),
        ((1, -1),),
    ))
    assert insert_letter(out, rank) == start


def test_insert_letter_golden():
    four = CrystalSpec(5, ((1, 1),) * 4)
    start = RiggedConfiguration(four, (0, 1, 1, 1, 1), (
        ((3, -1), (1, 1)),
        ((2, -1), (1, 0)),
        ((1, -1), (1, -1)),
        ((1, 0),),
    ))
    grown = insert_letter(start, 3)
    assert grown == RiggedConfiguration(CrystalSpec(5, ((1, 1),) * 5),
                                        (0, 1, 2, 1, 1), (
        ((3, -1), (1, 1), (1, 1)),
        ((3, -1), (1, 0)),
        ((1, -1), (1, -1)),
        ((1, 0),),
    ))
    assert extract_letter(grown) == (start, 3)


def test_insert_extract_roundtrip():
    spec = CrystalSpec(3, ((1, 1), (2, 1)))
    for p in enumerate_all_paths(spec):
        rc = path_to_rc(p)
        for letter in range(1, 4):
            assert extract_letter(insert_letter(rc, letter)) == (rc, letter)
        out, rank = extract_letter(rc)
        assert insert_letter(out, rank) == rc


def test_letter_validation():
    with pytest.raises(ValueError):
        insert_letter(empty_rc(3), 0)
    with pytest.raises(ValueError):
        insert_letter(empty_rc(3), 4)
    with pytest.raises(ValueError):
        extract_letter(empty_rc(3))
    with pytest.raises(ValueError):
        extract_letter(EXB_DELTA)    # leading factor is a column


def test_peel_column_rc_shifts_vacancies():
    for rc in enumerate_rcs(TWO_FACTOR_SPEC, (2, 2, 1, 1)):
        split = peel_column_rc(rc)
        assert split.spec.factors == ((2, 1), (2, 1), (2, 1))
        assert split.strings == rc.strings
        for a in range(1, 4):
            for i in range(1, 5):
                shift = 1 if a == 2 and i < 2 else 0
                assert split.vacancy(a, i) == rc.vacancy(a, i) + shift
        assert merge_column_rc(split) == rc


def test_peel_box_rc_adds_singular_strings():
    for rc in enumerate_rcs(TWO_FACTOR_SPEC, (2, 2, 1, 1)):
        work = peel_column_rc(rc)
        out = peel_box_rc(work)
        assert out.spec.factors == ((1, 1), (1, 1), (2, 1), (2, 1))
        assert len(out.strings[0]) == len(work.strings[0]) + 1
        assert out.strings[1:] == work.strings[1:]
        assert (1, out.vacancy(1, 1)) in out.strings[0]
        for a in range(1, 4):
            assert out.vacancy(a, 1) == work.vacancy(a, 1)
        assert merge_box_rc(out) == work


def test_peel_rc_validation():
    with pytest.raises(ValueError):
        peel_column_rc(empty_rc(3))
    with pytest.raises(ValueError):
        peel_box_rc(empty_rc(3))
    single = path_to_rc(Path(CrystalSpec(3, ((1, 1),)),
                             (RectTableau(((1,),), 3),)))
    with pytest.raises(ValueError):
        peel_column_rc(single)
    with pytest.raises(ValueError):
        peel_box_rc(single)


def test_merge_box_rc_cases():
    spec = CrystalSpec(3, ((1, 1), (1, 1)))
    good = RiggedConfiguration(spec, (1, 1, 0), (((1, 0),), ()))
    merged = merge_box_rc(good)
    assert merged.spec.factors == ((2, 1),)
    assert merged.strings == ((), ())
    bad = RiggedConfiguration(spec, (1, 1, 0), (((1, -1),), ()))
    with pytest.raises(RuntimeError):
        merge_box_rc(bad)
    with pytest.raises(ValueError):
        merge_box_rc(merged)


def test_merge_column_rc_cases():
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    blocked = RiggedConfiguration(spec, (1, 1), (((1, 0),),))
    with pytest.raises(RuntimeError):
        merge_column_rc(blocked)
    clear = RiggedConfiguration(spec, (1, 1), (((1, -1),),))
    merged = merge_column_rc(clear)
    assert merged.spec.factors == ((1, 2),)
    assert merged.strings == (((1, -1),),)
    assert merged.is_admissible()
    with pytest.raises(ValueError):
        merge_column_rc(merged)
    mixed = RiggedConfiguration(CrystalSpec(3, ((1, 1), (2, 1))),
                                (2, 1, 0), ((), ()))
    with pytest.raises(ValueError):
        merge_column_rc(mixed)  # factor heights differ
