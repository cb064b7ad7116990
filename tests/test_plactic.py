from collections import Counter
from itertools import product as iproduct

import pytest
from hypothesis import given, strategies as st

import kostka.plactic
from kostka.crystal import CrystalSpec, Path, RectTableau, enumerate_crystal
from kostka.paths import enumerate_all_paths
from kostka.plactic import (EMPTY_TABLEAU, SkewlessTableau, insert_word,
                            local_energy, product, rmatrix, row_insert,
                            tail_energy)
from oracles import oracle_tail_energy


def test_skewless_validation():
    SkewlessTableau(((1, 1, 3), (2, 2), (4,)))
    with pytest.raises(ValueError):
        SkewlessTableau(((1,), (2, 3)))      # shape grows downward
    with pytest.raises(ValueError):
        SkewlessTableau(((2, 1),))
    with pytest.raises(ValueError):
        SkewlessTableau(((1, 2), (1,)))      # column repeats


def test_row_insert_bumps():
    t = insert_word(EMPTY_TABLEAU, (1, 2, 1))
    assert t.rows == ((1, 1), (2,))
    t = row_insert(t, 1)
    assert t.rows == ((1, 1, 1), (2,))


def test_product_golden():
    b = RectTableau(((1, 2), (2, 4)), 4)
    b2 = RectTableau(((1,), (3,), (4,)), 4)
    assert product(b, b2).rows == ((1, 1, 3), (2, 2, 4), (4,))


def test_rmatrix_golden():
    b = RectTableau(((1, 2), (2, 4)), 4)
    b2 = RectTableau(((1,), (3,), (4,)), 4)
    left, right = rmatrix(b, b2)
    assert left.rows == ((1,), (2,), (4,))
    assert right.rows == ((1, 3), (2, 4))
    assert local_energy(b, b2) == 0


def all_pairs(shape, shape2, n):
    for b in enumerate_crystal(*shape, n):
        for b2 in enumerate_crystal(*shape2, n):
            yield b, b2


PAIR_FAMILIES = [((1, 2), (2, 1), 3), ((1, 1), (2, 2), 3), ((2, 1), (1, 3), 3)]


def test_rmatrix_swaps_shapes_and_preserves_product():
    for shape, shape2, n in PAIR_FAMILIES:
        for b, b2 in all_pairs(shape, shape2, n):
            left, right = rmatrix(b, b2)
            assert left.shape == shape2 and right.shape == shape
            assert product(left, right) == product(b, b2)


def test_rmatrix_inverts():
    for shape, shape2, n in PAIR_FAMILIES:
        for b, b2 in all_pairs(shape, shape2, n):
            left, right = rmatrix(b, b2)
            assert rmatrix(left, right) == (b, b2)


def test_rmatrix_same_shape_is_identity():
    for b, b2 in all_pairs((2, 1), (2, 1), 3):
        assert rmatrix(b, b2) == (b, b2)


def test_rmatrix_preserves_weight_and_energy():
    for shape, shape2, n in PAIR_FAMILIES:
        for b, b2 in all_pairs(shape, shape2, n):
            left, right = rmatrix(b, b2)
            combined = tuple(x + y for x, y in zip(b.weight(), b2.weight()))
            swapped = tuple(x + y for x, y in zip(left.weight(), right.weight()))
            assert swapped == combined
            assert local_energy(left, right) == local_energy(b, b2)


def test_rmatrix_commutes_with_crystal_operators():
    n = 3
    spec = CrystalSpec(n, ((1, 2), (2, 1)))
    swapped = CrystalSpec(n, ((2, 1), (1, 2)))
    for b, b2 in all_pairs((1, 2), (2, 1), n):
        p = Path(spec, (b, b2))
        image = Path(swapped, rmatrix(b, b2))
        for i in range(1, n):
            lowered = p.f(i)
            lowered_image = image.f(i)
            if lowered is None:
                assert lowered_image is None
            else:
                assert Path(swapped, rmatrix(*lowered.tableaux)) == lowered_image


def test_local_energy_range():
    # on B^{1,1} x B^{1,1} the energy is the indicator of a strict descent
    for b, b2 in all_pairs((1, 1), (1, 1), 3):
        x, y = b.rows[0][0], b2.rows[0][0]
        assert local_energy(b, b2) == (1 if x > y else 0)


def test_tail_energy_single_factor_vanishes():
    for t in enumerate_crystal(2, 2, 3):
        assert tail_energy(Path(CrystalSpec(3, ((2, 2),)), (t,))) == 0


def test_tail_energy_two_factors_is_local():
    spec = CrystalSpec(3, ((1, 2), (2, 1)))
    for b, b2 in all_pairs((1, 2), (2, 1), 3):
        p = Path(spec, (b, b2))
        assert tail_energy(p) == local_energy(b, b2)


def test_tail_energy_empty_path():
    assert tail_energy(Path(CrystalSpec(3, ()), ())) == 0


# Mixed specs put equal and distinct shapes next to each other, with a
# factor left of the equal pair, so a factor carried across it is used.
ENERGY_SPECS = [
    CrystalSpec(3, ((2, 2), (1, 2), (1, 2), (2, 1))),
    CrystalSpec(4, ((1, 1), (2, 1), (2, 1), (1, 2))),
    CrystalSpec(3, ((1, 1),) * 6),
]


@pytest.mark.parametrize('spec', ENERGY_SPECS, ids=str)
def test_tail_energy_matches_oracle_on_every_path(spec):
    for p in enumerate_all_paths(spec):
        assert tail_energy(p) == oracle_tail_energy(p), p


@st.composite
def random_paths(draw):
    n = draw(st.integers(2, 4))
    shapes = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, 2)),
                           max_size=5))
    tableaux = tuple(draw(st.sampled_from(enumerate_crystal(r, s, n)))
                     for r, s in shapes)
    return Path(CrystalSpec(n, tuple(shapes)), tableaux)


@given(random_paths())
def test_tail_energy_matches_oracle(p):
    assert tail_energy(p) == oracle_tail_energy(p)


def test_tail_energy_never_transports_across_equal_shapes(monkeypatch):
    seen = []

    def recorder(b, b2):
        seen.append((b.shape, b2.shape))
        return rmatrix(b, b2)

    monkeypatch.setattr(kostka.plactic, 'rmatrix', recorder)
    for spec in ENERGY_SPECS[:2]:
        for p in enumerate_all_paths(spec):
            tail_energy(p)
    assert seen and all(shape != shape2 for shape, shape2 in seen)


def test_energy_memos_stay_within_the_table_sizes():
    spec = ENERGY_SPECS[0]
    sizes = {shape: len(enumerate_crystal(*shape, spec.n)) for shape in spec.factors}
    rmatrix.cache_clear()
    local_energy.cache_clear()
    for p in enumerate_all_paths(spec):
        tail_energy(p)
    cells = {(a, b): sizes[a] * sizes[b] for a in sizes for b in sizes}
    distinct = sum(size for (a, b), size in cells.items() if a != b)
    assert 0 < rmatrix.cache_info().currsize <= distinct
    assert 0 < local_energy.cache_info().currsize <= sum(cells.values())


words = st.lists(st.integers(1, 4), max_size=10)


@given(words)
def test_insert_word_is_semistandard_and_weight_preserving(word):
    t = insert_word(EMPTY_TABLEAU, word)
    # constructor validates shape and semistandardness
    assert t.size() == len(word)
    assert t.weight_counts() == Counter(word)


@given(words, st.integers(1, 4))
def test_row_insert_grows_by_one_cell(word, x):
    t = insert_word(EMPTY_TABLEAU, word)
    t2 = row_insert(t, x)
    assert t2.size() == t.size() + 1
    old, new = t.shape, t2.shape
    diffs = [b - a for a, b in zip(old + (0,), new)]
    assert sum(diffs) == 1 and all(d in (0, 1) for d in diffs)
