from itertools import permutations

import pytest

from kostka import crystal, paths, plactic
from kostka.cli import _compositions, sweep_specs
from kostka.crystal import CrystalSpec, Path, enumerate_crystal
from kostka.paths import enumerate_all_paths, enumerate_paths, path_polynomial
from kostka.qpoly import QPolynomial
from kostka.rc import fermionic_polynomial

from oracles import N6_SPEC, macmahon_polynomial, oracle_path_polynomial


def test_two_box_weights():
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    assert len(enumerate_paths(spec, (2, 0))) == 1
    assert len(enumerate_paths(spec, (1, 1))) == 2
    assert len(enumerate_paths(spec, (0, 2))) == 1
    assert enumerate_paths(spec, (2, 1)) == []   # box count mismatch


def test_two_box_polynomial():
    spec = CrystalSpec(2, ((1, 1), (1, 1)))
    assert path_polynomial(spec, (1, 1)) == QPolynomial({0: 1, 1: 1})
    # the single path of either pure weight carries no descent
    assert path_polynomial(spec, (2, 0)) == QPolynomial.one()
    assert path_polynomial(spec, (0, 2)) == QPolynomial.one()


def test_seven_path_instance():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    found = enumerate_paths(spec, (2, 2, 1, 1))
    assert len(found) == 7
    assert path_polynomial(spec, (2, 2, 1, 1)) == QPolynomial({0: 2, 1: 4, 2: 1})


def test_empty_spec():
    spec = CrystalSpec(3, ())
    only = enumerate_paths(spec, (0, 0, 0))
    assert len(only) == 1 and only[0].tableaux == ()
    assert path_polynomial(spec, (0, 0, 0)) == QPolynomial.one()
    assert enumerate_paths(spec, (1, 0, 0)) == []
    assert path_polynomial(spec, (1, 0, 0)) == QPolynomial.zero()


def test_all_paths_partition_by_weight():
    spec = CrystalSpec(3, ((1, 2), (2, 1)))
    everything = enumerate_all_paths(spec)
    sizes = 1
    for r, s in spec.factors:
        sizes *= len(enumerate_crystal(r, s, spec.n))
    assert len(everything) == sizes
    assert len(set(everything)) == sizes
    regrouped = []
    seen_weights = {p.weight() for p in everything}
    for w in seen_weights:
        regrouped.extend(enumerate_paths(spec, w))
    assert sorted(regrouped, key=str) == sorted(everything, key=str)


def test_enumeration_respects_weight():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    for p in enumerate_paths(spec, (2, 2, 1, 1)):
        assert p.weight() == (2, 2, 1, 1)


def test_path_polynomial_counts_at_one():
    spec = CrystalSpec(3, ((2, 1), (1, 1)))
    everything = enumerate_all_paths(spec)
    total = sum(path_polynomial(spec, w)(1)
                for w in {p.weight() for p in everything})
    assert total == len(everything)


def test_enumerated_paths_skip_the_constructor_checks(monkeypatch):
    # The tableaux come from enumerate_crystal of exactly the factor shapes,
    # so the enumerators build their paths without Path's checks; the paths
    # are equal to fully checked ones.
    spec = CrystalSpec(3, ((1, 2), (2, 1)))
    checked = enumerate_all_paths(spec)
    checked_weight = enumerate_paths(spec, (1, 2, 1))

    def refuse(self):
        raise AssertionError('Path re-validated an enumerated path')

    monkeypatch.setattr(crystal.Path, '__post_init__', refuse)
    assert enumerate_all_paths(spec) == checked
    assert enumerate_paths(spec, (1, 2, 1)) == checked_weight
    monkeypatch.undo()
    assert [Path(spec, p.tableaux) for p in checked] == checked


def test_polynomial_matches_the_per_path_sum_on_the_sweep():
    # Every composition weight of every spec with at most 5 boxes, n <= 4.
    pairs = 0
    for spec in sweep_specs(4, 5):
        for weight in _compositions(spec.total_boxes(), spec.n):
            assert path_polynomial(spec, weight) == oracle_path_polynomial(spec, weight), \
                (spec, weight)
            pairs += 1
    assert pairs == 4171


@pytest.mark.parametrize('weight, count', [
    ((3, 2, 2, 2, 2, 2), 935), ((2, 2, 2, 2, 2, 3), 935), ((2, 1, 3, 3, 1, 3), 318),
    ((4, 3, 2, 2, 1, 1), 182), ((0, 3, 1, 4, 2, 3), 58), ((5, 4, 2, 1, 1, 0), 4),
    ((5, 5, 3, 0, 0, 0), 0),
])
def test_polynomial_matches_the_per_path_sum_at_n6(weight, count):
    target = oracle_path_polynomial(N6_SPEC, weight)
    assert target(1) == count
    assert path_polynomial(N6_SPEC, weight) == target


def test_polynomial_edge_cases():
    one_factor = CrystalSpec(4, ((2, 2),))
    for weight in _compositions(4, 4):
        count = sum(t.weight() == weight for t in enumerate_crystal(2, 2, 4))
        assert path_polynomial(one_factor, weight) == QPolynomial({0: count})
        assert path_polynomial(one_factor, weight) == oracle_path_polynomial(one_factor, weight)
    two = CrystalSpec(3, ((1, 1), (2, 1)))
    assert path_polynomial(two, (1, 1, 0)) == QPolynomial.zero()   # box count mismatch
    assert path_polynomial(two, (3, 0, 0)) == QPolynomial.zero()   # no path of the weight


def test_polynomial_builds_no_path(monkeypatch):
    # One energy-polynomial code path: no per-path sum, no path at all.
    def refuse(*args, **kwargs):
        raise AssertionError('path_polynomial went path by path')

    monkeypatch.setattr(paths, 'tail_energy', refuse, raising=False)
    monkeypatch.setattr(plactic, 'tail_energy', refuse)
    monkeypatch.setattr(paths, 'enumerate_paths', refuse)
    monkeypatch.setattr(paths, 'enumerate_all_paths', refuse)
    monkeypatch.setattr(crystal.Path, '__post_init__', refuse)
    monkeypatch.setattr(crystal.Path, '_trusted', refuse)
    assert path_polynomial(N6_SPEC, (3, 2, 2, 2, 2, 2))(1) == 935


@pytest.mark.parametrize('spec, weight, paths_count', [
    (CrystalSpec(3, ((1, 1),) * 12), (4, 4, 4), 34650),
    (CrystalSpec(4, ((1, 1),) * 10), (3, 3, 2, 2), 25200),
    (CrystalSpec(3, ((1, 2),) * 8), (6, 5, 5), 62832),
], ids=['B11x12', 'B11x10-n4', 'B12x8'])
def test_polynomial_matches_fermionic_on_many_factors(spec, weight, paths_count):
    # Tens of thousands of paths each, out of reach path by path.
    target = path_polynomial(spec, weight)
    assert target(1) == paths_count
    assert fermionic_polynomial(spec, weight) == target


def test_one_box_paths_match_macmahon_on_the_sweep():
    # A closed form sharing no code with path_polynomial: every
    # composition weight of (1,1)^L with 2 <= n <= 4 and L <= 7.
    pairs = 0
    for n in range(2, 5):
        for boxes in range(8):
            spec = CrystalSpec(n, ((1, 1),) * boxes)
            for weight in _compositions(boxes, n):
                assert path_polynomial(spec, weight) == macmahon_polynomial(weight), \
                    (spec, weight)
                pairs += 1
    assert pairs == 486


@pytest.mark.parametrize('weight', [(4, 4, 4), (5, 5, 5), (3, 3, 3, 3), (2, 2, 2, 2, 2)])
def test_one_box_paths_match_macmahon_at_larger_weights(weight):
    spec = CrystalSpec(len(weight), ((1, 1),) * sum(weight))
    target = macmahon_polynomial(weight)
    assert path_polynomial(spec, weight) == target
    if weight == (5, 5, 5):
        assert fermionic_polynomial(spec, weight) == target


def test_polynomial_does_not_depend_on_the_factor_order():
    # The R-matrix makes every order of the factors an isomorphic
    # crystal with the same energy: each multi-shape spec of
    # sweep_specs(4, 5) at each partition weight, in every other order.
    cases = 0
    for spec in sweep_specs(4, 5):
        if len(set(spec.factors)) < 2:
            continue
        for weight in _compositions(spec.total_boxes(), spec.n):
            if any(a < b for a, b in zip(weight, weight[1:])):
                continue
            target = path_polynomial(spec, weight)
            for order in set(permutations(spec.factors)) - {spec.factors}:
                assert path_polynomial(CrystalSpec(spec.n, order), weight) == target, \
                    (spec, order, weight)
                cases += 1
    assert cases == 1230
