import json
from collections import Counter
from itertools import permutations
from math import prod
from operator import add, le

import pytest

from kostka import cli, crystal, paths, plactic
from kostka.cli import _compositions, main, sweep_specs
from kostka.crystal import CrystalSpec, Path, RectTableau, enumerate_crystal
from kostka.paths import enumerate_all_paths, enumerate_paths, path_polynomial
from kostka.plactic import tail_energy
from kostka.qpoly import QPolynomial
from kostka.rc import fermionic_polynomial, rc_polynomial

from oracles import (N5_SPECS, N6_SPEC, in_support, macmahon_polynomial, oracle_path_polynomial,
                     weight_count)


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
    assert only == [(Path(spec, ()), 0)]
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
        regrouped.extend(p for p, _energy in enumerate_paths(spec, w))
    assert sorted(regrouped, key=str) == sorted(everything, key=str)


def test_enumeration_respects_weight():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    for p, _energy in enumerate_paths(spec, (2, 2, 1, 1)):
        assert p.weight() == (2, 2, 1, 1)


def test_enumeration_lists_paths_in_the_order_of_all_paths():
    # The right-to-left walk sorts the paths of a weight back into the
    # order enumerate_all_paths lists every path, each with the energy
    # tail_energy folds over it alone: all 4,171 composition weights of
    # sweep_specs(4, 5), and one three-shape spec.
    weights = 0
    for spec in sweep_specs(4, 5) + [CrystalSpec(4, ((2, 1), (1, 2), (1, 1)))]:
        by_weight = {}
        for p in enumerate_all_paths(spec):
            by_weight.setdefault(p.weight(), []).append((p, tail_energy(p)))
        for weight in _compositions(spec.total_boxes(), spec.n):
            assert enumerate_paths(spec, weight) == by_weight.get(weight, []), (spec, weight)
            weights += 1
    assert weights == 4171 + 56


def test_enumeration_calls_no_tail_energy(tmp_path, capsys, monkeypatch):
    # The listing and `kostka paths` read each energy off the walk: on
    # (1,1)^200, path by path would carry every factor past all the others.
    def refuse(*args, **kwargs):
        raise AssertionError('the listing went path by path')

    monkeypatch.setattr(paths, 'tail_energy', refuse, raising=False)
    monkeypatch.setattr(plactic, 'tail_energy', refuse)
    monkeypatch.setattr(cli, 'tail_energy', refuse)
    spec = CrystalSpec(2, ((1, 1),) * 200)
    listed = enumerate_paths(spec, (199, 1))
    assert [energy for _p, energy in listed] == list(range(200))
    data = {'n': 2, 'factors': [[1, 1]] * 200, 'weight': [199, 1]}
    spec_file = tmp_path / 's.json'
    spec_file.write_text(json.dumps(data))
    assert main(['paths', '--spec', str(spec_file)]) == 0
    out, err = capsys.readouterr()
    assert [line.rsplit('  D=', 1)[1] for line in out.splitlines()] == [
        str(energy) for energy in range(200)] and err == ''


def test_enumeration_of_a_thousand_factors(tmp_path, capsys):
    # One stack entry per factor, not one interpreter frame.
    spec = CrystalSpec(2, ((1, 1),) * 1000)
    only = enumerate_paths(spec, (1000, 0))
    assert len(only) == 1 and all(t.rows == ((1,),) for t in only[0][0].tableaux)
    assert only[0][1] == 0
    data = {'n': 2, 'factors': [[1, 1]] * 1000, 'weight': [1000, 0]}
    spec_file = tmp_path / 's.json'
    spec_file.write_text(json.dumps(data))
    assert main(['paths', '--spec', str(spec_file)]) == 0
    out, err = capsys.readouterr()
    assert out == ' (x) '.join(['1'] * 1000) + '  D=0\n' and err == ''


def test_path_polynomial_counts_at_one():
    spec = CrystalSpec(3, ((2, 1), (1, 1)))
    everything = enumerate_all_paths(spec)
    total = sum(path_polynomial(spec, w)(1)
                for w in {p.weight() for p in everything})
    assert total == len(everything)


def test_every_method_counts_the_weight_convolution_at_one():
    # At q = 1 each method counts the paths of the weight, which the
    # convolution of the factors' weight multisets counts with no code of
    # theirs.
    cases = [(spec, weight) for spec in sweep_specs(4, 4)
             for weight in _compositions(spec.total_boxes(), spec.n)]
    assert len(cases) == 1142
    cases += [*N5_SPECS, (N6_SPEC, (3, 2, 2, 2, 2, 2))]
    counts = []
    for spec, weight in cases:
        count = weight_count(spec, weight)
        for method in (path_polynomial, rc_polynomial, fermionic_polynomial):
            assert method(spec, weight)(1) == count, (spec, weight, method.__name__)
        counts.append(count)
    assert counts[-3:] == [870, 3, 935]


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


def _field_width(spec, weight):
    """The bit length of the product, over the factors, of how many
    elements fit under the weight: path_polynomial's field width."""
    return prod(sum(all(map(le, t.weight(), weight)) for t in enumerate_crystal(r, s, spec.n))
                for r, s in spec.factors).bit_length()


def test_one_factor_polynomials_fill_their_field():
    # Every element of one factor under the weight has the weight, so the
    # one coefficient is the whole bound and sets the top bit of its field:
    # every rectangle of at most 12 boxes and width at most 4, with n <= 6,
    # at every partition weight.
    cases, widest = 0, 0
    for n in range(2, 7):
        for r in range(1, n):
            for s in range(1, 5):
                if r * s > 12:
                    continue
                spec = CrystalSpec(n, ((r, s),))
                for weight in _compositions(r * s, n):
                    if any(a < b for a, b in zip(weight, weight[1:])):
                        continue
                    target = oracle_path_polynomial(spec, weight)
                    assert path_polynomial(spec, weight) == target, (spec, weight)
                    if target:
                        width = _field_width(spec, weight)
                        assert target.coeffs[0] >> (width - 1) == 1
                        cases, widest = cases + 1, max(widest, width)
    assert (cases, widest) == (206, 5)


@pytest.mark.parametrize('n, factors, weight, top', [
    (5, ((1, 1), (3, 3)), (2, 2, 2, 2, 2), 10),
    (6, ((1, 1), (3, 3)), (2, 2, 2, 2, 1, 1), 19),
    (6, ((1, 1), (2, 4)), (2, 2, 2, 1, 1, 1), 17),
    (6, ((1, 2), (3, 3)), (2, 2, 2, 2, 2, 1), 40),
    (6, ((2, 1), (2, 4)), (2, 2, 2, 2, 1, 1), 40),
    (6, ((2, 2), (3, 3)), (3, 2, 2, 2, 2, 2), 135),
])
def test_two_factor_polynomials_fill_half_a_field(n, factors, weight, top):
    # Most paths of these weights share one energy, whose count takes at
    # least half the bits of its field.
    spec = CrystalSpec(n, factors)
    target = oracle_path_polynomial(spec, weight)
    assert max(target.coeffs.values()) == top
    assert 2 * top.bit_length() >= _field_width(spec, weight) >= 7
    assert path_polynomial(spec, weight) == target


def test_polynomial_edge_cases():
    one_factor = CrystalSpec(4, ((2, 2),))
    for weight in _compositions(4, 4):
        count = sum(t.weight() == weight for t in enumerate_crystal(2, 2, 4))
        assert path_polynomial(one_factor, weight) == QPolynomial({0: count})
        assert path_polynomial(one_factor, weight) == oracle_path_polynomial(one_factor, weight)
    two = CrystalSpec(3, ((1, 1), (2, 1)))
    assert path_polynomial(two, (1, 1, 0)) == QPolynomial.zero()   # box count mismatch
    assert path_polynomial(two, (3, 0, 0)) == QPolynomial.zero()   # no path of the weight
    assert enumerate_paths(two, (1, 1, 0)) == []
    assert enumerate_paths(two, (3, 0, 0)) == []


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
    # The R-matrix makes every order of the factors an isomorphic crystal
    # with the same energy.  path_polynomial folds every order in one order
    # of its own, so each order is checked against sums taken in that
    # order: the per-path oracle, and the energies that enumerate_paths
    # lists, as it folds in the given order.  Each multi-shape spec of
    # sweep_specs(4, 5) at each partition weight, in every order; the
    # count is of the orders other than the listed one.
    cases = 0
    for spec in sweep_specs(4, 5):
        if len(set(spec.factors)) < 2:
            continue
        weights = [w for w in _compositions(spec.total_boxes(), spec.n)
                   if all(a >= b for a, b in zip(w, w[1:]))]
        targets = {w: path_polynomial(spec, w) for w in weights}
        for order in set(permutations(spec.factors)):
            reordered = CrystalSpec(spec.n, order)
            for weight in weights:
                target = path_polynomial(reordered, weight)
                assert target == targets[weight], (spec, order, weight)
                assert target == oracle_path_polynomial(reordered, weight), (order, weight)
                listed = enumerate_paths(reordered, weight)
                assert QPolynomial(Counter(e for _p, e in listed)) == target, (order, weight)
                cases += order != spec.factors
    assert cases == 1230


def test_the_fold_carries_no_factor_past_the_largest_crystal(monkeypatch):
    # path_polynomial folds with the largest crystal leftmost, so it never
    # takes an R-matrix image of it, though the spec lists it last;
    # enumerate_paths folds in the given order and carries it past (2,1).
    spec = CrystalSpec(5, ((1, 1), (2, 1), (2, 2)))
    weight = (2, 2, 1, 1, 1)
    tables = []
    built = plactic._rmatrix_table

    def recording(*key):
        tables.append(key)
        return built(*key)

    def passed_shapes(fold):
        for memo in (plactic.rmatrix, plactic.local_energy, built):
            memo.cache_clear()
        tables.clear()
        fold(spec, weight)
        return {(r2, s2) for _r, _s, r2, s2, _n in tables}

    monkeypatch.setattr(plactic, '_rmatrix_table', recording)
    assert passed_shapes(path_polynomial) == {(1, 1)}
    assert passed_shapes(enumerate_paths) == {(2, 2)}
    assert path_polynomial(spec, weight) == oracle_path_polynomial(spec, weight)


def test_polynomial_matches_fermionic_with_the_largest_crystal_last():
    spec = CrystalSpec(7, ((4, 1), (2, 2), (3, 2)))
    target = path_polynomial(spec, (2,) * 7)
    assert target(1) == 7875
    assert fermionic_polynomial(spec, (2,) * 7) == target


def test_each_method_is_nonzero_exactly_on_the_dominated_weights():
    # in_support reads only the factor shapes and the weight. Every
    # composition weight of sweep_specs(4, 4), zero or not, for all three
    # methods; sweep_specs(4, 5) (4,171 weights) also holds but costs about
    # five times as much.
    counts = Counter()
    for spec in sweep_specs(4, 4):
        for weight in _compositions(spec.total_boxes(), spec.n):
            expected = in_support(spec, weight)
            for method in (path_polynomial, rc_polynomial, fermionic_polynomial):
                assert bool(method(spec, weight)) == expected, (method, spec, weight)
            counts[expected] += 1
    assert counts == {True: 976, False: 166}


def _packed(w, width):
    return sum(x << width * i for i, x in enumerate(w))


def _transfer_sets(spec, weight):
    """The step's index of each factor and its reach sets, read off the
    closure that paths._transfer returns."""
    step, _bound, start = paths._transfer(spec, weight)
    cells = dict(zip(step.__code__.co_freevars, (c.cell_contents for c in step.__closure__)))
    return start, cells['indexes'], cells['reach']


# Largest weight entries 1, 2, 3, 4, 7 and 8, where the field width
# changes, with zero entries, where a subtraction borrows; the empty spec;
# and n = 9, where the tableau 11111111 holds more equal letters than the
# two bits of a field for weight (1^9).
PACKING_SPECS = [
    (CrystalSpec(4, ((1, 1),) * 4), None),
    (CrystalSpec(3, ((1, 4), (2, 2), (1, 1))), None),
    (CrystalSpec(2, ((1, 4), (1, 4))), None),
    (CrystalSpec(3, ()), [(0, 0, 0)]),
    (CrystalSpec(9, ((1, 8), (1, 1))), [(1,) * 9]),
]


def test_packed_weights_match_the_oracles():
    # Each weight packed with guard bits gives the oracle's polynomial and
    # the paths of enumerate_all_paths at that weight, in its order; at
    # n = 9 the nine paths are listed directly, as the whole product holds
    # 115,830.
    largest = set()
    for spec, weights in PACKING_SPECS:
        weights = weights or _compositions(spec.total_boxes(), spec.n)
        whole = spec.n < 9
        if whole:
            every = enumerate_all_paths(spec)
        else:
            every = [Path(spec, (RectTableau(((*range(1, j), *range(j + 1, 10)),), 9),
                                 RectTableau(((j,),), 9))) for j in range(9, 0, -1)]
        by_weight = {}
        for p in every:
            by_weight.setdefault(p.weight(), []).append((p, tail_energy(p)))
        for weight in weights:
            listed = by_weight.get(weight, [])
            assert enumerate_paths(spec, weight) == listed, (spec, weight)
            target = QPolynomial(Counter(e for _p, e in listed))
            assert path_polynomial(spec, weight) == target, (spec, weight)
            if whole:
                assert target == oracle_path_polynomial(spec, weight)
            largest.add(max(weight))
    assert {0, 1, 2, 3, 4, 7, 8} <= largest


def test_packed_sets_hold_only_weights_under_the_target():
    # Every index key is the packed weight of its tableaux, each at most
    # the target, and reach[m] is exactly the packed weights at most the
    # target that factors 0..m-1 fill: each field is the bits of the
    # largest entry plus a guard bit.
    for spec, weight in [(CrystalSpec(9, ((1, 8), (1, 1))), (1,) * 9),
                         (CrystalSpec(5, ((1, 4), (1, 1))), (1,) * 5),
                         (CrystalSpec(3, ((1, 4), (2, 2), (1, 1))), (2, 0, 7)),
                         (CrystalSpec(4, ((2, 1), (1, 2), (1, 1), (1, 2))), (3, 0, 1, 3))]:
        width = max(weight).bit_length() + 1
        start, indexes, reach = _transfer_sets(spec, weight)
        assert start == _packed(weight, width)
        fills = {(0,) * spec.n}
        for m, ((r, s), index) in enumerate(zip(spec.factors, indexes)):
            assert reach[m] == {_packed(w, width) for w in fills}, (spec, m)
            under = {t for t in enumerate_crystal(r, s, spec.n) if all(map(le, t.weight(), weight))}
            assert {t for ts in index.values() for t in ts} == under
            assert all(_packed(t.weight(), width) == key for key, ts in index.items() for t in ts)
            fills = {w for w in (tuple(map(add, f, t.weight())) for f in fills for t in under)
                     if all(map(le, w, weight))}
