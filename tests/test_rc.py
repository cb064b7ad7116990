import random
from collections import Counter
from itertools import islice

import pytest
from hypothesis import assume, given, strategies as st

from kostka.cli import _compositions, sweep_specs
from kostka.crystal import CrystalSpec
from kostka.errors import BudgetError
from kostka.paths import enumerate_paths, path_polynomial
from kostka.qpoly import QPolynomial
from kostka.rc import (LowerBoundTableau, RiggedConfiguration, _chain_column,
                       _column_heights, _walk_column, _witness_floor, bound_tableaux,
                       count_bound_tableaux, enumerate_configurations,
                       enumerate_rcs, fermionic_polynomial, forced_sizes,
                       rc_polynomial)

from oracles import (N5_SPECS, N6_SPEC, brute_rcs, empty_rc, first_witness,
                     full_configurations, oracle_config_cc, oracle_multiplicities,
                     oracle_rc_polynomial, oracle_sizes, oracle_vacancy, partitions_of,
                     strings_by_length, subset_fermionic, sweep_rcs,
                     unfiltered_fermionic)

SIX_BOXES = CrystalSpec(4, ((1, 1),) * 6)
SIX_RC = RiggedConfiguration(SIX_BOXES, (2, 2, 1, 1),
                             (((3, -2), (1, 0)), ((2, 0),), ((1, -1),)))


def test_forced_sizes():
    spec = CrystalSpec(6, ((1, 1), (2, 1), (2, 3)))
    assert forced_sizes(spec, (2, 2, 2, 1, 1, 1)) == [3, 5, 3, 2, 1]
    assert forced_sizes(SIX_BOXES, (2, 2, 1, 1)) == [4, 2, 1]


def test_forced_sizes_match_the_oracle_on_the_sweep():
    # forced_sizes reads c_a off _column_heights; the oracle sums the
    # weight and the factor multiplicities itself.
    checked = mismatched = 0
    for spec in sweep_specs(4, 5):
        for weight in _compositions(spec.total_boxes(), spec.n):
            checked += 1
            mismatched += forced_sizes(spec, weight) != oracle_sizes(spec, weight)
    assert (checked, mismatched) == (4171, 0)


def test_vacancy_goldens():
    assert SIX_RC.vacancy(1, 3) == 0
    assert SIX_RC.vacancy(1, 1) == 3
    assert SIX_RC.vacancy(2, 2) == 0
    assert SIX_RC.vacancy(3, 1) == -1


def test_vacancy_validation():
    for a in (0, 4):
        with pytest.raises(ValueError, match=f'^component {a} outside 1..3$'):
            SIX_RC.vacancy(a, 1)
    with pytest.raises(ValueError):
        SIX_RC.vacancy(1, 0)
    for a, i in ((1, 1.5), (1, 1.0), (1, True), (1.0, 1), (True, 1)):
        with pytest.raises(ValueError, match='expected an integer'):
            SIX_RC.vacancy(a, i)


def test_stable_vacancy_is_the_weight_gap():
    # With the forced sizes, the vacancy number of component a at a length
    # past every part and every factor width is mu_a - mu_(a+1), the
    # closed form rccrystal.phi reads.  Below that length every vacancy
    # number matches the literal Cartan sum, end components and n = 2 (both
    # neighbours empty) included.
    for rc in sweep_rcs():
        h = 1 + max([0, *(s for _r, s in rc.spec.factors),
                     *(l for parts in rc.partitions for l in parts)])
        L = oracle_multiplicities(rc.spec)
        for a in range(1, rc.n):
            assert rc.vacancy(a, h) == rc.weight[a - 1] - rc.weight[a], (rc, a)
            for l in range(1, h + 1):
                assert (rc.vacancy(a, l)
                        == oracle_vacancy(rc.partitions, L, rc.n, a, l)), (rc, a, l)


def test_cocharge_matches_the_cartan_double_sum():
    for rc in sweep_rcs():
        riggings = sum(x for comp in rc.strings for _l, x in comp)
        assert rc.cocharge() == oracle_config_cc(rc.partitions, rc.n) + riggings, rc


def test_bound_tableau_goldens():
    printed = LowerBoundTableau(((4, 3, 2, 1), (4, 3), (1,)), (2, 2, 1, 1))
    assert printed.bound(1, 3) == -2
    assert printed.bound(1, 1) == -1
    assert printed.bound(3, 1) == -1
    corrected = LowerBoundTableau(((4, 3, 2, 1), (4, 2), (1,)), (2, 2, 1, 1))
    assert corrected.bound(1, 3) == -2
    assert corrected.bound(1, 1) == -1
    assert corrected.bound(2, 2) == 0
    assert corrected.bound(3, 1) == -1


def test_bound_tableau_validation():
    with pytest.raises(ValueError):
        LowerBoundTableau(((4, 3, 2, 1), (2, 4), (1,)), (2, 2, 1, 1))
    with pytest.raises(ValueError):
        LowerBoundTableau(((4, 3, 2, 1), (4,), (1,)), (2, 2, 1, 1))
    with pytest.raises(ValueError):
        # entry 3 exceeds the range allowed for the last column
        LowerBoundTableau(((3, 2, 1), (3, 2), (3,)), (0, 1, 1, 1))
    # Entries are read as RectTableau reads them: a float or a bool equal
    # to an int entry is refused, not stored.
    for entry in (1.0, True, '1'):
        with pytest.raises(ValueError, match=f'^expected an integer, got {entry!r}$'):
            LowerBoundTableau(((entry,),), (1, 1))
        with pytest.raises(ValueError, match='^expected an integer'):
            LowerBoundTableau(((4, 3, 2, entry), (4, 3), (1,)), (2, 2, 1, 1))
    # bound reads both arguments as ints, as RiggedConfiguration.vacancy does.
    tableau = bound_tableaux((1, 1, 1))[0]
    for a, i in ((1, 1.5), (True, 2), (1.0, 1), (1, True), (0, 1), (1, -1)):
        with pytest.raises(ValueError):
            tableau.bound(a, i)
    for a in (0, 3):
        with pytest.raises(ValueError, match=f'^component {a} outside 1..2$'):
            tableau.bound(a, 1)


@given(st.data())
def test_bound_tableau_rows_decrease_automatically(data):
    # Column k is any c_k-subset of 1..c_{k-1}; the rows then weakly
    # decrease without the constructor checking it.
    n = data.draw(st.integers(2, 5))
    weight = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    heights = _column_heights(weight)
    columns = []
    for k in range(1, n):
        shuffled = data.draw(st.permutations(range(1, heights[k - 1] + 1)))
        columns.append(tuple(sorted(shuffled[:heights[k]], reverse=True)))
    tableau = LowerBoundTableau(columns, weight)
    for row in tableau.rows():
        assert all(x >= y for x, y in zip(row, row[1:]))


def test_witness_set_for_hook_weight():
    ts = bound_tableaux((0, 1, 1, 1))
    assert len(ts) == count_bound_tableaux((0, 1, 1, 1)) == 6
    rows = {t.rows() for t in ts}
    assert rows == {
        ((3, 3, 2), (2, 2), (1,)),
        ((3, 3, 2), (2, 1), (1,)),
        ((3, 2, 2), (2, 1), (1,)),
        ((3, 3, 1), (2, 2), (1,)),
        ((3, 3, 1), (2, 1), (1,)),
        ((3, 2, 1), (2, 1), (1,)),
    }


def test_column_heights():
    # c_0 = c_1, and the empty column c_n = 0 ends the list.
    assert _column_heights((2, 2, 1, 1)) == [4, 4, 2, 1, 0]
    assert _column_heights((0, 1, 1, 1)) == [3, 3, 2, 1, 0]
    assert _column_heights((3,)) == [0, 0]


def test_witness_set_refuses_the_empty_weight():
    # The empty weight has no column list; the three refuse it alike.
    for build in (count_bound_tableaux, bound_tableaux, lambda w: LowerBoundTableau((), w)):
        with pytest.raises(ValueError, match='^weight must have at least one entry$'):
            build(())


@pytest.mark.parametrize('weight, message', [
    ((1.5, 1, 1), 'integers'), ((1, 1, 1.0), 'integers'), ((1, True, 1), 'integers'),
    ((1, 1, -1), 'nonnegative'),
])
def test_witness_set_checks_the_weight(weight, message):
    # Worded as CrystalSpec.check_weight words it.
    with pytest.raises(ValueError, match=f'weight entries must be {message}'):
        count_bound_tableaux(weight)
    with pytest.raises(ValueError, match=f'weight entries must be {message}'):
        bound_tableaux(weight)
    with pytest.raises(ValueError, match=f'weight entries must be {message}'):
        LowerBoundTableau(((2, 1), (1,)), weight)


def test_bound_cap_is_enforced():
    with pytest.raises(BudgetError):
        bound_tableaux((2, 2, 1, 1), cap=3)


@pytest.mark.parametrize('consumer', [enumerate_rcs, fermionic_polynomial])
def test_nothing_is_counted_when_every_configuration_is_pruned(consumer):
    # Six configurations have the forced sizes and none clears the
    # witness floor.
    spec, weight = CrystalSpec(3, ((2, 2),)), (0, 1, 3)
    assert len(list(full_configurations(spec, weight))) == 6
    assert not list(enumerate_configurations(spec, weight))
    assert not consumer(spec, weight)


@given(st.data())
def test_witness_floor_is_the_least_bound(data):
    n = data.draw(st.integers(2, 5))
    weight = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assume(count_bound_tableaux(weight) <= 2000)
    heights = _column_heights(weight)
    a = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, heights[1] + 1))
    assert (_witness_floor(heights[a], heights[a + 1], l)
            == min(t.bound(a, l) for t in bound_tableaux(weight)))


@given(st.data())
def test_riggable_rows_are_the_listed_rows_within_the_limits(data):
    n = data.draw(st.integers(2, 6))
    weight = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assume(count_bound_tableaux(weight) <= 2000)
    heights = _column_heights(weight)
    keys = sorted(data.draw(st.sets(st.tuples(st.integers(1, n - 1),
                                              st.integers(1, heights[0] + 2)), max_size=6)))
    limits = data.draw(st.lists(st.integers(-3, 1), min_size=len(keys), max_size=len(keys)))
    rows = {tuple(t.bound(a, l) for a, l in keys) for t in bound_tableaux(weight)}
    # Column k finishes the entries of component k-1 and starts those of k.
    by_component = [[] for _ in range(n + 1)]
    for (a, l), limit in zip(keys, limits):
        by_component[a].append((l, limit))
    partial = {((), ())}
    for k in range(1, n + 1):
        partial = _walk_column(partial, heights[k - 1], heights[k], by_component[k - 1],
                               [l for l, _limit in by_component[k]])
    assert {row for row, _pending in partial} == {
        row for row in rows if all(b <= x for b, x in zip(row, limits))}
    assert all(pending == () for _row, pending in partial)


@given(st.data())
def test_chain_column_is_the_largest_column_within_the_limits(data):
    # The chain is feasible exactly when some listed witness tableau lies
    # within the limits; its columns are then those of such a tableau and
    # count, at every length, at least as many entries as any of them.
    n = data.draw(st.integers(2, 6))
    weight = tuple(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assume(count_bound_tableaux(weight) <= 2000)
    heights = _column_heights(weight)
    keys = sorted(data.draw(st.sets(st.tuples(st.integers(1, n - 1),
                                              st.integers(1, heights[0] + 2)), max_size=6)))
    limits = data.draw(st.lists(st.integers(-3, 1), min_size=len(keys), max_size=len(keys)))
    within = [t for t in bound_tableaux(weight)
              if all(t.bound(a, l) <= x for (a, l), x in zip(keys, limits))]
    lows = [{} for _ in range(n)]
    for (a, l), limit in zip(keys, limits):
        lows[a][l] = limit
    chain = [list(range(heights[0] + 1))]
    for a in range(1, n):
        column = _chain_column(chain[-1], heights[a], heights[a + 1], lows[a])
        if column is None:
            assert within == []
            return
        chain.append(column)
    columns = [tuple(l for l in range(len(f) - 1, 0, -1) if f[l] > f[l - 1])
               for f in chain[:-1]]
    assert LowerBoundTableau(columns, weight) in within
    assert chain[-1] == [0] * (heights[n - 1] + 1)
    for t in within:
        for k, col in enumerate(t.columns):
            counts = [sum(x <= l for x in col) for l in range(heights[k] + 1)]
            assert all(c <= f for c, f in zip(counts, chain[k])), (t, k)


def test_admissibility_golden():
    assert SIX_RC.is_admissible()
    witness = first_witness(SIX_RC)
    assert all(witness.bound(a, l) <= x
               for a in range(1, 4) for l, x in SIX_RC.strings[a - 1])


def test_admissibility_rejects_overrigged():
    bad = RiggedConfiguration(SIX_BOXES, (2, 2, 1, 1),
                              (((3, 1), (1, 0)), ((2, 0),), ((1, -1),)))
    assert not bad.is_admissible()      # rigging 1 > vacancy 0 on the 3-string


def test_admissibility_rejects_wrong_sizes():
    # Component 1 holds three boxes where the factors and weight force four.
    strings = (((3, 0),), ((2, 0),), ((1, -1),))
    with pytest.raises(ValueError, match='component sizes are not the ones the weight forces'):
        RiggedConfiguration(SIX_BOXES, (2, 2, 1, 1), strings)
    data = SIX_RC.to_json()
    data['nu'] = [[list(string) for string in comp] for comp in strings]
    with pytest.raises(ValueError, match='component sizes are not the ones the weight forces'):
        RiggedConfiguration.from_json(data)


def test_admissibility_matches_the_first_fit_scan():
    # Every configuration of sweep_specs(4, 4) and of N5_SPECS, and each
    # with one rigging shifted by -2, -1 or +1.
    rcs = [rc for rc in sweep_rcs() if rc.n <= 4]
    for spec, weight in N5_SPECS:
        rcs += enumerate_rcs(spec, weight)
    verdicts = Counter()
    for rc in rcs:
        variants = [rc]
        for a, comp in enumerate(rc.strings, start=1):
            for idx, (l, x) in enumerate(comp):
                for shift in (-2, -1, 1):
                    strings = list(rc.strings)
                    strings[a - 1] = comp[:idx] + ((l, x + shift),) + comp[idx + 1:]
                    variants.append(RiggedConfiguration(rc.spec, rc.weight, strings))
        for variant in variants:
            expected = first_witness(variant) is not None
            assert variant.is_admissible() == expected, variant
            verdicts[expected] += 1
    assert verdicts[True] > len(rcs) and verdicts[False] > 0


def test_admissibility_reads_only_the_riggings(monkeypatch):
    # The constructor owns the size rule, so is_admissible decides every
    # configuration of sweep_rcs and each one-step rigging shift of it
    # without reading the forced sizes.
    variants = []
    for rc in sweep_rcs():
        variants.append(rc)
        for a, comp in enumerate(rc.strings, start=1):
            for idx, (l, x) in enumerate(comp):
                for shift in (-1, 1):
                    strings = list(rc.strings)
                    strings[a - 1] = comp[:idx] + ((l, x + shift),) + comp[idx + 1:]
                    variants.append(RiggedConfiguration(rc.spec, rc.weight, strings))

    def refuse(*_args):
        raise AssertionError('is_admissible read the forced sizes')

    monkeypatch.setattr('kostka.rc._config_sizes', refuse)
    monkeypatch.setattr('kostka.rc.forced_sizes', refuse)
    verdicts = Counter()
    for variant in variants:
        expected = first_witness(variant) is not None
        assert variant.is_admissible() == expected, variant
        verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize('spec, weight, sample', [
    (CrystalSpec(7, ((3, 2), (4, 1), (2, 2))), (2,) * 7, None),
    (CrystalSpec(8, ((4, 2), (3, 2), (2, 1))), (2,) * 8, 800),
])
def test_admissibility_matches_the_builder_profiles(spec, weight, sample):
    # Each configuration the walk yields, rigged at one of its riggable
    # profiles and then with one entry lowered by 1, is admissible exactly
    # when some profile lies at or below its lowest riggings.  At n = 8
    # the first sample configurations stand for the rest.
    rng = random.Random(7)
    verdicts = Counter()
    for _parts, support, _vac, profiles in islice(
            enumerate_configurations(spec, weight), sample):
        profile = list(rng.choice(sorted(profiles)))
        for lowered in (None, rng.randrange(len(support))):
            lows = profile[:]
            if lowered is not None:
                lows[lowered] -= 1
            strings = [[] for _ in range(spec.n - 1)]
            for (a, l, m), low in zip(support, lows):
                strings[a - 1] += [(l, low)] * m
            rc = RiggedConfiguration(spec, weight, strings)
            expected = any(all(b <= x for b, x in zip(v, lows)) for v in profiles)
            assert rc.is_admissible() == expected, rc
            verdicts[expected] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_admissibility_runs_only_the_chain(monkeypatch):
    # One decider: is_admissible neither walks the witness rows nor fills
    # the walk's memo, which only the configuration builder reads.
    rcs = sweep_rcs()

    def refuse(*_args):
        raise AssertionError('is_admissible walked the witness rows')

    monkeypatch.setattr('kostka.rc._walk_column', refuse)
    monkeypatch.setattr('kostka.rc._column_counts', refuse)
    verdicts = Counter(rc.is_admissible() for rc in rcs)
    assert verdicts == {True: len(rcs)}


def test_no_computing_path_builds_the_witness_set(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError('the witness set was built')

    monkeypatch.setattr('kostka.rc.bound_tableaux', refuse)
    spec, weight = N6_SPEC, (3, 2, 2, 2, 2, 2)
    rcs = enumerate_rcs(spec, weight)
    assert len(rcs) == 935
    assert fermionic_polynomial(spec, weight)(1) == 935
    assert all(rc.is_admissible() for rc in rcs)


def test_canonical_string_order_and_json():
    rc = RiggedConfiguration(SIX_BOXES, (2, 2, 1, 1),
                             (((1, 0), (3, -2)), ((2, 0),), ((1, -1),)))
    assert rc == SIX_RC
    assert rc.strings[0] == ((3, -2), (1, 0))
    assert RiggedConfiguration.from_json(rc.to_json()) == rc
    assert str(empty_rc(3)) == '(empty)'
    assert str(rc) == '3:-2,1:0 | 2:0 | 1:-1'


def test_trusted_sorts_the_strings_of_each_component():
    # The operators and the bijection pass their strings in any order;
    # the configuration owns the canonical order.
    rng = random.Random(0)
    for rc in sweep_rcs():
        scrambled = []
        for comp in rc.strings:
            comp = list(comp)
            rng.shuffle(comp)
            scrambled.append(comp)
        trusted = RiggedConfiguration._trusted(rc.spec, rc.weight, scrambled)
        checked = RiggedConfiguration(rc.spec, rc.weight, scrambled)
        assert trusted == checked and trusted.strings == checked.strings == rc.strings
    trusted = RiggedConfiguration._trusted(
        SIX_BOXES, (2, 2, 1, 1), (((1, 0), (3, -2)), [(2, 0)], iter([(1, -1)])))
    assert trusted == SIX_RC and trusted.strings == SIX_RC.strings


def test_rejects_bad_strings():
    with pytest.raises(ValueError):
        RiggedConfiguration(SIX_BOXES, (2, 2, 1, 1),
                            (((0, 0),), ((2, 0),), ((1, -1),)))
    with pytest.raises(ValueError):
        RiggedConfiguration(SIX_BOXES, (2, 2, 1), (((1, 0),), (), ()))
    # Lengths and riggings are ints, as from_json reads them.
    spec = CrystalSpec(2, ((1, 1),) * 3)
    for comp in (((1, 0.5), (1, 0)), ((1, 0), (1.0, 0)), ((1, True), (1, 0)),
                 ((True, 0), (1, 0)), ((1, '0'), (1, 0))):
        with pytest.raises(ValueError, match='expected an integer'):
            RiggedConfiguration(spec, (1, 2), (comp,))
    assert RiggedConfiguration(spec, (1, 2), (((1, 0), (1, 0)),)).cocharge() == 4


@pytest.mark.parametrize('compute', [enumerate_paths, path_polynomial, enumerate_rcs,
                                     rc_polynomial, fermionic_polynomial, forced_sizes])
@pytest.mark.parametrize('weight, message', [
    ((1, 1), 'length 3'), ((1, 1, 0, 0), 'length 3'),
    ((3, 0, -1), 'nonnegative'), ((1.0, 1, 0), 'integers'),
])
def test_every_method_checks_the_weight(compute, weight, message):
    # Two boxes at n = 3: (1, 1) has the right size but the wrong length.
    with pytest.raises(ValueError, match=message):
        compute(CrystalSpec(3, ((1, 1), (1, 1))), weight)


def test_empty_rc():
    rc = empty_rc(4)
    assert rc.is_admissible()
    assert rc.cocharge() == 0
    assert enumerate_rcs(rc.spec, (0, 0, 0, 0)) == [rc]


def test_enumeration_matches_brute_force():
    cases = [
        (CrystalSpec(4, ((2, 2), (2, 1))), (2, 2, 1, 1)),
        (CrystalSpec(4, ((2, 2), (2, 1))), (2, 2, 2, 0)),
        (CrystalSpec(3, ((1, 1), (1, 1), (1, 2))), (2, 1, 1)),
        (CrystalSpec(2, ((1, 2), (1, 1))), (2, 1)),
        (CrystalSpec(3, ((2, 1), (1, 1))), (1, 1, 1)),
    ]
    for spec, weight in cases:
        assert set(enumerate_rcs(spec, weight)) == brute_rcs(spec, weight)


def test_enumeration_is_sorted_and_unique():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    out = enumerate_rcs(spec, (2, 2, 1, 1))
    assert len(set(out)) == len(out) == 7
    assert out == sorted(out, key=lambda rc: rc.strings)


def test_cocharge_goldens():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    expected = {
        ((((1, 0),), ((1, -1), (1, -1)), ((1, 0),))): 0,
        ((((1, -1),), ((2, 0),), ((1, -1),))): 0,
        ((((1, -1),), ((1, 0), (1, 0)), ((1, 0),))): 1,
        ((((1, 0),), ((1, 0), (1, 0)), ((1, -1),))): 1,
        ((((1, 0),), ((1, 0), (1, -1)), ((1, 0),))): 1,
        ((((1, -1),), ((2, 1),), ((1, -1),))): 1,
        ((((1, 0),), ((1, 0), (1, 0)), ((1, 0),))): 2,
    }
    for strings, cc in expected.items():
        rc = RiggedConfiguration(spec, (2, 2, 1, 1), strings)
        assert rc.cocharge() == cc
        assert rc.is_admissible()


def test_polynomials_match_on_goldens():
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    target = QPolynomial({0: 2, 1: 4, 2: 1})
    assert rc_polynomial(spec, (2, 2, 1, 1)) == target
    assert fermionic_polynomial(spec, (2, 2, 1, 1)) == target


def test_fermionic_matches_literal_subset_sum():
    cases = [
        (CrystalSpec(4, ((1, 1),) * 4), (0, 1, 1, 1)),
        (CrystalSpec(4, ((1, 1),) * 4), (1, 1, 1, 1)),
        (CrystalSpec(3, ((1, 1), (1, 1), (1, 2))), (2, 1, 1)),
        (CrystalSpec(2, ((1, 2), (1, 1))), (2, 1)),
        (CrystalSpec(3, ((2, 1), (2, 1))), (2, 1, 1)),
    ]
    for spec, weight in cases:
        assert fermionic_polynomial(spec, weight) == subset_fermionic(spec, weight)


def test_bound_profiles_are_the_riggable_ones():
    # Exactly the distinct profiles with no bound above its vacancy
    # number: none above it, and none dropped that meets it.
    meets = 0
    for spec in sweep_specs(4, 4):
        if spec.n != 4:
            continue
        L = oracle_multiplicities(spec)
        for weight in _compositions(spec.total_boxes(), 4):
            tableaux = bound_tableaux(weight)
            configs = enumerate_configurations(spec, weight)
            for parts, support, _vac, profiles in configs:
                vacancies = [oracle_vacancy(parts, L, 4, a, l) for a, l, _m in support]
                every = {tuple(t.bound(a, l) for a, l, _m in support) for t in tableaux}
                assert profiles == {v for v in every
                                    if all(low <= p for low, p in zip(v, vacancies))}
                meets += sum(any(low == p for low, p in zip(v, vacancies))
                             for v in profiles)
    assert meets > 0


def test_pruned_enumeration_keeps_every_riggable_configuration():
    # The configurations the builder yields, with their supports and
    # vacancy numbers, are those of the full product where some witness
    # tableau bounds no entry above its vacancy number, and each comes
    # with a riggable profile.
    cases = [(spec, weight) for spec in sweep_specs(4, 4)
             for weight in _compositions(spec.total_boxes(), spec.n)] + N5_SPECS
    kept = 0
    for spec, weight in cases:
        L = oracle_multiplicities(spec)
        tableaux = bound_tableaux(weight)
        bounds = {}
        expected = []
        for parts in full_configurations(spec, weight):
            support = strings_by_length(parts)
            vacancies = [oracle_vacancy(parts, L, spec.n, a, l) for a, l, _m in support]
            for a, l, _m in support:
                if (a, l) not in bounds:
                    bounds[a, l] = [t.bound(a, l) for t in tableaux]
            cols = [bounds[a, l] for a, l, _m in support]
            profiles = set(zip(*cols)) if cols else {()}
            if any(all(low <= p for low, p in zip(v, vacancies)) for v in profiles):
                expected.append((parts, support, vacancies))
        configs = list(enumerate_configurations(spec, weight))
        assert all(profiles for *_config, profiles in configs), (spec, weight)
        found = [(parts, list(support), list(vacancies))
                 for parts, support, vacancies, _profiles in configs]
        assert found == expected, (spec, weight)
        kept += len(found)
    assert kept > 0


def test_fermionic_matches_unfiltered_dp():
    cases = [(spec, weight) for spec in sweep_specs(4, 4)
             for weight in _compositions(spec.total_boxes(), spec.n)]
    cases += [
        (CrystalSpec(5, ((2, 1), (1, 2), (1, 1))), (1, 1, 1, 1, 1)),
        (CrystalSpec(5, ((2, 1), (1, 2), (1, 1))), (0, 1, 2, 0, 2)),
        (CrystalSpec(5, ((2, 2), (1, 1), (1, 1))), (2, 1, 1, 1, 1)),
        (CrystalSpec(5, ((3, 1), (1, 2), (1, 1))), (1, 0, 2, 1, 2)),
        (CrystalSpec(5, ((2, 2), (2, 1), (1, 1), (1, 1))), (2, 2, 2, 1, 1)),
        (CrystalSpec(5, ((3, 1), (1, 2), (1, 1), (2, 1))), (1, 2, 2, 1, 2)),
    ]
    for spec, weight in cases:
        assert fermionic_polynomial(spec, weight) == unfiltered_fermionic(spec, weight), \
            (spec, weight)


@pytest.mark.parametrize('spec, weight', N5_SPECS)
def test_three_methods_agree_at_n5(spec, weight):
    # Past the rc-poly benchmark catalog: 2,520 witness tableaux, and a
    # weight that is not a partition.
    target = path_polynomial(spec, weight)
    assert target
    assert fermionic_polynomial(spec, weight) == target
    assert rc_polynomial(spec, weight) == target


def test_three_methods_agree_at_n6():
    # Rectangles with r, s >= 2 at n = 6, at every partition weight: up to
    # 113,400 witness tableaux, at (3, 2, 2, 2, 2, 2).
    weights = [mu + (0,) * (6 - len(mu)) for mu in partitions_of(13) if len(mu) <= 6]
    assert len(weights) == 71
    for weight in weights:
        target = path_polynomial(N6_SPEC, weight)
        assert fermionic_polynomial(N6_SPEC, weight) == target, weight
        assert rc_polynomial(N6_SPEC, weight) == target, weight
    assert path_polynomial(N6_SPEC, (3, 2, 2, 2, 2, 2))(1) == 935


def test_rc_polynomial_matches_the_per_configuration_sum_on_the_sweep():
    # Every composition weight of every spec with at most 5 boxes, n <= 4.
    pairs = 0
    for spec in sweep_specs(4, 5):
        for weight in _compositions(spec.total_boxes(), spec.n):
            assert rc_polynomial(spec, weight) == oracle_rc_polynomial(spec, weight), \
                (spec, weight)
            pairs += 1
    assert pairs == 4171


def test_rc_polynomial_matches_the_per_configuration_sum_at_n6():
    weights = [mu + (0,) * (6 - len(mu)) for mu in partitions_of(13) if len(mu) <= 6]
    for weight in weights:
        assert rc_polynomial(N6_SPEC, weight) == oracle_rc_polynomial(N6_SPEC, weight), weight


def test_rc_polynomial_builds_no_configuration(monkeypatch):
    # One counting code path: the riggings are counted, not built.
    def refuse(*args, **kwargs):
        raise AssertionError('rc_polynomial built a configuration')

    monkeypatch.setattr(RiggedConfiguration, '__post_init__', refuse)
    monkeypatch.setattr(RiggedConfiguration, '_trusted', refuse)
    assert rc_polynomial(N6_SPEC, (3, 2, 2, 2, 2, 2))(1) == 935


def test_fermionic_empty_weight_mismatch():
    spec = CrystalSpec(3, ((1, 1),))
    assert fermionic_polynomial(spec, (0, 0, 0)) == QPolynomial.zero()
    assert rc_polynomial(spec, (0, 0, 0)) == QPolynomial.zero()


def test_rc_of_zero_weight_entries():
    # weights may have zero entries anywhere
    spec = CrystalSpec(3, ((1, 2),))
    assert rc_polynomial(spec, (0, 2, 0)) == fermionic_polynomial(spec, (0, 2, 0))
