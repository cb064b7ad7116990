from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, strategies as st

from kostka.bijection import path_to_rc, rc_to_path
from kostka.cli import sweep_specs
from kostka.crystal import (CrystalSpec, Path, RectTableau, depth_first, enumerate_crystal,
                            json_int)
from kostka.paths import enumerate_all_paths

from oracles import (filtered_crystal, naive_residue, recursive_e, recursive_eps, recursive_f,
                     recursive_phi, tableau_error)

# small tensor products used for exhaustive cross-checks
FAMILIES = [
    CrystalSpec(2, ((1, 1), (1, 1), (1, 1))),
    CrystalSpec(3, ((1, 1), (2, 1))),
    CrystalSpec(3, ((1, 2), (2, 1))),
    CrystalSpec(3, ((2, 1), (1, 1), (1, 2))),
    CrystalSpec(4, ((2, 2), (2, 1))),
    CrystalSpec(4, ((3, 1), (1, 1))),
]


def family_paths():
    for spec in FAMILIES:
        for p in enumerate_all_paths(spec):
            yield spec, p


def test_tableau_validation():
    RectTableau(((1, 2), (2, 3)), 3)
    with pytest.raises(ValueError):
        RectTableau(((2, 1),), 3)            # row decreases
    with pytest.raises(ValueError):
        RectTableau(((1, 2), (1, 3)), 3)     # column repeats
    with pytest.raises(ValueError):
        RectTableau(((1,), (2, 3)), 3)       # ragged
    with pytest.raises(ValueError, match='^entry 4 outside alphabet 1..3$'):
        RectTableau(((4,),), 3)              # letter too big
    with pytest.raises(ValueError):
        RectTableau((), 3)
    # A bool entry would equal, and hash like, the int tableau it mimics.
    for rows, n, bad in ((((1.0,),), 3, '1.0'), (((True,),), 3, 'True'),
                         (((1, 2), (2, 3.0)), 3, '3.0'),
                         (((1,),), 3.0, '3.0'), (((1,),), True, 'True')):
        with pytest.raises(ValueError, match=f'^expected an integer, got {bad}$'):
            RectTableau(rows, n)


def _refusal(rows, n):
    """The message RectTableau(rows, n) raises, or None if it is built."""
    try:
        t = RectTableau(rows, n)
    except ValueError as exc:
        return str(exc)
    assert t.rows == tuple(map(tuple, rows)) and t.n == n
    return None


def test_tableau_validation_matches_the_column_by_column_check():
    # Every r x s array with r, s <= 3 and entries 0..n+1, for n = 2 and,
    # up to six entries, n = 3: refused with the same first message, or
    # accepted alike.
    seen = set()
    for n in (2, 3):
        for r, s in product(range(1, 4), repeat=2):
            if n == 3 and r * s > 6:
                continue
            for entries in product(range(n + 2), repeat=r * s):
                rows = tuple(entries[k * s:(k + 1) * s] for k in range(r))
                expected = tableau_error(rows, n)
                assert _refusal(rows, n) == expected, rows
                seen.add(expected)
    assert {None, 'entry 4 outside alphabet 1..3', 'rows must weakly increase',
            'columns must strictly increase'} <= seen
    # A float or bool entry at each place of an accepted and of a refused
    # array, ragged and empty rows, and a float or bool alphabet size.
    odd = []
    for base in (((1, 1, 2), (2, 3, 3)), ((2, 1, 0), (1, 1, 4))):
        for k, x in product(range(6), (1.0, 2.5, True, False)):
            entries = [*base[0], *base[1]]
            entries[k] = x
            odd.append((tuple(entries[:3]), tuple(entries[3:])))
    for r in range(1, 4):
        for lengths in product(range(4), repeat=r):
            odd.append(tuple(tuple(range(k + 1, k + 1 + l)) for k, l in enumerate(lengths)))
    odd.append(())
    for rows in odd:
        for n in (3, 3.0, True):
            assert _refusal(rows, n) == tableau_error(rows, n), (rows, n)


def test_json_int_message_is_bounded():
    # A short value keeps its exact repr in the message.
    for bad in (2.0, True, '210', None, -1.5, [1, 2], [1] * 6, (1,), {'a': 1}, 'x' * 28):
        with pytest.raises(ValueError) as caught:
            json_int(bad)
        assert str(caught.value) == f'expected an integer, got {bad!r}'
    # A long one is cut: 200,000 entries, or a string of 600,000 digits.
    for bad in ([1] * 200_000, [[1] * 200_000], '1' * 600_000):
        with pytest.raises(ValueError, match='^expected an integer, got ') as caught:
            json_int(bad)
        assert len(str(caught.value)) < 80


def test_spec_validation():
    with pytest.raises(ValueError):
        CrystalSpec(1, ())
    with pytest.raises(ValueError, match='^factor height 4 outside 1..3$'):
        CrystalSpec(4, ((4, 1),))            # height must stay below n
    with pytest.raises(ValueError, match='^factor width 0 must be positive$'):
        CrystalSpec(3, ((1, 0),))
    # Each of these built before, and from_json refused its JSON.
    for n, factors, bad in ((3.0, ((1, 1),), '3.0'), (True, (), 'True'),
                            (3, ((True, 1),), 'True'), (3, ((1.0, 1),), '1.0'),
                            (3, ((1, True),), 'True'), (3, ((1, 2.0),), '2.0')):
        with pytest.raises(ValueError, match=f'^expected an integer, got {bad}$'):
            CrystalSpec(n, factors)
    assert CrystalSpec(3, ()).total_boxes() == 0
    assert CrystalSpec(4, ((2, 2), (2, 1))).total_boxes() == 6


def test_path_shape_mismatch():
    spec = CrystalSpec(3, ((2, 1),))
    with pytest.raises(ValueError):
        Path(spec, (RectTableau(((1, 2),), 3),))
    # Only the enumerators skip these checks; the public constructors keep them.
    column = RectTableau(((1,), (2,)), 3)
    with pytest.raises(ValueError, match='alphabet'):
        Path(spec, (RectTableau(((1,), (2,)), 4),))
    with pytest.raises(ValueError, match='one tableau per factor'):
        Path(spec, (column, column))
    with pytest.raises(ValueError, match='does not match factor'):
        Path.from_json({'n': 3, 'factors': [[1, 2]], 'tableaux': [[[1], [2]]]})


def test_word_and_weight():
    t = RectTableau(((1, 2), (2, 3)), 5)
    assert t.word() == (2, 3, 1, 2)
    assert t.weight() == (1, 2, 1, 0, 0)
    t2 = RectTableau(((2, 3), (3, 4), (4, 5)), 5)
    p = Path(CrystalSpec(5, ((2, 2), (3, 2))), (t, t2))
    assert p.word() == t.word() + t2.word()
    assert ''.join(map(str, p.word())) == '2312453423'
    assert p.weight() == (1, 3, 3, 2, 1)


def test_lowering_golden():
    spec = CrystalSpec(5, ((2, 2), (3, 2)))
    p = Path(spec, (RectTableau(((1, 2), (2, 3)), 5),
                    RectTableau(((2, 3), (3, 4), (4, 5)), 5)))
    lowered = p.f(2)
    assert lowered.tableaux[0].rows == ((1, 2), (3, 3))
    assert lowered.tableaux[1] == p.tableaux[1]
    raised = p.e(2)
    assert raised.tableaux[0] == p.tableaux[0]
    assert raised.tableaux[1].rows == ((2, 2), (3, 4), (4, 5))
    assert p.phi(2) == 1 and p.epsilon(2) == 1


def test_operator_index_range():
    p = Path(CrystalSpec(3, ((1, 1),)), (RectTableau(((1,),), 3),))
    for op in (Path.f, Path.e, Path.phi, Path.epsilon):
        for i in (0, 3):
            with pytest.raises(ValueError, match=f'^operator index {i} outside 1..2$'):
                op(p, i)
        # p.f(1.0) must not build a tableau entry 2.0, which from_json refuses.
        for i in (True, 1.0):
            with pytest.raises(ValueError, match='expected an integer'):
                op(p, i)


def test_enumeration_matches_the_filtered_multisets():
    # The same tableaux in the same order as generating every multiset of
    # columns and dropping those whose rows fail to weakly increase.  The
    # listing builds them unchecked, so each must equal its checked rebuild.
    # (6, 1, 13) walks from the zero column alone; (3, 3, 9) is a larger alphabet.
    cases = [(r, s, n) for n in range(1, 7) for r in range(1, n + 1) for s in range(1, 5)]
    for r, s, n in cases + [(2, 4, 8), (6, 1, 13), (3, 3, 9)]:
        listed = enumerate_crystal(r, s, n)
        assert tuple(t.rows for t in listed) == filtered_crystal(r, s, n), (r, s, n)
        for t in listed:
            checked = RectTableau(t.rows, n)
            assert (t, hash(t), t.shape) == (checked, hash(checked), checked.shape), (r, s, n)


def test_enumeration_counts():
    assert len(enumerate_crystal(1, 1, 4)) == 4
    assert len(enumerate_crystal(1, 2, 2)) == 3
    assert len(enumerate_crystal(2, 1, 3)) == 3
    assert len(enumerate_crystal(3, 1, 3)) == 1
    assert len(enumerate_crystal(2, 2, 4)) == 20
    for r in (0, 4):
        with pytest.raises(ValueError, match=f'^height {r} outside 1..3$'):
            enumerate_crystal(r, 1, 3)
    # Height 1 is cached by now; a float or bool height must still be read.
    assert enumerate_crystal(1, 1, 3)
    for r in (True, 1.0):
        with pytest.raises(ValueError, match='expected an integer'):
            enumerate_crystal(r, 1, 3)
    with pytest.raises(ValueError, match='^width must be positive$'):
        enumerate_crystal(1, 0, 3)
    # Width 1 is cached too; a float or bool width is refused, not cached.
    for s in (True, 1.0):
        with pytest.raises(ValueError, match=f'^expected an integer, got {s}$'):
            enumerate_crystal(1, s, 3)
    # The alphabet size is read as an int before it bounds the height or
    # reaches range().
    for n in (2.0, True, '2'):
        with pytest.raises(ValueError, match=f'^expected an integer, got {n!r}$'):
            enumerate_crystal(1, 1, n)


def test_depth_first_edge_cases():
    assert list(depth_first('root', 0, None)) == [[]]
    assert list(depth_first('root', 3, lambda d, state: ())) == []
    # One iterator per level, not one interpreter frame.
    chain = list(depth_first(0, 5000, lambda d, state: [state + 1]))
    assert chain == [list(range(1, 5001))]
    # Preorder: each state's subtree in full before its next sibling, and
    # each branch a fresh list.
    visits = []

    def step(d, state):
        visits.append((d, state))
        return [state + letter for letter in 'ab']

    assert list(depth_first('', 2, step)) == [['a', 'aa'], ['a', 'ab'], ['b', 'ba'], ['b', 'bb']]
    assert visits == [(0, ''), (1, 'a'), (1, 'b')]


def test_enumeration_is_deduplicated():
    tabs = enumerate_crystal(2, 2, 3)
    assert len(set(tabs)) == len(tabs)


def test_tableau_hash_and_shape_are_stored():
    shapes = [(r, s) for r in (1, 2, 3) for s in (1, 2)]
    crystal = {t: t for shape in shapes for t in enumerate_crystal(*shape, 4)}
    for t in crystal:
        assert hash(t) == hash((t.rows, t.n))
        assert t.shape == (len(t.rows), len(t.rows[0]))
        copy = RectTableau.from_json(t.to_json(), t.n)
        assert copy == t and copy is not t and hash(copy) == hash(t)
        assert crystal[copy] is t
    for shape in shapes:
        assert all(t.shape == shape for t in enumerate_crystal(*shape, 4))
    t = enumerate_crystal(2, 2, 4)[0]
    with pytest.raises(FrozenInstanceError):
        t.shape = (1, 4)
    with pytest.raises(FrozenInstanceError):
        t._hash = 0
    assert t.shape == (2, 2) and hash(t) == hash((t.rows, t.n))


def test_tableaux_from_operators_and_bijection_hash_as_enumerated():
    for spec, p in family_paths():
        crystals = {t: t for r, s in set(spec.factors)
                    for t in enumerate_crystal(r, s, spec.n)}
        images = [p.f(i) for i in range(1, spec.n)] + [p.e(i) for i in range(1, spec.n)]
        images.append(rc_to_path(path_to_rc(p)))
        for image in filter(None, images):
            for t, (r, s) in zip(image.tableaux, spec.factors):
                assert t.shape == (r, s)
                assert hash(t) == hash(crystals[t]) == hash((t.rows, t.n))
                assert crystals[t] == t


def family_and_sweep_paths():
    # FAMILIES, then every path that `kostka check` visits at n <= 4.
    yield from family_paths()
    for spec in sweep_specs(4, 4):
        for p in enumerate_all_paths(spec):
            yield spec, p


def test_bracketing_matches_repeated_cancellation():
    from kostka.crystal import _bracket

    for spec, p in family_and_sweep_paths():
        for i in range(1, spec.n):
            assert tuple(naive_residue(p.word(), i)) == _bracket(p, i)


def test_operators_match_tensor_recursion():
    for spec, p in family_and_sweep_paths():
        for i in range(1, spec.n):
            assert p.f(i) == recursive_f(p, i)
            assert p.e(i) == recursive_e(p, i)
            assert p.phi(i) == recursive_phi(p, i)
            assert p.epsilon(i) == recursive_eps(p, i)


def test_operators_invert_each_other():
    for spec, p in family_paths():
        for i in range(1, spec.n):
            lowered = p.f(i)
            if lowered is not None:
                assert lowered.e(i) == p
            raised = p.e(i)
            if raised is not None:
                assert raised.f(i) == p


def test_lowering_shifts_weight():
    for spec, p in family_paths():
        for i in range(1, spec.n):
            lowered = p.f(i)
            if lowered is None:
                continue
            w, w2 = p.weight(), lowered.weight()
            moved = [w2[k] - w[k] for k in range(spec.n)]
            assert moved[i - 1] == -1 and moved[i] == 1
            assert all(d == 0 for k, d in enumerate(moved) if k not in (i - 1, i))


def test_phi_counts_applications():
    for spec, p in family_paths():
        for i in range(1, spec.n):
            count = 0
            cur = p.f(i)
            while cur is not None:
                count += 1
                cur = cur.f(i)
            assert count == p.phi(i)


def test_json_roundtrip():
    for spec, p in list(family_paths())[:40]:
        assert Path.from_json(p.to_json()) == p
    spec = CrystalSpec(4, ((2, 2), (2, 1)))
    assert CrystalSpec.from_json(spec.to_json()) == spec


def test_str_forms():
    p = Path(CrystalSpec(4, ((2, 2), (2, 1))),
             (RectTableau(((1, 1), (2, 2)), 4), RectTableau(((3,), (4,)), 4)))
    assert str(p) == '11/22 (x) 3/4'
    assert str(Path(CrystalSpec(3, ()), ())) == '(empty)'


@given(st.sampled_from(enumerate_crystal(2, 2, 4)), st.integers(1, 3))
def test_single_factor_residue_agrees(t, i):
    p = Path(CrystalSpec(4, ((2, 2),)), (t,))
    lo, hi = naive_residue(p.word(), i)
    assert p.phi(i) == len(lo)
    assert p.epsilon(i) == len(hi)
