from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from kostka.qpoly import QPolynomial, qbinom

polys = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=6).map(
    QPolynomial)


def test_zero_and_one():
    assert not QPolynomial.zero()
    assert QPolynomial.zero() == 0
    assert QPolynomial.one() == 1
    assert str(QPolynomial.zero()) == '0'
    assert str(QPolynomial.one()) == '1'


def test_str_is_ascending():
    p = QPolynomial({2: 1, 0: 2, 1: 4})
    assert str(p) == '2 + 4*q + q^2'
    assert str(QPolynomial({1: -1, 0: 1})) == '1 - q'
    assert str(QPolynomial({-1: 1, 0: 1})) == 'q^-1 + 1'


def test_monomial_and_shift():
    assert QPolynomial.monomial(3, 2) == QPolynomial({3: 2})
    assert QPolynomial.one().shift(5) == QPolynomial.monomial(5)


def test_list_roundtrip():
    p = QPolynomial({-2: 1, 1: 3})
    lo, coeffs = p.to_list()
    assert (lo, coeffs) == (-2, [1, 0, 0, 3])
    assert QPolynomial.zero().to_list() == (0, [])


@given(polys, polys)
def test_addition_commutes(p, r):
    assert p + r == r + p


@given(polys, polys, polys)
def test_multiplication_distributes(p, r, s):
    assert p * (r + s) == p * r + p * s


@given(polys, polys)
def test_evaluation_is_a_homomorphism(p, r):
    # Fractions keep negative exponents exact
    two, three = Fraction(2), Fraction(3)
    assert (p * r)(two) == p(two) * r(two)
    assert (p + r)(three) == p(three) + r(three)


def test_qbinom_small_table():
    assert qbinom(1, 1) == QPolynomial({0: 1, 1: 1})
    assert qbinom(2, 1) == QPolynomial({0: 1, 1: 1, 2: 1})
    assert qbinom(2, 2) == QPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})


def test_qbinom_boundaries():
    assert qbinom(0, 5) == 1
    assert qbinom(0, 0) == 1
    assert qbinom(0, -3) == 1      # empty partition fits in any box
    assert qbinom(4, 0) == 1
    assert qbinom(2, -1) == 0
    with pytest.raises(ValueError):
        qbinom(-1, 2)


@pytest.mark.parametrize('m, p', [(2.0, 2), (2, 2.0), (True, 2), (2, True), ('2', 2)])
def test_qbinom_refuses_non_int_arguments(m, p):
    # A float or bool equal to an int must not reach, or fill, the int's
    # cache entry: qbinom(2.0, 2) once returned float exponents and left
    # them cached under the key (2, 2).
    with pytest.raises(ValueError, match='^expected an integer, got '):
        qbinom(m, p)
    assert qbinom(2, 2) == QPolynomial({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert all(type(e) is int for e in qbinom(2, 2).coeffs)


@given(st.integers(0, 6), st.integers(0, 6))
def test_qbinom_counts_partitions(m, p):
    # specialization at q=1 counts all partitions in the m x p box
    assert qbinom(m, p)(1) == comb(m + p, m)
    assert qbinom(m, p) == qbinom(p, m)
    assert max(qbinom(m, p).coeffs) == m * p


@given(st.integers(1, 6), st.integers(1, 6))
def test_qbinom_other_pascal_recurrence(m, p):
    # the recurrence not used by the implementation
    assert qbinom(m, p) == qbinom(m, p - 1) + qbinom(m - 1, p).shift(p)


def test_qbinom_coefficients_are_partition_counts():
    # coefficient of q^k counts partitions of k inside the box
    poly = qbinom(3, 3)
    by_size = [0] * 10
    for a in range(4):
        for b in range(a + 1):
            for c in range(b + 1):
                by_size[a + b + c] += 1
    assert [poly.coeffs.get(k, 0) for k in range(10)] == by_size
