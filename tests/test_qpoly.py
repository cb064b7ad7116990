from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from kostka.qpoly import QPolynomial, _times_qbinom, qbinom

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


def test_qbinom_cuts_a_long_number_of_parts():
    # The refusal shows m through errors.shown, as json_int shows a value.
    with pytest.raises(ValueError) as refused:
        qbinom(-10 ** 4000, 1)
    assert str(refused.value) == ('number of parts must be nonnegative, '
                                  'got -10000000000000000...0000000000000000000')


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


def test_qbinom_does_not_depend_on_the_cache():
    # A cold cache gives what a warm one gives, at any p: no call stack
    # grows with the arguments.
    qbinom.cache_clear()
    assert qbinom(1, 600) == QPolynomial(dict.fromkeys(range(601), 1))
    assert qbinom(2, 1000)(1) == comb(1002, 2)


def test_qbinom_coefficients_are_partition_counts():
    # coefficient of q^k counts partitions of k inside the box
    poly = qbinom(3, 3)
    by_size = [0] * 10
    for a in range(4):
        for b in range(a + 1):
            for c in range(b + 1):
                by_size[a + b + c] += 1
    assert [poly.coeffs.get(k, 0) for k in range(10)] == by_size


@given(st.integers(0, 6), st.integers(0, 8),
       st.lists(st.integers(-9, 9), min_size=1, max_size=8))
def test_times_qbinom_is_the_product_with_qbinom(m, p, start):
    # The kernel multiplies a coefficient list in place; the product of
    # QPolynomials with the (cached) q-binomial is the reference.
    coeffs = list(start)
    _times_qbinom(coeffs, m, p)
    expected = QPolynomial(dict(enumerate(start))) * qbinom(m, p)
    # The list grows by m * p entries, the degree of the q-binomial.
    assert len(coeffs) == len(start) + m * p
    assert QPolynomial(dict(enumerate(coeffs))) == expected


def test_times_qbinom_chains_like_a_product():
    # Applied twice to one list, as the fermionic sum applies it per pair.
    coeffs = [2, 0, -1]
    _times_qbinom(coeffs, 2, 3)
    _times_qbinom(coeffs, 1, 4)
    assert QPolynomial(dict(enumerate(coeffs))) == (
        QPolynomial({0: 2, 2: -1}) * qbinom(2, 3) * qbinom(1, 4))
