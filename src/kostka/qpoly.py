"""Exact integer polynomials in the formal variable q.

Coefficients are arbitrary-precision integers keyed by (possibly negative)
exponent.  The zero polynomial stores no coefficients at all; every
operation returns values in this canonical form, so equality is plain
coefficient-wise comparison.
"""

from __future__ import annotations

from functools import lru_cache

from .crystal import json_int


class QPolynomial:
    """A Laurent polynomial in q with integer coefficients.

    Invariant: no stored coefficient is zero.
    """

    __slots__ = ('coeffs',)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in dict(coeffs).items() if c != 0}

    @classmethod
    def zero(cls) -> 'QPolynomial':
        return cls()

    @classmethod
    def one(cls) -> 'QPolynomial':
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1) -> 'QPolynomial':
        """The polynomial coeff * q**exponent."""
        return cls({exponent: coeff})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPolynomial({0: other})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = QPolynomial({0: other})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPolynomial(out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            other = QPolynomial({0: other})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> 'QPolynomial':
        """Multiply by q**k."""
        return QPolynomial({e + k: c for e, c in self.coeffs.items()})

    def __call__(self, value):
        """Evaluate at a numeric value of q."""
        return sum(c * value ** e for e, c in self.coeffs.items())

    def to_list(self) -> tuple[int, list[int]]:
        """Serialize as (minimum exponent, ascending coefficient list).

        The zero polynomial serializes as (0, []).
        """
        if not self.coeffs:
            return (0, [])
        lo, hi = min(self.coeffs), max(self.coeffs)
        return (lo, [self.coeffs.get(e, 0) for e in range(lo, hi + 1)])

    def __str__(self):
        if not self.coeffs:
            return '0'
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                term = str(c)
            else:
                qpow = 'q' if e == 1 else f'q^{e}'
                if c == 1:
                    term = qpow
                elif c == -1:
                    term = f'-{qpow}'
                else:
                    term = f'{c}*{qpow}'
            terms.append(term)
        text = ' + '.join(terms)
        return text.replace('+ -', '- ')

    def __repr__(self):
        return f'QPolynomial({self.coeffs!r})'


@lru_cache(maxsize=None, typed=True)
def qbinom(m: int, p: int) -> QPolynomial:
    """Gaussian binomial [m+p choose m]_q.

    Generating function of partitions with at most m parts, each part at
    most p.  m must be nonnegative; a negative p yields the zero
    polynomial when m > 0 (no partition has a negative part) and 1 when
    m = 0 (the empty partition, vacuously in every box).  Both must be
    ints, and the cache is typed, so a float or bool argument is refused
    and never hits an int's entry.
    """
    m, p = json_int(m), json_int(p)
    if m < 0:
        raise ValueError(f'number of parts must be nonnegative, got {m}')
    if m == 0:
        return QPolynomial.one()
    if p < 0:
        return QPolynomial.zero()
    if p == 0:
        return QPolynomial.one()
    # Pascal recurrence: split on whether the partition has m parts.
    # Fewer than m -> qbinom(m-1, p); exactly m -> strip the first
    # column (q^m) and recurse on width p-1.
    return qbinom(m - 1, p) + qbinom(m, p - 1).shift(m)
