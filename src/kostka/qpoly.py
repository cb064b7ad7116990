"""Exact integer polynomials in the formal variable q.

Coefficients are arbitrary-precision integers keyed by (possibly negative)
exponent.  The zero polynomial stores no coefficients at all; every
operation returns values in this canonical form, so equality is plain
coefficient-wise comparison.
"""

from __future__ import annotations

from functools import lru_cache

from .crystal import json_int
from .errors import BadInputError, shown


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


def _times_qbinom(coeffs: list, m: int, p: int) -> None:
    """Multiply the ascending coefficient list coeffs, in place, by the
    Gaussian binomial [m+p choose m]_q, for m >= 0 and p >= 0: m steps,
    step i times 1 - q^(p+i), then divided by 1 - q^i.

    After step i the list holds the start times [i+p choose i]_q, a
    polynomial, so each division is exact and leaves i trailing zeros,
    which are cut; the list grows by m * p entries in all.  The one product
    loop of the q-binomials: qbinom applies it to [1], and the fermionic
    sum to each of its groups' lists in turn."""
    for i in range(1, m + 1):
        # Times 1 - q^(p+i), then divided by 1 - q^i: g[k] = f[k] + g[k-i].
        coeffs += [0] * (p + i)
        for k in range(len(coeffs) - 1, p + i - 1, -1):
            coeffs[k] -= coeffs[k - p - i]
        for k in range(i, len(coeffs)):
            coeffs[k] += coeffs[k - i]
        del coeffs[len(coeffs) - i:]


@lru_cache(maxsize=None, typed=True)
def qbinom(m: int, p: int) -> QPolynomial:
    """Gaussian binomial [m+p choose m]_q, the product over i = 1..m of
    (1 - q^(p+i)) / (1 - q^i).

    Generating function of partitions with at most m parts, each part at
    most p.  m must be nonnegative, else BadInputError; a negative p
    yields the zero polynomial when m > 0 (no partition has a negative
    part) and 1 when m = 0 (the empty partition, vacuously in every box).
    Both must be ints, and the cache is typed, so a float or bool
    argument is refused and never hits an int's entry.  The product is
    _times_qbinom applied to [1]; no value depends on what the cache
    holds.
    """
    m, p = json_int(m), json_int(p)
    if m < 0:
        raise BadInputError(f'number of parts must be nonnegative, got {shown(m)}')
    if m > 0 and p < 0:
        return QPolynomial.zero()
    coeffs = [1]
    _times_qbinom(coeffs, m, p)
    return QPolynomial(dict(enumerate(coeffs)))
