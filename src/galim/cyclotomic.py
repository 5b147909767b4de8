"""Exact cyclotomic integers as group-ring vectors.

A value of order m is an element of Z[zeta_m] = Z[x]/(Phi_m), stored as its
remainder mod the m-th cyclotomic polynomial Phi_m, zero-padded to length m.
Two vectors in Z[x]/(x^m - 1) are the same number exactly when their
remainders agree, so equality, hashing and serialization compare the stored
form, and identities like 1 + zeta_3 + zeta_3^2 = 0 are decided exactly,
never with floats.  ``cyclotomic_poly`` builds Phi_m from its Moebius
product, and ``_remainders`` reduces any number of raw vectors of one order
in a single sweep over the powers of x, keeping no table of them.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .arith import CACHE_MAXSIZE, factorize, totient


@lru_cache(maxsize=CACHE_MAXSIZE)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first.

    For m > 1, Phi_m is the product of (1 - x^(m/e))^mu(e) over the
    squarefree divisors e of m, a power series that is a polynomial of
    degree phi(m), so it is computed mod x^(phi(m) + 1): multiplying by
    1 - x^k is one pass from the top down, dividing by it one pass from
    the bottom up, and a factor with k > phi(m) is 1 there.
    """
    if m < 1:
        raise ValueError("cyclotomic_poly needs m >= 1")
    if m == 1:
        return (-1, 1)
    phi = totient(m)
    poly = [1] + [0] * phi
    divisors = [(1, 1)]  # squarefree divisors e of m with mu(e)
    for q in factorize(m):
        divisors += [(e * q, -mu) for e, mu in divisors]
    for e, mu in divisors:
        k = m // e
        if mu == 1:
            for i in range(phi, k - 1, -1):
                poly[i] -= poly[i - k]
        else:
            for i in range(k, phi + 1):
                poly[i] += poly[i - k]
    if poly[phi] != 1:
        raise ArithmeticError("cyclotomic product is not monic of degree phi(m)")
    return tuple(poly)


def _remainders(m: int, vectors) -> list[list[int]]:
    """Remainders mod Phi_m of raw vectors of order m, each as its phi(m)
    low coefficients.  A vector is an iterable of (exponent, coefficient)
    pairs with exponents in 0..m-1.

    One sweep walks the rows x^k mod Phi_m for k from phi(m) up to the
    largest exponent present, each made from the one before by
    shift-and-subtract: x^phi = -(Phi_m - x^phi), and x times a row shifts
    it up, the coefficient t pushed to x^phi coming back as t times that
    first row.  Row k adds c times itself into every vector whose
    coefficient at k is c, and is dropped once the next row is made.
    """
    low = cyclotomic_poly(m)[:-1]
    phi = len(low)
    rems = []
    high: dict[int, list[tuple[list[int], int]]] = {}
    for pairs in vectors:
        rem = [0] * phi
        for k, c in pairs:
            if k < phi:
                rem[k] += c
            elif c:
                high.setdefault(k, []).append((rem, c))
        rems.append(rem)
    row = [-c for c in low]
    for k in range(phi, max(high, default=0) + 1):
        for rem, c in high.get(k, ()):
            rem[:] = [r + c * x for r, x in zip(rem, row)]
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, low)]
    return rems


class CycloValue:
    """An element of Z[zeta_m].  ``coeffs`` is its remainder mod Phi_m,
    zero-padded to length m; the constructor reduces a vector of length at
    most m only when it has an entry at or above phi(m).  Coefficients are
    taken through ``operator.index``, so bools and numpy integers are
    accepted and floats, fractions and decimals refused with a TypeError."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs=()):
        if m < 1:
            raise ValueError("CycloValue needs order m >= 1")
        vec = list(map(operator.index, coeffs))
        if len(vec) > m:
            raise ValueError("coefficient vector longer than the order")
        if any(vec[len(cyclotomic_poly(m)) - 1 :]):
            (vec,) = _remainders(m, [enumerate(vec)])
        self._store(m, vec)

    def _store(self, m: int, rem) -> None:
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", tuple(rem) + (0,) * (m - len(rem)))

    @classmethod
    def _from_remainder(cls, m: int, rem) -> "CycloValue":
        """The value whose remainder mod Phi_m is rem: the phi(m) exact ints
        ``_remainders`` returns for one vector, taken unchecked."""
        self = object.__new__(cls)
        self._store(m, rem)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycloValue is immutable")

    @classmethod
    def from_int(cls, m: int, v: int) -> "CycloValue":
        out = [0] * m
        out[0] = v
        return cls(m, out)

    @classmethod
    def zeta(cls, m: int, e: int = 1) -> "CycloValue":
        out = [0] * m
        out[e % m] = 1
        return cls(m, out)

    def _coerce(self, other) -> "CycloValue":
        if isinstance(other, CycloValue):
            if other.m != self.m:
                raise ValueError(f"mixed cyclotomic orders {self.m} and {other.m}")
            return other
        if isinstance(other, int):
            return CycloValue.from_int(self.m, other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycloValue(self.m, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloValue(self.m, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return CycloValue(self.m, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloValue(self.m, [other * a for a in self.coeffs])
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        m = self.m
        out = [0] * m
        right = [(j, y) for j, y in enumerate(o.coeffs) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in right:
                    out[(i + j) % m] += x * y
        return CycloValue(m, out)

    __rmul__ = __mul__

    def conjugate(self) -> "CycloValue":
        m = self.m
        return CycloValue(m, [self.coeffs[(m - i) % m] for i in range(m)])

    def __reduce__(self):
        # the frozen __setattr__ blocks pickle's slot restoration, so
        # round-trip through the constructor instead
        return (CycloValue, (self.m, list(self.coeffs)))

    def to_int(self) -> int:
        if any(self.coeffs[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloValue.from_int(self.m, other)
        if not isinstance(other, CycloValue) or other.m != self.m:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CycloValue(m={self.m}, coeffs={list(self.coeffs)})"
