"""Exact cyclotomic integers as group-ring vectors.

A value of order m is an integer vector indexed by exponents 0..m-1 in
Z[x]/(x^m - 1); two vectors represent the same cyclotomic number exactly when
their difference reduces to zero modulo the m-th cyclotomic polynomial.
Equality, hashing and serialization all go through that canonical remainder,
so identities like 1 + zeta_3 + zeta_3^2 = 0 are decided exactly, never with
floats.
"""

from __future__ import annotations

from functools import lru_cache

from .arith import CACHE_MAXSIZE


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic with integer coefficients, so quotient and remainder stay
    # integral
    num = list(num)
    dn = len(den) - 1
    if dn == 0:
        return list(num), []
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    return _poly_trim(quot), _poly_trim(num[:dn])


@lru_cache(maxsize=CACHE_MAXSIZE)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError("cyclotomic_poly needs m >= 1")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_poly(d)))
            if rem:
                raise ArithmeticError("cyclotomic division left a remainder")
    return tuple(num)


@lru_cache(maxsize=CACHE_MAXSIZE)
def _high_powers(m: int) -> tuple[tuple[int, ...], ...]:
    """Rows x^k mod Phi_m for phi(m) <= k < m, each of length phi(m).

    Built by shift-and-subtract: x^phi = -(Phi_m - x^phi), and x times a
    row shifts it up, the coefficient t pushed to x^phi coming back as t
    times that first row.  The table holds (m - phi(m)) * phi(m) integers.
    """
    phi_poly = cyclotomic_poly(m)
    phi = len(phi_poly) - 1
    low = phi_poly[:phi]
    row = [-c for c in low]
    rows = []
    for _ in range(phi, m):
        rows.append(tuple(row))
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, low)]
    return tuple(rows)


class CycloValue:
    """An element of Z[zeta_m], stored as a length-m group-ring vector."""

    __slots__ = ("m", "coeffs", "_canon")

    def __init__(self, m: int, coeffs=()):
        if m < 1:
            raise ValueError("CycloValue needs order m >= 1")
        vec = tuple(map(int, coeffs))
        if len(vec) > m:
            raise ValueError("coefficient vector longer than the order")
        if len(vec) < m:
            vec += (0,) * (m - len(vec))
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", vec)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloValue is immutable")

    @classmethod
    def zero(cls, m: int) -> "CycloValue":
        return cls(m)

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

    def canonical(self) -> tuple[int, ...]:
        """Remainder mod the m-th cyclotomic polynomial, zero-padded to m.

        The low phi(m) coefficients stay as they are, and each nonzero
        coefficient c_k above them adds c_k times the cached row x^k mod
        Phi_m, so no value needs a polynomial division.
        """
        if self._canon is None:
            rows = _high_powers(self.m)
            phi = self.m - len(rows)
            rem = list(self.coeffs[:phi])
            for c, row in zip(self.coeffs[phi:], rows):
                if c:
                    rem = [r + c * x for r, x in zip(rem, row)]
            object.__setattr__(self, "_canon", tuple(rem) + (0,) * len(rows))
        return self._canon

    def is_zero(self) -> bool:
        return not any(self.canonical())

    def to_int(self) -> int:
        c = self.canonical()
        if any(c[1:]):
            raise ValueError(f"{self!r} is not a rational integer")
        return c[0]

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycloValue.from_int(self.m, other)
        if not isinstance(other, CycloValue) or other.m != self.m:
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash((self.m, self.canonical()))

    def __repr__(self):
        return f"CycloValue(m={self.m}, coeffs={list(self.coeffs)})"
