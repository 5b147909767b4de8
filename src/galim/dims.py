"""Genus and dimension formulas for the standard modular curves.

All computations are exact: indices and cusp counts are assembled from the
prime factorization, the genus is formed over the rationals, and a failed
integrality check raises rather than rounding.  The sums over the divisors
of the level inside one genus are multiplicative, so they are taken one
prime power q^e at a time.  ``dim_S2_new_Gamma0`` does factor again: every
divisor level it weighs goes through ``genus_X0``, which factors that level
anew unless its cache holds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod

from .arith import CACHE_MAXSIZE, factorize, is_prime, kronecker


@dataclass(frozen=True)
class GenusData:
    """Genus of the level-N curve with the point counts that produce it."""

    level: int
    index: int
    nu2: int
    nu3: int
    nu_inf: int
    genus: int


def _phi(q: int, k: int) -> int:
    """Euler's totient of the prime power q^k."""
    return q**k - q ** (k - 1) if k else 1


@lru_cache(maxsize=CACHE_MAXSIZE)
def genus_X0(n: int) -> GenusData:
    """Genus of X_0(N) from the index and elliptic/cusp counts."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    fac = factorize(n)

    index = n
    for q in fac:
        index = index // q * (q + 1)

    if n % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for q in fac:
            nu2 *= 1 if q == 2 else 1 + kronecker(-1, q)

    if n % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for q in fac:
            nu3 *= 1 + kronecker(-3, q)

    # sum over d | N of phi(gcd(d, N/d))
    nu_inf = prod(sum(_phi(q, min(i, e - i)) for i in range(e + 1)) for q, e in fac.items())

    g = 1 + Fraction(index, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    if g.denominator != 1 or g < 0:
        raise ValueError(f"genus formula gave non-integral or negative value {g} at level {n}")
    return GenusData(n, index, nu2, nu3, nu_inf, int(g))


def dim_S2_new_Gamma0(n: int) -> int:
    """Dimension of the new subspace of weight-2 cusp forms on Gamma_0(N).

    Moebius-style inversion of genus = sum over divisors of the counts of
    oldform copies: the inverting weight at a divisor with squarefull part
    e is (-2)^(number of primes with e=1) * 1^(e=2) and 0 once any e >= 3.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    fac = factorize(n)
    total = 0
    # k runs over the exponent vectors of N/m with no exponent above 2, the
    # only ones of nonzero weight
    for k in product(*(range(min(e, 2) + 1) for e in fac.values())):
        beta = prod((1, -2, 1)[i] for i in k)
        m = n // prod(q**i for q, i in zip(fac, k))
        total += beta * genus_X0(m).genus
    if total < 0:
        raise ValueError(f"negative new-subspace dimension {total} at level {n}")
    return total


def genus_X1(n: int) -> int:
    """Genus of X_1(N) for N >= 5 (no elliptic points in this range)."""
    if n < 5:
        raise ValueError(f"level must be >= 5, got {n}")
    fac = factorize(n)
    index2 = Fraction(n * n, 2)
    for q in fac:
        index2 *= Fraction(q * q - 1, q * q)
    # sum over d | N of phi(d) phi(N/d)
    cusps = prod(sum(_phi(q, i) * _phi(q, e - i) for i in range(e + 1)) for q, e in fac.items())
    cusps2 = Fraction(cusps, 2)
    g = 1 + index2 / 12 - cusps2 / 2
    if g.denominator != 1 or g < 0:
        raise ValueError(f"genus formula gave non-integral or negative value {g} at level {n}")
    return int(g)


def dim_J1_prime(p: int) -> int:
    """Dimension (p-5)(p-7)/24 of the Jacobian of X_1(p) for prime p >= 5.

    Cross-checked against the general-level genus route on every call.
    """
    if p < 5 or not is_prime(p):
        raise ValueError(f"need a prime >= 5, got {p}")
    d = (p - 5) * (p - 7) // 24
    if (p - 5) * (p - 7) % 24:
        raise ValueError(f"(p-5)(p-7) not divisible by 24 at p={p}")
    g = genus_X1(p)
    if d != g:
        raise ValueError(f"closed form {d} disagrees with genus {g} at p={p}")
    return d
