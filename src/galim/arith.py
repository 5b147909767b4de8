"""Exact and modular arithmetic primitives.

Deterministic primality below 2^62, the Kronecker symbol in full generality,
totients, square roots mod p, irregular indices read from the mod-p
Bernoulli table (Newton inversion of the even series,
``kernels.bernoulli_table_mod``), and the primorial totient-ratio report
whose values approach exp(-gamma) = 0.56146... from below.  ``factorize``
trial-divides by the primes below 2^16, a list built once per process on
its first call, and tests for primality only what remains of n >= 2^32.
``primes_in_range`` sieves only its window, by the primes up to the square
root of its top, so a window high up costs about as little as one near 0;
it refuses tops of 2^48 and more.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels

# The fixed strong-pseudoprime base set is exact for n < 3.18e23, comfortably
# past the 2^62 cutoff enforced below.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 1 << 62


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree did not.  Always a bug, never user error."""


# Entries kept by each memoised table (cyclotomic polynomials in
# cyclotomic, reduced forms and class groups in quadforms, the X_0 genus
# table in dims), so memory stays bounded
# however long a scan runs.  A scan moves through its discriminants and
# levels in order and never returns to one, so the least recently used
# entries it drops are never needed again.
CACHE_MAXSIZE = 1024

_EULER_GAMMA = 0.5772156649015328606
TOTIENT_LIMINF = math.exp(-_EULER_GAMMA)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with a fixed base set; rejects n >= 2^62."""
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime is deterministic only below 2^62, got {n}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n) for n != 0, with the standard 2-adic and sign
    conventions: (a|2) is 0, +1, -1 for a even / a = +-1 (8) / a = +-3 (8),
    and (a|-1) = -1 exactly when a < 0."""
    if n == 0:
        raise ValueError("kronecker symbol is undefined for n = 0")
    t = 1
    if n < 0:
        n = -n
        if a < 0:
            t = -1
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        z = (n & -n).bit_length() - 1
        n >>= z
        if z % 2 and a % 8 in (3, 5):
            t = -t
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


# windows reach this bound at most: their sieving primes up to 2^24 stay a
# list of about a million ints
_SIEVE_LIMIT = 1 << 48


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, for hi < 2^48.

    Only the window [lo, hi] is sieved, by the primes up to sqrt(hi): the
    trial primes of ``factorize`` when sqrt(hi) < 2^16, otherwise the primes
    of one recursive call.  So the cost follows the window and sqrt(hi),
    not hi, and nothing is kept between calls but the trial primes.
    """
    if hi >= _SIEVE_LIMIT:
        raise ValueError(f"primes_in_range needs hi < 2^48, got {hi}")
    lo = max(lo, 2)
    if lo > hi:
        return []
    root = math.isqrt(hi)
    base = _small_primes() if root < _TRIAL_LIMIT else primes_in_range(2, root)
    return _window(lo, hi, base[: bisect.bisect_right(base, root)])


def _window(lo: int, hi: int, base: list[int]) -> list[int]:
    """Primes in [lo, hi], 2 <= lo, given every prime up to sqrt(hi) in base."""
    flags = np.ones(hi - lo + 1, dtype=bool)
    for q in base:
        flags[max(q * q, -(-lo // q) * q) - lo :: q] = False
    primes = np.flatnonzero(flags)
    del flags  # freed before the list of ints is built
    primes += lo
    return primes.tolist()


def _pollard_brent(n: int) -> int:
    # deterministic Brent rho: fixed start, incremented polynomial constant
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


_TRIAL_LIMIT = 1 << 16
_trial_primes: list[int] = []


def _small_primes() -> list[int]:
    """The primes below 2^16, sieved on the first call and kept: each bound
    of 4, 16, 256 and 2^16 is the square of the one before, so each window
    is sieved by the primes of the last."""
    global _trial_primes
    if not _trial_primes:
        primes = [2]
        for bound in (4, 16, 256, _TRIAL_LIMIT):
            primes = _window(2, bound, primes)
        _trial_primes = primes
    return _trial_primes


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 2^16 leaves a cofactor with no prime
    factor below the last trial prime q.  It is 1 or prime when q * q
    exceeds it, or when it lies below (2^16 + 1)^2 once every trial prime
    has been tried: either way it is recorded with no primality test, so
    ``is_prime`` and Pollard-Brent see only cofactors of n >= 2^32.
    """
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    out: dict[int, int] = {}
    for q in _small_primes():
        if q * q > n:
            break
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    else:
        if n >= (_TRIAL_LIMIT + 1) ** 2:
            stack = [n]
            while stack:
                m = stack.pop()
                if is_prime(m):
                    out[m] = out.get(m, 0) + 1
                    continue
                d = _pollard_brent(m)
                stack.append(d)
                stack.append(m // d)
            return dict(sorted(out.items()))
    if n > 1:
        out[n] = 1
    return out


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    out = n
    for q in factorize(n):
        out = out // q * (q - 1)
    return out


def sqrt_mod(a: int, p: int) -> int | None:
    """Least square root of a mod an odd prime p, or None when a is a
    nonresidue.  Tonelli-Shanks with the least-nonresidue witness, so the
    result is deterministic."""
    a %= p
    if a == 0:
        return 0
    if kronecker(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while kronecker(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return min(r, p - r)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------


def irregular_indices(p: int) -> tuple[int, ...]:
    """Even k in [2, p-3] with B_k = 0 mod p; empty exactly for regular p.
    The table refuses p < 5 and composite p with a ValueError."""
    even = kernels.bernoulli_table_mod(p)[2 : p - 2 : 2]
    return tuple((2 * np.flatnonzero(even == 0) + 2).tolist())


# ---------------------------------------------------------------------------
# Totient ratio report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimorialRatio:
    k: int
    primorial: int
    totient: int
    ratio: float


@dataclass(frozen=True)
class TotientRatioReport:
    rows: tuple[PrimorialRatio, ...]
    liminf: float  # exp(-gamma), approached from below along the primorials


def totient_liminf_report(count: int) -> TotientRatioReport:
    """Rows (k, n_k, phi(n_k), phi(n_k)/n_k * ln ln n_k) for the primorials
    n_k, k = 3..count.  The ratio column climbs toward exp(-gamma)."""
    if not 3 <= count <= 25:
        raise ValueError("totient_liminf_report supports 3 <= count <= 25")
    ps = primes_in_range(2, 200)
    rows = []
    n = 1
    for i in range(count):
        n *= ps[i]
        k = i + 1
        if k < 3:
            continue
        phi = totient(n)
        ratio = float(Fraction(phi, n)) * math.log(math.log(n))
        rows.append(PrimorialRatio(k, n, phi, ratio))
    return TotientRatioReport(tuple(rows), TOTIENT_LIMINF)
