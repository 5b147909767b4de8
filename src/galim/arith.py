"""Exact and modular arithmetic primitives.

Deterministic primality below 2^62, the Kronecker symbol in full generality,
multiplicative orders, totients, Bernoulli numbers both as exact rationals
(by the defining convolution) and as a mod-p table (by Newton inversion of
the even series, ``kernels.bernoulli_table_mod``), irregular indices, and the
primorial totient-ratio report whose values approach exp(-gamma) =
0.56146... from below.  ``factorize`` trial-divides by the primes below
2^16, a list built once per process on its first call, and tests for
primality only what remains of n >= 2^32.
"""

from __future__ import annotations

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


# Entries kept by each memoised table (cyclotomic polynomials and power
# tables in cyclotomic, reduced forms, class groups and splitting logs in
# quadforms, the genus and dimension tables in dims), so memory stays bounded
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


_sieve_limit = 0
_sieve_primes = np.empty(0, dtype=np.int64)


def primes_up_to(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (cached, grown on demand)."""
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit, 1 << 16)
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for q in range(2, math.isqrt(limit) + 1):
            if flags[q]:
                flags[q * q :: q] = False
        _sieve_primes = np.nonzero(flags)[0].astype(np.int64)
        _sieve_limit = limit
    return _sieve_primes[: int(np.searchsorted(_sieve_primes, n, side="right"))]


def primes_in_range(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi."""
    arr = primes_up_to(hi)
    return [int(p) for p in arr[np.searchsorted(arr, lo, side="left") :]]


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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by the primes below 2^16 leaves a cofactor with no prime
    factor below the last trial prime q.  It is 1 or prime when q * q
    exceeds it, or when it lies below (2^16 + 1)^2 once every trial prime
    has been tried: either way it is recorded with no primality test, so
    ``is_prime`` and Pollard-Brent see only cofactors of n >= 2^32.
    """
    global _trial_primes
    if n < 1:
        raise ValueError("factorize needs n >= 1")
    if not _trial_primes:
        _trial_primes = primes_up_to(_TRIAL_LIMIT).tolist()
    out: dict[int, int] = {}
    for q in _trial_primes:
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


def divisors(n: int) -> list[int]:
    """Sorted divisors of n >= 1."""
    ds = [1]
    for q, e in factorize(n).items():
        ds = [d * q**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def totient(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    out = n
    for q in factorize(n):
        out = out // q * (q - 1)
    return out


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*, by factoring the group order and descending."""
    if m < 1:
        raise ValueError("multiplicative_order needs m >= 1")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    t = totient(m)
    for q in factorize(t):
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t


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

_bern_cache: list[Fraction] = [Fraction(1)]


def bernoulli_exact(k: int) -> Fraction:
    """Exact B_k (B_1 = -1/2) via the defining convolution
    sum_{j=0}^{k} C(k+1, j) B_j = 0.  Oracle-scale: k up to a few hundred."""
    if k < 0:
        raise ValueError("bernoulli_exact needs k >= 0")
    while len(_bern_cache) <= k:
        n = len(_bern_cache)  # computing B_n
        if n > 1 and n % 2 == 1:
            _bern_cache.append(Fraction(0))
            continue
        s = Fraction(0)
        for j in range(n):
            if j > 1 and j % 2 == 1:
                continue
            s += math.comb(n + 1, j) * _bern_cache[j]
        _bern_cache.append(-s / (n + 1))
    return _bern_cache[k]


@dataclass(frozen=True)
class BernoulliTable:
    """Residues of the p-integral Bernoulli numbers B_k mod p for even k in
    [2, p-3], read from ``kernels.bernoulli_table_mod``."""

    p: int
    entries: dict[int, int]

    def irregular_indices(self) -> tuple[int, ...]:
        return tuple(k for k, v in sorted(self.entries.items()) if v == 0)


def bernoulli_mod_p(p: int) -> BernoulliTable:
    return BernoulliTable(p, dict(zip(range(2, p - 2, 2), _even_bernoulli_mod_p(p).tolist())))


def irregular_indices(p: int) -> tuple[int, ...]:
    """Even k in [2, p-3] with B_k = 0 mod p; empty exactly for regular p."""
    return tuple((2 * np.flatnonzero(_even_bernoulli_mod_p(p) == 0) + 2).tolist())


def _even_bernoulli_mod_p(p: int) -> np.ndarray:
    """B_k mod p for the even k in [2, p-3], in order."""
    if p < 5 or not is_prime(p):
        raise ValueError(f"bernoulli_mod_p needs a prime p >= 5, got {p}")
    return kernels.bernoulli_table_mod(p)[2 : p - 2 : 2]


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
    ps = primes_up_to(200).tolist()
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
