"""The hot numeric loop: the mod-p Bernoulli table in numpy.

The Bernoulli table comes from Newton inversion of a power series to half
its length and one Karp-Markstein quotient step; its factorials and series
coefficients are index lookups into the powers of a primitive root, with no
loop of length p in Python.  Its polynomial products take one of two routes.
A product whose shorter operand has fewer than ``_FFT_MIN_TERMS`` terms,
and whose coefficients stay below 2^63, is one int64 ``np.convolve``.
Every other product goes through a float64 FFT of the residues split into
d balanced digits, with the least d for which Percival's error bound proves
that rounding gives the exact integer product: d = 1 covers every such
product of a table up to p = 37423, and d = 2 every one up to 4194301.  A
run-time guard raises ``InternalInconsistencyError`` if a coefficient ever
lands more than 1/8 from an integer.  The O(p^2) convolution, the Newton
route with Python-loop factorials and 64-bit Kronecker slots, and a
schoolbook product are kept in the tests as its oracles.

In the library only ``arith`` imports this module and reads the array that
``bernoulli_table_mod`` returns; numpy stays inside this module, ``arith``
and ``quadforms``.
"""

from __future__ import annotations

from math import isqrt

import numpy as np


def active_backend() -> str:
    # kept only because the benchmark's child process records it per run
    return "numpy"


# ---------------------------------------------------------------------------
# Bernoulli numbers mod p
# ---------------------------------------------------------------------------


def bernoulli_table_mod(p: int) -> np.ndarray:
    """All Bernoulli numbers mod p as an int64 array indexed 0..p-3.

    Requires a prime p with 5 <= p < 2^31.  The even ones come from Newton
    inversion of the even series (Buhler, Crandall, Ernvall, Metsankyla and
    Shokrollahi 2001; Buhler and Harvey 2011):

        (x/2) coth(x/2) = sum_k B_2k x^2k / (2k)! = C(y) / S(y),  y = x^2,

    with C(y) = sum_k y^k / (4^k (2k)!) and S(y) = sum_k y^k / (4^k (2k+1)!)
    the series of cosh(x/2) and sinh(x/2) / (x/2), for k = 0..(p-3)/2.
    Every factorial involved is at most (p-2)!, hence invertible mod p.
    B_1 = -1/2 and the odd B_k, k >= 3, vanish.  1/S is inverted to half
    the length and C/S completed by one Karp-Markstein step (Karp and
    Markstein 1997).

    Every residue the series need is a power of a primitive root g: with
    the powers g^i, i = 0..p-2, and their inverse index dlog, log j! is a
    running sum of dlog mod p-1, so j!, 1/j!, 4^-k and the coefficients are
    lookups into the powers.  That the powers cover 1..p-1 proves p prime
    a second time, after Miller-Rabin (Lucas).
    """
    if p < 5:
        raise ValueError("mod-p Bernoulli table needs p >= 5")
    if p >= 1 << 31:
        raise ValueError("mod-p Bernoulli table needs p < 2^31")
    # arith imports this module, so its deterministic Miller-Rabin and its
    # factorization come in here; the test refuses every composite before
    # any O(p) work
    from .arith import factorize, is_prime

    if not is_prime(p):
        raise ValueError(f"mod-p Bernoulli table needs a prime p, got {p}")
    n = (p - 1) // 2
    power = _powers(_primitive_root(p, factorize(p - 1)), p)
    dlog = np.full(p, -1, dtype=np.int64)
    dlog[power] = np.arange(p - 1)
    # Lucas: the powers of g cover 1..p-1 only when p is prime
    if (dlog[1:] < 0).any():
        raise ValueError(f"mod-p Bernoulli table needs a prime p, got {p}")
    # log j! for j = 0..p-2; below 2^62 before the reduction
    log_fact = np.zeros(p - 1, dtype=np.int64)
    np.cumsum(dlog[1 : p - 1], out=log_fact[1:])
    log_fact %= p - 1
    # log 4^-k (2k)!^-1 and log 4^-k (2k+1)!^-1, k = 0..n-1
    log_4k = np.arange(n, dtype=np.int64) * dlog[4]
    c = power[-(log_4k + log_fact[0::2]) % (p - 1)]
    s = power[-(log_4k + log_fact[1::2]) % (p - 1)]
    # inv = 1/S mod y^m up to m = h = ceil(n/2): the first 16 terms from
    # inv_k = -sum_{j=1..k} s_j inv_(k-j), which beats that many tiny
    # products, then doubling m: inv <- inv (2 - S inv).  S inv = 1 + y^m e
    # mod y^2m, so only e and inv e need computing
    h = -(-n // 2)
    m = min(h, 16)
    head = s[:m].tolist()
    inv = [1]
    for k in range(1, m):
        inv.append(-sum(x * y for x, y in zip(head[1 : k + 1], reversed(inv))) % p)
    inv = np.asarray(inv, dtype=np.uint64)
    while m < h:
        m2 = min(2 * m, h)
        e = _mul_mod(s[:m2], inv, p, m2)[m:]
        inv = np.concatenate([inv, (p - _mul_mod(inv, e, p, m2 - m)) % p])
        m = m2
    # C/S mod y^n by one Karp-Markstein step: q0 = C inv is right mod y^h,
    # C - S q0 = y^h r mod y^n, and C/S = q0 + y^h (inv r mod y^(n-h)), as
    # n - h <= h; no product has both operands longer than h
    q0 = _mul_mod(c, inv, p, h)
    r = (c[h:] + p - _mul_mod(s, q0, p, n)[h:]) % p
    ratio = np.concatenate([q0, _mul_mod(inv, r, p, n - h)])
    B = np.zeros(p - 2, dtype=np.int64)
    B[0::2] = power[log_fact[0::2]] * ratio % p
    B[1] = (p - 1) // 2
    return B


def _primitive_root(p: int, factors) -> int:
    """The least g with g^((p-1)/q) != 1 mod p for every prime q of
    ``factors``, the primes of p-1; p must be prime."""
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in factors):
        g += 1
    return g


def _powers(g: int, p: int) -> np.ndarray:
    """g^i mod p for i = 0..p-2 as uint64, an outer product of about sqrt(p)
    baby steps g^j and as many giant steps g^(mj)."""
    m = isqrt(p - 2) + 1
    baby = [1] * m
    for j in range(1, m):
        baby[j] = baby[j - 1] * g % p
    step = baby[-1] * g % p
    giant = [1] * -(-(p - 1) // m)
    for i in range(1, len(giant)):
        giant[i] = giant[i - 1] * step % p
    table = np.asarray(giant, dtype=np.uint64)[:, None] * np.asarray(baby, dtype=np.uint64) % p
    return table.ravel()[: p - 1]


# Below this many terms on the shorter side, one int64 np.convolve beats the
# two FFT calls, which cost 40-60 us inside a table whatever the length.
# Whole tables, interleaved in one process, put the crossover here: against
# 192, the tables with 829 <= p <= 1009 took 5-15% less, and those with
# 1087 <= p <= 1993 moved by no more than the noise (2-4%)
_FFT_MIN_TERMS = 256


# private so that the per-layer trace, which wraps public names only, keeps
# the time inside bernoulli_table_mod
def _mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod p, as uint64, for residue sequences a
    and b, zero-padded beyond len a + len b - 1.

    A product whose shorter operand has fewer than ``_FFT_MIN_TERMS`` terms,
    and whose coefficients, at most min(len a, len b)(p-1)^2, stay below
    2^63, is one int64 ``np.convolve``; every other one goes by
    ``_fft_mul_mod`` in the least d digits that ``_fft_is_exact`` admits.
    """
    a, b = a[:n], b[:n]
    la, lb = len(a), len(b)
    if min(la, lb) < _FFT_MIN_TERMS and min(la, lb) * (p - 1) ** 2 < 1 << 63:
        out = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))[:n] % p
        return (np.pad(out, (0, n - len(out))) if n > len(out) else out).view(np.uint64)
    d = 1
    while not _fft_is_exact(la, lb, p, d):
        d += 1
    return _fft_mul_mod(a, b, p, n, d)


def _digit_bits(p: int, d: int) -> int:
    """The bits s of each of d balanced digits of a residue mod p: the least
    s with d s > bitlen((p-1)/2), so that no digit exceeds 2^(s-1) in size."""
    return -(-(((p - 1) // 2).bit_length() + 1) // d)


def _fft_is_exact(la: int, lb: int, p: int, d: int) -> bool:
    """Whether a float64 FFT product of la and lb residues mod p, split into
    d digits by ``_fft_mul_mod``, lands within 1/8 of the exact integer
    product in every row.

    No digit exceeds X = min((p-1)/2, 2^(s-1)), s from ``_digit_bits``.  For
    a length N = 2^k >= la + lb - 1, Percival's bound (Math. Comp. 72, 2003)
    on the error of a digit product is ||x||_2 ||y||_2 ((1+e)^3k
    (1+e sqrt 5)^(3k+1) (1+beta)^3k - 1), with e = 2^-53 and the error beta
    of the roots of unity at most e: below sqrt(la lb) X^2 2^-53 (16k + 3),
    whose margin over the first-order (12.8k + 2.3) e covers the d - 1
    additions of a row that sums d products.  E = d sqrt(la lb) X^2 2^-53
    (16k + 3) <= 1/8 is tested in integers, as d^2 la lb X^4 (16k + 3)^2 <=
    2^100.
    """
    k = (la + lb - 2).bit_length()
    x = min((p - 1) // 2, 1 << _digit_bits(p, d) - 1)
    return d * d * la * lb * x**4 * (16 * k + 3) ** 2 <= 1 << 100


def _fft_mul_mod(a, b, p: int, n: int, d: int) -> np.ndarray:
    """``_mul_mod`` by a real float64 FFT on d digits, for operands that
    ``_fft_is_exact`` admits.

    The residues, taken in [-(p-1)/2, (p-1)/2], are split into d balanced
    digits of s bits, x = sum_i x_i 2^(si).  One rfft transforms the 2d digit
    rows; the 2d - 1 rows of digit products, sum_{i+j=k} a_i b_j, are formed
    in the spectrum, and one irfft returns them.  Each is rounded, reduced
    mod p and recombined with 2^s mod p.  A coefficient farther than 1/8 from
    an integer raises ``InternalInconsistencyError``.  ``np.fft`` is reached
    by attribute, so numpy loads it only when a table needs it.
    """
    a, b = a[:n], b[:n]
    # the least power of two that holds the product
    length = 1 << (len(a) + len(b) - 2).bit_length()
    s = _digit_bits(p, d)
    # the digits of both operands in one array, so one rfft transforms them;
    # float64 holds every digit and every step of the split exactly
    rows = np.zeros((2, d, length))
    rows[0, 0, : len(a)] = a
    rows[1, 0, : len(b)] = b
    np.subtract(rows, p, out=rows, where=rows > (p - 1) // 2)
    for i in range(1, d):
        # the low s bits stay, in [-2^(s-1), 2^(s-1)], and the rest moves up
        # a row; the last row is at most 2^(s-1) in size, as d s exceeds
        # bitlen((p-1)/2)
        rows[:, i] = np.rint(rows[:, i - 1] / (1 << s))
        rows[:, i - 1] -= rows[:, i] * (1 << s)
    fa, fb = np.fft.rfft(rows)
    spec = fa[0] * fb
    for i in range(1, d):
        # a_i b_j goes to row i + j, and row i + d - 1 is new
        spec = np.vstack([spec, np.zeros_like(fb[0])])
        spec[i:] += fa[i] * fb
    del rows, fa, fb  # freed before the inverse transform
    prod = np.fft.irfft(spec, length)[:, :n]
    exact = np.rint(prod)
    if np.abs(prod - exact).max() > 0.125:
        from .arith import InternalInconsistencyError

        raise InternalInconsistencyError(f"FFT product mod {p} strays from the integers")
    rows = exact.astype(np.int64) % p
    out = rows[-1]
    for row in rows[-2::-1]:
        out = (out * pow(2, s, p) + row) % p
    out = out.view(np.uint64)
    # the coefficients past the transform length are zero
    return np.pad(out, (0, n - length)) if n > length else out
