"""The hot numeric loop: the mod-p Bernoulli table in numpy.

The Bernoulli table comes from Newton inversion of a power series to half
its length and one Karp-Markstein quotient step; its factorials and series
coefficients are index lookups into the powers of a primitive root, with no
loop of length p in Python.  Its polynomial products take one of two routes.
Products of two operands of at least ``_FFT_MIN_TERMS`` terms go through a
float64 FFT of balanced residues whenever Percival's error bound proves
that rounding gives the exact integer product, as it does for every such
product of a table up to p = 37423; a run-time guard raises
``InternalInconsistencyError`` if a coefficient ever lands more than 1/8
from an integer.  Short operands, and products beyond the bound, go by
Kronecker substitution on Python ints, in 4-byte slots when the
coefficient bound fits them and in slots of as few bytes as it needs above.
The O(p^2) convolution, and the Newton route with Python-loop factorials
and 64-bit slots, are kept in the tests as its oracles.

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


# Below this many terms on the shorter side, the one C multiply of the
# Kronecker route beats the two FFT calls, which cost 50-60 us inside a
# table whatever the length: at p = 601, 150 x 150 terms took 40 us by
# Kronecker and 60 by FFT.  Whole tables, interleaved in one process, put
# the crossover here: at 128 those with 509 <= p <= 709 took 13-20% longer
# than by Kronecker alone, at 192 none did, and at 256 the tables with
# 811 <= p <= 1013 lost the 10% that 192 saves
_FFT_MIN_TERMS = 192


# private so that the per-layer trace, which wraps public names only, keeps
# the time inside bernoulli_table_mod
def _mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod p, as uint64, for residue sequences a
    and b, zero-padded beyond len a + len b - 1.

    Two routes give the same array.  When both operands have at least
    ``_FFT_MIN_TERMS`` terms and ``_fft_is_exact`` proves that a float64 FFT
    rounds to the exact product, the product comes from ``_fft_mul_mod``,
    in about L log L; that covers every long product of a table up to
    p = 37423.  Short operands and products beyond the bound go by
    Kronecker substitution, ``_kronecker_mul_mod``, in about L^1.58.
    """
    la, lb = min(len(a), n), min(len(b), n)
    if min(la, lb) >= _FFT_MIN_TERMS and _fft_is_exact(la, lb, p):
        return _fft_mul_mod(a, b, p, n)
    return _kronecker_mul_mod(a, b, p, n)


def _fft_is_exact(la: int, lb: int, p: int) -> bool:
    """Whether a float64 FFT product of la and lb balanced residues mod p
    lands within 1/8 of the exact integer product.

    With |x| <= X = (p-1)/2 and a length N = 2^k >= la + lb - 1, Percival's
    bound (Math. Comp. 72, 2003) on the error of every coefficient is
    ||a||_2 ||b||_2 ((1+e)^3k (1+e sqrt 5)^(3k+1) (1+beta)^3k - 1), with
    e = 2^-53 and the error beta of the roots of unity at most e; that is
    below E = sqrt(la lb) X^2 2^-53 (16k + 3).  E <= 1/8 is tested in
    integers, as la lb X^4 (16k + 3)^2 <= 2^100.
    """
    k = (la + lb - 2).bit_length()
    x = (p - 1) // 2
    return la * lb * x**4 * (16 * k + 3) ** 2 <= 1 << 100


def _fft_mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """``_mul_mod`` by a real FFT in float64, for operands that
    ``_fft_is_exact`` admits.

    The residues are taken balanced, in [-(p-1)/2, (p-1)/2], the product is
    irfft(rfft(a) rfft(b)) at the least power-of-two length that holds it,
    and each coefficient is rounded to the nearest integer.  The bound puts
    every coefficient within 1/8 of an integer; a larger distance raises
    ``InternalInconsistencyError`` instead of returning a table.
    ``np.fft`` is reached by attribute, so numpy loads it only when a table
    needs it.
    """
    a, b = a[:n], b[:n]
    size = len(a) + len(b) - 1
    length = 1 << (size - 1).bit_length()
    # both operands in one array, so one rfft call transforms them
    pair = np.zeros((2, length))
    pair[0, : len(a)] = a
    pair[1, : len(b)] = b
    np.subtract(pair, p, out=pair, where=pair > (p - 1) // 2)
    fa, fb = np.fft.rfft(pair)
    prod = np.fft.irfft(fa * fb, length)[:n]
    exact = np.rint(prod)
    if np.abs(prod - exact).max() > 0.125:
        from .arith import InternalInconsistencyError

        raise InternalInconsistencyError(f"FFT product mod {p} strays from the integers")
    out = (exact.astype(np.int64) % p).view(np.uint64)
    # the coefficients past the transform length are zero
    return np.pad(out, (0, n - length)) if n > length else out


def _kronecker_mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """``_mul_mod`` by Kronecker substitution on Python ints.

    A coefficient of the exact product is at most min(len a, len b)(p-1)^2.
    When that bound fits 4 bytes, as it does for every product of a table at
    p <= 2579, a and b are packed in 4-byte slots and the product is read
    back as one uint32 array.  A wider bound gets slots of w = ceil(bitlen/8)
    bytes, read back as one 64-bit word up to w = 8 and as two 64-bit limbs
    beyond, up to p < 2^31.
    """
    a, b = a[:n], b[:n]
    w = -(-(min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8)
    size = max(len(a) + len(b) - 1, n)
    if w <= 4:
        prod = int.from_bytes(np.asarray(a, dtype="<u4").tobytes(), "little")
        prod *= int.from_bytes(np.asarray(b, dtype="<u4").tobytes(), "little")
        return np.frombuffer(prod.to_bytes(4 * size, "little"), dtype="<u4", count=n) % np.uint64(p)
    a = np.ascontiguousarray(a, dtype="<u8")
    b = np.ascontiguousarray(b, dtype="<u8")
    limbs = 1 if w <= 8 else 2
    prod = _pack(a, w) * _pack(b, w)
    slots = np.zeros((n, 8 * limbs), dtype=np.uint8)
    slots[:, :w] = np.frombuffer(prod.to_bytes(size * w, "little"), dtype=np.uint8, count=n * w).reshape(n, w)
    out = slots.view("<u8") % p
    if limbs == 1:
        return out.ravel()
    return (out[:, 1] * ((1 << 64) % p) + out[:, 0]) % p


def _pack(a: np.ndarray, w: int) -> int:
    """The integer whose little-endian w-byte slots hold a."""
    rows = a.view(np.uint8).reshape(-1, 8)
    if w > 8:
        rows = np.pad(rows, ((0, 0), (0, w - 8)))
    return int.from_bytes(rows[:, :w].tobytes(), "little")
