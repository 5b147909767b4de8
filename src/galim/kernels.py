"""The hot numeric loop: the mod-p Bernoulli table in numpy.

The Bernoulli table comes from Newton inversion of a power series to half
its length and one Karp-Markstein quotient step, with Kronecker-substitution
products in 4-byte slots for p up to 2579 and in slots of as few bytes as
the coefficients need above; its factorials and series coefficients are
index lookups into the powers of a primitive root, with no loop of length p
in Python.
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


# private so that the per-layer trace, which wraps public names only, keeps
# the time inside bernoulli_table_mod
def _mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod p, as uint64, for residue sequences a
    and b, by Kronecker substitution on Python ints.

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
