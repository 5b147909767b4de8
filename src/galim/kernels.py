"""Hot numeric loops, one numpy implementation each.

Three loops carry the toolkit's array work: the mod-p Bernoulli table, the
listing of a projective group over PGL2(Fq), and the tame-order gcd check
across a prime range.  The Bernoulli table comes from Newton inversion of a
power series with Kronecker-substitution products; the O(p^2) convolution it
replaces is kept in the tests as its oracle.  The listing multiplies out the
Schreier-Sims transversals of ``dickson`` (every element is exactly one
product of one transversal element per level), and lists only groups whose
order those transversals have already shown to be small; a breadth-first
closure stays in the tests as its oracle.  The gcd check tests only the O(1)
closed-form exponents per prime; the full j-scan it replaces is kept in the
tests as its oracle.
"""

from __future__ import annotations

from math import gcd

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
    B_1 = -1/2 and the odd B_k, k >= 3, vanish.
    """
    if p < 5:
        raise ValueError("mod-p Bernoulli table needs p >= 5")
    if p >= 1 << 31:
        raise ValueError("mod-p Bernoulli table needs p < 2^31")
    n = (p - 1) // 2
    # j! for j = 0..p-2, then their inverses with one pow and a descending
    # product
    fact = [1] * (p - 1)
    for j in range(1, p - 1):
        fact[j] = fact[j - 1] * j % p
    # Wilson: (p-2)! = 1 mod p exactly when p >= 5 is prime
    if fact[-1] != 1:
        raise ValueError(f"mod-p Bernoulli table needs a prime p, got {p}")
    inv_fact = [1] * (p - 1)
    inv_fact[-1] = pow(fact[-1], p - 2, p)
    for j in range(p - 2, 1, -1):
        inv_fact[j - 1] = inv_fact[j] * j % p
    inv4 = pow(4, p - 2, p)
    c = [0] * n
    s = [0] * n
    w = 1  # 4^-k
    for k in range(n):
        c[k] = w * inv_fact[2 * k] % p
        s[k] = w * inv_fact[2 * k + 1] % p
        w = w * inv4 % p
    # g = 1/S mod y^m, doubling m: g <- g (2 - S g).  S g = 1 + y^m e mod
    # y^2m, so only e and g e need computing
    g = np.ones(1, dtype=np.uint64)
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        e = _mul_mod(s[:m2], g, p, m2)[m:]
        g = np.concatenate([g, (p - _mul_mod(g, e, p, m2 - m)) % p])
        m = m2
    ratio = _mul_mod(c, g, p, n)
    B = np.zeros(p - 2, dtype=np.int64)
    B[0::2] = np.asarray(fact[0 : p - 2 : 2], dtype=np.uint64) * ratio % p
    B[1] = (p - 1) // 2
    return B


# private so that the per-layer trace, which wraps public names only, keeps
# the time inside bernoulli_table_mod
def _mul_mod(a, b, p: int, n: int) -> np.ndarray:
    """First n coefficients of a*b mod p, as uint64, for residue sequences a
    and b, by Kronecker substitution on Python ints.

    A coefficient of the exact product is below min(len a, len b)(p-1)^2,
    so it fits a 64-bit slot while that is below 2^64 (p below about 2^21
    for a full table) and a 128-bit slot, read as two 64-bit limbs, up to
    p < 2^31.
    """
    a = np.asarray(a[:n], dtype="<u8")
    b = np.asarray(b[:n], dtype="<u8")
    wide = min(len(a), len(b)) * (p - 1) ** 2 >= 1 << 64
    limbs = 2 if wide else 1
    prod = _pack(a, limbs) * _pack(b, limbs)
    size = max(len(a) + len(b) - 1, n) * limbs * 8
    out = np.frombuffer(prod.to_bytes(size, "little"), dtype="<u8", count=n * limbs)
    if not wide:
        return out % p
    out = out.reshape(n, 2) % p
    return (out[:, 1] * ((1 << 64) % p) + out[:, 0]) % p


def _pack(a: np.ndarray, limbs: int) -> int:
    """The integer with little-endian slots of `limbs` 64-bit words holding a."""
    if limbs > 1:
        a = np.pad(a[:, None], ((0, 0), (0, limbs - 1)))
    return int.from_bytes(a.tobytes(), "little")


# ---------------------------------------------------------------------------
# Tame-order gcd check
# ---------------------------------------------------------------------------


# private so that the per-layer trace, which wraps public names only, keeps
# the eta time inside eta_scan; inertia.eta_candidates shares it
def _eta_exponents(p: int) -> list[int]:
    """Sorted j in [1, p-2] whose projective tame order (p+1)/gcd(j+1, p+1)
    is at most 5, excluding the midpoint j+1 = (p+1)/2.  Needs p >= 7.

    That order is n exactly when j+1 = m(p+1)/n with gcd(m, n) = 1 and
    n | p+1; n = 1 needs j+1 = p+1, out of range, and n = 2 is the midpoint.
    For p >= 7 every such j+1 lies in [2, p-1].
    """
    out = []
    for n in (3, 4, 5):
        if (p + 1) % n:
            continue
        out.extend(m * (p + 1) // n - 1 for m in range(1, n) if gcd(m, n) == 1)
    return sorted(out)


def eta_scan(primes) -> np.ndarray:
    """Rows (p, j), j in [1, p-2], where the projective tame order is <= 5,
    j+1 is not the excluded midpoint (p+1)/2, and yet gcd(j, p-1) > 3.
    Expected empty."""
    arr = np.asarray(primes, dtype=np.int64)
    if arr.size and int(arr.min()) < 7:
        raise ValueError("eta scan needs primes >= 7")
    hits = [(p, j) for p in arr.tolist() for j in _eta_exponents(p) if gcd(j, p - 1) > 3]
    return np.array(hits, dtype=np.int64).reshape(len(hits), 2)


# ---------------------------------------------------------------------------
# Products of Schreier-Sims transversals over PGL2(Fq)
# ---------------------------------------------------------------------------
#
# Field elements are integer codes in [0, q).  For r = 2 the code of
# a0 + a1*x (x^2 = nr) is a0 + p*a1.  Every product below is of two
# residues mod p, or of nr < p and a residue, so p^2 < 2^63 keeps it in int64.


def closure_codes(levels, p: int, r: int, nr: int, inv) -> np.ndarray:
    """Distinct scalar-normalized products u_0 u_1 ... u_k, one factor from
    each level, as sorted rows (a, b, c, d) of field codes.

    Each level is a sequence of matrix rows (a, b, c, d); ``inv`` inverts a
    nonzero field code and is called once per distinct lead entry.  The
    result holds every product, so callers bound its size first
    (``dickson.closure`` reads it from the Schreier-Sims transversals).
    """
    if p * p >= 1 << 63:
        raise ValueError(f"listing group elements needs p^2 < 2^63 for int64 products, got p = {p}")

    def gmul(a, b):
        if r == 1:
            return a * b % p
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        return (a0 * b0 % p + nr * (a1 * b1 % p)) % p + p * ((a0 * b1 % p + a1 * b0 % p) % p)

    def gadd(a, b):
        if r == 1:
            return (a + b) % p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    acc = np.array([[1, 0, 0, 1]], dtype=np.int64)
    for level in levels:
        x = acc[:, None, :]
        y = np.asarray(level, dtype=np.int64).reshape(1, -1, 4)
        acc = np.stack(
            [
                gadd(gmul(x[..., 0], y[..., 0]), gmul(x[..., 1], y[..., 2])),
                gadd(gmul(x[..., 0], y[..., 1]), gmul(x[..., 1], y[..., 3])),
                gadd(gmul(x[..., 2], y[..., 0]), gmul(x[..., 3], y[..., 2])),
                gadd(gmul(x[..., 2], y[..., 1]), gmul(x[..., 3], y[..., 3])),
            ],
            axis=-1,
        ).reshape(-1, 4)
    # the lead entry is the first nonzero one of each row
    lead = acc[np.arange(len(acc)), (acc != 0).argmax(axis=1)]
    values, where = np.unique(lead, return_inverse=True)
    inverses = np.array([inv(v) for v in values.tolist()], dtype=np.int64)
    return np.unique(gmul(acc, inverses[where][:, None]), axis=0)
