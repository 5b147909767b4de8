"""Hot numeric loops, one numpy implementation each.

Three loops carry the toolkit's array work: the mod-p Bernoulli table, the
listing of a projective group over PGL2(Fq), and the tame-order gcd check
across a prime range.  The Bernoulli table comes from Newton inversion of a
power series with Kronecker-substitution products in slots of as few bytes
as the coefficients need; its factorials and series coefficients are index
lookups into the powers of a primitive root, with no loop of length p in
Python.  The O(p^2) convolution, and the Newton route with Python-loop
factorials and 64-bit slots, are kept in the tests as its oracles.  The
listing multiplies out the Schreier-Sims transversals of ``dickson`` (every
element is exactly one product of one transversal element per level), and
lists only groups whose order those transversals have already shown to be
small; a breadth-first closure stays in the tests as its oracle.  The gcd
check tests only the O(1) closed-form exponents per prime; the full j-scan
it replaces is kept in the tests as its oracle.
"""

from __future__ import annotations

from math import gcd, isqrt

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
    # arith imports this module, so its deterministic Miller-Rabin comes in
    # here; it refuses every composite before any O(p) work
    from .arith import is_prime

    if not is_prime(p):
        raise ValueError(f"mod-p Bernoulli table needs a prime p, got {p}")
    n = (p - 1) // 2
    power = _powers(_primitive_root(p), p)
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
    # inv = 1/S mod y^m: the first 16 terms from inv_k = -sum_{j=1..k}
    # s_j inv_(k-j), which beats that many tiny products, then doubling m:
    # inv <- inv (2 - S inv).  S inv = 1 + y^m e mod y^2m, so only e and
    # inv e need computing
    m = min(n, 16)
    head = s[:m].tolist()
    inv = [1]
    for k in range(1, m):
        inv.append(-sum(x * y for x, y in zip(head[1 : k + 1], reversed(inv))) % p)
    inv = np.asarray(inv, dtype=np.uint64)
    while m < n:
        m2 = min(2 * m, n)
        e = _mul_mod(s[:m2], inv, p, m2)[m:]
        inv = np.concatenate([inv, (p - _mul_mod(inv, e, p, m2 - m)) % p])
        m = m2
    ratio = _mul_mod(c, inv, p, n)
    B = np.zeros(p - 2, dtype=np.int64)
    B[0::2] = power[log_fact[0::2]] * ratio % p
    B[1] = (p - 1) // 2
    return B


def _primitive_root(p: int) -> int:
    """The least g with g^((p-1)/q) != 1 mod p for every prime q | p-1, from
    trial division of p-1; p must be prime."""
    qs = []
    m = p - 1
    q = 2
    while q * q <= m:
        if m % q == 0:
            qs.append(q)
            while m % q == 0:
                m //= q
        q += 1 + (q > 2)
    if m > 1:
        qs.append(m)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q in qs):
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

    A coefficient of the exact product is at most min(len a, len b)(p-1)^2,
    so it fits a slot of w = ceil(bitlen/8) bytes of that bound: 4 bytes for
    a full table at p < 2000.  A slot of at most 8 bytes is read back as one
    64-bit word; a wider one, up to p < 2^31, as two 64-bit limbs.
    """
    a = np.ascontiguousarray(a[:n], dtype="<u8")
    b = np.ascontiguousarray(b[:n], dtype="<u8")
    w = -(-(min(len(a), len(b)) * (p - 1) ** 2).bit_length() // 8)
    limbs = 1 if w <= 8 else 2
    prod = _pack(a, w) * _pack(b, w)
    size = max(len(a) + len(b) - 1, n) * w
    slots = np.zeros((n, 8 * limbs), dtype=np.uint8)
    slots[:, :w] = np.frombuffer(prod.to_bytes(size, "little"), dtype=np.uint8, count=n * w).reshape(n, w)
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
