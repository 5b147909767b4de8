"""Hot numeric loops, one numpy implementation each.

Three loops dominate the toolkit's runtime: the O(p^2) mod-p Bernoulli
convolution, the breadth-first projective closure over PGL2(Fq), and the
tame-order gcd check across a prime range.  The closure lists only groups
whose order Schreier-Sims (``dickson.group_order``) has already shown to be
small.  The gcd check tests only the O(1) closed-form exponents per prime;
the full j-scan it replaces is kept in the tests as its oracle.
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

    Requires p >= 5 and p < 2^31 so every intermediate fits in int64.
    """
    if p < 5:
        raise ValueError("mod-p Bernoulli table needs p >= 5")
    if p >= 1 << 31:
        raise ValueError("mod-p Bernoulli table needs p < 2^31")
    # B[k] from the defining convolution sum_{j<=k} C(k+1,j) B_j = 0 run
    # entirely mod p; row holds the Pascal row C(n, .)
    B = np.zeros(p - 2, dtype=np.int64)
    row = np.zeros(p - 1, dtype=np.int64)
    row[0] = 1
    B[0] = 1
    for n in range(1, p - 1):
        row[1 : n + 1] = (row[1 : n + 1] + row[0:n]) % p
        k = n - 1
        if k >= 1:
            s = int((row[:k] * B[:k] % p).sum() % p)
            # C(n, k) = n, so B_k = -s / n
            B[k] = (p - s) % p * pow(n, p - 2, p) % p
    return B


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
# Projective closure BFS over PGL2(Fq)
# ---------------------------------------------------------------------------
#
# Field elements are integer codes in [0, q).  For r = 2 the code of
# a0 + a1*x (x^2 = nr) is a0 + p*a1.  A scalar-normalized matrix
# (m0, m1, m2, m3) packs into ((m0*q + m1)*q + m2)*q + m3 < q^4 <= 2^63.


def closure_codes(gens, p: int, r: int, nr: int, inv_table) -> np.ndarray:
    """BFS closure of scalar-normalized packed generator codes under right
    multiplication, starting at the identity; returns the sorted codes.

    The BFS holds every element, so callers bound the group order first
    (``dickson.closure`` computes it by Schreier-Sims).
    """
    gens = np.asarray(gens, dtype=np.int64)
    inv_table = np.asarray(inv_table, dtype=np.int64)
    q = p * p if r == 2 else p

    def gmul(a, b):
        if r == 1:
            return a * b % p
        a0 = a % p
        a1 = a // p
        b0 = b % p
        b1 = b // p
        return (a0 * b0 + nr * (a1 * b1)) % p + p * ((a0 * b1 + a1 * b0) % p)

    def gadd(a, b):
        if r == 1:
            return (a + b) % p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    id_code = q * q * q + 1
    visited = np.array([id_code], dtype=np.int64)
    frontier = visited
    decoded_gens = []
    for gc in gens.tolist():
        g3 = gc % q
        t = gc // q
        decoded_gens.append((t // q // q, t // q % q, t % q, g3))
    while frontier.size and decoded_gens:
        m3 = frontier % q
        t = frontier // q
        m2 = t % q
        t = t // q
        m1 = t % q
        m0 = t // q
        prods = []
        for g0, g1, g2, g3 in decoded_gens:
            c0 = gadd(gmul(m0, g0), gmul(m1, g2))
            c1 = gadd(gmul(m0, g1), gmul(m1, g3))
            c2 = gadd(gmul(m2, g0), gmul(m3, g2))
            c3 = gadd(gmul(m2, g1), gmul(m3, g3))
            lead = np.where(c0 != 0, c0, np.where(c1 != 0, c1, np.where(c2 != 0, c2, c3)))
            il = inv_table[lead]
            c0 = gmul(c0, il)
            c1 = gmul(c1, il)
            c2 = gmul(c2, il)
            c3 = gmul(c3, il)
            prods.append(((c0 * q + c1) * q + c2) * q + c3)
        new = np.setdiff1d(np.unique(np.concatenate(prods)), visited, assume_unique=True)
        if new.size == 0:
            break
        visited = np.union1d(visited, new)
        frontier = new
    return visited
