"""Workload inputs: one seed in, one list of `galim` CLI invocations out.

Every workload is a closed loop with one client: the next invocation is
sent only after the previous one returned.  The inputs depend only on the
seed and on the candidate pools stored in reference.json; nothing here
calls galim, so a change to the program cannot change what it is asked.

The seed moves the inputs without changing how much work they are, so that
runs with different seeds measure the same thing.  Scan windows are
stratified: each prime band is cut into equal slices of primes and the
seed shifts one window of a fixed number of consecutive primes a little
about the middle of every slice.  Query pools are stored from cheapest to
dearest, and the seed draws one candidate from each of equal slices of
that order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("scan-bernoulli", "scan-witness", "queries")

# Largest prime of each scan kind's band.  Bands start at 7, the smallest
# prime every scan kind accepts.  reference.json holds one entry per prime.
SCAN_BANDS = {
    "borel": 2000,
    "lr": 3000,
    "hida": 1500,
    "brauer_siegel": 20000,
    "eta": 30000,
}
# `irregular --max N` draws N from IRREGULAR_MAX; the reference covers
# 5..IRREGULAR_BAND.  The Bernoulli table's cost grows like N^2, so the range
# is narrow.
IRREGULAR_MAX = (595, 605)
IRREGULAR_BAND = 640
# A scan window moves by at most this share of its slice's free range
# either side of the slice's middle: borel costs grow like p^2, so a window
# placed anywhere in its slice would change a run's latencies by the seed.
WINDOW_JITTER = 0.125

# (kind, strata, primes per window) for each scan workload.  Window counts
# leave at least ten invocations beyond p90 in a run's repetitions.
SCAN_PLANS = {
    "scan-bernoulli": (("borel", 20, 3),),
    "scan-witness": (
        ("lr", 8, 10),
        ("hida", 8, 8),
        ("brauer_siegel", 4, 100),
        ("eta", 4, 40),
    ),
}

# Query mix per repetition: pool name in reference.json -> number drawn,
# one from each of that many equal slices of the pool in cost order, so the
# spread of costs hardly depends on the seed.  The pools use disjoint
# primes, so no query can reuse a class group cached by another.
QUERY_COUNTS = {
    "classgroup": 38,
    "theta": 30,
    "witness-lr": 30,
    "witness-hida": 18,
    "witness-borel": 12,
    "dims": 38,
}
# Small Dickson corpus (prime fields): generator codes, order, label.
# Each is sent under a fresh random conjugation and scaling, which must
# change neither order nor label.
DICKSON_SMALL = (
    (7, ((3, 0, 0, 1), (1, 1, 0, 1)), 42, "borel"),
    (7, ((3, 0, 0, 1), (0, 1, 1, 0)), 12, "dihedral-split"),
    (7, ((1, 0, 0, 6), (0, 1, 1, 0)), 4, "dihedral-ambiguous"),
    (7, ((1, 3, 1, 1),), 8, "dihedral-nonsplit"),
    (7, ((1, 3, 1, 1), (1, 0, 0, 6)), 16, "dihedral-nonsplit"),
    (7, ((0, 1, 3, 2), (0, 1, 5, 0)), 12, "exceptional-A4"),
    (7, ((0, 1, 3, 1), (1, 0, 1, 2)), 24, "exceptional-S4"),
    (7, ((0, 1, 6, 0), (1, 1, 0, 1)), 168, "large-PSL(7)"),
    (7, ((0, 1, 6, 0), (1, 1, 0, 1), (3, 0, 0, 1)), 336, "large-PGL(7)"),
    (11, ((0, 1, 2, 1), (0, 1, 6, 0)), 60, "exceptional-A5"),
    (13, ((0, 1, 12, 0), (1, 1, 0, 1)), 1092, "large-PSL(13)"),
    (13, ((2, 0, 0, 1), (0, 1, 1, 0)), 24, "dihedral-split"),
)
# PSL2(F_p) from <[0,1;-1,0], [1,1;0,1]>, one per p.  p = 47..61 are left
# out: each of their closures would take longer than a third of the mix.
DICKSON_PSL_PRIMES = (11, 19, 29, 37, 43)
# Quadratic-extension group over F_49: (generator codes, order, label).
# PGL2(F_49), adding (8, 0, 0, 1), is left out: its 117,600-element closure
# took a third of each repetition, and the F_49 closures' time varied more
# between repetitions of the same inputs than everything else together.
DICKSON_F49 = ((((1, 1, 0, 1), (1, 0, 7, 1)), 58800, "large-PSL(49)"),)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and how to check its output.

    ``check`` is ("scan", kind, lo, hi), ("irregular", n),
    ("digest", pool, key) or ("dickson", order, label).
    """

    argv: tuple[str, ...]
    check: tuple


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by a plain sieve."""
    if hi < 2:
        return []
    flags = bytearray([1]) * (hi + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [p for p in range(max(lo, 2), hi + 1) if flags[p]]


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def scan_windows(rng: random.Random, kind: str, strata: int, width: int) -> list[tuple[int, int]]:
    """One window of ``width`` consecutive band primes near the middle of each of ``strata`` slices."""
    primes = primes_between(7, SCAN_BANDS[kind])
    windows = []
    for s in range(strata):
        first = s * len(primes) // strata
        free = max(0, (s + 1) * len(primes) // strata - width - first)
        shift = round(WINDOW_JITTER * free)
        i = first + free // 2 + rng.randint(-shift, shift)
        windows.append((primes[i], primes[i + width - 1]))
    return windows


def _scan_invocations(rng, plan, scale) -> list[Invocation]:
    out = []
    for kind, strata, width in plan:
        for lo, hi in scan_windows(rng, kind, _scaled(strata, scale), _scaled(width, scale)):
            argv = ["scan", kind, "--from", str(lo), "--to", str(hi), "--format", "json"]
            out.append(Invocation(tuple(argv), ("scan", kind, lo, hi)))
    return out


class _Field:
    """F_q for q = p or p^2 in galim's integer coding (a0 + p*a1, x^2 = n)."""

    def __init__(self, p: int, r: int) -> None:
        self.p, self.r, self.q = p, r, p**r
        self.n = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)

    def add(self, a: int, b: int) -> int:
        p = self.p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    def mul(self, a: int, b: int) -> int:
        p = self.p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        return (a0 * b0 + self.n * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p)

    def neg(self, a: int) -> int:
        p = self.p
        return -a % p + p * (-(a // p) % p)

    def matmul(self, x, y):
        a, b, c, d = x
        e, f, g, h = y
        return (
            self.add(self.mul(a, e), self.mul(b, g)),
            self.add(self.mul(a, f), self.mul(b, h)),
            self.add(self.mul(c, e), self.mul(d, g)),
            self.add(self.mul(c, f), self.mul(d, h)),
        )


def conjugate_and_scale(rng: random.Random, p: int, r: int, gens) -> list[tuple[int, ...]]:
    """Generators h g h^-1, each times a random nonzero scalar."""
    field = _Field(p, r)
    while True:
        h = tuple(rng.randrange(field.q) for _ in range(4))
        det = field.add(field.mul(h[0], h[3]), field.neg(field.mul(h[1], h[2])))
        if det:
            break
    adj = (h[3], field.neg(h[1]), field.neg(h[2]), h[0])
    moved = []
    for g in gens:
        c = field.matmul(field.matmul(h, g), adj)
        s = rng.randrange(1, field.q)
        moved.append(tuple(field.mul(s, e) for e in c))
    return moved


def _dickson_invocation(rng, p, r, gens, order, label) -> Invocation:
    argv = ["dickson", "classify", "--field", f"{p},{r}" if r == 2 else str(p)]
    for g in conjugate_and_scale(rng, p, r, gens):
        argv += ["--gen", ",".join(map(str, g))]
    return Invocation(tuple(argv), ("dickson", order, label))


def _query_invocations(rng, pools, scale) -> list[Invocation]:
    out = []
    for pool, count in QUERY_COUNTS.items():
        keys = pools[pool]
        count = _scaled(count, scale)
        for s in range(count):
            key = rng.choice(keys[s * len(keys) // count : (s + 1) * len(keys) // count])
            out.append(Invocation(tuple(key.split()), ("digest", pool, key)))
    for p, gens, order, label in DICKSON_SMALL:
        out.append(_dickson_invocation(rng, p, 1, gens, order, label))
    for p in DICKSON_PSL_PRIMES[: _scaled(len(DICKSON_PSL_PRIMES), scale)]:
        gens = ((0, 1, p - 1, 0), (1, 1, 0, 1))
        out.append(_dickson_invocation(rng, p, 1, gens, p * (p * p - 1) // 2, f"large-PSL({p})"))
    rng.shuffle(out)
    # The F_49 closure holds the memory peak; sending it last keeps the
    # peak from depending on how many class groups the shuffle cached first.
    if scale >= 1:
        for gens, order, label in DICKSON_F49:
            out.append(_dickson_invocation(rng, 7, 2, gens, order, label))
    return out


def make_invocations(workload: str, seed: int, pools: dict, scale: float = 1.0) -> list[Invocation]:
    """The invocations of one run of ``workload``; the same seed gives the same list.

    ``pools`` is reference.json's ``query_rank``: each pool's candidates from
    cheapest to dearest.  ``scale`` shrinks every count for smoke tests.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "queries":
        return _query_invocations(rng, pools, scale)
    if workload not in SCAN_PLANS:
        raise ValueError(f"unknown workload {workload!r}")
    out = []
    if workload == "scan-bernoulli":
        lo, hi = IRREGULAR_MAX
        n = rng.randint(lo, hi) if scale >= 1 else lo // 8
        out.append(Invocation(("irregular", "--max", str(n), "--format", "json"), ("irregular", n)))
    return out + _scan_invocations(rng, SCAN_PLANS[workload], scale)
