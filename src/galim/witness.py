"""Per-prime witness constructions and the range scanner.

Three witness families, one per construction route:

  * borel_witness: irregular Bernoulli indices, one reducible-image witness
    per index, with the nebentypus exponent and the Jacobian dimension cap.
  * dihedral_lr_witness: the least prime ell = -1 mod p inert in Q(i),
    giving a level-64*ell witness whose size is tracked against p^5.5.
  * dihedral_hida_witness: class-group theta data at the discriminant -p
    with the nebentypus exponent (p-3)/2 and both dimension bounds.

``scan`` runs any of them (plus the gcd check and the class-number growth
ratio) over a prime range in one per-prime loop on Python ints, optionally
fanning out to worker processes.  The growth ratio reads class numbers that
``quadforms.class_numbers`` counts for a whole chunk in one pass.  Workers
get contiguous subranges, cut at exact integer bounds, and results are
merged in range order, so the output is byte-identical for every job count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from math import gcd, log

from . import arith, dims, quadforms
from .cyclotomic import CycloValue
from .inertia import _eta_exponents


class RegularPrimeError(ValueError):
    """No irregular index exists at this prime, so no witness does either."""


class TrivialClassGroupError(ValueError):
    """h(-p) = 1 leaves no nontrivial character to build a theta series on."""


@dataclass(frozen=True)
class BorelWitness:
    p: int
    irregular_indices: tuple[int, ...]
    nebentypus_exponents: tuple[int, ...]  # k - 2 for each index k
    dim_bound: int


def borel_witness(p: int) -> BorelWitness:
    """Witness from the irregular Bernoulli indices of p, if any."""
    if p < 7 or not arith.is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    indices = arith.irregular_indices(p)
    if not indices:
        raise RegularPrimeError(f"regular_prime: {p} divides no relevant Bernoulli numerator")
    idx = tuple(sorted(indices))
    return BorelWitness(p, idx, tuple(k - 2 for k in idx), dims.dim_J1_prime(p))


@dataclass(frozen=True)
class DihedralLRWitness:
    p: int
    ell: int
    cartan_type: str  # "split" | "nonsplit"
    level: int
    dim_bound: int
    linnik_ratio: float


def dihedral_lr_witness(p: int) -> DihedralLRWitness:
    """Least prime ell = -1 mod p with ell = 3 mod 4, plus level data.

    The scan walks the CRT class mod 4p; the cutoff p^5.5 mirrors the
    progression bound the construction leans on and is never reached in
    practice.
    """
    if p < 7 or not arith.is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    step = 4 * p
    ell = next(x for x in range(p - 1, p - 1 + step, p) if x % 4 == 3)
    cutoff = p**5.5
    while not arith.is_prime(ell):
        ell += step
        if ell > cutoff:
            raise RuntimeError(f"no admissible prime below {cutoff:.3g} for p={p}")
    cartan_type = "nonsplit" if p % 4 == 3 else "split"
    level = 64 * ell
    return DihedralLRWitness(
        p, ell, cartan_type, level, dims.dim_S2_new_Gamma0(level), ell / cutoff
    )


@dataclass(frozen=True)
class DihedralHidaWitness:
    p: int
    h: int
    h_nontrivial: bool
    h_prime_to_p: bool
    nebentypus_exponent: int  # (p - 3) / 2
    theta_head: tuple[CycloValue, ...]  # a_1 .. a_head
    dim_lower: int  # totient((p - 1) / 2)
    dim_upper: int  # (p - 5)(p - 7) / 24


def dihedral_hida_witness(p: int, head: int = 100) -> DihedralHidaWitness:
    """Theta-series witness at discriminant -p for the least nontrivial
    class character.  Needs p = 3 mod 4 and a nontrivial class group."""
    if p < 7 or not arith.is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    if p % 4 != 3:
        raise ValueError(f"need p = 3 mod 4, got {p}")
    h = quadforms.class_number(-p)
    if h == 1:
        raise TrivialClassGroupError(f"trivial_class_group: h(-{p}) = 1")
    char = quadforms.characters(-p)[1]
    theta = quadforms.theta_coefficients(-p, char, head)
    return DihedralHidaWitness(
        p,
        h,
        h_nontrivial=True,
        h_prime_to_p=gcd(h, p) == 1,
        nebentypus_exponent=(p - 3) // 2,
        theta_head=theta.coefficients[1:],
        dim_lower=arith.totient((p - 1) // 2),
        dim_upper=dims.dim_J1_prime(p),
    )


# ---------------------------------------------------------------------------
# Range scanning
# ---------------------------------------------------------------------------

SCAN_KINDS = ("borel", "lr", "hida", "eta", "brauer_siegel")


@dataclass(frozen=True)
class ScanReport:
    kind: str
    lo: int
    hi: int
    items: tuple
    skipped: dict[str, int]  # reason -> count
    aggregates: dict[str, object]


# private, so the per-layer trace, which wraps public names only, counts its
# time in scan
def _brauer_siegel_ratio(p: int, h: int) -> float:
    """log h / log sqrt(p), exactly 0.0 for h = 1."""
    return 0.0 if h == 1 else 2.0 * log(h) / log(p)


def _scan_chunk(kind: str, lo: int, hi: int) -> tuple[list, dict[str, int], int]:
    """One contiguous subrange, single process.  Returns (items, skipped,
    the number of primes in the subrange)."""
    items: list = []
    skipped: dict[str, int] = {}

    def skip(reason: str) -> None:
        skipped[reason] = skipped.get(reason, 0) + 1

    primes = arith.primes_in_range(lo, hi)
    if kind == "brauer_siegel":
        # one batched pass over the chunk's discriminants, every one of them
        # validated before any form is enumerated
        hs = quadforms.class_numbers(-p for p in primes if p >= 7 and p % 4 == 3)
    for p in primes:
        if p < 7:
            skip("below_domain")
            continue
        if kind == "eta":
            items.extend({"p": p, "j": j} for j in _eta_exponents(p, violations=True))
        elif kind == "borel":
            try:
                w = borel_witness(p)
            except RegularPrimeError:
                skip("regular_prime")
                continue
            items.append(w)
        elif kind == "lr":
            items.append(dihedral_lr_witness(p))
        elif kind == "hida":
            if p % 4 != 3:
                skip("not_3_mod_4")
                continue
            try:
                items.append(dihedral_hida_witness(p))
            except TrivialClassGroupError:
                skip("trivial_class_group")
        elif kind == "brauer_siegel":
            if p % 4 != 3:
                skip("not_3_mod_4")
                continue
            h = hs[-p]
            items.append({"p": p, "h": h, "ratio": _brauer_siegel_ratio(p, h)})
        else:
            raise ValueError(f"unknown scan kind {kind!r}")
    return items, skipped, len(primes)


def scan(kind: str, lo: int, hi: int, jobs: int = 1) -> ScanReport:
    """Run a witness family over all primes in [lo, hi], inclusive.

    jobs must be at least 1.  jobs > 1 splits the range into that many
    contiguous chunks, at most one per integer of the range, handled by at
    most os.cpu_count() worker processes and sent to them in at most one
    batch of consecutive chunks per worker; aggregation happens after the
    in-order merge, so the report never depends on the job count.
    """
    if kind not in SCAN_KINDS:
        raise ValueError(f"kind must be one of {SCAN_KINDS}, got {kind!r}")
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = min(jobs, hi - lo + 1)

    if jobs == 1:
        chunks = [_scan_chunk(kind, lo, hi)]
    else:
        # jobs <= hi - lo + 1, so every chunk holds at least one integer
        bounds = [lo + (hi + 1 - lo) * i // jobs for i in range(jobs + 1)]
        workers = min(jobs, os.cpu_count() or 1)
        # imported here so that serial runs never load the process pool
        from concurrent.futures import ProcessPoolExecutor

        # one batch of consecutive chunks per worker, not one task per chunk:
        # ten million jobs would otherwise cost a round trip per integer
        batch = -(-jobs // workers)
        ends = [b - 1 for b in bounds[1:]]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_scan_chunk, [kind] * jobs, bounds[:-1], ends, chunksize=batch))

    items: list = []
    skipped: dict[str, int] = {}
    primes = 0
    for chunk_items, chunk_skipped, chunk_primes in chunks:
        items.extend(chunk_items)
        primes += chunk_primes
        for reason, count in chunk_skipped.items():
            skipped[reason] = skipped.get(reason, 0) + count

    aggregates: dict[str, object] = {"count": len(items)}
    if kind == "borel":
        aggregates["irregular_primes"] = [w.p for w in items]
    elif kind == "lr":
        if items:
            worst = max(items, key=lambda w: w.linnik_ratio)
            aggregates["max_linnik_ratio"] = worst.linnik_ratio
            aggregates["max_linnik_ratio_at"] = worst.p
    elif kind == "hida":
        if items:
            aggregates["max_class_number"] = max(w.h for w in items)
    elif kind == "eta":
        aggregates["counterexamples"] = len(items)
        aggregates["scanned"] = primes - skipped.get("below_domain", 0)
    elif kind == "brauer_siegel":
        if items:
            aggregates["ratio_min"] = min(r["ratio"] for r in items)
            aggregates["ratio_max"] = max(r["ratio"] for r in items)
    return ScanReport(kind, lo, hi, tuple(items), skipped, aggregates)
