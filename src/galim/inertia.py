"""Inertia-order calculus for ruling exceptional projective images in or out.

The driving fact: a projective image inside A4, S4 or A5 contains no cyclic
subgroup of order > 5, so any tame inertia character whose projective order
exceeds 5 kills the exceptional case on the spot.  The functions here
compute those orders for powers of the two tame fundamental characters,
evaluate the closed-form prime bounds, and run the finite gcd check that
pins the supersingular dimension bound.  That check tests, per prime, only
the O(1) closed-form exponents whose tame order is at most 5; ``eta_gcd_check``,
``eta_candidates`` and the eta kind of ``witness.scan`` share one private
helper for them, and the full j-scan it replaces is kept in the tests as
its oracle.

Orders are exact integers throughout; the only string-valued order is the
">= p" marker for the wildly ramified shape, where inertia is forced to
contain the full p-part.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import InternalInconsistencyError, is_prime, totient


def proj_order_level1(p: int, a: int) -> int:
    """Projective order of the a-th power of the order-(p-1) tame character."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 0:
        raise ValueError(f"exponent must be >= 0, got {a}")
    return (p - 1) // gcd(a, p - 1)


def proj_order_level2(p: int, a: int) -> int:
    """Projective order of diag(psi^a, psi^(p*a)) for the order-(p^2-1)
    character psi; the p-power twist cancels projectively, leaving
    (p+1)/gcd(a, p+1)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a < 0:
        raise ValueError(f"exponent must be >= 0, got {a}")
    return (p + 1) // gcd(a, p + 1)


@dataclass(frozen=True)
class IndexBound:
    """Coarse power-of-three bound and the exact worst single-factor value."""

    coarse: int
    refined: int


def semistable_index_bound(d: int) -> IndexBound:
    """Bound 3^(4d) on the index forced by semistability in dimension d,
    with the refined single-field value |GL_2(F_{3^d})| for reporting."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    t = 3**d
    return IndexBound(coarse=3 ** (4 * d), refined=(t * t - 1) * (t * t - t))


def exceptional_prime_bound(d: int) -> int:
    """Primes above 5 * 3^(4d) never have exceptional projective image."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return 5 * 3 ** (4 * d)


def serre_ec_bound(degree: int) -> int:
    """Elliptic-curve comparison bound 60*degree + 1 over a degree-d field."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return 60 * degree + 1


@dataclass(frozen=True)
class ExceptionalVerdict:
    """Outcome of one local shape analysis.

    proj_inertia_order is an exact integer except for the wild shape, which
    reports the string ">= p".  dimension_lower_bound is only set when the
    shape analysis yields one.  reason is a stable enumeration token.
    """

    exceptional_possible: bool
    proj_inertia_order: int | str
    dimension_lower_bound: int | None
    reason: str

    def __post_init__(self) -> None:
        if isinstance(self.proj_inertia_order, int) and self.proj_inertia_order > 5:
            if self.exceptional_possible:
                raise InternalInconsistencyError(
                    f"order {self.proj_inertia_order} > 5 cannot admit exceptional image"
                )


_WEIGHT2_CASES = ("ord", "st", "ss")


def classify_weight2_local(p: int, j: int, vcase: str) -> ExceptionalVerdict:
    """Full weight-2 local decision for nebentypus exponent j.

    vcase picks the slope regime of a_p: "ord" (unit), "st" (valuation 1,
    the Steinberg shape) or "ss" (fractional slope, supersingular).
    """
    if p < 7 or not is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    if not 0 <= j <= p - 2:
        raise ValueError(f"nebentypus exponent must lie in [0, {p - 2}], got {j}")
    if vcase not in _WEIGHT2_CASES:
        raise ValueError(f"vcase must be one of {_WEIGHT2_CASES}, got {vcase!r}")

    if vcase == "ord":
        if j == 0:
            return ExceptionalVerdict(False, p - 1, None, "steinberg_or_ordinary_full_order")
        t = proj_order_level1(p, j + 1)
        if t > 5:
            return ExceptionalVerdict(False, t, None, "tame_order_exceeds_5")
        return ExceptionalVerdict(True, t, totient(proj_order_level1(p, j)), "dimension_bound")

    if vcase == "st":
        # gcd(-1, p-1) = 1, so j = 0 lands on full order p-1 as it must
        t = proj_order_level1(p, j - 1) if j >= 1 else p - 1
        if t > 5:
            return ExceptionalVerdict(False, t, None, "tame_order_exceeds_5")
        return ExceptionalVerdict(True, t, totient(proj_order_level1(p, j)), "dimension_bound")

    t = proj_order_level2(p, j + 1)
    if t > 5:
        return ExceptionalVerdict(False, t, None, "tame_order_exceeds_5")
    if 2 * (j + 1) == p + 1:
        return ExceptionalVerdict(False, t, None, "artin_excluded")
    g = gcd(j, p - 1)
    if g > 3:
        raise InternalInconsistencyError(
            f"supersingular shape at (p={p}, j={j}) has gcd {g} > 3"
        )
    return ExceptionalVerdict(True, t, totient((p - 1) // g), "dimension_bound")


_SEMISTABLE_CASES = ("i", "ii", "iii", "iv")


def semistable_case_verdict(
    p: int, case: str, a: int | None = None
) -> ExceptionalVerdict:
    """Verdict for the four semistable local shapes.

    Case "i" (etale) carries a totient dimension bound and no order
    constraint; "ii"/"iii" are the level-1/level-2 character lines and need
    the exponent a; "iv" forces the p-part into inertia.
    """
    if p < 7 or not is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    if case not in _SEMISTABLE_CASES:
        raise ValueError(f"case must be one of {_SEMISTABLE_CASES}, got {case!r}")
    if case == "i":
        return ExceptionalVerdict(True, 1, totient(p - 1), "totient_dimension_bound")
    if case == "iv":
        return ExceptionalVerdict(False, ">= p", None, "p_part_forced")
    if a is None or a < 1:
        raise ValueError(f"case {case!r} needs a character exponent a >= 1")
    t = proj_order_level1(p, a) if case == "ii" else proj_order_level2(p, a)
    if t > 5:
        return ExceptionalVerdict(False, t, None, "tame_order_exceeds_5")
    return ExceptionalVerdict(True, t, None, "order_admits_exceptional")


def case_i_cutoff(d: int) -> int:
    """Least prime p with totient(p-1) > d: above it, the etale shape forces
    a field of definition too large for dimension d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    p = 2
    while True:
        if is_prime(p) and totient(p - 1) > d:
            return p
        p += 1


# private, so the per-layer trace, which wraps public names only, counts its
# time in its callers
def _eta_exponents(p: int, violations: bool = False) -> list[int]:
    """Sorted j in [1, p-2] whose projective tame order (p+1)/gcd(j+1, p+1)
    is at most 5, excluding the midpoint j+1 = (p+1)/2; with violations,
    only those with gcd(j, p-1) > 3.  Needs p >= 7, not that p is prime.

    That order is n exactly when j+1 = m(p+1)/n with gcd(m, n) = 1 and
    n | p+1; n = 1 needs j+1 = p+1, out of range, and n = 2 is the midpoint.
    For p >= 7 every such j+1 lies in [2, p-1].
    """
    if p < 7:
        raise ValueError(f"eta exponents need p >= 7, got {p}")
    out = []
    for n in (3, 4, 5):
        if (p + 1) % n:
            continue
        out.extend(m * (p + 1) // n - 1 for m in range(1, n) if gcd(m, n) == 1)
    return sorted(j for j in out if not violations or gcd(j, p - 1) > 3)


def eta_gcd_check(p: int) -> list[int]:
    """Exponents j in [1, p-2] violating the gcd <= 3 law (expected none).

    Checks every j whose supersingular tame order is <= 5, skipping the
    midpoint exponent, and returns those with gcd(j, p-1) > 3.
    """
    if p < 7 or not is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    return _eta_exponents(p, violations=True)


def eta_candidates(p: int) -> list[int]:
    """The j set that eta_gcd_check tests, in closed form.

    Admissible exponents satisfy j + 1 = m(p+1)/n with 1 <= m < n <= 5,
    gcd(m, n) = 1 and n | p+1, excluding the midpoint j + 1 = (p+1)/2.
    This is the library's only route to the set; the independent route is
    the full j-scan oracle in the tests.
    """
    if p < 7 or not is_prime(p):
        raise ValueError(f"need a prime p >= 7, got {p}")
    return _eta_exponents(p)
