"""Tame inertia orders, index bounds, and the local exceptional-image
verdicts, with honest group-theoretic oracles for the order formulas, and
the closed-form eta check against a full j-scan."""

import math

import numpy as np
import pytest

from galim import inertia
from galim.arith import InternalInconsistencyError, primes_in_range, totient
from galim.dickson import GFq


def primitive_root(p: int) -> int:
    for g in range(2, p):
        x, seen = 1, set()
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    raise AssertionError


def gf_order(f: GFq, a: int) -> int:
    x = a
    k = 1
    while x != 1:
        x = f.mul(x, a)
        k += 1
    return k


class TestProjectiveOrders:
    def test_level1_against_cyclic_group(self):
        # (p-1)/gcd(a, p-1) must be the order of g^a for a generator g
        for p in (7, 11, 13, 23, 41):
            g = primitive_root(p)
            for a in range(0, 2 * p):
                want = 1 if a % (p - 1) == 0 else gf_order(GFq(p), pow(g, a, p))
                # gf_order on prime-field codes is plain multiplicative order
                assert inertia.proj_order_level1(p, a) == want, (p, a)

    def test_level2_against_norm_one_subgroup(self):
        # the degree-2 field has cyclic unit group of order p^2 - 1; the
        # (p-1)-th power of a generator has order p+1, and level-2 tame
        # orders are orders of its powers
        for p in (7, 11, 13):
            f = GFq(p, 2)
            gen = next(
                a for a in range(p, f.q) if gf_order(f, a) == f.q - 1
            )
            u = 1
            for _ in range(p - 1):
                u = f.mul(u, gen)
            assert gf_order(f, u) == p + 1
            for a in range(0, 2 * (p + 1)):
                x = 1
                for _ in range(a):
                    x = f.mul(x, u)
                want = 1 if x == 1 else gf_order(f, x)
                assert inertia.proj_order_level2(p, a) == want, (p, a)

    def test_gcd_closed_forms(self):
        assert inertia.proj_order_level1(13, 4) == 3
        assert inertia.proj_order_level1(13, 0) == 1
        assert inertia.proj_order_level2(13, 7) == 2
        assert inertia.proj_order_level2(7, 3) == 8

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            inertia.proj_order_level1(15, 2)


class TestBounds:
    def test_semistable_index_bound(self):
        b = inertia.semistable_index_bound(1)
        assert b.coarse == 81
        assert b.refined == (3**2 - 1) * (3**2 - 3)  # |GL2(F3)| = 48
        b = inertia.semistable_index_bound(2)
        assert b.coarse == 3**8
        assert b.refined == (3**4 - 1) * (3**4 - 3**2)

    def test_exceptional_prime_bound(self):
        for d in range(1, 30):
            assert inertia.exceptional_prime_bound(d) == 5 * 3 ** (4 * d)
            assert inertia.exceptional_prime_bound(d) == 5 * inertia.semistable_index_bound(d).coarse

    def test_serre_comparison(self):
        assert inertia.serre_ec_bound(1) == 61
        assert inertia.serre_ec_bound(10) == 601

    def test_domain_guards(self):
        for fn in (inertia.semistable_index_bound, inertia.exceptional_prime_bound,
                   inertia.serre_ec_bound, inertia.case_i_cutoff):
            with pytest.raises(ValueError):
                fn(0)


class TestWeight2Verdicts:
    def test_ordinary_trivial_nebentypus(self):
        v = inertia.classify_weight2_local(11, 0, "ord")
        assert not v.exceptional_possible
        assert v.proj_inertia_order == 10
        assert v.reason == "steinberg_or_ordinary_full_order"

    def test_ordinary_small_order(self):
        # p = 11, j = 5: order of the (j+1)-th power is 10/gcd(6,10) = 5
        v = inertia.classify_weight2_local(11, 5, "ord")
        assert v.exceptional_possible
        assert v.proj_inertia_order == 5
        assert v.dimension_lower_bound == totient(10 // math.gcd(5, 10))
        assert v.reason == "dimension_bound"

    def test_ordinary_large_order(self):
        # p = 13, j = 1: order 12/gcd(2,12) = 6 exceeds the order-5 ceiling
        v = inertia.classify_weight2_local(13, 1, "ord")
        assert not v.exceptional_possible
        assert v.proj_inertia_order == 6
        assert v.reason == "tame_order_exceeds_5"
        assert v.dimension_lower_bound is None

    def test_steinberg(self):
        v = inertia.classify_weight2_local(11, 0, "st")
        assert not v.exceptional_possible and v.proj_inertia_order == 10
        v = inertia.classify_weight2_local(11, 3, "st")
        assert v.proj_inertia_order == 5
        assert v.exceptional_possible
        v = inertia.classify_weight2_local(11, 1, "st")
        assert v.exceptional_possible and v.proj_inertia_order == 1

    def test_supersingular_artin_exclusion(self):
        # 2(j+1) = p+1 has tame order exactly 2 but is excluded outright
        v = inertia.classify_weight2_local(11, 5, "ss")
        assert not v.exceptional_possible
        assert v.proj_inertia_order == 2
        assert v.reason == "artin_excluded"

    def test_supersingular_possible(self):
        v = inertia.classify_weight2_local(11, 3, "ss")
        assert v.exceptional_possible
        assert v.proj_inertia_order == 3  # 12/gcd(4,12)
        assert v.dimension_lower_bound == totient(10 // math.gcd(3, 10))

    def test_supersingular_large_order(self):
        v = inertia.classify_weight2_local(11, 1, "ss")
        assert not v.exceptional_possible
        assert v.proj_inertia_order == 6
        assert v.reason == "tame_order_exceeds_5"

    def test_never_exceptional_with_large_order(self):
        for p in primes_in_range(7, 60):
            for vcase in ("ord", "st", "ss"):
                for j in range(p - 1):
                    v = inertia.classify_weight2_local(p, j, vcase)
                    if isinstance(v.proj_inertia_order, int) and v.proj_inertia_order > 5:
                        assert not v.exceptional_possible, (p, j, vcase)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            inertia.classify_weight2_local(5, 0, "ord")
        with pytest.raises(ValueError):
            inertia.classify_weight2_local(11, 10, "ord")
        with pytest.raises(ValueError):
            inertia.classify_weight2_local(11, 0, "crystalline")


class TestSemistableVerdicts:
    def test_case_i(self):
        v = inertia.semistable_case_verdict(23, "i")
        assert v.exceptional_possible
        assert v.proj_inertia_order == 1
        assert v.dimension_lower_bound == totient(22) == 10
        assert v.reason == "totient_dimension_bound"

    def test_case_ii_and_iii(self):
        v = inertia.semistable_case_verdict(11, "ii", a=2)
        assert v.proj_inertia_order == 5 and v.exceptional_possible
        v = inertia.semistable_case_verdict(11, "ii", a=1)
        assert v.proj_inertia_order == 10 and not v.exceptional_possible
        v = inertia.semistable_case_verdict(11, "iii", a=4)
        assert v.proj_inertia_order == 3 and v.exceptional_possible
        v = inertia.semistable_case_verdict(11, "iii", a=1)
        assert v.proj_inertia_order == 12 and not v.exceptional_possible

    def test_case_iv(self):
        v = inertia.semistable_case_verdict(11, "iv")
        assert not v.exceptional_possible
        assert v.proj_inertia_order == ">= p"
        assert v.reason == "p_part_forced"

    def test_missing_exponent_rejected(self):
        with pytest.raises(ValueError):
            inertia.semistable_case_verdict(11, "ii")
        with pytest.raises(ValueError):
            inertia.semistable_case_verdict(11, "v")

    def test_verdict_guard(self):
        with pytest.raises(InternalInconsistencyError):
            inertia.ExceptionalVerdict(True, 7, None, "impossible")


class TestCaseICutoff:
    def test_known_values(self):
        assert inertia.case_i_cutoff(1) == 5
        assert inertia.case_i_cutoff(2) == 11
        assert inertia.case_i_cutoff(4) == 17
        assert inertia.case_i_cutoff(10) == 29

    def test_cutoff_is_least(self):
        for d in (1, 2, 3, 4, 7, 10, 25):
            p = inertia.case_i_cutoff(d)
            assert totient(p - 1) > d
            for smaller in primes_in_range(2, p - 1):
                assert totient(smaller - 1) <= d, (d, smaller)


class TestEtaRoutes:
    def test_no_counterexamples(self):
        for p in primes_in_range(7, 500):
            assert inertia.eta_gcd_check(p) == []

    def test_candidate_sets_match_scan_domain(self):
        assert inertia.eta_candidates(11) == [2, 3, 7, 8]
        assert inertia.eta_candidates(101) == [33, 67]
        assert inertia.eta_candidates(7) == [1, 5]

    def test_candidates_have_small_tame_order(self):
        for p in primes_in_range(7, 300):
            for j in inertia.eta_candidates(p):
                t = inertia.proj_order_level2(p, j + 1)
                assert 2 <= t <= 5 and 2 * (j + 1) != p + 1, (p, j)
                assert math.gcd(j, p - 1) <= 3

    def test_candidates_are_complete(self):
        # brute force the defining conditions and compare
        for p in primes_in_range(7, 300):
            want = [
                j
                for j in range(1, p - 1)
                if inertia.proj_order_level2(p, j + 1) <= 5 and 2 * (j + 1) != p + 1
            ]
            assert inertia.eta_candidates(p) == want, p

    def test_rejects_bad_primes(self):
        with pytest.raises(ValueError):
            inertia.eta_gcd_check(5)
        with pytest.raises(ValueError):
            inertia.eta_candidates(9)


def _eta_scan_oracle(primes):
    """Every j in [1, p-2] tested against the defining conditions."""
    hits = []
    for p in primes:
        j = np.arange(1, p - 1, dtype=np.int64)
        g = np.gcd(j + 1, p + 1)
        mask = ((p + 1) // g <= 5) & (j + 1 != (p + 1) // 2)
        if mask.any():
            jj = j[mask]
            bad = jj[np.gcd(jj, p - 1) > 3]
            for b in bad.tolist():
                hits.append((p, b))
    return hits


def eta_scan(numbers):
    """The library's per-prime eta check over a list, as (p, j) pairs."""
    return [(p, j) for p in numbers for j in inertia._eta_exponents(p, violations=True)]


class TestEtaKernel:
    """The closed-form exponents and gcd filter that eta_gcd_check,
    eta_candidates and the eta scan share, against the full j-scan."""

    def test_matches_full_scan_on_primes(self):
        primes = primes_in_range(7, 3000)
        assert eta_scan(primes) == _eta_scan_oracle(primes)

    def test_empty_on_small_primes(self):
        primes = primes_in_range(7, 500)
        hits = eta_scan(primes)
        assert hits == []

    def test_empty_even_for_composite_inputs(self):
        # p = n(j+1) - 1 with n in {3,4,5} forces gcd(j, p-1) = gcd(j, n-2)
        # to be at most 3, and the quotient-2 case is the excluded
        # midpoint, so emptiness holds for every odd p of this shape, prime
        # or not; a composite-rich range has more divisors of p+1 than
        # primes do, so it is also checked against the full scan
        fake = list(range(9, 600, 2))
        hits = eta_scan(fake)
        assert hits == []
        assert hits == _eta_scan_oracle(fake)

    def test_rejects_small_primes(self):
        with pytest.raises(ValueError):
            eta_scan([5, 7])
