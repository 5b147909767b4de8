"""Exact integer arithmetic checked against slow, independent oracles."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim import arith, kernels
from oracles import bernoulli_exact, divisors, multiplicative_order

# Primes on both sides of the 2^16 trial-division cutoff: a product of two
# above it has no trial divisor and goes to Pollard-Brent.
_NEAR_CUTOFF = arith.primes_in_range((1 << 16) - 3000, (1 << 16) + 3000)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def naive_order(a: int, n: int) -> int:
    x = a % n
    k = 1
    while x != 1:
        x = x * a % n
        k += 1
    return k


def worpitzky_bernoulli(n: int) -> Fraction:
    # B_n = sum_k 1/(k+1) sum_j (-1)^j C(k,j) j^n, independent of the
    # recurrence the library uses
    total = Fraction(0)
    for k in range(n + 1):
        inner = sum((-1) ** j * math.comb(k, j) * j**n for j in range(k + 1))
        total += Fraction(inner, k + 1)
    return total


class TestPrimality:
    def test_small_range_matches_trial_division(self):
        for n in range(-3, 2000):
            assert arith.is_prime(n) == naive_is_prime(n), n

    def test_random_words_match_trial_division(self):
        rng = random.Random(20260814)
        for _ in range(300):
            n = rng.randrange(2, 10**6)
            assert arith.is_prime(n) == naive_is_prime(n), n

    def test_known_strong_pseudoprimes_are_composite(self):
        # classical Carmichael numbers and base-2 strong pseudoprimes
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585,
                  25326001, 3215031751, 3474749660383):
            assert not arith.is_prime(n), n

    def test_large_primes(self):
        for n in ((1 << 61) - 1, 2**62 - 57, 4611686018427387847):
            assert arith.is_prime(n), n

    def test_limit_guard(self):
        with pytest.raises(ValueError):
            arith.is_prime(1 << 62)


class TestKronecker:
    def test_odd_prime_matches_square_sets(self):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            squares = {x * x % p for x in range(1, p)}
            for a in range(p):
                expect = 0 if a == 0 else (1 if a in squares else -1)
                assert arith.kronecker(a, p) == expect, (a, p)

    def test_quadratic_reciprocity(self):
        odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        for p in odd_primes:
            for q in odd_primes:
                if p == q:
                    continue
                sign = (-1) ** ((p - 1) // 2 * ((q - 1) // 2))
                assert arith.kronecker(p, q) * arith.kronecker(q, p) == sign

    def test_multiplicative_in_both_arguments(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rng.randrange(-50, 50), rng.randrange(-50, 50)
            n = rng.randrange(1, 60)
            assert arith.kronecker(a * b, n) == arith.kronecker(a, n) * arith.kronecker(b, n)

    def test_even_and_unit_conventions(self):
        assert arith.kronecker(0, 1) == 1
        assert arith.kronecker(5, 1) == 1
        assert arith.kronecker(0, 2) == 0
        assert arith.kronecker(1, 2) == 1
        assert arith.kronecker(3, 2) == -1  # 3 = ±3 mod 8
        assert arith.kronecker(7, 2) == 1
        assert arith.kronecker(-1, -1) == -1
        with pytest.raises(ValueError):
            arith.kronecker(2, 0)

    def test_disc_mod_ell(self):
        # splitting of -23: 2 splits, 5 inert, 23 ramified
        assert arith.kronecker(-23, 2) == 1
        assert arith.kronecker(-23, 5) == -1
        assert arith.kronecker(-23, 23) == 0


class TestSieve:
    def test_primes_up_to(self):
        got = arith.primes_in_range(2, 200)
        want = [n for n in range(2, 201) if naive_is_prime(n)]
        assert got == want

    @settings(max_examples=200)
    @given(st.integers(-10, 5000), st.integers(-10, 5000))
    def test_windows_match_trial_division(self, lo, hi):
        got = arith.primes_in_range(lo, hi)
        assert got == [n for n in range(max(lo, 2), hi + 1) if naive_is_prime(n)]
        assert all(type(p) is int for p in got)

    # sqrt(hi) below 2^16, at it, and above it, where the sieving primes
    # come from a recursive call
    @pytest.mark.parametrize("lo", [400_000_000, (1 << 32) - 150, 10**10, 1 << 40])
    def test_windows_high_up_match_miller_rabin(self, lo):
        want = [n for n in range(lo, lo + 301) if arith.is_prime(n)]
        assert arith.primes_in_range(lo, lo + 300) == want

    def test_refuses_windows_reaching_2_48(self):
        with pytest.raises(ValueError, match="hi < 2\\^48"):
            arith.primes_in_range((1 << 48) - 10, 1 << 48)
        with pytest.raises(ValueError, match="hi < 2\\^48"):
            arith.primes_in_range(2, 1 << 60)

    def test_primes_in_range_inclusive(self):
        assert arith.primes_in_range(10, 30) == [11, 13, 17, 19, 23, 29]
        assert arith.primes_in_range(23, 23) == [23]
        assert arith.primes_in_range(24, 28) == []
        assert arith.primes_in_range(-5, 2) == [2]


class TestFactorization:
    def test_small_numbers(self):
        for n in range(2, 1500):
            fac = arith.factorize(n)
            assert math.prod(q**e for q, e in fac.items()) == n
            assert all(naive_is_prime(q) for q in fac)

    def test_random_semiprimes(self):
        rng = random.Random(99)
        small_primes = [p for p in range(10**4, 10**4 + 500) if naive_is_prime(p)]
        for _ in range(40):
            a, b = rng.choice(small_primes), rng.choice(small_primes)
            fac = arith.factorize(a * b)
            assert fac == ({a: 2} if a == b else {a: 1, b: 1})

    @settings(max_examples=300)
    @given(
        st.integers(1, 10**12)
        | st.builds(
            lambda a, b: a * b, st.sampled_from(_NEAR_CUTOFF), st.sampled_from(_NEAR_CUTOFF)
        )
    )
    @example(65537 * 65539)
    @example(65521 * 65537)
    def test_factorization_properties(self, n):
        fac = arith.factorize(n)
        assert math.prod(q**e for q, e in fac.items()) == n
        assert all(arith.is_prime(q) for q in fac)
        assert list(fac) == sorted(fac)
        assert all(e >= 1 for e in fac.values())

    def test_independent_of_sieve_growth(self, monkeypatch):
        # windows sieved high up, before and after the trial primes are
        # rebuilt, change no factorization
        rng = random.Random(17)
        ns = [rng.randrange(1, 10**12) for _ in range(200)] + [65537 * 65539]
        before = [arith.factorize(n) for n in ns]
        arith.primes_in_range(10**10, 10**10 + 1000)
        monkeypatch.setattr(arith, "_trial_primes", [])
        arith.primes_in_range(10**6, 10**6 + 1000)
        assert [arith.factorize(n) for n in ns] == before
        want = [n for n in range(2, 1 << 16) if arith.is_prime(n)]
        assert arith._trial_primes == arith.primes_in_range(2, 1 << 16) == want

    def test_trial_primes_built_once(self, monkeypatch):
        calls = []
        window = arith._window

        def counting(lo, hi, base):
            calls.append((lo, hi))
            return window(lo, hi, base)

        monkeypatch.setattr(arith, "_window", counting)
        monkeypatch.setattr(arith, "_trial_primes", [])
        arith.factorize(2)
        assert calls == [(2, 4), (2, 16), (2, 256), (2, 1 << 16)]
        calls.clear()
        for n in range(1, 1001):
            arith.factorize(n)
        assert calls == []

    def test_no_primality_test_below_2_32(self, monkeypatch):
        # a cofactor left by trial division below 2^32 is 1 or prime, so it
        # is recorded without Miller-Rabin; only larger ones are tested
        calls = []
        mr = arith.is_prime

        def counting(n):
            calls.append(n)
            return mr(n)

        monkeypatch.setattr(arith, "is_prime", counting)
        rng = random.Random(23)
        sample = list(range(1, 3000)) + [rng.randrange(1, 1 << 32) for _ in range(300)]
        sample += [4294967291, (1 << 32) - 1, 65521**2, 65521 * 65519]
        for n in sample:
            fac = arith.factorize(n)
            assert math.prod(q**e for q, e in fac.items()) == n
            assert list(fac) == sorted(fac)
            assert all(mr(q) for q in fac), n
        # every trial prime divides in turn, and the cofactor 65537 is left
        assert arith.factorize(65521 * 65537) == {65521: 1, 65537: 1}
        assert calls == []
        assert arith.factorize(65537 * 65539) == {65537: 1, 65539: 1}
        assert arith.factorize(65537**2) == {65537: 2}
        assert calls

    def test_divisors(self):
        for n in (1, 12, 28, 97, 360, 1024):
            want = [d for d in range(1, n + 1) if n % d == 0]
            assert divisors(n) == want

    def test_totient(self):
        for n in range(1, 300):
            assert arith.totient(n) == naive_totient(n), n

    def test_multiplicative_order(self):
        rng = random.Random(5)
        for _ in range(150):
            n = rng.randrange(2, 400)
            a = rng.randrange(1, n)
            if math.gcd(a, n) != 1:
                continue
            assert multiplicative_order(a, n) == naive_order(a, n), (a, n)


class TestBernoulli:
    def test_exact_against_worpitzky(self):
        for n in range(0, 30):
            assert bernoulli_exact(n) == worpitzky_bernoulli(n), n

    def test_classical_values(self):
        assert bernoulli_exact(0) == 1
        assert bernoulli_exact(1) == Fraction(-1, 2)
        assert bernoulli_exact(2) == Fraction(1, 6)
        assert bernoulli_exact(12) == Fraction(-691, 2730)
        assert bernoulli_exact(3) == 0 and bernoulli_exact(13) == 0

    def test_table_object(self):
        table = kernels.bernoulli_table_mod(37)
        assert table.shape == (35,)
        assert table[32] == 0  # the irregular index of 37
        assert arith.irregular_indices(37) == (32,)
        with pytest.raises(ValueError):
            arith.irregular_indices(9)

    def test_irregular_indices_known(self):
        assert arith.irregular_indices(37) == (32,)
        assert arith.irregular_indices(59) == (44,)
        assert arith.irregular_indices(67) == (58,)
        assert arith.irregular_indices(157) == (62, 110)
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 41, 43, 47):
            assert arith.irregular_indices(p) == ()

    def test_table_proves_its_prime_once(self, monkeypatch):
        # the kernel's Miller-Rabin is the one primality test on this path
        calls = []
        mr = arith.is_prime
        monkeypatch.setattr(arith, "is_prime", lambda n: calls.append(n) or mr(n))
        assert kernels.bernoulli_table_mod(1009).shape == (1007,)
        assert arith.irregular_indices(1009) == ()
        assert calls == [1009, 1009]
        for n in (3, 4, 9, 1 << 31):
            with pytest.raises(ValueError, match="mod-p Bernoulli table needs"):
                arith.irregular_indices(n)


class TestSqrtMod:
    def test_roots_square_back(self):
        rng = random.Random(11)
        for p in (7, 11, 13, 17, 101, 103, 1009, 10007):
            for _ in range(25):
                a = rng.randrange(0, p)
                r = arith.sqrt_mod(a, p)
                if arith.kronecker(a, p) == -1:
                    assert r is None
                else:
                    assert r is not None and r * r % p == a % p
                    assert r <= p - r  # least root

    def test_zero(self):
        assert arith.sqrt_mod(0, 13) == 0
        assert arith.sqrt_mod(13, 13) == 0


class TestTotientLiminf:
    def test_report_rows(self):
        rep = arith.totient_liminf_report(10)
        assert [row.k for row in rep.rows] == list(range(3, 11))
        for row in rep.rows:
            # recompute the primorial and both columns independently
            ps = [p for p in range(2, 200) if naive_is_prime(p)][: row.k]
            n = math.prod(ps)
            assert row.primorial == n
            assert row.totient == math.prod(p - 1 for p in ps)
            assert row.ratio == pytest.approx(
                row.totient / n * math.log(math.log(n)), rel=1e-12
            )
        assert rep.liminf == pytest.approx(math.exp(-0.5772156649015329), abs=1e-9)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            arith.totient_liminf_report(2)
        with pytest.raises(ValueError):
            arith.totient_liminf_report(26)

    def test_ratios_climb_from_below(self):
        rep = arith.totient_liminf_report(20)
        ratios = {row.k: row.ratio for row in rep.rows}
        assert ratios[20] > ratios[10]
        assert all(r < rep.liminf for r in ratios.values())


def test_internal_inconsistency_is_runtime_error():
    assert issubclass(arith.InternalInconsistencyError, RuntimeError)
