"""Modular curve genus formulas and cusp-form dimension bookkeeping,
pinned against published genus tables."""

from math import gcd

import pytest

from galim import arith, dims
from galim.arith import factorize, primes_in_range, totient
from oracles import divisors

# g(X0(N)) for N = 1..50, standard tables
GENUS_X0 = [
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0,   # 1..10
    1, 0, 0, 1, 1, 0, 1, 0, 1, 1,   # 11..20
    1, 2, 2, 1, 0, 2, 1, 2, 2, 3,   # 21..30
    2, 1, 3, 3, 3, 1, 2, 4, 3, 3,   # 31..40
    3, 5, 3, 4, 3, 5, 4, 3, 1, 2,   # 41..50
]

# g(X1(N)) for the primes where the quarter-integer formula applies
GENUS_X1_PRIME = {5: 0, 7: 0, 11: 1, 13: 2, 17: 5, 19: 7, 23: 12,
                  29: 22, 31: 26, 37: 40, 41: 51, 43: 57, 47: 70}


def nu_inf_oracle(n):
    """Cusps of X_0(N): phi(gcd(d, N/d)) summed over every divisor d."""
    return sum(totient(gcd(d, n // d)) for d in divisors(n))


def cusps_x1_oracle(n):
    """Twice the cusp count of X_1(N): phi(d) phi(N/d) summed over every divisor d."""
    return sum(totient(d) * totient(n // d) for d in divisors(n))


def dim_new_oracle(n):
    """Newform dimension by inverting over every divisor m, with the weight
    of N/m read from its own factorization."""
    total = 0
    for m in divisors(n):
        beta = 1
        for _, e in factorize(n // m).items():
            beta *= (1, -2, 1, 0)[min(e, 3)]
        total += beta * dims.genus_X0(m).genus
    return total


class TestDivisorSums:
    """The per-prime-power products against the divisor sums they replace."""

    def test_cusp_counts_match_divisor_sums(self):
        for n in range(1, 2001):
            assert dims.genus_X0(n).nu_inf == nu_inf_oracle(n), n
        # genus_X1's cusp sum enters its genus as cusps/4
        for n in range(5, 2001):
            index2 = n * n
            for q in factorize(n):
                index2 = index2 // (q * q) * (q * q - 1)
            assert 24 * (dims.genus_X1(n) - 1) == index2 - 6 * cusps_x1_oracle(n), n

    def test_new_dimensions_match_divisor_inversion(self):
        for n in range(1, 2001):
            assert dims.dim_S2_new_Gamma0(n) == dim_new_oracle(n), n

    def test_factors_no_divisor_twice(self, monkeypatch):
        # arith's totient looks factorize up in arith itself
        calls = []
        factorize = arith.factorize

        def recorded(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(arith, "factorize", recorded)
        monkeypatch.setattr(dims, "factorize", recorded)
        # N/m runs over the divisors of N with no exponent above 2:
        # 3 * 3 * 3 of 1800 = 2^3 3^2 5^2, 3 of 2048 and 2 * 2 of 2047 = 23 * 89
        for n, weighted in ((1800, 27), (2048, 3), (2047, 4)):
            dims.genus_X0.cache_clear()
            calls.clear()
            dims.dim_S2_new_Gamma0(n)
            # the level, then each genus_X0(m) factors its own m
            assert len(calls) == 1 + weighted, n
            assert sorted(set(calls)) == sorted(calls[1:]), n
        for n in (1800, 2048, 2047):
            calls.clear()
            dims.genus_X1(n)
            assert calls == [n]


class TestGenusX0:
    def test_table_1_to_50(self):
        for n, want in enumerate(GENUS_X0, start=1):
            assert dims.genus_X0(n).genus == want, n

    def test_large_levels(self):
        assert dims.genus_X0(389).genus == 32
        assert dims.genus_X0(997).genus == 82

    def test_prime_power_level(self):
        # N = 2^11: cusps sum phi(2^min(j, 11-j)) = 64, both torsion
        # counts vanish, so g = 1 + 3072/12 - 64/2 = 225
        g = dims.genus_X0(2048)
        assert (g.index, g.nu2, g.nu3, g.nu_inf, g.genus) == (3072, 0, 0, 64, 225)

    def test_index_components_level_22(self):
        g = dims.genus_X0(22)
        assert g.index == 36
        assert g.nu2 == 0  # -1 is not a square mod 11
        assert g.nu3 == 0
        assert g.nu_inf == 4
        assert g.genus == 2

    def test_prime_level_components(self):
        for p in primes_in_range(5, 60):
            g = dims.genus_X0(p)
            assert g.index == p + 1
            assert g.nu_inf == 2
            # nu2 = 1 + (-1|p), nu3 = 1 + (-3|p)
            assert g.nu2 in (0, 2) and g.nu3 in (0, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dims.genus_X0(0)


class TestNewformDimensions:
    def test_known_values(self):
        assert dims.dim_S2_new_Gamma0(11) == 1
        assert dims.dim_S2_new_Gamma0(22) == 0
        assert dims.dim_S2_new_Gamma0(23) == 2
        assert dims.dim_S2_new_Gamma0(37) == 2
        assert dims.dim_S2_new_Gamma0(389) == 32

    def test_old_new_decomposition(self):
        # dim S2(Gamma0(N)) = sum over d | N of sigma0(N/d) * dim_new(d)
        for n in range(1, 400):
            total = sum(
                len(divisors(n // d)) * dims.dim_S2_new_Gamma0(d) for d in divisors(n)
            )
            assert total == dims.genus_X0(n).genus, n

    def test_prime_levels_all_new(self):
        for p in primes_in_range(2, 200):
            assert dims.dim_S2_new_Gamma0(p) == dims.genus_X0(p).genus


class TestGenusX1:
    def test_prime_table(self):
        for p, want in GENUS_X1_PRIME.items():
            assert dims.genus_X1(p) == want, p

    def test_composite_levels(self):
        assert dims.genus_X1(16) == 2
        assert dims.genus_X1(24) == 5
        assert dims.genus_X1(25) == 12

    def test_rejects_small_levels(self):
        for n in (1, 2, 3, 4):
            with pytest.raises(ValueError):
                dims.genus_X1(n)


class TestJ1Dimension:
    def test_closed_form(self):
        for p in primes_in_range(5, 500):
            assert dims.dim_J1_prime(p) == (p - 5) * (p - 7) // 24

    def test_equals_genus(self):
        for p in (5, 7, 11, 23, 101):
            assert dims.dim_J1_prime(p) == dims.genus_X1(p)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            dims.dim_J1_prime(9)
        with pytest.raises(ValueError):
            dims.dim_J1_prime(3)
