"""Kernel checks against independent routes: exact rational Bernoulli numbers
and the O(p^2) Pascal-row convolution for the Newton-inversion table, a
schoolbook product for its Kronecker multiply, a full j-scan oracle for the
closed-form eta check, and known group orders for the projective closure."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim import arith, dickson, kernels


def _bernoulli_table_oracle(p):
    """B_k mod p, k = 0..p-3, from the defining convolution
    sum_{j<=k} C(k+1, j) B_j = 0 run entirely mod p; row holds the Pascal
    row C(n, .)."""
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


def _schoolbook_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


class TestBernoulliKernel:
    def test_against_exact(self):
        for p in (5, 13, 37):
            table = kernels.bernoulli_table_mod(p)
            assert table.shape == (p - 2,)
            for k in range(p - 2):
                b = arith.bernoulli_exact(k)
                want = b.numerator * pow(b.denominator, -1, p) % p
                assert int(table[k]) == want, (p, k)

    @settings(max_examples=100)
    @given(st.sampled_from(arith.primes_in_range(5, 2999)))
    @example(5)
    @example(7)
    @example(11)
    def test_matches_convolution_oracle(self, p):
        # whole arrays, B_1 and the vanishing odd indices included; 5, 7 and
        # 11 give the shortest Newton series (one, two and three terms)
        table = kernels.bernoulli_table_mod(p)
        assert table.dtype == np.int64
        assert np.array_equal(table, _bernoulli_table_oracle(p))

    # 2^31 - 1, the largest prime the table accepts, puts 50-term products
    # in 128-bit slots; 1999 keeps them in 64-bit slots
    @pytest.mark.parametrize("p", [1999, (1 << 31) - 1])
    @settings(max_examples=25)
    @given(
        st.lists(st.integers(0, (1 << 31) - 2), min_size=50, max_size=50),
        st.lists(st.integers(0, (1 << 31) - 2), min_size=50, max_size=50),
    )
    @example([(1 << 31) - 2] * 50, [(1 << 31) - 2] * 50)
    def test_kronecker_multiply_matches_schoolbook(self, p, a, b):
        a = [x % p for x in a]
        b = [x % p for x in b]
        want = _schoolbook_mod(a, b, p)
        assert kernels._mul_mod(a, b, p, len(want)).tolist() == want
        assert kernels._mul_mod(a, b, p, 30).tolist() == want[:30]

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            kernels.bernoulli_table_mod(3)
        with pytest.raises(ValueError):
            kernels.bernoulli_table_mod(1 << 31)

    @pytest.mark.parametrize("n", [9, 15, 25, 561])
    def test_rejects_composite_moduli(self, n):
        # 561 is a Carmichael number, so no Fermat test would catch it
        with pytest.raises(ValueError, match="prime"):
            kernels.bernoulli_table_mod(n)


def _eta_scan_oracle(primes):
    """Every j in [1, p-2] tested against the defining conditions."""
    hits = []
    for p in primes.tolist():
        j = np.arange(1, p - 1, dtype=np.int64)
        g = np.gcd(j + 1, p + 1)
        mask = ((p + 1) // g <= 5) & (j + 1 != (p + 1) // 2)
        if mask.any():
            jj = j[mask]
            bad = jj[np.gcd(jj, p - 1) > 3]
            for b in bad.tolist():
                hits.append((p, b))
    return np.array(hits, dtype=np.int64).reshape(len(hits), 2)


class TestEtaKernel:
    def test_matches_full_scan_on_primes(self):
        primes = np.array(arith.primes_in_range(7, 3000), dtype=np.int64)
        assert np.array_equal(kernels.eta_scan(primes), _eta_scan_oracle(primes))

    def test_empty_on_small_primes(self):
        primes = np.array(arith.primes_in_range(7, 500), dtype=np.int64)
        hits = kernels.eta_scan(primes)
        assert hits.shape == (0, 2)

    def test_empty_even_for_composite_inputs(self):
        # p = n(j+1) - 1 with n in {3,4,5} forces gcd(j, p-1) = gcd(j, n-2)
        # to be at most 3, and the quotient-2 case is the excluded
        # midpoint, so emptiness holds for every odd p of this shape, prime
        # or not; a composite-rich range has more divisors of p+1 than
        # primes do, so it is also checked against the full scan
        fake = np.arange(9, 600, 2, dtype=np.int64)
        hits = kernels.eta_scan(fake)
        assert hits.shape == (0, 2)
        assert np.array_equal(hits, _eta_scan_oracle(fake))

    def test_rejects_small_primes(self):
        with pytest.raises(ValueError):
            kernels.eta_scan(np.array([5, 7], dtype=np.int64))


def _packed(field, mats):
    q = field.q
    out = []
    for m in mats:
        mm = m.scalar_normalized()
        out.append(((mm.a * q + mm.b) * q + mm.c) * q + mm.d)
    return np.array(out, dtype=np.int64)


class TestClosureKernel:
    def _run(self, p, r, codes):
        field = dickson.GFq(p, r)
        mats = [dickson.Mat2(field, *c) for c in codes]
        gens = _packed(field, mats)
        nr = field.nonresidue if r == 2 else 0
        return kernels.closure_codes(gens, p, r, nr, field.inv_table())

    def test_overflow_flag_at_group_order(self):
        # <(0,1,-1,0), (1,1,0,1)> generates all of PSL2(F7), order 168; the
        # kernel returns only the sorted codes, with no overflow flag
        codes_out = self._run(7, 1, [(0, 1, 6, 0), (1, 1, 0, 1)])
        assert isinstance(codes_out, np.ndarray)
        assert codes_out.shape == (168,)
        assert np.all(np.diff(codes_out) > 0)

    def test_identity_only(self):
        got = self._run(11, 1, [(1, 0, 0, 1)])
        assert got.shape == (1,)
