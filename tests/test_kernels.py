"""Kernel checks against independent routes: exact rational Bernoulli numbers,
the O(p^2) Pascal-row convolution and the Newton route with factorials from
Python loops and 64-bit Kronecker slots for the Newton-inversion table, a
schoolbook product for its Kronecker multiply, a full j-scan oracle for the
closed-form eta check, and known group orders and Python matrix products for
the transversal-product listing (the breadth-first closure oracle of the
listing is in test_dickson)."""

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


def _word_slot_mul_mod(a, b, p, n):
    """First n coefficients of a*b mod p by Kronecker substitution with
    one 64-bit word per slot, or two when min(len a, len b)(p-1)^2 >= 2^64."""
    a = np.asarray(a[:n], dtype="<u8")
    b = np.asarray(b[:n], dtype="<u8")
    limbs = 2 if min(len(a), len(b)) * (p - 1) ** 2 >= 1 << 64 else 1

    def pack(x):
        return int.from_bytes(np.pad(x[:, None], ((0, 0), (0, limbs - 1))).tobytes(), "little")

    size = max(len(a) + len(b) - 1, n) * limbs * 8
    out = np.frombuffer((pack(a) * pack(b)).to_bytes(size, "little"), dtype="<u8", count=n * limbs)
    out = out.reshape(n, limbs) % p
    if limbs == 1:
        return out[:, 0]
    return (out[:, 1] * ((1 << 64) % p) + out[:, 0]) % p


def _newton_table_oracle(p):
    """The Newton-inversion table with j!, 1/j! and the series built by
    Python loops over lists, and products in 64-bit word slots."""
    n = (p - 1) // 2
    fact = [1] * (p - 1)
    for j in range(1, p - 1):
        fact[j] = fact[j - 1] * j % p
    inv_fact = [1] * (p - 1)
    inv_fact[-1] = pow(fact[-1], p - 2, p)
    for j in range(p - 2, 1, -1):
        inv_fact[j - 1] = inv_fact[j] * j % p
    inv4 = pow(4, p - 2, p)
    c = [0] * n
    s = [0] * n
    w = 1
    for k in range(n):
        c[k] = w * inv_fact[2 * k] % p
        s[k] = w * inv_fact[2 * k + 1] % p
        w = w * inv4 % p
    g = np.ones(1, dtype=np.uint64)
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        e = _word_slot_mul_mod(s[:m2], g, p, m2)[m:]
        g = np.concatenate([g, (p - _word_slot_mul_mod(g, e, p, m2 - m)) % p])
        m = m2
    ratio = _word_slot_mul_mod(c, g, p, n)
    B = np.zeros(p - 2, dtype=np.int64)
    B[0::2] = np.asarray(fact[0 : p - 2 : 2], dtype=np.uint64) * ratio % p
    B[1] = (p - 1) // 2
    return B


def _slot_bytes(p, length):
    return -(-(length * (p - 1) ** 2).bit_length() // 8)


# (p, L): L (p-1)^2 fills the top byte of a w-byte slot, w = 1..8 in order,
# and (L+1) (p-1)^2 needs one byte more; the last row moves from 8-byte
# slots to the two-limb route, and 2^31 - 1 stays on it
SLOT_ROWS = [
    (5, 15),
    (47, 30),
    (727, 31),
    (11587, 31),
    (185369, 31),
    (2965847, 31),
    (47453149, 31),
    (759250133, 31),
    ((1 << 31) - 1, 50),
]


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

    def test_slot_rows_cross_every_byte_boundary(self):
        assert [_slot_bytes(p, L) for p, L in SLOT_ROWS[:-1]] == list(range(1, 9))
        assert [_slot_bytes(p, L + 1) for p, L in SLOT_ROWS[:-1]] == list(range(2, 10))
        assert _slot_bytes(*SLOT_ROWS[-1]) > 8
        assert all(arith.is_prime(p) for p, _ in SLOT_ROWS)

    # 2^31 - 1, the largest prime the table accepts, puts 50-term products
    # on the two-limb route; 1999 puts them in 4-byte slots
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

    @pytest.mark.parametrize("p, L", SLOT_ROWS)
    @settings(max_examples=15)
    @given(st.data())
    def test_kronecker_multiply_at_every_slot_width(self, p, L, data):
        # lengths L and L+1 put the bound on both sides of a byte boundary;
        # the all-(p-1) inputs fill the top slot byte
        top = data.draw(st.booleans())
        la, lb = (data.draw(st.integers(L, L + 1)) for _ in range(2))
        a = [p - 1] * la if top else data.draw(st.lists(st.integers(0, p - 1), min_size=la, max_size=la))
        b = [p - 1] * lb if top else data.draw(st.lists(st.integers(0, p - 1), min_size=lb, max_size=lb))
        want = _schoolbook_mod(a, b, p)
        assert kernels._mul_mod(a, b, p, len(want)).tolist() == want
        assert kernels._mul_mod(a, b, p, L).tolist() == want[:L]
        assert kernels._mul_mod(np.asarray(a, dtype=np.uint64), b, p, 7).tolist() == want[:7]

    @pytest.mark.parametrize("p", [1999, 4194301, (1 << 31) - 1])
    def test_kronecker_multiply_matches_word_slots(self, p):
        # long operands, 4-byte to two-limb slots
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, 1000, dtype=np.uint64)
        b = rng.integers(0, p, 700, dtype=np.uint64)
        for n in (1699, 1000, 400):
            assert np.array_equal(kernels._mul_mod(a, b, p, n), _word_slot_mul_mod(a, b, p, n))

    @pytest.mark.parametrize("p", [4001, 10007, 30011])
    def test_matches_word_slot_newton_route(self, p):
        assert np.array_equal(kernels.bernoulli_table_mod(p), _newton_table_oracle(p))

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            kernels.bernoulli_table_mod(3)
        with pytest.raises(ValueError):
            kernels.bernoulli_table_mod(1 << 31)

    @pytest.mark.parametrize("n", [9, 15, 25, 49, 121, 561, 1729, 294409, 172947529])
    def test_rejects_composite_moduli(self, n, monkeypatch):
        # 561, 1729, 294409 and 172947529 = 307 * 613 * 919 are Carmichael
        # numbers, so no Fermat test would catch them, and no g meets
        # Lucas's conditions for them; without numpy the refusal shows that
        # it comes before any O(p) array work
        monkeypatch.setattr(kernels, "np", None)
        with pytest.raises(ValueError, match="needs a prime p"):
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


def _levels(field, codes):
    """The Schreier-Sims transversals of the generated group, as kernel rows."""
    gens = [dickson.Mat2(field, *c) for c in codes]
    return [[(u.a, u.b, u.c, u.d) for u in t.values()] for t in dickson._transversals(field, gens)]


def _list(field, levels):
    return kernels.closure_codes(levels, field.p, field.r, field.nonresidue or 0, field.inv)


def _tuples(rows):
    return [tuple(row) for row in rows.tolist()]


def _python_products(field, levels):
    """Every product of one row per level, scalar-normalized by Mat2."""
    out = {dickson.identity_mat(field)}
    for level in levels:
        out = {x * dickson.Mat2(field, *row) for x in out for row in level}
    return sorted((m.a, m.b, m.c, m.d) for m in {m.scalar_normalized() for m in out})


class TestClosureKernel:
    def test_lists_sorted_normalized_products(self):
        # <(0,1,-1,0), (1,1,0,1)> generates all of PSL2(F7), order 168: the
        # three transversal levels multiply out to 168 distinct rows
        field = dickson.GFq(7)
        levels = _levels(field, [(0, 1, 6, 0), (1, 1, 0, 1)])
        assert np.prod([len(level) for level in levels]) == 168
        rows = _list(field, levels)
        assert rows.dtype == np.int64 and rows.shape == (168, 4)
        # sorted and distinct, as the Python products are
        assert _tuples(rows) == _python_products(field, levels)

    def test_identity_only(self):
        field = dickson.GFq(11)
        got = _list(field, [[(1, 0, 0, 1)]] * 3)
        assert got.tolist() == [[1, 0, 0, 1]]

    @pytest.mark.parametrize("r", [1, 2])
    def test_exact_at_the_largest_prime_below_the_limit(self, r):
        # 3037000493 is the largest prime with p^2 < 2^63; entries near p
        # make every int64 product of two residues come close to 2^63
        p = 3037000493
        field = dickson.GFq(p, r)
        top = field.q - 1
        levels = [
            [(1, 0, 0, 1), (top, top - 1, 1, top)],
            [(top - 2, 0, 0, 1), (0, top, 1, top - 3)],
            [(1, 0, 0, 1), (top, 1, top - 4, 2)],
        ]
        assert _tuples(_list(field, levels)) == _python_products(field, levels)

    def test_refuses_primes_whose_products_overflow_int64(self):
        # 3037000507 is the least prime with p^2 >= 2^63
        field = dickson.GFq(3037000507)
        with pytest.raises(ValueError, match=r"p\^2 < 2\^63"):
            _list(field, [[(1, 0, 0, 1)]])
