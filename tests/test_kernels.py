"""Kernel checks against independent routes: exact rational Bernoulli numbers,
the O(p^2) Pascal-row convolution and the Newton route with factorials from
Python loops and 64-bit Kronecker slots for the Newton-inversion table; a
schoolbook product, that Kronecker multiply and the closed form of a product
of constant operands for both routes of its multiply, np.convolve and the
digit-split FFT."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim import arith, kernels
from galim.arith import InternalInconsistencyError
from oracles import bernoulli_exact, multiplicative_order


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


def _constant_product(term, la, lb, p, n):
    """First n coefficients of (term, ..., term) * (term, ..., term) mod p,
    la and lb terms: coefficient j sums min(j + 1, la, lb, la + lb - 1 - j)
    products term^2."""
    j = np.arange(n)
    count = np.maximum(np.minimum.reduce([j + 1, np.full(n, min(la, lb)), la + lb - 1 - j]), 0)
    return (term * term % p * count % p).astype(np.uint64)


def _prime_at_most(q):
    while not arith.is_prime(q):
        q -= 1
    return q


# (p, L): L (p-1)^2 fills the top byte of a w-byte slot, w = 1..8 in order,
# and (L+1) (p-1)^2 needs one byte more; the last row moves from 8-byte
# slots to the two-limb route of the word-slot oracle, and 2^31 - 1 stays on
# it.  Up to 7 bytes the rows go by np.convolve, and from 8 on, past 2^63, by
# the FFT in two digits
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


# the last primes whose every table product one and two FFT digits admit
ONE_DIGIT_LAST_P = 37423
TWO_DIGIT_LAST_P = 4194301
# the last prime whose products of _FFT_MIN_TERMS - 1 terms stay below 2^63,
# so go by np.convolve
CONVOLVE_LAST_P = 190184347
# primes on both sides of each edge of a route, and any prime the table takes
PRIMES = st.one_of(
    st.sampled_from([ONE_DIGIT_LAST_P, 37441, TWO_DIGIT_LAST_P, 4194319, CONVOLVE_LAST_P, 190184383, (1 << 31) - 1]),
    st.integers(5, (1 << 31) - 1).map(_prime_at_most),
)
# operand lengths on both sides of the FFT route's threshold
LENGTHS = st.one_of(st.integers(1, 2 * kernels._FFT_MIN_TERMS), st.integers(2 * kernels._FFT_MIN_TERMS, 4000))


@pytest.fixture
def irfft_outputs(monkeypatch):
    """Every float array that np.fft.irfft returns, kept for inspection."""
    irfft = np.fft.irfft
    floats = []

    def kept(*args, **kwargs):
        floats.append(irfft(*args, **kwargs))
        return floats[-1]

    monkeypatch.setattr(np.fft, "irfft", kept)
    return floats


class TestBernoulliKernel:
    @pytest.mark.parametrize("p", [5, 7, 11, 13, 37, 101])
    def test_matches_exact_rationals(self, p):
        table = kernels.bernoulli_table_mod(p)
        assert table.shape == (p - 2,)
        for k in range(p - 2):
            b = bernoulli_exact(k)
            assert b.denominator % p != 0  # von Staudt: p-integral here
            want = b.numerator * pow(b.denominator, -1, p) % p
            assert int(table[k]) == want, (p, k)

    @settings(max_examples=100)
    @given(st.sampled_from(arith.primes_in_range(5, 2999)))
    @example(5)
    @example(7)
    @example(11)
    @example(29)
    @example(31)
    @example(37)
    @example(67)
    @example(71)
    @example(131)
    def test_matches_convolution_oracle(self, p):
        # whole arrays, B_1 and the vanishing odd indices included; 5, 7 and
        # 11 give the shortest Newton series (one, two and three terms); the
        # inverse stops at h = ceil((p-1)/4) terms, below the 16-term head at
        # 29, 31 and 37 and just past it at 67, 71 and 131
        table = kernels.bernoulli_table_mod(p)
        assert table.dtype == np.int64
        assert np.array_equal(table, _bernoulli_table_oracle(p))

    def test_slot_rows_cross_every_byte_boundary(self):
        assert [_slot_bytes(p, L) for p, L in SLOT_ROWS[:-1]] == list(range(1, 9))
        assert [_slot_bytes(p, L + 1) for p, L in SLOT_ROWS[:-1]] == list(range(2, 10))
        assert _slot_bytes(*SLOT_ROWS[-1]) > 8
        assert all(arith.is_prime(p) for p, _ in SLOT_ROWS)
        # the convolve bound lies between CONVOLVE_LAST_P and the next prime
        length = kernels._FFT_MIN_TERMS - 1
        assert length * (CONVOLVE_LAST_P - 1) ** 2 < 1 << 63 <= length * (190184383 - 1) ** 2
        assert arith.primes_in_range(CONVOLVE_LAST_P, 190184383) == [CONVOLVE_LAST_P, 190184383]

    # 2^31 - 1, the largest prime the table accepts, puts 50-term products
    # past 2^63, so on the FFT in two digits, and on the two-limb route of
    # the Kronecker oracle; 1999 puts them on np.convolve
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
        for mul_mod in (kernels._mul_mod, _word_slot_mul_mod):
            assert mul_mod(a, b, p, len(want)).tolist() == want
            assert mul_mod(a, b, p, 30).tolist() == want[:30]

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
        for mul_mod in (kernels._mul_mod, _word_slot_mul_mod):
            assert mul_mod(a, b, p, len(want)).tolist() == want
            assert mul_mod(a, b, p, L).tolist() == want[:L]
            assert mul_mod(np.asarray(a, dtype=np.uint64), b, p, 7).tolist() == want[:7]

    @pytest.mark.parametrize("p", [1999, 4194301, (1 << 31) - 1])
    def test_kronecker_multiply_matches_word_slots(self, p):
        # long operands, by the FFT in one, two and two digits, and a
        # 100-term head, by np.convolve but at 2^31 - 1
        rng = np.random.default_rng(p)
        a = rng.integers(0, p, 1000, dtype=np.uint64)
        b = rng.integers(0, p, 700, dtype=np.uint64)
        for x in (a, a[:100]):
            for n in (1699, 1000, 400):
                assert np.array_equal(kernels._mul_mod(x, b, p, n), _word_slot_mul_mod(x, b, p, n))

    @settings(max_examples=100)
    @given(
        st.one_of(st.sampled_from(arith.primes_in_range(5, ONE_DIGIT_LAST_P)), PRIMES),
        LENGTHS,
        LENGTHS,
        st.integers(1, 8100),
        st.integers(0, 2**32 - 1),
    )
    @example(1999, 300, 200, 505, 0)
    @example(1999, 300, 200, 700, 0)
    @example(ONE_DIGIT_LAST_P, 4000, 3000, 5000, 1)
    @example(ONE_DIGIT_LAST_P, 18711, 9356, 18711, 0)
    @example(37441, 18720, 9360, 18720, 0)
    @example(TWO_DIGIT_LAST_P, 4000, 3000, 5000, 0)
    @example(4194319, 4000, 3000, 5000, 0)
    @example(CONVOLVE_LAST_P, kernels._FFT_MIN_TERMS - 1, 600, 900, 0)
    @example(190184383, kernels._FFT_MIN_TERMS - 1, 600, 900, 0)
    @example((1 << 31) - 1, 4000, 4000, 7999, 0)
    @example((1 << 31) - 1, 30, 40, 60, 0)
    def test_fft_multiply_matches_kronecker(self, p, la, lb, n, seed):
        # _mul_mod against the Kronecker oracle, and the schoolbook product
        # on short operands: lengths on both sides of _FFT_MIN_TERMS, n past
        # la + lb - 1, where both zero-pad (505 stays inside the FFT's 512
        # terms, 700 goes past them), and p on both sides of the last prime
        # of one and of two digits and of the convolve bound, up to 2^31 - 1,
        # which takes three digits at 4000 x 4000 terms.  The examples at
        # 37423 and 37441 are the largest product of a table, in one digit
        # and in two
        rng = np.random.default_rng(seed)
        a = rng.integers(0, p, la, dtype=np.uint64)
        b = rng.integers(0, p, lb, dtype=np.uint64)
        want = _word_slot_mul_mod(a, b, p, n)
        assert len(want) == n
        got = kernels._mul_mod(a, b, p, n)
        assert got.dtype == np.uint64
        assert np.array_equal(got, want)
        if la * lb <= 2000:
            assert got.tolist() == (_schoolbook_mod(a.tolist(), b.tolist(), p) + [0] * n)[:n]
        if p <= ONE_DIGIT_LAST_P:
            # one digit admits every product of these lengths
            assert kernels._fft_is_exact(min(la, n), min(lb, n), p, 1)
            assert np.array_equal(kernels._fft_mul_mod(a, b, p, n, 1), want)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_fft_multiply_is_exact_at_the_worst_case(self, sign, irfft_outputs):
        # the table's largest product, n x ceil(n/2) terms, at the last prime
        # one digit admits, with every term (p-1)/2 of one sign: the largest
        # coefficients the balanced residues allow
        p = ONE_DIGIT_LAST_P
        n = (p - 1) // 2
        h = -(-n // 2)
        assert kernels._fft_is_exact(n, h, p, 1)
        term = (p - 1) // 2 if sign > 0 else (p + 1) // 2
        a = np.full(n, term, dtype=np.uint64)
        b = np.full(h, term, dtype=np.uint64)
        assert np.array_equal(kernels._fft_mul_mod(a, b, p, n, 1), _constant_product(term, n, h, p, n))
        [prod] = irfft_outputs
        assert np.abs(prod - np.rint(prod)).max() < 1 / 64

    def test_two_digit_multiply_is_exact_at_the_worst_case(self, irfft_outputs):
        # the same product, every term (p-1)/2 = n, at the last prime whose
        # every table product two digits admit; n = 2^21 - 2 splits into the
        # 11-bit digits -2 and 2^10, the largest a digit reaches
        p = TWO_DIGIT_LAST_P
        n = (p - 1) // 2
        h = -(-n // 2)
        assert kernels._fft_is_exact(n, h, p, 2)
        assert not kernels._fft_is_exact(n, h, p, 1)
        a = np.full(n, n, dtype=np.uint64)
        assert np.array_equal(kernels._mul_mod(a, a[:h], p, n), _constant_product(n, n, h, p, n))
        [prod] = irfft_outputs
        assert prod.shape[0] == 3
        assert max(np.abs(row - np.rint(row)).max() for row in prod) < 1 / 64

    def test_fft_multiply_takes_residues_balanced(self, irfft_outputs):
        # p - 1 enters the transform as -1, and split into digits as -1, 0,
        # ..., so 300 x 200 terms of it give coefficients of at most 200, not
        # 200 (p-1)^2, nor 200 (2^s - 1)^2 from digits taken in [0, 2^s)
        p = 1999
        a, b = [p - 1] * 300, [p - 1] * 200
        want = _word_slot_mul_mod(a, b, p, 499)
        for d in (1, 2, 3):
            assert np.array_equal(kernels._fft_mul_mod(a, b, p, 499, d), want)
        assert [len(prod) for prod in irfft_outputs] == [1, 3, 5]
        assert max(np.abs(prod).max() for prod in irfft_outputs) < 200.5

    @pytest.mark.parametrize("p", [1999, 10007, 50021])
    def test_long_products_take_the_fft_route(self, p, monkeypatch):
        # every product of a table takes the route and the digit count the
        # rules predict: np.convolve below _FFT_MIN_TERMS terms, where no
        # coefficient reaches 2^63 at these p, and the FFT in the least d
        # the bound admits above
        calls = []
        mul_mod, fft_mul_mod, convolve = kernels._mul_mod, kernels._fft_mul_mod, np.convolve

        def counted(a, b, q, m):
            calls.append([(len(a[:m]), len(b[:m]))])
            return mul_mod(a, b, q, m)

        def fft_counted(a, b, q, m, d):
            calls[-1].append(d)
            return fft_mul_mod(a, b, q, m, d)

        def convolve_counted(x, y):
            calls[-1].append("convolve")
            return convolve(x, y)

        monkeypatch.setattr(kernels, "_mul_mod", counted)
        monkeypatch.setattr(kernels, "_fft_mul_mod", fft_counted)
        monkeypatch.setattr(np, "convolve", convolve_counted)
        kernels.bernoulli_table_mod(p)

        def predicted(la, lb):
            if min(la, lb) < kernels._FFT_MIN_TERMS:
                return "convolve"
            return next(d for d in range(1, 4) if kernels._fft_is_exact(la, lb, p, d))

        assert all(len(call) == 2 for call in calls)
        assert [route for _, route in calls] == [predicted(*shape) for shape, _ in calls]
        # the doubling steps of the inverse from 16 to 256 terms go by
        # np.convolve; past the last one-digit prime some products need two
        short = [shape for shape, route in calls if route == "convolve"]
        assert short[:8] == [(32, 16), (16, 16), (64, 32), (32, 32), (128, 64), (64, 64), (256, 128), (128, 128)]
        digits = {route for _, route in calls if route != "convolve"}
        assert digits == ({1} if p <= ONE_DIGIT_LAST_P else {1, 2})

    def test_bound_admits_every_table_product_up_to_its_last_prime(self, monkeypatch):
        shapes = []
        mul_mod = kernels._mul_mod

        def counted(a, b, q, m):
            shapes.append((len(a[:m]), len(b[:m])))
            return mul_mod(a, b, q, m)

        monkeypatch.setattr(kernels, "_mul_mod", counted)
        kernels.bernoulli_table_mod(30011)
        assert all(kernels._fft_is_exact(la, lb, 30011, 1) for la, lb in shapes)
        # the largest product of a table, n x ceil(n/2) terms, is admitted in
        # one digit up to ONE_DIGIT_LAST_P and in two up to TWO_DIGIT_LAST_P,
        # and refused from the next prime on
        for p, d, admitted in (
            (ONE_DIGIT_LAST_P, 1, True),
            (37441, 1, False),
            (100003, 1, False),
            (37441, 2, True),
            (TWO_DIGIT_LAST_P, 2, True),
            (4194319, 2, False),
            ((1 << 31) - 1, 2, False),
        ):
            n = (p - 1) // 2
            assert kernels._fft_is_exact(n, -(-n // 2), p, d) is admitted, (p, d)
        assert arith.primes_in_range(ONE_DIGIT_LAST_P + 1, 37441) == [37441]
        assert arith.primes_in_range(TWO_DIGIT_LAST_P + 1, 4194319) == [4194319]

    def test_fft_guard_refuses_a_product_off_the_integers(self, monkeypatch):
        irfft = np.fft.irfft

        def shifted(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[..., 3] += 0.4
            return out

        monkeypatch.setattr(np.fft, "irfft", shifted)
        with pytest.raises(InternalInconsistencyError):
            kernels.bernoulli_table_mod(1999)

    # 37441 and 50021 lie past the last prime of one digit
    @pytest.mark.parametrize("p", [1999, 2579, 4001, 10007, 30011, 37441, 50021])
    def test_matches_word_slot_newton_route(self, p):
        assert np.array_equal(kernels.bernoulli_table_mod(p), _newton_table_oracle(p))

    @pytest.mark.parametrize("p", [1999, 4001, 10007])
    def test_no_product_has_both_operands_longer_than_half(self, p, monkeypatch):
        # the inverse stops at h = ceil(n/2) terms and one Karp-Markstein
        # step gives the quotient, so no n x n product is left
        shorter = []
        mul_mod = kernels._mul_mod

        def counted(a, b, q, m):
            shorter.append(min(len(a[:m]), len(b[:m])))
            return mul_mod(a, b, q, m)

        monkeypatch.setattr(kernels, "_mul_mod", counted)
        kernels.bernoulli_table_mod(p)
        h = -(-(p - 1) // 4)
        assert max(shorter) <= h

    def test_primitive_root_is_the_least(self):
        # the primes of p-1 come from arith.factorize
        for p in arith.primes_in_range(3, 3000):
            g = kernels._primitive_root(p, arith.factorize(p - 1))
            assert multiplicative_order(g, p) == p - 1
            assert all(multiplicative_order(h, p) < p - 1 for h in range(2, g))

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
