"""Exact cyclotomic-integer arithmetic: the cyclotomic polynomials, the
reduction sweep, ring laws, canonical forms, conjugation, hashing, pickling
and the memory of a large order."""

import hashlib
import math
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim.cyclotomic import CycloValue, _remainders, cyclotomic_poly


def rand_value(rng: random.Random, m: int) -> CycloValue:
    return CycloValue(m, [rng.randrange(-9, 10) for _ in range(m)])


def _poly_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod_monic(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic with integer coefficients, so quotient and remainder stay
    # integral
    num = list(num)
    dn = len(den) - 1
    if dn == 0:
        return list(num), []
    quot = [0] * max(len(num) - dn, 0)
    for i in range(len(num) - dn - 1, -1, -1):
        c = num[i + dn]
        if c:
            quot[i] = c
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    return _poly_trim(quot), _poly_trim(num[:dn])


@cache
def cyclotomic_poly_oracle(m: int) -> tuple[int, ...]:
    # x^m - 1 with Phi_d divided out for every proper divisor d of m
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _poly_divmod_monic(num, list(cyclotomic_poly_oracle(d)))
            assert not rem, (m, d)
    return tuple(num)


def canonical_oracle(m: int, vec: list[int]) -> tuple[int, ...]:
    # the remainder of a raw vector by long division, zero-padded to m
    _, rem = _poly_divmod_monic(vec, list(cyclotomic_poly_oracle(m)))
    return padded(m, rem)


def padded(m: int, rem: list[int]) -> tuple[int, ...]:
    return tuple(rem) + (0,) * (m - len(rem))


@st.composite
def raw_vectors(draw, m=st.integers(1, 400)):
    """(m, a raw group-ring vector of length m), dense or sparse."""
    m = draw(m)
    entries = st.integers(-(10**6), 10**6) | st.integers(-(2**80), 2**80)
    if draw(st.booleans()):
        return m, draw(st.lists(entries, min_size=m, max_size=m))
    vec = [0] * m
    for k, c in draw(st.dictionaries(st.integers(0, m - 1), entries, max_size=4)).items():
        vec[k] = c
    return m, vec


class TestCyclotomicPoly:
    def test_first_few(self):
        assert cyclotomic_poly(1) == (-1, 1)
        assert cyclotomic_poly(2) == (1, 1)
        assert cyclotomic_poly(3) == (1, 1, 1)
        assert cyclotomic_poly(4) == (1, 0, 1)
        assert cyclotomic_poly(6) == (1, -1, 1)
        assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)

    def test_degree_is_totient(self):
        for m in range(1, 40):
            phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
            assert len(cyclotomic_poly(m)) == phi + 1, m

    def test_product_over_divisors(self):
        # prod_{d | m} Phi_d = x^m - 1, checked by multiplying back out
        for m in (6, 8, 12, 15):
            prod = [1]
            for d in range(1, m + 1):
                if m % d == 0:
                    phi_d = cyclotomic_poly(d)
                    new = [0] * (len(prod) + len(phi_d) - 1)
                    for i, a in enumerate(prod):
                        for j, b in enumerate(phi_d):
                            new[i + j] += a * b
                    prod = new
            want = [-1] + [0] * (m - 1) + [1]
            assert prod == want, m

    def test_matches_divide_out_up_to_400(self):
        for m in range(1, 401):
            assert cyclotomic_poly(m) == cyclotomic_poly_oracle(m), m

    @pytest.mark.parametrize("m", [1275, 2310, 4945])
    def test_matches_divide_out(self, m):
        # 1275 = 3 * 5^2 * 17, 2310 = 2 * 3 * 5 * 7 * 11, 4945 = 5 * 23 * 43
        assert cyclotomic_poly(m) == cyclotomic_poly_oracle(m)

    def test_builds_no_divisor_polynomial(self):
        cyclotomic_poly.cache_clear()
        cyclotomic_poly(2310)
        assert cyclotomic_poly.cache_info().currsize == 1


class TestReduceSweep:
    @pytest.mark.parametrize("m", [1, 2, 101, 105, 385])
    def test_batch_matches_long_division(self, m):
        rng = random.Random(m)
        phi = len(cyclotomic_poly(m)) - 1
        batch = [
            [0] * m,
            [rng.randrange(-9, 10) for _ in range(phi)] + [0] * (m - phi),
            [rng.randrange(-(2**70), 2**70) for _ in range(m)],
            [0] * (m - 1) + [1],
        ]
        for _ in range(6):
            vec = [0] * m
            for _ in range(rng.randrange(1, 5)):
                vec[rng.randrange(m)] += rng.randrange(-(10**6), 10**6)
            batch.append(vec)
        rems = _remainders(m, [enumerate(vec) for vec in batch])
        assert [padded(m, rem) for rem in rems] == [canonical_oracle(m, vec) for vec in batch]
        # a remainder goes through a second sweep unchanged
        again = _remainders(m, [enumerate(rem) for rem in rems])
        assert again == rems
        assert all(len(rem) == phi for rem in rems)

    def test_vectors_below_phi_come_back_unchanged(self):
        # nothing at or above phi(m), so the sweep walks no row
        for m in (1, 2, 101, 105, 385):
            phi = len(cyclotomic_poly(m)) - 1
            low = {k: 3 * k - 7 for k in range(0, phi, 4)}
            (rem,) = _remainders(m, [low.items()])
            assert rem == [low.get(k, 0) for k in range(phi)]

    @settings(max_examples=40)
    @given(st.data())
    def test_random_batches_match_long_division(self, data):
        m = data.draw(st.integers(1, 400))
        batch = data.draw(st.lists(raw_vectors(st.just(m)), min_size=1, max_size=6))
        rems = _remainders(m, [enumerate(vec) for _, vec in batch])
        assert [padded(m, rem) for rem in rems] == [canonical_oracle(m, vec) for _, vec in batch]


class TestRingLaws:
    def test_commutative_ring_axioms(self):
        rng = random.Random(20260814)
        for _ in range(60):
            m = rng.choice([1, 2, 3, 4, 5, 6, 7, 12])
            x, y, z = (rand_value(rng, m) for _ in range(3))
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + CycloValue(m) == x
            assert x * CycloValue.from_int(m, 1) == x
            assert x - x == CycloValue(m)
            assert x - x == 0

    def test_int_coercion(self):
        x = CycloValue.zeta(5)
        assert 2 * x == x + x
        assert x + 0 == x
        assert 1 - x == -(x - 1)

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError):
            CycloValue.zeta(3) + CycloValue.zeta(4)


class TestCanonical:
    def test_root_of_unity_relations(self):
        z3 = CycloValue.zeta(3)
        assert z3 * z3 * z3 == 1
        assert z3 + z3 * z3 == -1  # 1 + z + z^2 = 0
        z4 = CycloValue.zeta(4)
        assert z4 * z4 == -1
        z6 = CycloValue.zeta(6)
        assert z6 * z6 == z6 - 1  # Phi_6 = x^2 - x + 1

    def test_prime_order_vanishing_sum(self):
        for p in (3, 5, 7, 11):
            total = CycloValue(p)
            for e in range(p):
                total = total + CycloValue.zeta(p, e)
            assert total == 0

    def test_canonical_padded_length(self):
        v = CycloValue.zeta(7, 6)
        assert len(v.coeffs) == 7
        # zeta^6 = -(1 + zeta + ... + zeta^5) after reduction mod Phi_7
        assert v.coeffs == (-1, -1, -1, -1, -1, -1, 0)

    def test_to_int(self):
        assert CycloValue.from_int(9, -4).to_int() == -4
        assert (CycloValue.zeta(3) + CycloValue.zeta(3, 2)).to_int() == -1
        with pytest.raises(ValueError):
            CycloValue.zeta(5).to_int()

    @settings(max_examples=50)
    @given(raw_vectors())
    @example((105, [1] * 105))
    @example((105, [0] * 104 + [1]))
    @example((385, [(-1) ** k * k for k in range(385)]))
    @example((385, [0] * 384 + [1]))
    @example((1, [1]))
    def test_matches_long_division(self, raw):
        # Phi_105 and Phi_385 have coefficients outside -1..1
        m, vec = raw
        assert CycloValue(m, vec).coeffs == canonical_oracle(m, vec)

    def test_zeta_exponent_wraps(self):
        assert CycloValue.zeta(6, 7) == CycloValue.zeta(6, 1)
        assert CycloValue.zeta(6, -1) == CycloValue.zeta(6, 5)


class TestConjugate:
    def test_involution_and_homomorphism(self):
        rng = random.Random(3)
        for _ in range(40):
            m = rng.choice([3, 4, 5, 8, 12])
            x, y = rand_value(rng, m), rand_value(rng, m)
            assert x.conjugate().conjugate() == x
            assert (x * y).conjugate() == x.conjugate() * y.conjugate()
            assert (x + y).conjugate() == x.conjugate() + y.conjugate()

    def test_fixes_integers(self):
        v = CycloValue.from_int(7, 42)
        assert v.conjugate() == v

    def test_zeta_maps_to_inverse(self):
        z = CycloValue.zeta(5)
        assert z.conjugate() == CycloValue.zeta(5, 4)
        assert (z * z.conjugate()).to_int() == 1

    def test_norm_like_product_is_rational(self):
        rng = random.Random(17)
        for _ in range(20):
            x = rand_value(rng, 5)
            prod = x * x.conjugate()
            assert prod.conjugate() == prod


class TestEqualityHashing:
    def test_group_ring_redundancy_collapses(self):
        # same element written with different group-ring vectors
        a = CycloValue(3, [0, 1, 0]) + CycloValue(3, [0, 0, 1])
        b = CycloValue.from_int(3, -1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_int_equality(self):
        assert CycloValue.from_int(4, 3) == 3
        assert CycloValue.zeta(4) != 1

    def test_usable_as_dict_key(self):
        d = {CycloValue.zeta(5, e): e for e in range(5)}
        assert len(d) == 5
        assert d[CycloValue.zeta(5, 2)] == 2


class TestObjectProtocol:
    def test_immutable(self):
        v = CycloValue.zeta(5)
        with pytest.raises(AttributeError):
            v.m = 7

    def test_pickle_round_trip(self):
        rng = random.Random(8)
        for _ in range(20):
            v = rand_value(rng, rng.choice([1, 4, 23]))
            w = pickle.loads(pickle.dumps(v))
            assert w == v and w.m == v.m and w.coeffs == v.coeffs

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            CycloValue(0)
        with pytest.raises(ValueError):
            CycloValue(3, [1, 2, 3, 4])

    @pytest.mark.parametrize("bad", [0.99, 1.0, Fraction(7, 2), Fraction(2), Decimal("3"), np.float64(2.0)])
    def test_refuses_coefficients_that_are_not_integers(self, bad):
        # int() would truncate 0.99 to 0 and 7/2 to 3; integral ones are
        # refused as well, whatever their value
        with pytest.raises(TypeError):
            CycloValue(5, [bad])
        with pytest.raises(TypeError):
            CycloValue(3, [1, 2, bad])

    def test_takes_bools_and_numpy_integers_as_exact_ints(self):
        coeffs = [True, np.int64(-2), np.uint8(7), np.int32(2**20), False]
        v = CycloValue(7, coeffs)
        assert v.coeffs == (1, -2, 7, 2**20, 0, 0, 0)
        assert all(type(c) is int for c in v.coeffs)
        # reduced through x^5 + x^4 + x^3 + x^2 + x + 1 = 0 too
        w = CycloValue(7, np.arange(7, dtype=np.int64))
        assert w.coeffs == canonical_oracle(7, list(range(7)))
        assert all(type(c) is int for c in w.coeffs)

    @settings(max_examples=40)
    @given(raw_vectors(st.integers(1, 60)))
    @example((1, [5]))
    @example((2, [3, -4]))
    @example((9, [0] * 8 + [1]))
    @example((30, [(-1) ** k * k for k in range(30)]))
    @example((105, [1] * 105))
    def test_from_remainder_equals_the_checking_constructor(self, raw):
        m, vec = raw
        (rem,) = _remainders(m, [enumerate(vec)])
        v = CycloValue._from_remainder(m, rem)
        w = CycloValue(m, rem)
        assert (v.m, v.coeffs) == (w.m, w.coeffs) and v == w and hash(v) == hash(w)
        assert v.coeffs == canonical_oracle(m, vec)
        with pytest.raises(AttributeError):
            v.m = m


# the child's own peak resident set, VmHWM in KiB, written to stderr after
# the child's code: ru_maxrss from wait4 would also count the peak of this
# process, which a child started by fork and exec carries over
_REPORT_PEAK = """
sys.stdout.flush()
with open("/proc/self/status") as status:
    sys.stderr.write([line for line in status if line.startswith("VmHWM:")][0])
"""


def _run_with_peak(code, *args):
    """stdout and peak resident KiB of a child that runs ``code`` with argv
    ``args``."""
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code + _REPORT_PEAK, *args], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, int(proc.stderr.splitlines()[-1].split()[1])


class TestLargeOrder:
    @pytest.mark.parametrize(
        "fmt, md5",
        [("text", "f2f6bc730935ba0cf3c2afc9e8de0b60"), ("json", "85da8a4681ea05e54a0b9c4ee6192543")],
        ids=["text", "json"],
    )
    def test_witness_at_order_14245_in_bounded_memory(self, fmt, md5):
        # h(-99999959) = 14245 is the order of the character, and the theta
        # head reaches exponents far above phi(14245) = 8640: a table of the
        # rows x^k mod Phi_m would hold 48 million ints, about 400 MB.  The
        # json report is 21.6 MB, and written in one call, which encodes it
        # whole, it held 110 MB
        out, peak = _run_with_peak(
            "from galim.cli import main\nassert main(sys.argv[1:]) == 0",
            "witness",
            "hida",
            "-p",
            "99999959",
            "--format",
            fmt,
        )
        assert hashlib.md5(out).hexdigest() == md5
        assert peak < 100 * 1024, peak

    def test_peak_is_the_childs_own(self):
        # a child that holds 120 MB reads above the 100 MiB bound, and one
        # that holds nothing reads below 40 MiB, whatever this process holds
        _, peak = _run_with_peak("import numpy as np\nheld = np.ones(15_000_000)")
        assert peak > 100 * 1024, peak
        _, peak = _run_with_peak("")
        assert peak < 40 * 1024, peak
