"""Exact cyclotomic-integer arithmetic: ring laws, canonical forms,
conjugation, hashing and pickling."""

import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim.cyclotomic import CycloValue, _poly_divmod_monic, cyclotomic_poly


def rand_value(rng: random.Random, m: int) -> CycloValue:
    return CycloValue(m, [rng.randrange(-9, 10) for _ in range(m)])


def canonical_oracle(v: CycloValue) -> tuple[int, ...]:
    # the remainder by long division, zero-padded to m
    _, rem = _poly_divmod_monic(list(v.coeffs), list(cyclotomic_poly(v.m)))
    return tuple(rem) + (0,) * (v.m - len(rem))


@st.composite
def cyclo_values(draw):
    m = draw(st.integers(1, 400))
    entries = st.integers(-(10**6), 10**6) | st.integers(-(2**80), 2**80)
    if draw(st.booleans()):
        return CycloValue(m, draw(st.lists(entries, min_size=m, max_size=m)))
    vec = [0] * m
    for k, c in draw(st.dictionaries(st.integers(0, m - 1), entries, max_size=4)).items():
        vec[k] = c
    return CycloValue(m, vec)


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
            assert x + CycloValue.zero(m) == x
            assert x * CycloValue.from_int(m, 1) == x
            assert x - x == CycloValue.zero(m)
            assert (x - x).is_zero()

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
            total = CycloValue.zero(p)
            for e in range(p):
                total = total + CycloValue.zeta(p, e)
            assert total.is_zero()

    def test_canonical_padded_length(self):
        v = CycloValue.zeta(7, 6)
        assert len(v.canonical()) == 7
        # zeta^6 = -(1 + zeta + ... + zeta^5) after reduction mod Phi_7
        assert v.canonical() == (-1, -1, -1, -1, -1, -1, 0)

    def test_to_int(self):
        assert CycloValue.from_int(9, -4).to_int() == -4
        assert (CycloValue.zeta(3) + CycloValue.zeta(3, 2)).to_int() == -1
        with pytest.raises(ValueError):
            CycloValue.zeta(5).to_int()

    @settings(max_examples=50)
    @given(cyclo_values())
    @example(CycloValue(105, [1] * 105))
    @example(CycloValue.zeta(105, 104))
    @example(CycloValue(385, [(-1) ** k * k for k in range(385)]))
    @example(CycloValue.zeta(385, 384))
    @example(CycloValue.zeta(1))
    def test_matches_long_division(self, v):
        # Phi_105 and Phi_385 have coefficients outside -1..1
        assert v.canonical() == canonical_oracle(v)

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
