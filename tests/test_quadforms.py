"""Binary quadratic forms of prime discriminant -p: reduction, composition,
class groups, characters, theta series, and the analytic cross-check."""

import cmath
import functools
import itertools
import math
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galim import quadforms as qf
from galim import witness
from galim.arith import InternalInconsistencyError, factorize, is_prime, kronecker, primes_in_range
from galim.cyclotomic import CycloValue
from oracles import (
    discriminant,
    exponents_of,
    positive_definite,
    principal_form,
    reduce_form,
    reduced_forms_oracle,
    representation_counts,
)

# classical class numbers h(-p) for prime p = 3 mod 4
KNOWN_H = {
    7: 1, 11: 1, 19: 1, 23: 3, 31: 3, 43: 1, 47: 5, 59: 3, 67: 1,
    71: 7, 79: 5, 83: 3, 103: 5, 127: 5, 151: 7, 163: 1, 167: 11,
    191: 13, 211: 3, 239: 15, 263: 13, 311: 19, 431: 21, 479: 25,
}


def compose(f: qf.QuadForm, g: qf.QuadForm) -> qf.QuadForm:
    # the library's composition core, which class_group runs on, on reduced
    # or unreduced forms of one discriminant
    return qf._compose(positive_definite(f), positive_definite(g))


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    # (g, s, t) with a*s + b*t = g = gcd(a, b), by the extended Euclid
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def solve_linmod_oracle(a: int, b: int, m: int) -> tuple[int, int]:
    # all x with a*x = b (mod m) as x = mu (mod v), by the extended Euclid
    g, d, _ = ext_gcd(a, m)
    q, r = divmod(b, g)
    assert r == 0, (a, b, m)
    return q * d % m, m // g


def compose_oracle(f1: qf.QuadForm, f2: qf.QuadForm) -> qf.QuadForm:
    # Shanks' composition with the extended-Euclid solver, then reduced
    if f1 == f2:
        a, b, c = f1
        mu, _ = solve_linmod_oracle(b, c, a)
        return reduce_form(qf.QuadForm(a * a, b - 2 * a * mu, mu * mu - (b * mu - c) // a))
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = math.gcd(math.gcd(a1, a2), g)
    s, t, u = a1 // w, a2 // w, g // w
    mu, nu = solve_linmod_oracle(t * u, h * u + s * c1, s * t)
    lam, _ = solve_linmod_oracle(t * nu, h - t * mu, s)
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // (s * t)
    return reduce_form(qf.QuadForm(s * t, w * u - (k * t + ell * s), k * ell - w * m))


def prime_class_oracle(d: int, ell: int):
    # (ell, b, c) reduced for the b in (0, 2 ell] with b^2 = d (mod 4 ell)
    # that is least mod ell, the lesser b on a tie, by trying every b;
    # None when there is no such b
    bs = [b for b in range(1, 2 * ell + 1) if (b * b - d) % (4 * ell) == 0]
    if not bs:
        return None
    b = min(bs, key=lambda b: (b % ell, b))
    return reduce_form(qf.QuadForm(ell, b, (b * b - d) // (4 * ell)))


def form_value(form: qf.QuadForm, x: int, y: int) -> int:
    return form.a * x * x + form.b * x * y + form.c * y * y


def is_reduced(form: qf.QuadForm) -> bool:
    a, b, c = form
    return (abs(b) <= a <= c) and (b >= 0 or (abs(b) < a and a < c))


def conjugate_character(char: qf.ClassCharacter) -> qf.ClassCharacter:
    # the character whose values are the complex conjugates of char's
    conj = tuple((-mi) % di for di, mi in zip(char.structure, char.exponents))
    return qf.ClassCharacter(char.structure, conj)


def apply_sl2(form: qf.QuadForm, mat) -> qf.QuadForm:
    # right action of SL2(Z): (a, b, c) . M for M = [[p, q], [r, s]]
    p, q, r, s = mat
    assert p * s - q * r == 1
    a = form_value(form, p, r)
    c = form_value(form, q, s)
    b = 2 * form.a * p * q + form.b * (p * s + q * r) + 2 * form.c * r * s
    return qf.QuadForm(a, b, c)


def random_sl2(rng: random.Random):
    # short word in the two standard generators keeps entries small
    m = (1, 0, 0, 1)
    for _ in range(rng.randrange(1, 9)):
        if rng.random() < 0.5:
            p, q, r, s = m
            m = (p, p + q, r, r + s)  # right-multiply by [[1,1],[0,1]]
        else:
            p, q, r, s = m
            m = (q, -p, s, -r)  # right-multiply by [[0,-1],[1,0]]
    return m


def eta_product_coefficients(level: int, bound: int) -> list[int]:
    """q-expansion of q * prod (1-q^n)(1-q^(level*n)) up to q^bound."""
    series = np.zeros(bound + 1, dtype=np.int64)
    series[0] = 1
    for scale in (1, level):
        factor = np.zeros(bound + 1, dtype=np.int64)
        factor[0] = 1
        k = 1
        while True:
            e1 = scale * k * (3 * k - 1) // 2
            e2 = scale * k * (3 * k + 1) // 2
            if e1 > bound and e2 > bound:
                break
            sign = -1 if k % 2 else 1
            if e1 <= bound:
                factor[e1] += sign
            if e2 <= bound:
                factor[e2] += sign
            k += 1
        series = np.convolve(series, factor)[: bound + 1]
    out = np.zeros(bound + 1, dtype=np.int64)
    out[1:] = series[:bound]  # the leading q shift
    return out.tolist()


def form_inverse(f):
    return reduce_form(qf.QuadForm(f.a, -f.b, f.c))


def form_pow(f, n):
    # binary powering, independent of the walk table
    if n < 0:
        return form_pow(form_inverse(f), -n)
    if n == 0:
        return principal_form(discriminant(f))
    # start from the lowest set bit, so positive powers never build the identity
    base = reduce_form(f)
    while not n & 1:
        base = compose(base, base)
        n >>= 1
    result = base
    n >>= 1
    while n:
        base = compose(base, base)
        if n & 1:
            result = compose(result, base)
        n >>= 1
    return result


def span_oracle(known, y, k):
    # every entry a * y^j by one composition, the identity's row included
    out = {a: exps + (0,) for a, exps in known.items()}
    layer = list(known.items())
    for j in range(1, k):
        layer = [(compose(a, y), exps) for a, exps in layer]
        out.update((a, exps + (j,)) for a, exps in layer)
    return out


def sylow_basis_oracle(elems, q, identity):
    # the greedy basis with every power taken by form_pow from scratch
    known = {identity: ()}
    basis, orders = [], []
    elems_sorted = sorted(elems)
    while len(known) < len(elems):
        best, best_k = None, 0
        for f in elems_sorted:
            if f in known:
                continue
            k, y = 1, f
            while y not in known:
                y = form_pow(y, q)
                k *= q
            if k > best_k:
                best, best_k = f, k
        x, k = best, best_k
        rem = known[form_pow(x, k)]
        y = x
        for g, e in zip(basis, rem):
            assert e % k == 0
            y = compose(y, form_pow(g, -(e // k)))
        assert form_pow(y, k) == identity
        known = span_oracle(known, y, k)
        basis.append(y)
        orders.append(k)
    return basis, orders


def class_group_oracle(d):
    # class_group with Sylow membership and the basis by form_pow, no walks
    forms = list(qf.reduced_forms(d))
    h = len(forms)
    identity = principal_form(d)
    if h == 1:
        return qf.ClassGroup(d, 1, (), (), {identity: ()})
    per_prime = []
    for q, e in factorize(h).items():
        sylow = [f for f in forms if form_pow(f, q**e) == identity]
        assert len(sylow) == q**e
        basis, basis_orders = sylow_basis_oracle(sylow, q, identity)
        ranked = sorted(zip(basis_orders, basis), key=lambda t: (-t[0], t[1]))
        per_prime.append(([f for _, f in ranked], [o for o, _ in ranked]))
    gens_desc, invs_desc = [], []
    for i in range(max(len(b) for b, _ in per_prime)):
        g, dord = identity, 1
        for basis, basis_orders in per_prime:
            if i < len(basis):
                g = compose(g, basis[i])
                dord *= basis_orders[i]
        gens_desc.append(g)
        invs_desc.append(dord)
    structure, generators = tuple(reversed(invs_desc)), tuple(reversed(gens_desc))
    dlog = {identity: ()}
    for g, di in zip(generators, structure):
        dlog = span_oracle(dlog, g, di)
    return qf.ClassGroup(d, h, structure, generators, dlog)


def theta_oracle(d, char, bound):
    # each a_n as one product of dense cyclotomic vectors, local factor
    # times a_(n / l^e); a prime above l is in the class of a reduced form
    # that represents l, or in its inverse, and the local factor is the same
    # for both, so l is inert when no form represents it
    m = char.order
    dlog = qf.class_group(d).dlog
    counts = [(f, representation_counts(f, bound)) for f in qf.reduced_forms(d)]
    coeffs = [CycloValue(m), CycloValue.from_int(m, 1)]
    for n in range(2, bound + 1):
        ell, e = next(iter(factorize(n).items()))
        above = next((f for f, r in counts if r[ell]), None)
        local = [0] * m
        if above is None:
            local[0] = 1 - e % 2
        elif ell == -d:
            local[e * char._power(dlog[above]) % m] = 1
        else:
            for i in range(e + 1):
                local[(2 * i - e) * char._power(dlog[above]) % m] += 1
        coeffs.append(CycloValue(m, local) * coeffs[n // ell**e])
    return coeffs


def embed(v: CycloValue) -> complex:
    return sum(
        c * cmath.exp(2j * cmath.pi * k / v.m) for k, c in enumerate(v.coeffs) if c
    )


class TestDomain:
    def test_rejects_bad_discriminants(self):
        for d in (-13, -15, -8, -3, 0, 5, -21, -169):
            with pytest.raises(ValueError):
                qf.reduced_forms(d)

    def test_accepts_prime_discriminants(self):
        assert qf.class_number(-7) == 1
        assert qf.reduced_forms(-7) == (qf.QuadForm(1, 1, 2),)


class TestQuadForm:
    def test_equals_and_hashes_as_its_triple(self):
        f = qf.QuadForm(2, -1, 3)
        assert f == (2, -1, 3) and (2, -1, 3) == f
        assert hash(f) == hash((2, -1, 3))
        assert {(2, -1, 3): "x"}[f] == "x"
        assert {f: "x"}[(2, -1, 3)] == "x"
        assert (f.a, f.b, f.c) == tuple(f)

    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 3), max_size=12), st.randoms())
    def test_sorts_lexicographically_among_triples(self, triples, rng):
        # each entry a form or a plain triple, at random
        mixed = [qf.QuadForm(*t) if rng.random() < 0.5 else t for t in triples]
        assert [tuple(x) for x in sorted(mixed)] == sorted(triples)

    def test_repr(self):
        assert repr(qf.QuadForm(2, -1, 3)) == "QuadForm(a=2, b=-1, c=3)"
        assert str(qf.QuadForm(1, 1, 6)) == "QuadForm(a=1, b=1, c=6)"

    def test_pickle_round_trip(self):
        for f in qf.reduced_forms(-3299):
            back = pickle.loads(pickle.dumps(f))
            assert back == f and type(back) is qf.QuadForm
        grp = qf.class_group(-3299)
        assert pickle.loads(pickle.dumps(grp)) == grp

    def test_class_group_holds_quadforms(self):
        grp = qf.class_group(-3299)
        assert all(type(f) is qf.QuadForm for f in grp.generators)
        assert all(type(f) is qf.QuadForm for f in grp.dlog)
        assert all(type(f) is qf.QuadForm for f in qf.reduced_forms(-3299))


class TestReduction:
    def test_reduced_forms_disc_23(self):
        forms = qf.reduced_forms(-23)
        assert forms == (
            qf.QuadForm(1, 1, 6),
            qf.QuadForm(2, -1, 3),
            qf.QuadForm(2, 1, 3),
        )
        assert all(is_reduced(f) and discriminant(f) == -23 for f in forms)

    def test_reduce_is_equivalence_invariant(self):
        rng = random.Random(20260814)
        for d in (-23, -47, -71, -311):
            for f in qf.reduced_forms(d):
                for _ in range(12):
                    g = apply_sl2(f, random_sl2(rng))
                    assert discriminant(g) == d
                    assert reduce_form(g) == f

    def test_values_preserved_under_reduction(self):
        rng = random.Random(5)
        f = qf.QuadForm(2, 1, 3)
        g = apply_sl2(f, random_sl2(rng))
        bound = 60
        assert np.array_equal(
            representation_counts(f, bound), representation_counts(reduce_form(g), bound)
        )


class TestClassNumber:
    def test_known_values(self):
        for p, h in KNOWN_H.items():
            assert qf.class_number(-p) == h, p

    def test_analytic_route_agrees(self):
        for p in primes_in_range(7, 600):
            if p % 4 == 3:
                assert qf.class_number(-p) == qf.class_number_analytic(-p), p

    @settings(max_examples=100)
    @given(st.sampled_from([p for p in primes_in_range(7, 10**5 - 1) if p % 4 == 3]))
    def test_analytic_route_agrees_on_random_primes(self, p):
        assert qf.class_number(-p) == qf.class_number_analytic(-p)

    def test_analytic_route_refuses_p_above_its_limit(self):
        # the first admissible p above the limit is refused before the
        # (p-1)/2 squares are allocated; below it a^2 cannot overflow int64
        assert (qf.ANALYTIC_MAX_P // 2) ** 2 < 1 << 63
        p = qf.ANALYTIC_MAX_P + 1
        while p % 4 != 3 or not is_prime(p):
            p += 1
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="analytic class number needs p <="):
                qf.class_number_analytic(-p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_analytic_route_squares_in_blocks(self):
        # an admissible p just under the limit: 763 blocks of
        # squares, where one array of all (p-1)/2 of them took 429 MB
        p = 99999959
        assert p <= qf.ANALYTIC_MAX_P and p % 4 == 3 and is_prime(p)
        tracemalloc.start()
        try:
            h = qf.class_number_analytic(-p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h == 14245
        assert peak < 32 << 20

    def test_class_group_refuses_p_above_the_limit_before_enumerating_forms(self):
        misses = qf.reduced_forms.cache_info().misses
        with pytest.raises(ValueError, match="analytic class number needs p <="):
            qf.class_group(-100000007)
        assert qf.reduced_forms.cache_info().misses == misses

    def test_reduced_forms_refuse_p_above_the_limit(self):
        # refused before the O(p) loop: class_number and the batched route
        # of the brauer_siegel scan have an explicit limit too
        p = qf.ANALYTIC_MAX_P + 1
        while p % 4 != 3 or not is_prime(p):
            p += 1
        for route in (qf.reduced_forms, qf.class_number, lambda d: qf.class_numbers([d])):
            with pytest.raises(ValueError, match=f"reduced forms need p <= {qf.ANALYTIC_MAX_P}, got {p}"):
                route(-p)

    def test_h_odd_and_prime_to_p(self):
        for p in KNOWN_H:
            h = qf.class_number(-p)
            assert h % 2 == 1 and math.gcd(h, p) == 1


ADMISSIBLE_BELOW_30000 = [p for p in primes_in_range(7, 29999) if p % 4 == 3]


@functools.cache
def oracle_forms(p):
    return reduced_forms_oracle(-p)


def forms_by_prime(triples):
    """The forms that ``_reduced_triples`` yields, (a, -b, c) added when
    b < a < c, sorted per prime."""
    out = {}
    for p, a, b, c in triples:
        out.setdefault(p, []).append(qf.QuadForm(a, b, c))
        if b < a < c:
            out[p].append(qf.QuadForm(a, -b, c))
    return {p: tuple(sorted(forms)) for p, forms in out.items()}


class TestBatchedClassNumbers:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from(ADMISSIBLE_BELOW_30000), min_size=1, max_size=60))
    @example([7])
    @example([29983, 7, 29983, 11])
    def test_batches_match_the_oracle(self, batch):
        # unsorted, with duplicates: one entry per discriminant, first-seen order
        want = {-p: len(oracle_forms(p)) for p in batch}
        got = qf.class_numbers([-p for p in batch])
        assert got == want and list(got) == list(want)
        for p in set(batch):
            assert qf.reduced_forms(-p) == oracle_forms(p)

    def test_empty_batch(self):
        assert qf.class_numbers([]) == {}
        assert list(qf._reduced_triples([])) == []

    def test_small_and_large_primes_in_one_batch(self):
        # p = 7 drops out of the buckets after a = 1, the primes near 30,000
        # stay in them up to a = 99
        near = [p for p in ADMISSIBLE_BELOW_30000 if p > 29800]
        batch = [near[0], 7, *near[1:], 11, 7]
        assert qf.class_numbers(-p for p in batch) == {-p: len(oracle_forms(p)) for p in batch}
        assert forms_by_prime(qf._reduced_triples(batch)) == {p: oracle_forms(p) for p in batch}

    def test_primes_on_both_sides_of_the_largest_a(self):
        # for each a, the largest admissible prime below 3a^2, which has no
        # form with that a, and the least one above it, which may have one
        batch = []
        for a in range(2, 100):
            cut = 3 * a * a
            batch.append(max(p for p in ADMISSIBLE_BELOW_30000 if p < cut))
            batch.append(min(p for p in ADMISSIBLE_BELOW_30000 if p >= cut))
        reached = [p for p in batch if oracle_forms(p)[-1].a == math.isqrt(p // 3)]
        assert {23, 47, 71, 239} <= set(reached)
        assert qf.class_numbers(-p for p in batch) == {-p: len(oracle_forms(p)) for p in batch}
        assert forms_by_prime(qf._reduced_triples(batch)) == {p: oracle_forms(p) for p in batch}

    @pytest.mark.parametrize("p,edge", [
        (15, (2, 1, 2)),   # a = c
        (35, (3, 1, 3)),   # a = c
        (39, (3, 3, 4)),   # b = a
        (27, (3, 3, 3)),   # b = a = c
        (75, (5, 5, 5)),   # b = a = c
    ])
    def test_boundary_forms_of_composite_discriminants(self, p, edge):
        # for prime p, b = a happens only in the principal form and a = c
        # never, since 4a^2 - b^2 = (2a - b)(2a + b); the pass does not
        # validate its primes, so composite p exercise both boundaries, where
        # (a, -b, c) is not reduced
        forms = forms_by_prime(qf._reduced_triples([p]))[p]
        a, b, c = edge
        assert qf.QuadForm(a, b, c) in forms and qf.QuadForm(a, -b, c) not in forms
        assert forms == reduced_forms_oracle(-p)

    def test_a_mutant_analytic_route_is_caught(self, monkeypatch):
        analytic = qf._character_sum_class_number
        monkeypatch.setattr(qf, "_character_sum_class_number", lambda p: analytic(p) + 2)
        msg = "form count 3 != analytic class number for discriminant -23"
        with pytest.raises(InternalInconsistencyError, match=msg):
            qf.class_numbers([-23, -7])
        with pytest.raises(InternalInconsistencyError, match="form count 1 != analytic"):
            witness.scan("brauer_siegel", 7, 100)

    def test_every_discriminant_is_proven_prime_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(qf, "is_prime", lambda n: calls.append(n) or is_prime(n))
        # a repeated discriminant is validated once too
        assert qf.class_numbers([-23, -47, -23]) == {-23: 3, -47: 5}
        assert calls == [23, 47]
        calls.clear()
        qf.reduced_forms.cache_clear()
        qf.class_group.cache_clear()
        assert qf.class_group(-47).order == 5
        # the CLI's classgroup report reads the forms class_group cached
        assert qf.reduced_forms(-47) == reduced_forms_oracle(-47)
        assert calls == [47]

    def test_every_discriminant_is_validated_before_the_pass(self, monkeypatch):
        p = qf.ANALYTIC_MAX_P + 1
        while p % 4 != 3 or not is_prime(p):
            p += 1

        def no_pass(ps):
            raise AssertionError("forms enumerated before validation")

        monkeypatch.setattr(qf, "_reduced_triples", no_pass)
        with pytest.raises(ValueError, match=f"reduced forms need p <= {qf.ANALYTIC_MAX_P}, got {p}"):
            qf.class_numbers([-7, -23, -p])
        with pytest.raises(ValueError, match="discriminant must be"):
            qf.class_numbers([-23, -15])


class TestComposition:
    @given(st.integers(-10**6, 10**6), st.integers(-10**9, 10**9), st.integers(-10**6, 10**6),
           st.integers(1, 10**6))
    @example(0, 0, 0, 1)
    @example(6, 0, -3, 9)
    def test_solve_linmod_matches_extended_euclid(self, a, x, k, m):
        # b = a*x + k*m is solvable by construction
        b = a * x + k * m
        mu, v = qf._solve_linmod(a, b, m)
        mu0, v0 = solve_linmod_oracle(a, b, m)
        assert v == v0 == m // math.gcd(a, m)
        assert (a * mu - b) % m == 0 and (a * mu0 - b) % m == 0
        assert (mu - mu0) % v == 0

    @given(st.integers(2, 1000), st.integers(-10**4, 10**4), st.integers(1, 10**4),
           st.integers(-10**6, 10**6))
    def test_solve_linmod_refuses_unsolvable(self, g, a, m, b):
        # g divides a and m but not b, so a*x = b (mod m) has no solution
        if b % g == 0:
            b += 1
        with pytest.raises(InternalInconsistencyError, match="no solution"):
            qf._solve_linmod(g * a, b, g * m)

    @settings(max_examples=60)
    @given(st.sampled_from([p for p in primes_in_range(7, 20000) if p % 4 == 3]), st.randoms())
    def test_compose_matches_the_extended_euclid_composition(self, p, rng):
        # reduced and unreduced forms, equal pairs (the squaring route) too
        forms = qf.reduced_forms(-p)
        for _ in range(8):
            f = apply_sl2(rng.choice(forms), random_sl2(rng))
            g = rng.choice((f, apply_sl2(rng.choice(forms), random_sl2(rng))))
            assert qf._compose(f, g) == compose_oracle(f, g), (f, g)

    def test_group_axioms_sampled(self):
        rng = random.Random(31)
        for d in (-23, -47, -71, -479):
            forms = qf.reduced_forms(d)
            e = principal_form(d)
            for _ in range(40):
                f, g, k = (rng.choice(forms) for _ in range(3))
                assert compose(f, g) == compose(g, f)
                assert compose(compose(f, g), k) == compose(f, compose(g, k))
                assert compose(f, e) == f
                assert compose(f, form_inverse(f)) == e

    def test_square_matches_general_composition(self):
        # compose sends equal forms to its squaring shortcut; the shifted
        # form (a, b + 2a, a + b + c) is equivalent but not equal to f, so
        # composing with it takes the general route
        for d in (-23, -47, -3299):
            for f in qf.reduced_forms(d):
                g = qf.QuadForm(f.a, f.b + 2 * f.a, f.a + f.b + f.c)
                assert g != f
                assert compose(f, f) == compose(f, g)

    def test_pow_matches_iterated_compose(self):
        rng = random.Random(47)
        d = -167
        forms = qf.reduced_forms(d)
        e = principal_form(d)
        for _ in range(25):
            f = rng.choice(forms)
            n = rng.randrange(-8, 12)
            acc = e
            for _ in range(abs(n)):
                acc = compose(acc, f)
            if n < 0:
                acc = form_inverse(acc)
            assert form_pow(f, n) == acc

    def test_positive_powers_do_not_revalidate_the_discriminant(self, monkeypatch):
        forms = qf.reduced_forms(-167)
        calls = []
        real = qf.is_prime
        monkeypatch.setattr(qf, "is_prime", lambda n: calls.append(n) or real(n))
        for f in forms:
            for n in (1, 2, 5, 8, 11, -3):
                form_pow(f, n)
        # the identity is read from the discriminant, with no primality test
        assert form_pow(forms[0], 0) == qf.QuadForm(1, 1, 42)
        assert calls == []


class TestClassGroup:
    def test_cyclic_cases(self):
        for p, h in ((23, 3), (47, 5), (71, 7), (191, 13)):
            grp = qf.class_group(-p)
            assert grp.order == h
            assert grp.structure == (h,)
            assert len(grp.dlog) == h

    def test_noncyclic_case(self):
        grp = qf.class_group(-3299)
        assert grp.order == 27
        assert grp.structure == (3, 9)

    def test_invariant_factors_divide(self):
        for p in (23, 47, 479, 3299):
            s = qf.class_group(-p).structure
            assert all(s[i] > 1 for i in range(len(s)))
            assert all(s[i + 1] % s[i] == 0 for i in range(len(s) - 1))
            assert math.prod(s) == qf.class_number(-p)

    # every noncyclic class group of prime discriminant above -20000, with
    # the generators that the greedy rule picks; classgroup prints them and
    # theta numbers its characters by them
    @pytest.mark.parametrize("p,structure,generators", [
        (3299, (3, 9), ((15, -11, 57), (3, -1, 275))),
        (4027, (3, 3), ((17, -11, 61), (13, -9, 79))),
        (12451, (5, 5), ((7, -3, 445), (5, -3, 623))),
        (19427, (3, 9), ((17, -15, 289), (3, -1, 1619))),
        (19919, (3, 45), ((45, 31, 116), (31, 13, 162))),
    ])
    def test_noncyclic_generators_are_pinned(self, p, structure, generators):
        grp = qf.class_group(-p)
        assert grp.structure == structure
        assert grp.generators == tuple(qf.QuadForm(*g) for g in generators)

    @settings(max_examples=40)
    @given(st.sampled_from([p for p in primes_in_range(7, 20000) if p % 4 == 3]))
    @example(3299)
    @example(19919)
    def test_dlog_matches_generator_powers(self, p):
        # every entry equals the product of the generator powers it names
        grp = qf.class_group(-p)
        assert len(grp.dlog) == grp.order == qf.class_number(-p)
        for f, exps in grp.dlog.items():
            g = principal_form(grp.discriminant)
            for gen, e in zip(grp.generators, exps):
                g = compose(g, form_pow(gen, e))
            assert g == f

    @settings(max_examples=40)
    @given(st.sampled_from([p for p in primes_in_range(7, 40000) if p % 4 == 3]))
    @example(3299)
    @example(4027)
    @example(12451)
    @example(19427)
    @example(19919)
    def test_matches_form_pow_oracle(self, p):
        # structure, generators and the whole dlog table
        assert qf.class_group(-p) == class_group_oracle(-p)

    @pytest.mark.parametrize("p", [3299, 4027, 19919])
    def test_walk_orders_are_least_exponents(self, p):
        # the walk table holds forms as (a, b, c) tuples
        forms = qf.reduced_forms(-p)
        e = principal_form(-p)
        walks = qf._walks([tuple(f) for f in forms], tuple(e), len(forms))
        assert set(walks) == {tuple(f) for f in forms}
        for f in forms:
            least = next(n for n in itertools.count(1) if form_pow(f, n) == e)
            assert qf._order(walks, tuple(f)) == least, f
            for n in (-least - 1, -1, 0, 1, 2, least + 1):
                assert qf._power(walks, tuple(f), n) == tuple(form_pow(f, n)), (f, n)

    def test_walks_check_their_lengths(self):
        # the least form after the identity has order 9 in a group of order
        # 27: a bound of 7 stops its walk, and 9 does not divide a bound of 10
        forms = [tuple(f) for f in qf.reduced_forms(-3299)]
        e = tuple(principal_form(-3299))
        with pytest.raises(InternalInconsistencyError, match="do not return"):
            qf._walks(forms, e, 7)
        with pytest.raises(InternalInconsistencyError, match="does not divide"):
            qf._walks(forms, e, 10)

    def test_dlog_is_group_isomorphism(self):
        rng = random.Random(11)
        for d in (-71, -3299, -4027, -12451, -19919):
            grp = qf.class_group(d)
            forms = list(grp.dlog)
            assert exponents_of(grp, principal_form(grp.discriminant)) == (0,) * len(grp.structure)
            for _ in range(30):
                f, g = rng.choice(forms), rng.choice(forms)
                ef, eg = grp.dlog[f], grp.dlog[g]
                want = tuple((x + y) % m for x, y, m in zip(ef, eg, grp.structure))
                assert exponents_of(grp, compose(f, g)) == want

    def test_generator_orders(self):
        grp = qf.class_group(-3299)
        for g, order in zip(grp.generators, grp.structure):
            assert form_pow(g, order) == principal_form(grp.discriminant)
            for q in (3,):  # proper divisor check
                assert form_pow(g, order // q) != principal_form(grp.discriminant)


class TestCharacters:
    def test_count_and_trivial_first(self):
        for p in (23, 47, 3299):
            chars = qf.characters(-p)
            assert len(chars) == qf.class_number(-p)
            assert not any(chars[0].exponents)
            assert any(chars[1].exponents)

    def test_orthogonality(self):
        for d in (-23, -47, -3299):
            grp = qf.class_group(d)
            for char in qf.characters(d):
                total = CycloValue(char.order)
                for exps in grp.dlog.values():
                    total = total + char.value_at(exps)
                if not any(char.exponents):
                    assert total.to_int() == grp.order
                else:
                    assert total == 0

    def test_multiplicative_on_classes(self):
        rng = random.Random(2)
        d = -3299
        grp = qf.class_group(d)
        forms = list(grp.dlog)
        for char in qf.characters(d)[:6]:
            for _ in range(10):
                f, g = rng.choice(forms), rng.choice(forms)
                lhs = char.value_at(exponents_of(grp, compose(f, g)))
                rhs = char.value_at(grp.dlog[f]) * char.value_at(grp.dlog[g])
                assert lhs == rhs

    def test_conjugate_character(self):
        d = -47
        grp = qf.class_group(d)
        for char in qf.characters(d):
            conj = conjugate_character(char)
            for exps in grp.dlog.values():
                assert char.value_at(exps).conjugate() == conj.value_at(exps)

    def test_order_divides_group_exponent(self):
        for char in qf.characters(-3299):
            assert 9 % char.order == 0


class TestPrimeSplitting:
    def test_kind_matches_kronecker(self):
        # _prime_class is None exactly for the inert primes
        for ell in primes_in_range(2, 60):
            assert (qf._prime_class(-23, ell) is None) == (kronecker(-23, ell) == -1), ell

    def test_split_two_disc_23(self):
        assert qf._prime_class(-23, 2) == qf.QuadForm(2, 1, 3)

    @pytest.mark.parametrize("d", [-23, -47, -71, -3299, -19319])
    def test_matches_the_least_root_search(self, d):
        for ell in primes_in_range(2, 399):
            assert qf._prime_class(d, ell) == prime_class_oracle(d, ell), ell

    def test_split_forms_are_inverse_classes(self):
        for d, ell in ((-23, 2), (-23, 3), (-47, 7), (-71, 3), (-3299, 5)):
            assert kronecker(d, ell) == 1
            f = qf._prime_class(d, ell)
            # the conjugate prime (ell, (-b + sqrt(d))/2) has the form (a, -b, c)
            fbar = reduce_form(qf.QuadForm(f.a, -f.b, f.c))
            assert compose(f, fbar) == principal_form(d)
            # the split prime really is represented: ell = Q(x, y) solvable
            assert representation_counts(f, ell)[ell] > 0
            assert representation_counts(fbar, ell)[ell] > 0

    def test_ramified_class_is_two_torsion(self):
        # h is odd, so the 2-torsion class of the ramified prime is principal
        for p in (23, 47, 71, 3299):
            f = qf._prime_class(-p, p)
            assert compose(f, f) == principal_form(-p)
            assert f == principal_form(-p)


class TestTheta:
    def test_disc_23_matches_eta_product(self):
        # the cubic-character theta series for disc -23 equals
        # q prod (1-q^n)(1-q^23n) coefficientwise
        bound = 60
        char = qf.characters(-23)[1]
        theta = qf.theta_coefficients(-23, char, bound)
        oracle = eta_product_coefficients(23, bound)
        for n in range(1, bound + 1):
            assert theta.coefficients[n] == oracle[n], n

    def test_leading_normalization(self):
        for d in (-23, -31, -47):
            for char in qf.characters(d):
                theta = qf.theta_coefficients(d, char, 2)
                assert theta.coefficients[0] == 0
                assert theta.coefficients[1].to_int() == 1

    def test_multiplicative_on_coprime_indices(self):
        bound = 80
        for d in (-23, -47):
            for char in qf.characters(d)[1:]:
                theta = qf.theta_coefficients(d, char, bound)
                for m in range(2, 10):
                    for n in range(2, bound // m + 1):
                        if math.gcd(m, n) == 1:
                            lhs = theta.coefficients[m * n]
                            rhs = theta.coefficients[m] * theta.coefficients[n]
                            assert lhs == rhs, (d, m, n)

    def test_inert_primes_vanish_at_odd_powers(self):
        from galim.arith import kronecker

        d = -31
        char = qf.characters(d)[1]
        theta = qf.theta_coefficients(d, char, 130)
        for ell in (3, 11, 13, 17, 23, 29):
            assert kronecker(d, ell) == -1
            assert theta.coefficients[ell] == 0
            if ell**2 <= 130:
                assert theta.coefficients[ell**2].to_int() == 1

    def test_conjugate_character_same_series(self):
        # ideal conjugation preserves norms, so chi and chi-bar give equal a_n
        d = -47
        for char in qf.characters(d)[1:]:
            t1 = qf.theta_coefficients(d, char, 40)
            t2 = qf.theta_coefficients(d, conjugate_character(char), 40)
            assert t1.coefficients == t2.coefficients

    def test_fourier_inversion_recovers_representation_counts(self):
        # r_Q(n) / 2 = (1/h) sum_chi conj(chi)([Q]) a_chi(n)
        bound = 50
        for d in (-23, -47):
            grp = qf.class_group(d)
            chars = qf.characters(d)
            thetas = [qf.theta_coefficients(d, c, bound) for c in chars]
            for form in qf.reduced_forms(d):
                counts = representation_counts(form, bound)
                e = grp.dlog[form]
                for n in range(1, bound + 1):
                    acc = 0j
                    for char, theta in zip(chars, thetas):
                        w = embed(char.value_at(e).conjugate())
                        acc += w * embed(theta.coefficients[n])
                    predicted = acc.real / grp.order
                    assert abs(acc.imag) < 1e-8
                    assert abs(predicted - counts[n] / 2) < 1e-8, (d, form, n)

    @settings(max_examples=25)
    @given(st.sampled_from([p for p in primes_in_range(7, 5000) if p % 4 == 3]))
    @example(3299)
    def test_matches_lattice_counts_exactly(self, p):
        # a_chi(n) = sum_Q chi([Q]) r_Q(n) / 2, exactly in Z[zeta_m]: r_Q / 2
        # counts the ideals of norm n in the class of Q or of its inverse,
        # and r_Q = r_(Q^-1)
        bound = 60
        d = -p
        grp = qf.class_group(d)
        counts = {q: representation_counts(q, bound) for q in qf.reduced_forms(d)}
        for char in qf.characters(d):
            theta = qf.theta_coefficients(d, char, bound)
            values = {q: char.value_at(grp.dlog[q]) for q in counts}
            for n in range(1, bound + 1):
                want = CycloValue(char.order)
                for q, r in counts.items():
                    if r[n]:
                        assert r[n] % 2 == 0
                        want = want + values[q] * (int(r[n]) // 2)
                assert theta.coefficients[n] == want, (p, char.exponents, n)

    @settings(max_examples=15)
    @given(st.sampled_from([p for p in primes_in_range(7, 20000) if p % 4 == 3]))
    @example(18959)
    @example(19319)
    def test_matches_dense_product_oracle(self, p):
        # the first character of each order, so every cyclotomic order the
        # group has is covered; the stored remainders mod Phi_m compared
        d = -p
        firsts = {}
        for char in qf.characters(d):
            firsts.setdefault(char.order, char)
        for char in firsts.values():
            theta = qf.theta_coefficients(d, char, 120)
            oracle = theta_oracle(d, char, 120)
            assert [v.coeffs for v in theta.coefficients] == [v.coeffs for v in oracle]

    @pytest.mark.parametrize(
        "p,index,bound",
        [
            (23, 1, 1),  # a_1 alone
            (23, 2, 529),  # 23^2: the ramified prime squared
            (23, 0, 529),  # the trivial character: m = 1, every shift 0
            (47, 0, 128),  # 2^7 split, under the trivial character
            (31, 1, 121),  # 11^2, 11 inert
            (47, 3, 128),  # 2^7, 2 split
            (59, 1, 243),  # 3^5, with 2 inert
            (3299, 5, 125),
            (19319, 7, 169),
            (83, 2, 127),  # a prime bound
        ],
    )
    def test_least_prime_table_matches_factorize_oracle(self, p, index, bound):
        # theta_oracle reads l and e from factorize(n) for every n
        char = qf.characters(-p)[index]
        theta = qf.theta_coefficients(-p, char, bound)
        oracle = theta_oracle(-p, char, bound)
        assert len(theta.coefficients) == bound + 1
        assert [v.coeffs for v in theta.coefficients] == [v.coeffs for v in oracle]

    def test_equal_coefficients_are_one_object(self):
        for p, index, bound in ((23, 1, 600), (47, 3, 300), (3299, 5, 400), (47, 0, 200)):
            theta = qf.theta_coefficients(-p, qf.characters(-p)[index], bound)
            # the first a_n of each value is the one every later equal a_n
            # is; a_0 is zero, so every zero a_n is a_0 itself
            first = {}
            for v in theta.coefficients:
                assert first.setdefault(v.coeffs, v) is v
            assert len(first) < bound // 2

    @pytest.mark.parametrize("p,index,bound", [(23, 1, 600), (31, 1, 121), (47, 3, 128), (3299, 5, 200)])
    def test_reduces_exactly_the_distinct_histograms_once(self, p, index, bound, monkeypatch):
        # the histogram of a_n counts the ideals of norm n by the exponent k
        # of the character value zeta^k on their class: r_Q(n) / 2 of them
        # in the class of each reduced form Q
        real = qf._remainders
        calls = []

        def recording(m, vectors):
            vectors = [list(v) for v in vectors]
            calls.append([tuple(sorted(v)) for v in vectors])
            return real(m, vectors)

        d = -p
        char = qf.characters(d)[index]
        grp = qf.class_group(d)
        counts = [(char._power(grp.dlog[q]), representation_counts(q, bound)) for q in qf.reduced_forms(d)]
        want = set()
        for n in range(bound + 1):
            hist = {}
            for k, r in counts:
                if r[n]:
                    hist[k] = hist.get(k, 0) + int(r[n]) // 2
            want.add(tuple(sorted(hist.items())))
        monkeypatch.setattr(qf, "_remainders", recording)
        qf.theta_coefficients(d, char, bound)
        assert len(calls) == 1
        (passed,) = calls
        assert len(set(passed)) == len(passed)
        assert set(passed) == want

    def test_makes_no_factorize_call(self, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return factorize(n)

        qf.class_group(-19319)  # class_group factors h; warm it first
        monkeypatch.setattr(qf, "factorize", counting)
        for char in qf.characters(-19319)[:3]:
            qf.theta_coefficients(-19319, char, 300)
        assert calls == []

    def test_makes_no_primality_test(self, monkeypatch):
        # class_group validates d and the least-prime-factor table gives
        # primes, so with the class groups warm nothing is proven prime again;
        # bound 100 meets the ramified primes 23 and 47 too
        calls = []

        def counting(n):
            calls.append(n)
            return is_prime(n)

        discs = (-23, -47, -19319)
        chars = {d: qf.characters(d)[:3] for d in discs}
        monkeypatch.setattr(qf, "is_prime", counting)
        for d in discs:
            for char in chars[d]:
                qf.theta_coefficients(d, char, 100)
        assert calls == []

    def test_character_group_mismatch_rejected(self):
        # structure (5,) of disc -47 cannot act on the (3,) group of -23
        char47 = qf.characters(-47)[1]
        with pytest.raises(ValueError):
            qf.theta_coefficients(-23, char47, 10)

    def test_bound_above_the_limit_refused_before_any_table(self):
        # 10^5 coefficients take about 124 MB; the refusal allocates next
        # to nothing, even for a bound whose factor table alone would not fit
        char = qf.characters(-23)[1]
        tracemalloc.start()
        try:
            for bound in (qf.THETA_MAX_BOUND + 1, 10**12):
                with pytest.raises(ValueError, match=f"need bound <= {qf.THETA_MAX_BOUND}, got {bound}"):
                    qf.theta_coefficients(-23, char, bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qf.THETA_MAX_BOUND == 10**5
        assert peak < 1 << 20


class TestRepresentationCounts:
    def test_against_brute_force(self):
        bound = 40
        for form in (qf.QuadForm(1, 1, 6), qf.QuadForm(2, 1, 3), qf.QuadForm(3, 1, 4)):
            got = representation_counts(form, bound)
            want = np.zeros(bound + 1, dtype=np.int64)
            for x in range(-bound, bound + 1):
                for y in range(-bound, bound + 1):
                    if (x, y) == (0, 0):
                        continue
                    v = form_value(form, x, y)
                    if 1 <= v <= bound:
                        want[v] += 1
            assert np.array_equal(got, want), form

    def test_principal_count_disc_7(self):
        counts = representation_counts(qf.QuadForm(1, 1, 2), 16)
        assert counts[0] == 0
        assert counts[1] == 2  # (1,0), (-1,0) only: x^2+xy+2y^2 = 1
        assert counts[2] == 4
        assert int(counts.sum()) > 0

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            representation_counts(qf.QuadForm(1, 4, 1), 10)


class TestBrauerSiegel:
    def test_rows_and_bounds(self):
        # the Brauer-Siegel rows come from the scan route; their class numbers
        # must match the classical table and their ratios log h / log sqrt(p)
        rep = witness.scan("brauer_siegel", 7, 100)
        by_p = {r["p"]: r for r in rep.items}
        assert set(by_p) == {7, 11, 19, 23, 31, 43, 47, 59, 67, 71, 79, 83}
        for r in rep.items:
            assert r["h"] == KNOWN_H[r["p"]] == qf.class_number(-r["p"])
            want = 0.0 if r["h"] == 1 else 2 * math.log(r["h"]) / math.log(r["p"])
            assert r["ratio"] == pytest.approx(want)
        assert rep.aggregates["ratio_min"] == 0.0
        assert rep.aggregates["ratio_max"] == pytest.approx(max(r["ratio"] for r in rep.items))
