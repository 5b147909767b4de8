"""Release gate: nine numbered end-to-end checks over the whole toolkit.

Each check prints exactly one ``[criterion N] PASS/FAIL`` line (visible under
``pytest -s``) and enforces its wall-clock budget on this machine.  Tolerances
are pinned here and nowhere else: complex comparisons at 1e-8, the totient
ratio window at (0.3, 0.5615), the prime-search margins at 10^3 (additive)
and 0.002 (relative).
"""

import cmath
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from galim import arith, dickson, dims, inertia, kernels, quadforms, witness
from galim.cyclotomic import CycloValue
from galim.dickson import GFq, Mat2
from oracles import bernoulli_exact, divisors, exponents_of, representation_counts

THETA_TOL = 1e-8


@contextmanager
def criterion(num: int, label: str, budget: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {label}", flush=True)
        raise
    elapsed = time.monotonic() - t0
    if budget is not None and elapsed >= budget:
        print(
            f"[criterion {num}] FAIL {label}: {elapsed:.1f}s over the "
            f"{budget:.0f}s budget",
            flush=True,
        )
        raise AssertionError(f"criterion {num} took {elapsed:.1f}s, budget {budget:.0f}s")
    print(f"[criterion {num}] PASS {label} ({elapsed:.1f}s)", flush=True)


def embed(v: CycloValue) -> complex:
    return sum(
        c * cmath.exp(2j * cmath.pi * k / v.m) for k, c in enumerate(v.coeffs)
    )


def test_c1_bernoulli_tables_and_irregular_primes():
    with criterion(1, "mod-p Bernoulli tables match exact rationals", budget=10.0):
        for p in arith.primes_in_range(5, 200):
            table = kernels.bernoulli_table_mod(p)
            for k in range(2, p - 2, 2):
                exact = bernoulli_exact(k)
                assert table[k] == exact.numerator * pow(exact.denominator, -1, p) % p

        # second route: divisibility of the exact numerators
        scanned = arith.primes_in_range(5, 299)
        from_tables = [p for p in scanned if arith.irregular_indices(p)]
        from_numerators = [
            p
            for p in scanned
            if any(
                bernoulli_exact(k).numerator % p == 0
                for k in range(2, p - 2, 2)
            )
        ]
        assert from_tables == from_numerators
        assert from_tables == [
            37, 59, 67, 101, 103, 131, 149, 157, 233, 257, 263, 271, 283, 293,
        ]
        assert arith.irregular_indices(37) == (32,)
        assert bernoulli_exact(12) == Fraction(-691, 2730)
        assert abs(bernoulli_exact(12).numerator) % 691 == 0


def test_c2_class_numbers_by_two_routes():
    with criterion(2, "form-count and analytic class numbers agree", budget=60.0):
        checked = 0
        for p in arith.primes_in_range(7, 4999):
            if p % 4 != 3:
                continue
            h = quadforms.class_number(-p)
            assert h == quadforms.class_number_analytic(-p)
            assert 1 <= h <= (p - 1) // 2
            assert gcd(h, p) == 1
            checked += 1
        assert checked == 338


def test_c3_theta_series_against_lattice_counts():
    with criterion(3, "theta coefficients verified by lattice counts", budget=30.0):
        bound = 200
        for p in (23, 31, 47, 59, 71):
            d = -p
            forms = quadforms.reduced_forms(d)
            grp = quadforms.class_group(d)
            counts = {f: representation_counts(f, bound) for f in forms}
            inert = [
                ell
                for ell in arith.primes_in_range(2, bound)
                if arith.kronecker(d, ell) == -1
            ]
            for char in quadforms.characters(d)[1:]:
                theta = quadforms.theta_coefficients(d, char, bound)
                one = theta.coefficient(1)
                assert one.to_int() == 1

                for m in range(2, bound + 1):
                    for n in range(2, bound // m + 1):
                        if gcd(m, n) == 1:
                            a_mn = theta.coefficient(m * n)
                            assert a_mn == theta.coefficient(m) * theta.coefficient(n)

                for ell in inert:
                    assert theta.coefficient(ell) == 0

                # a_n must equal (1/2) sum_Q chi(Q) r_Q(n); the dictionary
                # between form classes and ideal classes is only pinned up to
                # inversion, so accept the conjugate orientation too
                values = [embed(char.value_at(exponents_of(grp, f))) for f in forms]
                for orientation in (values, [v.conjugate() for v in values]):
                    if all(
                        abs(
                            sum(w * int(counts[f][n]) for w, f in zip(orientation, forms)) / 2
                            - embed(theta.coefficient(n))
                        )
                        < THETA_TOL
                        for n in range(1, bound + 1)
                    ):
                        break
                else:
                    raise AssertionError(f"no orientation matches for d={d}")

            if p == 23:
                for char in quadforms.characters(d)[1:]:
                    theta = quadforms.theta_coefficients(d, char, 2)
                    assert theta.coefficient(2).to_int() == -1


def test_c4_modular_curve_dimensions():
    with criterion(4, "genus tables and old/new dimension bookkeeping", budget=30.0):
        for p in arith.primes_in_range(5, 999):
            g = dims.genus_X1(p)
            assert g == (p - 5) * (p - 7) // 24
            assert dims.dim_J1_prime(p) == g
        assert dims.dim_S2_new_Gamma0(22) == 0
        for N in range(1, 5001):
            total = sum(
                len(divisors(N // d)) * dims.dim_S2_new_Gamma0(d)
                for d in divisors(N)
            )
            assert total == dims.genus_X0(N).genus


def test_c5_tame_order_scan_is_empty():
    with criterion(5, "tame-order counterexample scan up to 10^5", budget=60.0):
        rep = witness.scan("eta", 7, 99999, jobs=4)
        assert rep.items == ()
        assert rep.aggregates["counterexamples"] == 0
        assert rep.aggregates["scanned"] == 9589


def test_c6_inertia_bounds_and_orders():
    with criterion(6, "inertia order formulas against group arithmetic", budget=30.0):
        for d in range(1, 51):
            assert inertia.exceptional_prime_bound(d) == 5 * 3 ** (4 * d)

        for p in arith.primes_in_range(3, 99):
            g = next(
                g
                for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in arith.factorize(p - 1))
            )
            for a in range(2 * (p - 1)):
                x, order = pow(g, a, p), 1
                y = x
                while y != 1:
                    y = y * x % p
                    order += 1
                assert inertia.proj_order_level1(p, a) == order

        for p in arith.primes_in_range(3, 99):
            field = GFq(p, 2)
            # the norm-one subgroup is the set of solutions of x^(p+1) = 1;
            # a generator is any such x of full order p + 1
            u = next(
                x
                for x in range(1, field.q)
                if _field_order(field, x) == p + 1
            )
            for a in range(2 * (p + 1)):
                x = _field_pow(field, u, a)
                assert inertia.proj_order_level2(p, a) == _field_order(field, x)

        for p in arith.primes_in_range(7, 99):
            for j in range(p - 1):
                for vcase in ("ord", "st", "ss"):
                    v = inertia.classify_weight2_local(p, j, vcase)
                    if v.exceptional_possible:
                        assert v.proj_inertia_order <= 5


def _field_pow(field: GFq, x: int, a: int) -> int:
    y = 1
    for _ in range(a):
        y = field.mul(y, x)
    return y


def _field_order(field: GFq, x: int) -> int:
    y, order = x, 1
    while y != 1:
        y = field.mul(y, x)
        order += 1
        assert order <= field.q
    return order


DICKSON_CORPUS = [
    (7, 1, ((3, 0, 0, 1), (1, 1, 0, 1)), 42, "borel"),
    (7, 1, ((3, 0, 0, 1), (0, 1, 1, 0)), 12, "dihedral-split"),
    (7, 1, ((1, 0, 0, 6), (0, 1, 1, 0)), 4, "dihedral-ambiguous"),
    (7, 1, ((1, 3, 1, 1),), 8, "dihedral-nonsplit"),
    (7, 1, ((1, 3, 1, 1), (1, 0, 0, 6)), 16, "dihedral-nonsplit"),
    (7, 1, ((0, 1, 3, 2), (0, 1, 5, 0)), 12, "exceptional-A4"),
    (7, 1, ((0, 1, 3, 1), (1, 0, 1, 2)), 24, "exceptional-S4"),
    (7, 1, ((0, 1, 6, 0), (1, 1, 0, 1)), 168, "large-PSL(7)"),
    (7, 1, ((0, 1, 6, 0), (1, 1, 0, 1), (3, 0, 0, 1)), 336, "large-PGL(7)"),
    (11, 1, ((0, 1, 2, 1), (0, 1, 6, 0)), 60, "exceptional-A5"),
    (13, 1, ((0, 1, 12, 0), (1, 1, 0, 1)), 1092, "large-PSL(13)"),
    (13, 1, ((2, 0, 0, 1), (0, 1, 1, 0)), 24, "dihedral-split"),
    (7, 2, ((1, 1, 0, 1), (1, 0, 7, 1)), 58800, "large-PSL(49)"),
    (7, 2, ((1, 1, 0, 1), (1, 0, 7, 1), (8, 0, 0, 1)), 117600, "large-PGL(49)"),
]


def test_c7_subgroup_classification_corpus():
    with criterion(7, "subgroup labels stable under conjugation and scaling", budget=60.0):
        fields: dict[tuple[int, int], GFq] = {}
        reports = []
        for p, r, codes, order, label in DICKSON_CORPUS:
            field = fields.setdefault((p, r), GFq(p, r))
            gens = [Mat2(field, *c) for c in codes]
            rep = dickson.classify(gens)
            assert rep.group_order == order, (p, r, codes)
            assert rep.canonical_label == label, (p, r, codes)
            reports.append((field, gens, rep))

        rng = random.Random(20260814)
        for trial in range(100):
            field, gens, base = reports[trial % len(reports)]
            while True:
                h = Mat2(field, *(rng.randrange(field.q) for _ in range(4)))
                if h.det() != 0:
                    break
            hinv = h.adjugate()
            moved = []
            for g in gens:
                c = h * g * hinv
                s = rng.randrange(1, field.q)
                moved.append(
                    Mat2(field, *(field.mul(s, e) for e in (c.a, c.b, c.c, c.d)))
                )
            rep = dickson.classify(moved)
            assert rep.group_order == base.group_order
            assert rep.canonical_label == base.canonical_label


def test_c8_witness_families():
    with criterion(8, "dimension witnesses and prime-search margins"):
        for p, ell, cartan in ((7, 83, "nonsplit"), (11, 43, "nonsplit"), (13, 103, "split")):
            w = witness.dihedral_lr_witness(p)
            assert (w.ell, w.cartan_type) == (ell, cartan)
            assert w.level == 64 * ell

        rep = witness.scan("lr", 7, 1999)
        assert len(rep.items) == 300
        for w in rep.items:
            assert w.p ** 5.5 - w.ell >= 1e3
        assert rep.aggregates["max_linnik_ratio"] < 0.002

        w = witness.dihedral_hida_witness(23)
        assert (w.dim_lower, w.dim_upper) == (10, 12)

        irregular = {37, 59, 67}
        for p in arith.primes_in_range(7, 99):
            if p in irregular:
                assert witness.borel_witness(p).p == p
            else:
                with pytest.raises(witness.RegularPrimeError):
                    witness.borel_witness(p)


def test_c9_totient_ratio_window():
    with criterion(9, "totient ratios along primorials stay in the window"):
        report = arith.totient_liminf_report(20)
        ratios = {row.k: row.ratio for row in report.rows}
        for k in range(5, 21):
            assert 0.3 < ratios[k] < 0.5615
        assert ratios[20] > ratios[10]
        assert report.liminf == pytest.approx(math.exp(-0.5772156649015329))
