"""Classification of projective matrix groups over small fields: field and
matrix arithmetic, square classes against a table of least square roots,
Schreier-Sims group orders and transversal-product listings against a
breadth-first closure oracle, fixed pairs as quadratic forms against Moebius
arithmetic in the quadratic extension of F_q, common fixed lines against a
search of every point, and the full decision cascade against an oracle that
searches every listed element for Cartan normalizers on that extension-field
route."""

import functools
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galim import dickson
from galim.arith import InternalInconsistencyError
from galim.dickson import GFq, Mat2, identity_mat
from oracles import multiplicative_order


F7 = GFq(7)
F11 = GFq(11)
F13 = GFq(13)
F49 = GFq(7, 2)


def mats(field, *rows):
    return [Mat2(field, *r) for r in rows]


def closure(generators):
    """Every element of the projective image, as the library lists it: the
    products of the Schreier-Sims transversals, scalar-normalized."""
    field = dickson._common_field(generators)
    return dickson._elements(field, dickson._transversals(field, generators))


def count_listings(monkeypatch):
    """Patch ``dickson._elements`` to record the size of every listing; the
    returned list fills as ``classify`` lists."""
    listed = []
    elements = dickson._elements

    def recorded(field, transversals):
        out = elements(field, transversals)
        listed.append(len(out))
        return out

    monkeypatch.setattr(dickson, "_elements", recorded)
    return listed


@functools.cache
def least_root_table(field):
    """Least-code square root of every square of the field, by squaring all
    q codes in increasing order; the oracles take every root from it."""
    least = {}
    for x in range(field.q):
        least.setdefault(field.mul(x, x), x)
    return least


def least_nonsquare(field):
    """Least nonzero code that is a nonsquare in F_q itself.

    In F_{p^2} every code below p is an element of F_p, hence a square, so
    the search starts at code p there.
    """
    least = least_root_table(field)
    a = 2 if field.r == 1 else field.p
    while a in least:
        a += 1
    return a


def fixed_lines_ext(m):
    """Fixed points of m on the projective line over the quadratic extension
    F_q(sqrt(N)), N = least_nonsquare, independent of the quadratic forms.

    Returns one of
      ("scalar", None, None)
      ("rational", {codes}, None)            one or two rational slope codes
      ("nonrational", None, (alpha, beta))   the conjugate pair
                                             alpha +- beta*sqrt(N)
    with beta canonicalized to the smaller of +-beta, so that conjugate
    pairs compare equal.
    """
    f = m.field
    inf = f.q
    if m.is_scalar():
        return "scalar", None, None
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0:
        pts = {inf}
        if a != d:
            pts.add(f.mul(b, f.inv(f.sub(d, a))))
        return "rational", frozenset(pts), None
    # slopes satisfy c t^2 + (d - a) t - b = 0
    da = f.sub(d, a)
    disc = f.add(f.mul(da, da), f.mul(f.from_int(4), f.mul(b, c)))
    inv2c = f.inv(f.mul(f.from_int(2), c))
    s = least_root_table(f).get(disc)
    if s is not None:
        t1 = f.mul(f.add(f.sub(a, d), s), inv2c)
        t2 = f.mul(f.sub(f.sub(a, d), s), inv2c)
        return "rational", frozenset({t1, t2}), None
    w = least_root_table(f).get(f.mul(disc, f.inv(least_nonsquare(f))))
    assert w is not None  # disc nonsquare, so disc/N is a square
    beta = f.mul(w, inv2c)
    return "nonrational", None, (f.mul(f.sub(a, d), inv2c), min(beta, f.neg(beta)))


def moebius_ext(m, z):
    """Action of m on z0 + z1*sqrt(N) in the quadratic extension of F_q;
    z1 != 0, so the denominator never vanishes for invertible m."""
    f = m.field
    n = least_nonsquare(f)
    num = (f.add(f.mul(m.a, z[0]), m.b), f.mul(m.a, z[1]))
    den = (f.add(f.mul(m.c, z[0]), m.d), f.mul(m.c, z[1]))
    norm = f.sub(f.mul(den[0], den[0]), f.mul(n, f.mul(den[1], den[1])))
    # num * conj(den) / norm
    out0 = f.sub(f.mul(num[0], den[0]), f.mul(n, f.mul(num[1], den[1])))
    out1 = f.sub(f.mul(num[1], den[0]), f.mul(num[0], den[1]))
    s = f.inv(norm)
    return f.mul(out0, s), f.mul(out1, s)


def preserves_ext(g, lines):
    """Whether g maps the fixed points ``fixed_lines_ext`` found onto
    themselves: rational ones by ``_moebius``, a conjugate pair in the
    quadratic extension."""
    kind, pts, pair = lines
    if kind == "rational":
        return all(dickson._moebius(g, t) in pts for t in pts)
    alpha, beta = pair
    z0, z1 = moebius_ext(g, pair)
    return z0 == alpha and z1 in (beta, g.field.neg(beta))


def closure_oracle(generators):
    """Projective closure by breadth-first search from the identity under
    right multiplication, independent of Schreier-Sims.

    A scalar-normalized matrix (m0, m1, m2, m3) is the packed code
    ((m0*q + m1)*q + m2)*q + m3, so q^4 must stay below 2^63; lead entries
    are inverted through a table of all q field elements.
    """
    field = generators[0].field
    p, r, q, nr = field.p, field.r, field.q, field.nonresidue or 0
    inv_table = np.array([0] + [field.inv(a) for a in range(1, q)], dtype=np.int64)

    def gmul(a, b):
        if r == 1:
            return a * b % p
        a0, a1, b0, b1 = a % p, a // p, b % p, b // p
        return (a0 * b0 + nr * (a1 * b1)) % p + p * ((a0 * b1 + a1 * b0) % p)

    def gadd(a, b):
        if r == 1:
            return (a + b) % p
        return (a % p + b % p) % p + p * ((a // p + b // p) % p)

    gens = sorted({g.scalar_normalized() for g in generators}, key=lambda m: (m.a, m.b, m.c, m.d))
    visited = np.array([q * q * q + 1], dtype=np.int64)
    frontier = visited
    while frontier.size:
        m3 = frontier % q
        t = frontier // q
        m2 = t % q
        t = t // q
        m1 = t % q
        m0 = t // q
        prods = []
        for g in gens:
            c0 = gadd(gmul(m0, g.a), gmul(m1, g.c))
            c1 = gadd(gmul(m0, g.b), gmul(m1, g.d))
            c2 = gadd(gmul(m2, g.a), gmul(m3, g.c))
            c3 = gadd(gmul(m2, g.b), gmul(m3, g.d))
            lead = np.where(c0 != 0, c0, np.where(c1 != 0, c1, np.where(c2 != 0, c2, c3)))
            il = inv_table[lead]
            prods.append(((gmul(c0, il) * q + gmul(c1, il)) * q + gmul(c2, il)) * q + gmul(c3, il))
        new = np.setdiff1d(np.unique(np.concatenate(prods)), visited, assume_unique=True)
        visited = np.union1d(visited, new)
        frontier = new
    out = set()
    for code in visited.tolist():
        code, d = divmod(code, q)
        code, c = divmod(code, q)
        a, b = divmod(code, q)
        out.add(Mat2(field, a, b, c, d))
    return frozenset(out)


class TestGFq:
    def test_prime_field_ops(self):
        f = GFq(11)
        for a in range(11):
            for b in range(11):
                assert f.add(a, b) == (a + b) % 11
                assert f.mul(a, b) == a * b % 11
            if a:
                assert f.mul(a, f.inv(a)) == 1

    def test_extension_field_is_a_field(self):
        f = GFq(7, 2)
        assert f.q == 49
        assert f.nonresidue == 3  # least nonsquare mod 7
        rng = random.Random(20260814)
        for _ in range(120):
            a, b, c = (rng.randrange(49) for _ in range(3))
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in range(1, 49):
            assert f.mul(a, f.inv(a)) == 1

    def test_extension_embeds_prime_field(self):
        f = GFq(7, 2)
        for a in range(7):
            for b in range(7):
                assert f.mul(a, b) == a * b % 7

    def test_sqrt(self):
        # a code has a square root exactly when is_square says so: 0 plus
        # exactly (q-1)/2 nonzero squares
        for f in (GFq(11), GFq(7, 2)):
            least = least_root_table(f)
            squares = [a for a in range(f.q) if f.is_square(a)]
            assert squares == sorted(least)
            assert all(f.mul(least[a], least[a]) == a for a in squares)
            assert len(squares) == (f.q - 1) // 2 + 1

    # least_nonsquare is the extension-field oracle's N
    def test_ext_nonresidue(self):
        for f in (GFq(7), GFq(7, 2), GFq(13)):
            n = least_nonsquare(f)
            assert n and not f.is_square(n)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 29, 31, 37, 43])
    def test_ext_nonresidue_matches_search_from_two(self, p):
        # p = 1 mod 4 gives x itself (code p); p = 3 mod 4 a later code
        f = GFq(p, 2)
        a = 2
        while f.is_square(a):
            a += 1
        assert least_nonsquare(f) == a
        assert (a == p) == (p % 4 == 1)

    # is_square reads one Kronecker symbol, so no table is built; the codes
    # with a square root come from the table here
    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_prime_field_sqrt_builds_no_table(self, p):
        f = GFq(p)
        least = least_root_table(f)
        assert [f.is_square(a) for a in range(p)] == [a in least for a in range(p)]
        assert least_nonsquare(f) == min(a for a in range(1, p) if a not in least)

    @pytest.mark.parametrize("p", [7, 11, 13, 23, 31, 47, 101])
    def test_extension_field_sqrt_matches_least_root_table(self, p):
        f = GFq(p, 2)
        least = least_root_table(f)
        assert [f.is_square(a) for a in range(f.q)] == [a in least for a in range(f.q)]
        assert least_nonsquare(f) == min(a for a in range(1, f.q) if a not in least)

    def test_extension_field_sqrt_needs_no_table(self):
        # a table of the 10^8 squares of F_{10007^2} would not fit here, so
        # Euler's criterion a^((q-1)/2) in {0, 1} is the oracle
        p = 10007
        f = GFq(p, 2)
        rng = random.Random(13)

        def euler(a):
            out, e = 1, (f.q - 1) // 2
            while e:
                if e & 1:
                    out = f.mul(out, a)
                a, e = f.mul(a, a), e >> 1
            return out

        seen = set()
        for _ in range(200):
            b = rng.randrange(1, f.q)
            assert f.is_square(f.mul(b, b))
            assert f.is_square(b) == (euler(b) == 1)
            seen.add(f.is_square(b))
        assert seen == {True, False}
        assert f.is_square(0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GFq(2)
        with pytest.raises(ValueError):
            GFq(9)
        with pytest.raises(ValueError):
            GFq(7, 3)


class TestMat2:
    def test_multiplication_matches_manual(self):
        rng = random.Random(3)
        f = GFq(13)
        for _ in range(50):
            m = Mat2(f, *(rng.randrange(13) for _ in range(4)))
            n = Mat2(f, *(rng.randrange(13) for _ in range(4)))
            prod = m * n
            assert prod.a == (m.a * n.a + m.b * n.c) % 13
            assert prod.b == (m.a * n.b + m.b * n.d) % 13
            assert prod.c == (m.c * n.a + m.d * n.c) % 13
            assert prod.d == (m.c * n.b + m.d * n.d) % 13

    def test_det_multiplicative(self):
        rng = random.Random(4)
        f = GFq(11)
        for _ in range(40):
            m = Mat2(f, *(rng.randrange(11) for _ in range(4)))
            n = Mat2(f, *(rng.randrange(11) for _ in range(4)))
            assert (m * n).det() == f.mul(m.det(), n.det())

    def test_adjugate_gives_inverse(self):
        f = GFq(11)
        m = Mat2(f, 3, 1, 4, 5)
        prod = m * m.adjugate()
        assert prod.is_scalar() and prod.a == m.det()

    def test_scalar_normalized(self):
        f = GFq(7)
        m = Mat2(f, 2, 4, 6, 2)
        nm = m.scalar_normalized()
        assert nm == Mat2(f, 1, 2, 3, 1)
        assert Mat2(f, 0, 3, 5, 0).scalar_normalized() == Mat2(f, 0, 1, 4, 0)

    def test_entries_validated(self):
        with pytest.raises(ValueError):
            Mat2(F7, 7, 0, 0, 1)
        with pytest.raises(ValueError):
            Mat2(F7, -1, 0, 0, 1)

    def test_projective_order(self):
        assert dickson.projective_order(identity_mat(F7)) == 1
        assert dickson.projective_order(Mat2(F7, 3, 0, 0, 3)) == 1
        for g in range(2, 7):
            m = Mat2(F7, g, 0, 0, 1)
            assert dickson.projective_order(m) == multiplicative_order(g, 7)
        with pytest.raises(ValueError):
            dickson.projective_order(Mat2(F7, 1, 1, 1, 1))


def nonscalar_elements(field):
    """Every nonscalar element of PGL2(F_q), scalar-normalized."""
    out = set()
    for e in np.ndindex(*[field.q] * 4):
        m = Mat2(field, *e)
        if m.det() and not m.is_scalar():
            out.add(m.scalar_normalized())
    return sorted(out, key=lambda m: (m.a, m.b, m.c, m.d))


class TestFixedPairs:
    """Fixed pairs as quadratic forms over F_q against Moebius arithmetic in
    its quadratic extension."""

    @staticmethod
    def assert_fixed_lines_match(elements):
        forms = [dickson._form(m) for m in elements]
        oracle = [fixed_lines_ext(m) for m in elements]
        for m, form, (kind, pts, _) in zip(elements, forms, oracle):
            assert dickson._rational_lines(m.field, form) == (len(pts) if kind == "rational" else 0)
            assert len(form) == 3 and next(x for x in form if x) == 1
        # equal forms exactly for equal fixed pairs, rational or conjugate
        by_form, by_pair = {}, {}
        for i, (form, (_, pts, pair)) in enumerate(zip(forms, oracle)):
            by_form.setdefault(form, set()).add(i)
            by_pair.setdefault(pts or pair, set()).add(i)
        assert sorted(map(sorted, by_form.values())) == sorted(map(sorted, by_pair.values()))

    def test_every_element_over_f7(self):
        elements = nonscalar_elements(F7)
        assert len(elements) == 335
        self.assert_fixed_lines_match(elements)
        kinds = Counter(dickson._rational_lines(F7, dickson._form(m)) for m in elements)
        # PGL2(F_q) has q(q+1)/2 split tori with q-2 nonscalar elements each,
        # q^2-1 unipotents, and q(q-1)/2 nonsplit tori with q each
        assert kinds == {2: 28 * 5, 1: 48, 0: 21 * 7}
        assert dickson._form(identity_mat(F7)) is None
        assert dickson._form(Mat2(F7, 3, 0, 0, 3)) is None

    def test_preserves_every_pair_over_f7(self):
        elements = nonscalar_elements(F7)
        oracle = [fixed_lines_ext(h) for h in elements]
        for h, lines in zip(elements, oracle):
            for g in elements:
                assert dickson._preserves(g, h) == preserves_ext(g, lines), (g, h)

    def test_sample_over_f49(self):
        # g and h drawn from a split torus, a nonsplit torus, the flip of
        # either and upper triangular or random matrices, conjugated by one
        # random k, so that preserved conjugate pairs come up often
        f = F49
        rng = random.Random(49)
        n = least_nonsquare(f)

        def unit():
            return rng.randrange(1, f.q)

        shapes = [
            lambda: (unit(), 0, 0, unit()),
            lambda: (0, unit(), unit(), 0),
            lambda: (1, 0, 0, f.neg(1)),
            lambda: (lambda a, b: (a, f.mul(b, n), b, a))(rng.randrange(f.q), unit()),
            lambda: (unit(), rng.randrange(f.q), 0, unit()),
            lambda: tuple(rng.randrange(f.q) for _ in range(4)),
        ]
        elements, pairs = set(), []
        while len(pairs) < 2000:
            k = random_invertible(rng, f)
            g, h = (k * Mat2(f, *rng.choice(shapes)()) * k.adjugate() for _ in range(2))
            if g.det() and h.det() and not g.is_scalar() and not h.is_scalar():
                elements |= {g, h}
                pairs.append((g, h))
        self.assert_fixed_lines_match(sorted(elements, key=lambda m: (m.a, m.b, m.c, m.d)))
        outcomes = Counter()
        for g, h in pairs:
            lines = fixed_lines_ext(h)
            got = dickson._preserves(g, h)
            assert got == preserves_ext(g, lines), (g, h)
            outcomes[lines[0], got] += 1
        # both kinds of pair, preserved and not, all came up
        assert len(outcomes) == 4


def assert_common_line_matches_search(field, gens):
    """``_common_line`` against a search of all q+1 points for one that
    ``_moebius`` fixes under every generator; returns the outcome, or None
    when the forms are all equal and ``_common_line`` does not apply."""
    forms = [dickson._form(g) for g in gens]
    if len(set(forms)) == 1:
        return None
    want = any(all(dickson._moebius(g, t) == t for g in gens) for t in range(field.q + 1))
    assert dickson._common_line(field, forms) == want, gens
    return want


@st.composite
def common_line_sets(draw):
    """Two or three nonscalar generators over F_7, F_11, F_13 or F_49, all
    upper triangular or all random, conjugated by one random matrix."""
    field = draw(st.sampled_from([F7, F11, F13, F49]))
    unit, entry = st.integers(1, field.q - 1), st.integers(0, field.q - 1)
    upper = st.tuples(unit, entry, unit).map(lambda t: (t[0], t[1], 0, t[2]))
    anything = st.tuples(entry, entry, entry, entry)
    shape = draw(st.sampled_from([upper, anything]))
    mat = shape.map(lambda e: Mat2(field, *e)).filter(lambda m: m.det() and not m.is_scalar())
    gens = draw(st.lists(mat, min_size=2, max_size=3))
    k = draw(anything.map(lambda e: Mat2(field, *e)).filter(lambda m: m.det() != 0))
    return field, [k * g * k.adjugate() for g in gens]


class TestCommonLine:
    @settings(max_examples=200)
    @given(common_line_sets())
    def test_matches_point_search(self, case):
        assert_common_line_matches_search(*case)

    def test_both_outcomes_occur(self):
        outcomes = Counter()

        @settings(max_examples=200, derandomize=True, database=None)
        @given(common_line_sets())
        def run(case):
            outcomes[assert_common_line_matches_search(*case)] += 1

        run()
        assert outcomes[True] > 20 and outcomes[False] > 20

    def test_shared_line_at_infinity_and_elsewhere(self):
        # x -> 2x + 1 and x -> 3x share only infinity; conjugated by the flip
        # they share only 0, and a third generator fixing neither breaks it
        borel = mats(F7, (2, 1, 0, 1), (3, 0, 0, 1))
        flip = Mat2(F7, 0, 1, 1, 0)
        flipped = [flip * g * flip for g in borel]
        assert assert_common_line_matches_search(F7, borel) is True
        assert assert_common_line_matches_search(F7, flipped) is True
        assert assert_common_line_matches_search(F7, borel + [flip]) is False


class TestClosure:
    def test_sl2_f7(self):
        got = closure(mats(F7, (0, 1, 6, 0), (1, 1, 0, 1)))
        assert len(got) == 168

    def test_adding_nonsquare_scalar_determinant_doubles(self):
        got = closure(mats(F7, (0, 1, 6, 0), (1, 1, 0, 1), (3, 0, 0, 1)))
        assert len(got) == 336

    def test_all_elements_normalized_and_closed(self):
        got = closure(mats(F7, (3, 0, 0, 1), (0, 1, 1, 0)))
        assert all(m == m.scalar_normalized() for m in got)
        for x in got:
            for y in got:
                assert (x * y).scalar_normalized() in got

    def test_rejects_mixed_fields_and_singular(self):
        with pytest.raises(ValueError):
            closure([identity_mat(F7), identity_mat(F11)])
        with pytest.raises(ValueError):
            closure(mats(F7, (1, 1, 1, 1)))
        with pytest.raises(ValueError):
            closure([])


# generator tuples -> expected (order, label) over F7 unless stated
CASCADE_CASES = [
    # trivial and scalar-only input
    ([(1, 0, 0, 1)], 1, "borel"),
    ([(4, 0, 0, 4)], 1, "borel"),
    # split Cartan (cyclic, both fixed lines rational): reducible wins
    ([(3, 0, 0, 1)], 6, "borel"),
    # full Borel
    ([(3, 0, 0, 1), (1, 1, 0, 1)], 42, "borel"),
    # dihedral of order 12 around the split torus
    ([(3, 0, 0, 1), (0, 1, 1, 0)], 12, "dihedral-split"),
    # Klein four group: split and nonsplit normalizers both contain it
    ([(1, 0, 0, 6), (0, 1, 1, 0)], 4, "dihedral-ambiguous"),
    # the full PSL and PGL
    ([(0, 1, 6, 0), (1, 1, 0, 1)], 168, "large-PSL(7)"),
    ([(0, 1, 6, 0), (1, 1, 0, 1), (3, 0, 0, 1)], 336, "large-PGL(7)"),
    # exceptional subgroups (generators found by randomized search, frozen)
    ([(0, 1, 3, 2), (0, 1, 5, 0)], 12, "exceptional-A4"),
    ([(0, 1, 3, 1), (1, 0, 1, 2)], 24, "exceptional-S4"),
]


class TestClassifyCascade:
    @pytest.mark.parametrize("codes,order,label", CASCADE_CASES)
    def test_f7_corpus(self, codes, order, label):
        rep = dickson.classify(mats(F7, *codes))
        assert rep.group_order == order
        assert rep.canonical_label == label
        assert (rep.p, rep.r, rep.q) == (7, 1, 7)

    def test_a5_over_f11(self):
        rep = dickson.classify(mats(F11, (0, 1, 2, 1), (0, 1, 6, 0)))
        assert rep.group_order == 60
        assert rep.exceptional == "A5"
        assert rep.canonical_label == "exceptional-A5"

    def test_exceptional_order_statistics(self):
        # independent structure check: A4 has 3 involutions and 8 elements
        # of order 3; S4 adds 6 four-cycles
        elements = closure(mats(F7, (0, 1, 3, 2), (0, 1, 5, 0)))
        stats = Counter(dickson.projective_order(m) for m in elements)
        assert dict(stats) == {1: 1, 2: 3, 3: 8}
        elements = closure(mats(F7, (0, 1, 3, 1), (1, 0, 1, 2)))
        stats = Counter(dickson.projective_order(m) for m in elements)
        assert dict(stats) == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_dihedral_split_structure(self):
        elements = closure(mats(F7, (3, 0, 0, 1), (0, 1, 1, 0)))
        stats = Counter(dickson.projective_order(m) for m in elements)
        assert dict(stats) == {1: 1, 2: 7, 3: 2, 6: 2}  # dihedral of order 12

    def test_nonsplit_cartan_f7(self):
        # char poly of (1,3,1,1) has discriminant 12 = 5, a nonsquare mod 7,
        # and a cyclic group of order 8 in PGL2(F7) can only be that torus
        g = Mat2(F7, 1, 3, 1, 1)
        assert dickson.projective_order(g) == 8
        rep = dickson.classify([g])
        assert rep.group_order == 8
        assert rep.nonsplit_cartan and not rep.split_cartan and not rep.reducible
        assert rep.canonical_label == "dihedral-nonsplit"

    def test_nonsplit_normalizer_f7(self):
        rep = dickson.classify(mats(F7, (1, 3, 1, 1), (1, 0, 0, 6)))
        assert rep.group_order == 16
        assert rep.in_normalizer_nonsplit and not rep.in_normalizer_split
        assert not rep.nonsplit_cartan  # the flip is not in the torus itself
        assert rep.canonical_label == "dihedral-nonsplit"

    def test_split_cartan_flags(self):
        rep = dickson.classify(mats(F7, (3, 0, 0, 1)))
        assert rep.reducible and rep.split_cartan
        assert rep.in_normalizer_split
        assert rep.canonical_label == "borel"

    def test_involution_cases(self):
        rational = dickson.classify(mats(F7, (0, 1, 1, 0)))
        assert rational.group_order == 2
        assert rational.reducible and rational.canonical_label == "borel"
        assert rational.in_normalizer_split and rational.in_normalizer_nonsplit
        g = Mat2(F7, 0, 1, 3, 0)  # fixes t^2 = 5, nonrational
        nonrational = dickson.classify([g])
        assert nonrational.group_order == 2
        assert not nonrational.reducible
        assert nonrational.canonical_label == "dihedral-ambiguous"

    def test_psl2_f13(self):
        rep = dickson.classify(mats(F13, (0, 1, 12, 0), (1, 1, 0, 1)))
        assert rep.group_order == 1092
        assert rep.canonical_label == "large-PSL(13)"

    def test_dihedral_split_f13(self):
        rep = dickson.classify(mats(F13, (2, 0, 0, 1), (0, 1, 1, 0)))
        assert rep.group_order == 24
        assert rep.canonical_label == "dihedral-split"

    def test_extension_field_psl_and_pgl(self):
        # unipotents with offsets 1 and x (code 7) span GF(49) additively,
        # so they generate the full SL2; 1+x (code 8) is a nonsquare since
        # its norm 5 is a cube root of -1 mod 7
        rep = dickson.classify(mats(F49, (1, 1, 0, 1), (1, 0, 7, 1)))
        assert rep.group_order == 58800
        assert rep.canonical_label == "large-PSL(49)"
        rep = dickson.classify(mats(F49, (1, 1, 0, 1), (1, 0, 7, 1), (8, 0, 0, 1)))
        assert rep.group_order == 117600
        assert rep.canonical_label == "large-PGL(49)"

    def test_nonsquare_determinant_reaches_pgl(self):
        # det of the antidiagonal flip below is -(6+6x), also a nonsquare
        rep = dickson.classify(mats(F49, (0, 1, 48, 0), (1, 1, 0, 1)))
        assert rep.group_order == 117600
        assert rep.canonical_label == "large-PGL(49)"

    def test_prime_field_group_inside_extension(self):
        # the same PSL2(F7) generators, read in GF(49): q0 = p^1 branch
        rep = dickson.classify(mats(F49, (0, 1, 6, 0), (1, 1, 0, 1)))
        assert rep.group_order == 168
        assert rep.canonical_label == "large-PSL(7)"

    def test_prime_field_pgl_inside_extension(self):
        # diag(-1, 1) has det -1, a nonsquare mod 7, so it lies outside
        # PSL2(F7) and the group is PGL2(F7), read in GF(49).  Its trace is
        # 0, so tr^2/det - 4 = 3 is a nonsquare mod 7 and its projective
        # order 2 divides (7 + 1)/2: a membership rule built on those two
        # facts would put it in PSL2(F7) and report 168
        rep = dickson.classify(mats(F49, (0, 1, 6, 0), (1, 1, 0, 1), (6, 0, 0, 1)))
        assert rep.group_order == 336
        assert rep.canonical_label == "large-PGL(7)"

    def test_small_characteristic_rejected(self):
        f5 = GFq(5)
        with pytest.raises(ValueError):
            dickson.classify([identity_mat(f5)])


def invertible_generators(field, max_count=3):
    entries = st.tuples(*[st.integers(0, field.q - 1)] * 4)
    mat = entries.map(lambda e: Mat2(field, *e)).filter(lambda m: m.det() != 0)
    return st.lists(mat, min_size=1, max_size=max_count)


def assert_matches_oracle(gens, order=None):
    want = closure_oracle(gens)
    assert dickson.group_order(gens) == len(want)
    assert closure(gens) == want
    if order is not None:
        assert len(want) == order


class TestGroupOrder:
    """Schreier-Sims orders and transversal-product listings against the
    breadth-first closure oracle."""

    @settings(max_examples=60)
    @given(st.sampled_from([F7, F11, F13]).flatmap(invertible_generators))
    def test_matches_enumeration(self, gens):
        assert_matches_oracle(gens)

    # each PGL2(F49)-sized oracle closure takes about half a second
    @settings(max_examples=4)
    @given(invertible_generators(F49, max_count=2))
    def test_matches_enumeration_f49(self, gens):
        assert_matches_oracle(gens)

    # every group of the acceptance gate's criterion-7 corpus, plus the
    # trivial and cyclic F7 cascade cases
    @pytest.mark.parametrize(
        "field,codes,order", [(F7, c, n) for c, n, _ in CASCADE_CASES] + [
            (F11, [(0, 1, 2, 1), (0, 1, 6, 0)], 60),
            (F13, [(0, 1, 12, 0), (1, 1, 0, 1)], 1092),
            (F13, [(2, 0, 0, 1), (0, 1, 1, 0)], 24),
            (F7, [(1, 3, 1, 1)], 8),
            (F7, [(1, 3, 1, 1), (1, 0, 0, 6)], 16),
            (F49, [(1, 1, 0, 1), (1, 0, 7, 1)], 58800),
            (F49, [(1, 1, 0, 1), (1, 0, 7, 1), (8, 0, 0, 1)], 117600),
        ],
    )
    def test_corpus_matches_enumeration(self, field, codes, order):
        assert_matches_oracle(mats(field, *codes), order)

    def test_psl2_f169_beyond_the_listing_limit(self, monkeypatch):
        # unipotents with offsets 1 and x (code 13) generate SL2(F169)
        gens = mats(GFq(13, 2), (1, 1, 0, 1), (1, 0, 13, 1))
        assert dickson.group_order(gens) == 169 * (169 * 169 - 1) // 2 == 2_413_320
        listings = count_listings(monkeypatch)
        rep = dickson.classify(gens)
        assert rep.group_order == 2_413_320
        assert rep.canonical_label == "large-PSL(169)"
        assert listings == []

    def test_classify_builds_one_chain_and_lists_nothing(self, monkeypatch):
        # the dihedral group of order 2(p-1) around the split torus: 2 is a
        # primitive root mod 5003.  Its normalizer is found from the
        # generators, so none of its 10,004 elements is listed
        chains = []
        transversals = dickson._transversals

        def counted_transversals(*args):
            chains.append(args)
            return transversals(*args)

        monkeypatch.setattr(dickson, "_transversals", counted_transversals)
        listings = count_listings(monkeypatch)
        rep = dickson.classify(mats(GFq(5003), (2, 0, 0, 1), (0, 1, 1, 0)))
        assert rep.group_order == 10_004
        assert rep.canonical_label == "dihedral-split"
        assert len(chains) == 1
        assert listings == []

    def test_classify_ignores_the_listing_limit(self):
        gens = mats(GFq(5003), (2, 0, 0, 1), (0, 1, 1, 0))
        rep = dickson.classify(gens)
        assert rep.group_order == 10_004
        assert rep.canonical_label == "dihedral-split"
        assert rep.in_normalizer_split and not rep.in_normalizer_nonsplit

    def test_small_group_with_p_squared_above_2_63(self):
        # 3037000507 = 1 (mod 6) is the least prime with p^2 >= 2^63, and
        # 2969876064 has multiplicative order 6 mod p: with the flip it
        # generates the dihedral group of order 12 around the split torus
        p = 3037000507
        gens = mats(GFq(p), (2969876064, 0, 0, 1), (0, 1, 1, 0))
        got = closure(gens)
        assert len(got) == 12
        assert all((x * y).scalar_normalized() in got for x in got for y in got)
        assert Counter(dickson.projective_order(m) for m in got) == {1: 1, 2: 7, 3: 2, 6: 2}
        rep = dickson.classify(gens)
        assert rep.group_order == 12
        assert rep.canonical_label == "dihedral-split"

    def test_duplicate_products_are_an_inconsistency(self, monkeypatch):
        # a transversal with a repeated element makes the product count fall
        # short of the order that the transversal lengths claim
        transversals = dickson._transversals

        def padded(field, gens):
            out = transversals(field, gens)
            out[-1][field.q + 1] = identity_mat(field)
            return out

        monkeypatch.setattr(dickson, "_transversals", padded)
        with pytest.raises(InternalInconsistencyError, match="distinct elements"):
            closure(mats(F7, (3, 0, 0, 1), (0, 1, 1, 0)))

    def test_psl2_large_prime(self):
        p = 1009
        gens = mats(GFq(p), (0, 1, p - 1, 0), (1, 1, 0, 1))
        assert dickson.group_order(gens) == p * (p * p - 1) // 2

    def test_rejects_mixed_fields_and_singular(self):
        with pytest.raises(ValueError):
            dickson.group_order([identity_mat(F7), identity_mat(F11)])
        with pytest.raises(ValueError):
            dickson.group_order(mats(F7, (1, 1, 1, 1)))
        with pytest.raises(ValueError):
            dickson.group_order([])


def random_invertible(rng, field):
    while True:
        m = Mat2(field, *(rng.randrange(field.q) for _ in range(4)))
        if m.det() != 0:
            return m


class TestInvariance:
    CASES = [
        (F7, [(3, 0, 0, 1), (0, 1, 1, 0)]),
        (F7, [(0, 1, 3, 2), (0, 1, 5, 0)]),
        (F7, [(0, 1, 6, 0), (1, 1, 0, 1)]),
        (F7, [(1, 3, 1, 1)]),
        (F11, [(0, 1, 2, 1), (0, 1, 6, 0)]),
        (F13, [(2, 0, 0, 1), (0, 1, 1, 0)]),
    ]

    def test_conjugation_invariance(self):
        rng = random.Random(20260814)
        for field, codes in self.CASES:
            base = dickson.classify(mats(field, *codes))
            for _ in range(5):
                h = random_invertible(rng, field)
                hinv = h.adjugate()
                conj = [h * g * hinv for g in mats(field, *codes)]
                rep = dickson.classify(conj)
                assert rep.group_order == base.group_order
                assert rep.canonical_label == base.canonical_label
                assert rep.exceptional == base.exceptional
                assert rep.large == base.large

    def test_scalar_invariance(self):
        rng = random.Random(7)
        for field, codes in self.CASES:
            base = dickson.classify(mats(field, *codes))
            scaled = []
            for g in mats(field, *codes):
                s = rng.randrange(1, field.q)
                scaled.append(Mat2(field, *(field.mul(s, e) for e in (g.a, g.b, g.c, g.d))))
            assert dickson.classify(scaled) == base


def classify_oracle(generators):
    """The cascade with the Cartan-normalizer candidates read from every
    element of the breadth-first closure, and groups of order 1 and 2
    settled by hand.

    Any nonscalar element with two rational fixed lines, or a conjugate
    pair, names a candidate Cartan; a group inside N(C) of order at least 3
    that is not a Klein four group has such an element of C, and the Klein
    four group lies in both normalizer types.
    """
    field = generators[0].field
    p, r, q = field.p, field.r, field.q
    n = dickson.group_order(generators)
    elements = closure_oracle(generators) if n <= max(60, 2 * (q + 1)) else None
    gens = sorted(
        {g.scalar_normalized() for g in generators if not g.is_scalar()},
        key=lambda m: (m.a, m.b, m.c, m.d),
    )
    if n == 1:
        return dickson.DicksonReport(
            p, r, q, 1, True, True, True, True, True, "none", "none", "borel"
        )
    fixed = [fixed_lines_ext(g) for g in gens]
    if n == 2:
        rational = fixed[0][0] == "rational"
        return dickson.DicksonReport(
            p, r, q, 2, rational, rational, not rational, True, True, "none", "none",
            "borel" if rational else "dihedral-ambiguous",
        )

    common = None
    for kind, pts, _ in fixed:
        common = set() if kind != "rational" else set(pts) if common is None else common & pts
    reducible, split_cartan = len(common) >= 1, len(common) >= 2
    pairs = {pair for kind, _, pair in fixed if kind == "nonrational"}
    nonsplit_cartan = len(pairs) == 1 and all(kind == "nonrational" for kind, _, _ in fixed)

    in_split = in_nonsplit = False
    if n <= 2 * (q + 1) and n % p:
        split_candidates, nonsplit_candidates = set(), set()
        for m in elements:
            lines = fixed_lines_ext(m)
            if lines[0] == "rational" and len(lines[1]) == 2:
                split_candidates.add(lines)
            elif lines[0] == "nonrational":
                nonsplit_candidates.add(lines)
        in_split = any(all(preserves_ext(g, c) for g in gens) for c in split_candidates)
        in_nonsplit = any(all(preserves_ext(g, c) for g in gens) for c in nonsplit_candidates)
    stats = dict(Counter(dickson.projective_order(m) for m in elements)) if n <= 60 else None
    klein_four = n == 4 and stats == {1: 1, 2: 3}
    in_split = in_split or klein_four
    in_nonsplit = in_nonsplit or klein_four

    exceptional = "none"
    if not (reducible or in_split or in_nonsplit or n % p == 0):
        exceptional = {
            (12, ((1, 1), (2, 3), (3, 8))): "A4",
            (24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
            (60, ((1, 1), (2, 15), (3, 20), (5, 24))): "A5",
        }.get((n, tuple(sorted(stats.items())) if stats else ()), "none")
    large = "none"
    if n % p == 0 and not reducible:
        for q0 in (p, p * p)[:r]:
            if n == q0 * (q0 * q0 - 1) // 2:
                large = f"PSL({q0})"
                break
            if n == q0 * (q0 * q0 - 1):
                large = f"PGL({q0})"
                break
    if reducible:
        label = "borel"
    elif in_split and in_nonsplit:
        label = "dihedral-ambiguous"
    elif in_split or in_nonsplit:
        label = "dihedral-split" if in_split else "dihedral-nonsplit"
    else:
        label = f"exceptional-{exceptional}" if exceptional != "none" else f"large-{large}"
    return dickson.DicksonReport(
        p, r, q, n, reducible, split_cartan, nonsplit_cartan, in_split, in_nonsplit,
        exceptional, large, label,
    )


@st.composite
def shaped_generators(draw):
    """One to three generators over F_7, F_11, F_13 or F_49, each diagonal,
    antidiagonal, in a nonsplit Cartan, upper triangular or random, all
    conjugated by one random invertible matrix.

    Each example first picks the shapes it draws from, so that dihedral
    groups around either Cartan come up often; diagonal generators include
    the flip diag(1, -1) of the nonsplit Cartan [[a, bN], [b, a]].
    """
    field = draw(st.sampled_from([F7, F11, F13, F49]))
    unit = st.integers(1, field.q - 1)
    entry = st.integers(0, field.q - 1)
    nonsquare = least_nonsquare(field)

    def nonsplit(ab):
        return (ab[0], field.mul(ab[1], nonsquare), ab[1], ab[0])

    diagonal = st.one_of(
        st.just((1, 0, 0, field.neg(1))),
        st.tuples(unit, unit).map(lambda ad: (ad[0], 0, 0, ad[1])),
    )
    antidiagonal = st.tuples(unit, unit).map(lambda bc: (0, bc[0], bc[1], 0))
    cartan = st.tuples(entry, entry).filter(any).map(nonsplit)
    upper = st.tuples(unit, entry, unit).map(lambda abd: (abd[0], abd[1], 0, abd[2]))
    anything = st.tuples(entry, entry, entry, entry)
    shapes = draw(st.sampled_from([
        (diagonal, antidiagonal),
        (cartan, diagonal),
        (cartan, diagonal, antidiagonal),
        (diagonal, upper),
        (diagonal, antidiagonal, cartan, upper, anything),
    ]))
    mat = st.one_of(*shapes).map(lambda e: Mat2(field, *e)).filter(lambda m: m.det() != 0)
    gens = draw(st.lists(mat, min_size=1, max_size=3))
    h = draw(anything.map(lambda e: Mat2(field, *e)).filter(lambda m: m.det() != 0))
    return [h * g * h.adjugate() for g in gens]


class TestClassifyOracle:
    """The generator-pair normalizer search against the element-listing one."""

    @settings(max_examples=200)
    @given(shaped_generators())
    def test_matches_listing_oracle(self, gens):
        assert dickson.classify(gens) == classify_oracle(gens)

    @pytest.mark.parametrize(
        "field,codes",
        [(F7, c) for c, _, _ in CASCADE_CASES] + [
            (F11, [(0, 1, 2, 1), (0, 1, 6, 0)]),
            (F13, [(2, 0, 0, 1), (0, 1, 1, 0)]),
            (F7, [(1, 3, 1, 1)]),
            (F7, [(1, 3, 1, 1), (1, 0, 0, 6)]),
            (F7, [(0, 1, 1, 0)]),
            (F7, [(0, 1, 3, 0)]),
            (F49, [(1, 0, 0, 48), (0, 1, 1, 0)]),
        ],
    )
    def test_corpus_matches_listing_oracle(self, field, codes):
        rng = random.Random(f"{field}:{codes}")
        gens = mats(field, *codes)
        for _ in range(3):
            assert dickson.classify(gens) == classify_oracle(gens)
            h = random_invertible(rng, field)
            gens = [h * g * h.adjugate() for g in gens]

    @pytest.mark.parametrize(
        "field,codes,order",
        [(F7, c, n) for c, n, _ in CASCADE_CASES] + [
            (F11, [(0, 1, 2, 1), (0, 1, 6, 0)], 60),
            (F13, [(0, 1, 12, 0), (1, 1, 0, 1)], 1092),
            (F49, [(1, 1, 0, 1), (1, 0, 7, 1)], 58800),
            (GFq(5003), [(2, 0, 0, 1), (0, 1, 1, 0)], 10_004),
        ],
    )
    def test_lists_only_groups_of_at_most_60_elements(self, monkeypatch, field, codes, order):
        listed = count_listings(monkeypatch)
        assert dickson.classify(mats(field, *codes)).group_order == order
        assert listed == ([order] if 1 < order <= 60 else [])
