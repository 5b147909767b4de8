"""Classification of matrix-generated subgroups of PGL2 over small fields.

A subgroup is handed over as a list of invertible 2x2 matrices over F_q,
q = p or p^2 with p an odd prime.  Schreier-Sims on the q+1 points of
P^1(F_q) builds one transversal per base point; the base's pointwise
stabilizer is trivial, so the order (``group_order``) is the product of the
transversal lengths, and every element is exactly one product of one
transversal element per level.  ``closure`` lists those products
(scalar-normalized matrices, first nonzero entry 1) for groups of at most
MAX_CLOSURE_ORDER elements.  ``classify`` builds the transversals once,
lists the elements only of groups of at most 60 elements, for their order
statistics, reads the Cartan-normalizer candidates from the fixed lines of
the generators and their pairwise products, and walks a decision cascade:

  1. a common rational fixed line          -> reducible (Borel)
  2. a preserved unordered pair of lines   -> Cartan / Cartan-normalizer,
     split when the pair is rational, nonsplit when conjugate over F_{q^2}
  3. projective order 12 / 24 / 60 with the right element-order statistics
     -> exceptional A4 / S4 / A5
  4. order divisible by p and irreducible  -> contains PSL2 of a subfield

The flags record every containment found, and ``canonical_label`` reports
the first stage that fires, so a group living inside several types loses
no information.  Groups of exponent 2 (an involution or a Klein four group)
get both normalizer flags, and the label "dihedral-ambiguous" when
irreducible, since all of their interpretations are equally good.

Fields of characteristic 2 are rejected outright (the quadratic extension
convention used here needs odd p); classify additionally refuses p in
{3, 5} where the cascade's exceptional/large stages would collide.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import prod

from .arith import InternalInconsistencyError, is_prime, kronecker, sqrt_mod
from .kernels import closure_codes

# closure() lists every element, so it refuses larger groups
MAX_CLOSURE_ORDER = 200_000


class GFq:
    """Arithmetic in F_q, q = p^r with p an odd prime and r in {1, 2}.

    Elements are integer codes: a0 for r = 1, a0 + p*a1 for r = 2 meaning
    a0 + a1*x with x^2 = n for the least quadratic nonresidue n mod p.  The
    code order doubles as the deterministic tie-break everywhere.  No
    operation builds a table of size q.
    """

    __slots__ = ("p", "r", "q", "nonresidue", "_ext_nr")

    def __init__(self, p: int, r: int = 1) -> None:
        if p == 2 or not is_prime(p):
            raise ValueError(f"characteristic must be an odd prime, got {p}")
        if r not in (1, 2):
            raise ValueError(f"extension degree must be 1 or 2, got {r}")
        self.p = p
        self.r = r
        self.q = p**r
        if r == 2:
            n = 2
            while kronecker(n, p) != -1:
                n += 1
            self.nonresidue = n
        else:
            self.nonresidue = None
        self._ext_nr: int | None = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GFq) and (self.p, self.r) == (other.p, other.r)

    def __hash__(self) -> int:
        return hash((self.p, self.r))

    def __repr__(self) -> str:
        return f"GFq({self.p}, {self.r})"

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        p = self.p
        return (a + b) % p + p * ((a // p + b // p) % p)

    def neg(self, a: int) -> int:
        if self.r == 1:
            return -a % self.p
        p = self.p
        return -a % p + p * (-(a // p) % p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        p = self.p
        if self.r == 1:
            return a * b % p
        a0, a1 = a % p, a // p
        b0, b1 = b % p, b // p
        return (a0 * b0 + self.nonresidue * a1 * b1) % p + p * ((a0 * b1 + a1 * b0) % p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        p = self.p
        if self.r == 1:
            return pow(a, p - 2, p)
        a0, a1 = a % p, a // p
        norm = (a0 * a0 - self.nonresidue * a1 * a1) % p
        ninv = pow(norm, p - 2, p)
        return a0 * ninv % p + p * (-a1 * ninv % p)

    def sqrt(self, a: int) -> int | None:
        """Least-code square root in F_q, or None for a nonsquare.

        Prime fields use Tonelli-Shanks.  In F_{p^2}, a = a0 + a1*x is a
        square exactly when its norm a0^2 - n*a1^2 is a square mod p, and
        then one of (a0 +- sqrt(norm))/2 is the square of the root's
        rational part b0, whose irrational part is a1/(2*b0).
        """
        p = self.p
        if self.r == 1:
            return sqrt_mod(a, p)
        n = self.nonresidue
        a0, a1 = a % p, a // p
        if a1 == 0:
            b0 = sqrt_mod(a0, p)
            if b0 is not None:
                return b0
            b1 = sqrt_mod(a0 * pow(n, -1, p), p)
            return p * b1
        t = sqrt_mod(a0 * a0 - n * a1 * a1, p)
        if t is None:
            return None
        half = (p + 1) // 2
        b0 = sqrt_mod((a0 + t) * half, p)
        if b0 is None:
            b0 = sqrt_mod((a0 - t) * half, p)
        b1 = a1 * pow(2 * b0, -1, p) % p
        return min(b0 + p * b1, -b0 % p + p * (-b1 % p))

    def ext_nonresidue(self) -> int:
        """Least nonzero code that is a nonsquare in F_q itself.

        In F_{p^2} every code below p is an element of F_p, hence a square,
        so the search starts at code p there.
        """
        if self._ext_nr is None:
            a = 2 if self.r == 1 else self.p
            while self.sqrt(a) is not None:
                a += 1
            self._ext_nr = a
        return self._ext_nr


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over a fixed GFq, entries stored as field codes."""

    field: GFq
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        q = self.field.q
        for e in (self.a, self.b, self.c, self.d):
            if not 0 <= e < q:
                raise ValueError(f"entry {e} out of range for field of size {q}")

    def det(self) -> int:
        f = self.field
        return f.sub(f.mul(self.a, self.d), f.mul(self.b, self.c))

    def is_scalar(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __mul__(self, other: "Mat2") -> "Mat2":
        if self.field != other.field:
            raise ValueError("cannot multiply matrices over different fields")
        f = self.field
        return Mat2(
            f,
            f.add(f.mul(self.a, other.a), f.mul(self.b, other.c)),
            f.add(f.mul(self.a, other.b), f.mul(self.b, other.d)),
            f.add(f.mul(self.c, other.a), f.mul(self.d, other.c)),
            f.add(f.mul(self.c, other.b), f.mul(self.d, other.d)),
        )

    def adjugate(self) -> "Mat2":
        # inverse up to the (projectively irrelevant) determinant factor
        f = self.field
        return Mat2(f, self.d, f.neg(self.b), f.neg(self.c), self.a)

    def scalar_normalized(self) -> "Mat2":
        f = self.field
        for lead in (self.a, self.b, self.c):
            if lead:
                s = f.inv(lead)
                break
        else:
            s = f.inv(self.d)
        return Mat2(f, f.mul(self.a, s), f.mul(self.b, s), f.mul(self.c, s), f.mul(self.d, s))


def identity_mat(field: GFq) -> Mat2:
    return Mat2(field, 1, 0, 0, 1)


def projective_order(m: Mat2) -> int:
    """Least t >= 1 with m^t scalar."""
    if m.det() == 0:
        raise ValueError(f"matrix {m} is singular")
    acc = m
    t = 1
    while not acc.is_scalar():
        acc = acc * m
        t += 1
    return t


def _common_field(generators: list[Mat2]) -> GFq:
    if not generators:
        raise ValueError("need at least one generator")
    field = generators[0].field
    for g in generators:
        if g.field != field:
            raise ValueError("generators live over different fields")
        if g.det() == 0:
            raise ValueError(f"singular generator {g}")
    return field


def closure(generators: list[Mat2]) -> frozenset[Mat2]:
    """Projective closure as scalar-normalized matrices.

    Raises ValueError, before listing anything, when the group has more than
    MAX_CLOSURE_ORDER elements or p^2 >= 2^63 (the listing's int64 limit).
    """
    field = _common_field(generators)
    return _elements(field, _transversals(field, generators))


def _elements(field: GFq, transversals: list[dict[int, Mat2]]) -> frozenset[Mat2]:
    """Every product u_0 u_1 u_2 of the transversals, scalar-normalized."""
    n = prod(len(t) for t in transversals)
    if n > MAX_CLOSURE_ORDER:
        raise ValueError(
            f"projective closure has {n} elements, above the listing limit {MAX_CLOSURE_ORDER}"
        )
    levels = [[(u.a, u.b, u.c, u.d) for u in t.values()] for t in transversals]
    rows = closure_codes(levels, field.p, field.r, field.nonresidue or 0, field.inv)
    if len(rows) != n:
        raise InternalInconsistencyError(
            f"transversal products give {len(rows)} distinct elements, not the order {n}"
        )
    return frozenset(Mat2(field, *row) for row in rows.tolist())


# ---------------------------------------------------------------------------
# Fixed lines of a single matrix
# ---------------------------------------------------------------------------

_SCALAR = "scalar"
_RATIONAL = "rational"
_NONRATIONAL = "nonrational"


def _fixed_lines(m: Mat2) -> tuple[str, frozenset[int] | None, tuple[int, int] | None]:
    """Fixed points of m on the projective line, as slope codes.

    A line spanned by (x, y) is coded by the slope t = x/y in F_q, with the
    vertical line (1, 0) coded as q.  Returns one of
      ("scalar", None, None)
      ("rational", {codes}, None)            one or two rational lines
      ("nonrational", None, (alpha, beta))   the conjugate pair
                                             alpha +- beta*sqrt(N), beta > 0
    where N is the field's least nonsquare and beta is canonicalized to the
    smaller of +-beta so conjugate pairs compare equal.
    """
    f = m.field
    inf = f.q
    if m.is_scalar():
        return _SCALAR, None, None
    a, b, c, d = m.a, m.b, m.c, m.d
    if c == 0:
        pts = {inf}
        if a != d:
            pts.add(f.mul(b, f.inv(f.sub(d, a))))
        return _RATIONAL, frozenset(pts), None
    # slopes satisfy c t^2 + (d - a) t - b = 0
    da = f.sub(d, a)
    disc = f.add(f.mul(da, da), f.mul(f.from_int(4), f.mul(b, c)))
    inv2c = f.inv(f.mul(f.from_int(2), c))
    s = f.sqrt(disc)
    if s is not None:
        t1 = f.mul(f.add(f.sub(a, d), s), inv2c)
        t2 = f.mul(f.sub(f.sub(a, d), s), inv2c)
        return _RATIONAL, frozenset({t1, t2}), None
    n = f.ext_nonresidue()
    w = f.sqrt(f.mul(disc, f.inv(n)))
    assert w is not None  # disc nonsquare, so disc/N is a square
    alpha = f.mul(f.sub(a, d), inv2c)
    beta = f.mul(w, inv2c)
    return _NONRATIONAL, None, (alpha, min(beta, f.neg(beta)))


def _moebius(m: Mat2, t: int) -> int:
    """Action of m on a rational slope code (q encodes infinity)."""
    f = m.field
    if t == f.q:
        return f.mul(m.a, f.inv(m.c)) if m.c else f.q
    den = f.add(f.mul(m.c, t), m.d)
    if den == 0:
        return f.q
    return f.mul(f.add(f.mul(m.a, t), m.b), f.inv(den))


def _moebius_ext(m: Mat2, z: tuple[int, int]) -> tuple[int, int]:
    """Action of m on z0 + z1*sqrt(N) in the quadratic extension of F_q.

    z1 != 0, so the denominator never vanishes for invertible m.
    """
    f = m.field
    n = f.ext_nonresidue()

    def emul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        return (
            f.add(f.mul(u[0], v[0]), f.mul(n, f.mul(u[1], v[1]))),
            f.add(f.mul(u[0], v[1]), f.mul(u[1], v[0])),
        )

    num = (f.add(f.mul(m.a, z[0]), m.b), f.mul(m.a, z[1]))
    den = (f.add(f.mul(m.c, z[0]), m.d), f.mul(m.c, z[1]))
    norm = f.sub(f.mul(den[0], den[0]), f.mul(n, f.mul(den[1], den[1])))
    conj = (den[0], f.neg(den[1]))
    out = emul(num, conj)
    s = f.inv(norm)
    return f.mul(out[0], s), f.mul(out[1], s)


# ---------------------------------------------------------------------------
# Group order by Schreier-Sims on the projective line
# ---------------------------------------------------------------------------


def group_order(generators: list[Mat2]) -> int:
    """Order of the projective image of the generators in PGL2(F_q): the
    product of the basic orbit lengths of ``_transversals``."""
    field = _common_field(generators)
    return prod(len(t) for t in _transversals(field, generators))


def _transversals(field: GFq, generators: list[Mat2]) -> list[dict[int, Mat2]]:
    """Basic transversals of the projective image for the base (infinity, 0, 1).

    Deterministic Schreier-Sims (Sims 1970; Seress 2003) for the action of
    ``_moebius`` on the q+1 slope codes of P^1(F_q).  Level i maps each
    point y of the i-th basic orbit to a u in the pointwise stabilizer of
    the earlier base points with u . base[i] = y.  PGL2(F_q) acts sharply
    3-transitively, so the pointwise stabilizer of the base is trivial: the
    order is the product of the three orbit lengths, and every element is
    exactly one product u_0 u_1 u_2.  Group elements stay 2x2 matrices, with
    the adjugate as projective inverse, so memory grows like q, not q^2.
    """
    one = identity_mat(field)
    base = (field.q, 0, 1)
    depth = len(base)
    strong: list[list[Mat2]] = [[g for g in generators if not g.is_scalar()], [], []]
    # transversals[i] maps each point y of the i-th basic orbit to a u with
    # u . base[i] = y
    transversals: list[dict[int, Mat2]] = [{} for _ in base]

    def sift(g: Mat2, start: int) -> tuple[Mat2, int]:
        # strip g level by level; returns the residue and the level it
        # dropped out at, or depth when it passed every level
        for i in range(start, depth):
            u = transversals[i].get(_moebius(g, base[i]))
            if u is None:
                return g, i
            g = u.adjugate() * g
        return g, depth

    def first_failure(i: int) -> tuple[Mat2, int] | None:
        # the first Schreier generator of level i that does not sift through
        # the levels below it
        orbit = transversals[i]
        for x, u in orbit.items():
            for s in strong[i]:
                h, j = sift(orbit[_moebius(s, x)].adjugate() * (s * u), i + 1)
                if j < depth:
                    return h, j
                if not h.is_scalar():
                    raise InternalInconsistencyError(
                        f"{h} fixes infinity, 0 and 1 but is not scalar"
                    )
        return None

    i = depth - 1
    while i >= 0:
        transversals[i] = _orbit_transversal(base[i], strong[i], one)
        failure = first_failure(i)
        if failure is None:
            i -= 1
            continue
        h, j = failure
        for level in range(i + 1, j + 1):
            strong[level].append(h)
        i = j
    return transversals


def _orbit_transversal(point: int, gens: list[Mat2], one: Mat2) -> dict[int, Mat2]:
    """Orbit of a slope code under gens, each image y mapped to a product u
    of generators with u . point = y."""
    out = {point: one}
    queue = [point]
    for x in queue:
        u = out[x]
        for s in gens:
            y = _moebius(s, x)
            if y not in out:
                out[y] = s * u
                queue.append(y)
    return out


def _preserves_rational_pair(m: Mat2, pair: frozenset[int]) -> bool:
    return all(_moebius(m, t) in pair for t in pair)


def _preserves_conjugate_pair(m: Mat2, pair: tuple[int, int]) -> bool:
    alpha, beta = pair
    z0, z1 = _moebius_ext(m, (alpha, beta))
    return z0 == alpha and z1 in (beta, m.field.neg(beta))


# ---------------------------------------------------------------------------
# Classification cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DicksonReport:
    """Containment flags plus a single canonical label.

    The flags are independent facts (a group inside a split Cartan is also
    reducible and inside both normalizer types it meets); the label is the
    first firing stage of the cascade borel > dihedral > exceptional > large.
    """

    p: int
    r: int
    q: int
    group_order: int
    reducible: bool
    split_cartan: bool
    nonsplit_cartan: bool
    in_normalizer_split: bool
    in_normalizer_nonsplit: bool
    exceptional: str  # "none" | "A4" | "S4" | "A5"
    large: str  # "none" | "PSL(q0)" | "PGL(q0)"
    canonical_label: str


_A4_STATS = {1: 1, 2: 3, 3: 8}
_S4_STATS = {1: 1, 2: 9, 3: 8, 4: 6}
_A5_STATS = {1: 1, 2: 15, 3: 20, 5: 24}


def _order_statistics(elements: frozenset[Mat2]) -> dict[int, int]:
    return dict(Counter(projective_order(m) for m in elements))


def classify(generators: list[Mat2]) -> DicksonReport:
    """Full decision cascade for the projective image of the generators."""
    field = _common_field(generators)
    p, r, q = field.p, field.r, field.q
    if p < 7:
        raise ValueError(f"classification needs p >= 7, got {p}")
    transversals = _transversals(field, generators)
    n = prod(len(t) for t in transversals)
    if n == 1:
        return DicksonReport(p, r, q, 1, True, True, True, True, True, "none", "none", "borel")
    # only the order statistics read the elements
    stats = _order_statistics(_elements(field, transversals)) if n <= 60 else None

    nonscalar_gens = [g.scalar_normalized() for g in generators if not g.is_scalar()]
    # dedupe while preserving determinism
    nonscalar_gens = sorted(set(nonscalar_gens), key=lambda m: (m.a, m.b, m.c, m.d))

    fixed = [_fixed_lines(g) for g in nonscalar_gens]

    common_rational: set[int] | None = None
    for kind, pts, _ in fixed:
        if kind != _RATIONAL:
            common_rational = set()
            break
        common_rational = set(pts) if common_rational is None else common_rational & pts
    assert common_rational is not None
    reducible = len(common_rational) >= 1
    split_cartan = len(common_rational) >= 2

    nonrational_pairs = {pair for kind, _, pair in fixed if kind == _NONRATIONAL}
    nonsplit_cartan = len(nonrational_pairs) == 1 and all(
        kind == _NONRATIONAL for kind, _, _ in fixed
    )

    # Every element of N(C) outside the Cartan C is an involution.  So a
    # group inside N(C) either has exponent 2 (its generators commute: an
    # involution or a Klein four group, which lie in both normalizer types)
    # or has a generator or pairwise product of order > 2, which lies in C
    # and fixes C's pair of lines.
    exponent_2 = n <= 4 and set(stats) <= {1, 2}
    lines = fixed + [_fixed_lines(g * h) for g, h in combinations(nonscalar_gens, 2)]
    in_norm_split = exponent_2 or any(
        all(_preserves_rational_pair(g, pts) for g in nonscalar_gens)
        for kind, pts, _ in lines
        if kind == _RATIONAL and len(pts) == 2
    )
    in_norm_nonsplit = exponent_2 or any(
        all(_preserves_conjugate_pair(g, pair) for g in nonscalar_gens)
        for kind, _, pair in lines
        if kind == _NONRATIONAL
    )

    exceptional = "none"
    if not reducible and not in_norm_split and not in_norm_nonsplit and n % p:
        if n == 12 and stats == _A4_STATS:
            exceptional = "A4"
        elif n == 24 and stats == _S4_STATS:
            exceptional = "S4"
        elif n == 60 and stats == _A5_STATS:
            exceptional = "A5"

    large = "none"
    if n % p == 0:
        if reducible:
            pass  # Borel-type groups also have order divisible by p
        else:
            for s in (1, 2) if r == 2 else (1,):
                q0 = p**s
                if n == q0 * (q0 * q0 - 1) // 2:
                    large = f"PSL({q0})"
                    break
                if n == q0 * (q0 * q0 - 1):
                    large = f"PGL({q0})"
                    break
            else:
                raise InternalInconsistencyError(
                    f"irreducible group of order {n} divisible by {p} matches no PSL/PGL"
                )

    if reducible:
        label = "borel"
    elif in_norm_split and in_norm_nonsplit:
        label = "dihedral-ambiguous"
    elif in_norm_split:
        label = "dihedral-split"
    elif in_norm_nonsplit:
        label = "dihedral-nonsplit"
    elif exceptional != "none":
        label = f"exceptional-{exceptional}"
    elif large != "none":
        label = f"large-{large}"
    else:
        raise InternalInconsistencyError(
            f"group of order {n} over F_{q} escaped every cascade stage"
        )

    return DicksonReport(
        p, r, q, n,
        reducible, split_cartan, nonsplit_cartan,
        in_norm_split, in_norm_nonsplit,
        exceptional, large, label,
    )

