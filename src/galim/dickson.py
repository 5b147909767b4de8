"""Classification of matrix-generated subgroups of PGL2 over small fields.

A subgroup is handed over as a list of invertible 2x2 matrices over F_q,
q = p or p^2 with p an odd prime.  Schreier-Sims on the q+1 points of
P^1(F_q) builds one transversal per base point; the base's pointwise
stabilizer is trivial, so the order (``group_order``) is the product of the
transversal lengths, and every element is exactly one product of one
transversal element per level.  ``classify`` builds the transversals once,
lists the elements (those products as scalar-normalized matrices, first
nonzero entry 1) only of groups of at most 60 elements, for their order
statistics, reads the Cartan-normalizer candidates from the fixed lines of
the generators and their pairwise products, and walks a decision cascade:

  1. a common rational fixed line          -> reducible (Borel)
  2. a preserved unordered pair of lines   -> Cartan / Cartan-normalizer,
     split when the pair is rational, nonsplit when conjugate over F_{q^2};
     a nonscalar m = [[a, b], [c, d]] fixes exactly the roots of the form
     c x^2 + (d - a) xy - b y^2, and g preserves that pair when g m g^-1
     has the same form
  3. projective order 12 / 24 / 60 with the right element-order statistics
     -> exceptional A4 / S4 / A5
  4. order divisible by p and irreducible  -> contains PSL2 of a subfield

Stages 1 and 2 compute in F_q alone and take no square root: a form's
rational lines are counted from the square class of its discriminant, and
forms that differ share a line only at the point read off the cross product
of their coefficient vectors.

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

from .arith import InternalInconsistencyError, is_prime, kronecker


class GFq:
    """Arithmetic in F_q, q = p^r with p an odd prime and r in {1, 2}.

    Elements are integer codes: a0 for r = 1, a0 + p*a1 for r = 2 meaning
    a0 + a1*x with x^2 = n for the least quadratic nonresidue n mod p.  The
    code order doubles as the deterministic tie-break everywhere.  No
    operation builds a table of size q.
    """

    __slots__ = ("p", "r", "q", "nonresidue")

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

    def is_square(self, a: int) -> bool:
        """Whether a is a square in F_q, zero included.  In F_{p^2}, a = a0 +
        a1*x is a square exactly when its norm a0^2 - n*a1^2 is one mod p."""
        p = self.p
        if self.r == 2:
            a = (a % p) ** 2 - self.nonresidue * (a // p) ** 2
        return kronecker(a, p) != -1


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


def _elements(field: GFq, transversals: list[dict[int, Mat2]]) -> frozenset[Mat2]:
    """Every product u_0 u_1 u_2 of the transversals, scalar-normalized."""
    products = [identity_mat(field)]
    for t in transversals:
        products = [x * u for x in products for u in t.values()]
    elements = frozenset(m.scalar_normalized() for m in products)
    if len(elements) != len(products):
        raise InternalInconsistencyError(
            f"transversal products give {len(elements)} distinct elements, "
            f"not the order {len(products)}"
        )
    return elements


# ---------------------------------------------------------------------------
# Fixed pairs of lines as binary quadratic forms over F_q
# ---------------------------------------------------------------------------


def _form(m: Mat2) -> tuple[int, int, int] | None:
    """The binary quadratic form c x^2 + (d - a) xy - b y^2 of m, scaled so
    that its first nonzero coefficient is 1, or None for scalar m.

    Its roots x/y are the fixed slopes of m over the algebraic closure, so
    two nonscalar matrices have equal forms exactly when they fix the same
    pair of lines, rational or conjugate, with the same multiplicity.
    """
    f = m.field
    coeffs = (m.c, f.sub(m.d, m.a), f.neg(m.b))
    lead = next((x for x in coeffs if x), None)
    if lead is None:
        return None
    s = f.inv(lead)
    return tuple(f.mul(x, s) for x in coeffs)


def _rational_lines(field: GFq, form: tuple[int, int, int]) -> int:
    """How many rational lines the form u x^2 + v xy + w y^2 vanishes on: 1
    when v^2 - 4uw is 0 (for u = 0 too: y^2), 2 when it is a nonzero square
    (y (x + w y) among them), 0 for a pair conjugate over F_{q^2}."""
    u, v, w = form
    disc = field.sub(field.mul(v, v), field.mul(field.from_int(4), field.mul(u, w)))
    if disc == 0:
        return 1
    return 2 if field.is_square(disc) else 0


def _common_line(field: GFq, forms: list[tuple[int, int, int]]) -> bool:
    """Whether forms that are not all equal vanish on one common line.

    Two distinct forms share at most one root, and a shared root is
    rational, since a form over F_q with an irrational root also has its
    conjugate.  At a shared root (x : y) the vector (x^2, xy, y^2) is
    orthogonal to both coefficient vectors, so it is proportional to their
    cross product (a, b, c): the root can only be (b : c), or (1 : 0) when
    c = 0, and it is one when every form vanishes there.
    """
    f = field
    (u1, v1, w1), (u2, v2, w2) = forms[0], next(g for g in forms if g != forms[0])
    b = f.sub(f.mul(w1, u2), f.mul(u1, w2))
    c = f.sub(f.mul(u1, v2), f.mul(v1, u2))
    x, y = (b, c) if c else (1, 0)
    xx, xy, yy = f.mul(x, x), f.mul(x, y), f.mul(y, y)
    return all(
        f.add(f.add(f.mul(u, xx), f.mul(v, xy)), f.mul(w, yy)) == 0 for u, v, w in forms
    )


def _preserves(g: Mat2, h: Mat2) -> bool:
    """Whether g maps the fixed pair of the nonscalar h onto itself: g h g^-1
    fixes the image of that pair, so it has h's form exactly then."""
    return _form(g * h * g.adjugate()) == _form(h)


def _moebius(m: Mat2, t: int) -> int:
    """Action of m on a rational slope code (q encodes infinity)."""
    f = m.field
    if t == f.q:
        return f.mul(m.a, f.inv(m.c)) if m.c else f.q
    den = f.add(f.mul(m.c, t), m.d)
    if den == 0:
        return f.q
    return f.mul(f.add(f.mul(m.a, t), m.b), f.inv(den))


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

    forms = [_form(g) for g in nonscalar_gens]
    if len(set(forms)) == 1:
        lines = _rational_lines(field, forms[0])
        reducible, split_cartan, nonsplit_cartan = lines >= 1, lines == 2, lines == 0
    else:
        # distinct forms share at most one line, so no Cartan holds them all
        reducible = _common_line(field, forms)
        split_cartan = nonsplit_cartan = False

    # Every element of N(C) outside the Cartan C is an involution.  So a
    # group inside N(C) either has exponent 2 (its generators commute: an
    # involution or a Klein four group, which lie in both normalizer types)
    # or has a generator or pairwise product of order > 2, which lies in C
    # and fixes C's pair of lines: two rational ones for a split C, a
    # conjugate pair for a nonsplit one.
    exponent_2 = n <= 4 and set(stats) <= {1, 2}
    preserved: set[int] = set()
    for h in nonscalar_gens + [g * h for g, h in combinations(nonscalar_gens, 2)]:
        form = _form(h)
        if form is not None and all(_preserves(g, h) for g in nonscalar_gens):
            preserved.add(_rational_lines(field, form))
    in_norm_split = exponent_2 or 2 in preserved
    in_norm_nonsplit = exponent_2 or 0 in preserved

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

