"""Binary quadratic forms of negative prime discriminant and the attached
class-group machinery.

Everything here is specialised to discriminants D = -p with p an odd prime
congruent to 3 mod 4 (so D is fundamental and odd).  That restriction keeps
the genus theory trivial -- the class number is odd -- and lets the theta
machinery identify ideal classes with reduced forms without worrying about
ambiguous classes.

Two independent routes to the class number are provided on purpose:
``class_number`` counts reduced forms, ``class_number_analytic`` evaluates the
finite character sum.  ``class_group`` cross-checks them and raises
``InternalInconsistencyError`` on any mismatch.  ``class_numbers`` does the
same for a whole batch of discriminants: one pass over a serves every prime
of the batch (``_reduced_triples``), so a scan window costs O(p + n*sqrt(p))
for its forms rather than n separate O(p) enumerations.

A form is one type throughout: ``QuadForm`` is a named (a, b, c) tuple, so
the class-group code hashes, compares and sorts forms as plain triples.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import NamedTuple

import numpy as np

from .arith import (
    CACHE_MAXSIZE,
    InternalInconsistencyError,
    factorize,
    is_prime,
    kronecker,
    sqrt_mod,
)
from .cyclotomic import CycloValue, _remainders

# Largest p for which class_number_analytic evaluates its character sum
# (a^2 < 10^16 stays far inside int64, and the sum takes O(p) time).  The
# reduced forms share the limit, so every class number printed has both
# routes behind it: their pass over a costs O(p) for the largest p of a
# batch, and every prime of a batch is checked against the limit before the
# pass starts.
ANALYTIC_MAX_P = 10**8
# The character sum squares a in blocks of this many int64 values, so it
# allocates about 1.5 MB at any p (two blocks and a mask, which stay in a
# core's L2 cache); every p < 2^17 is one block.  The size was measured: on
# a 2-vCPU x86 host with 2 MB of L2 per core, p = 99999959 took 123-130 ms in
# blocks of 2^16, 124-138 ms at 2^15, 132-153 ms at 2^14 and 207 ms at 2^20.
_SQUARE_BLOCK = 1 << 16
# Largest bound theta_coefficients accepts.  A report costs about 1 KB per
# coefficient: ``galim theta -p 23 --coeffs 100000`` peaks at 124 MB resident
# and takes 1.0 s as a whole process on a 2-vCPU x86 host, and 10^6 would
# take over a gigabyte.
THETA_MAX_BOUND = 10**5


def _check_disc(d: int) -> int:
    """Validate a discriminant -p with p prime, p = 3 mod 4, p >= 7."""
    if d >= 0 or d % 4 != 1:
        raise ValueError(f"discriminant must be negative and 1 mod 4, got {d}")
    p = -d
    if p < 7 or p % 4 != 3 or not is_prime(p):
        raise ValueError(f"discriminant must be -p for a prime p = 3 mod 4, p >= 7, got {d}")
    return p


# ---------------------------------------------------------------------------
# Forms and reduction
# ---------------------------------------------------------------------------


class QuadForm(NamedTuple):
    """Integral binary quadratic form a*x^2 + b*x*y + c*y^2.

    A form is its (a, b, c) tuple: it equals, hashes and sorts as the
    triple, and lexicographic order is the order ``reduced_forms`` lists.
    """

    a: int
    b: int
    c: int


def _normalize(a: int, b: int, c: int) -> tuple[int, int, int]:
    # shift b into (-a, a] by a unipotent substitution
    if -a < b <= a:
        return a, b, c
    r = (a - b) // (2 * a)
    return a, b + 2 * r * a, a * r * r + b * r + c


def _reduce(a: int, b: int, c: int) -> QuadForm:
    a, b, c = _normalize(a, b, c)
    while a > c or (a == c and b < 0):
        a, b, c = _normalize(c, -b, a)
    return QuadForm(a, b, c)


def _check_forms_disc(d: int) -> int:
    """Validate d for the reduced-form routes, refusing p above the limit."""
    p = _check_disc(d)
    if p > ANALYTIC_MAX_P:
        raise ValueError(f"reduced forms need p <= {ANALYTIC_MAX_P}, got {p}")
    return p


def _reduced_triples(ps: Iterable[int]) -> Iterator[tuple[int, int, int, int]]:
    """(p, a, b, c) for every reduced form (a, b, c) with b > 0 of
    discriminant -p, for all p in ps at once; (a, -b, c) is reduced too
    exactly when b < a < c.

    A reduced form has 3a^2 <= p, and b odd with 0 < b <= a and
    4a | b^2 + p, so one loop over a <= sqrt(max p / 3) serves the batch:
    for each a the primes with p >= 3a^2 are bucketed by -p mod 4a, and each
    odd b <= a looks up the primes with -p = b^2 (mod 4a).  Duplicates in
    ps are served once.  The primes are not validated here.
    """
    live = sorted(set(ps), reverse=True)
    if not live:
        return
    amax = isqrt(live[0] // 3)
    odd_squares = [b * b for b in range(1, amax + 1, 2)]
    for a in range(1, amax + 1):
        m = 4 * a
        while live[-1] < 3 * a * a:
            live.pop()
        buckets: dict[int, list[int]] = {}
        for p in live:
            buckets.setdefault(-p % m, []).append(p)
        # the squares of the odd b <= a; b is read back only on a hit
        for bb in odd_squares[: (a + 1) // 2]:
            if bb % m in buckets:
                for p in buckets[bb % m]:
                    c = (bb + p) // m
                    if c >= a:
                        yield p, a, isqrt(bb), c


@lru_cache(maxsize=CACHE_MAXSIZE)
def reduced_forms(d: int) -> tuple[QuadForm, ...]:
    """All reduced forms of discriminant d, sorted lexicographically.

    ``_reduced_triples`` on the one prime; its pass runs over O(p) pairs
    (a, b), so p above ``ANALYTIC_MAX_P`` is refused before it starts.
    """
    p = _check_forms_disc(d)
    out = []
    for _, a, b, c in _reduced_triples([p]):
        out.append(QuadForm(a, b, c))
        if b < a < c:
            out.append(QuadForm(a, -b, c))
    return tuple(sorted(out))


def class_number(d: int) -> int:
    """Class number by counting reduced forms."""
    return len(reduced_forms(d))


def class_numbers(ds: Iterable[int]) -> dict[int, int]:
    """Class number of every discriminant in ds, keyed by discriminant in
    first-seen order, from one ``_reduced_triples`` pass over the batch.

    Every discriminant is validated once, and p above ``ANALYTIC_MAX_P``
    refused, before any form is enumerated.  Each form count is then checked
    against the character sum as ``class_group`` checks it.  The pass does
    not touch ``reduced_forms``' cache.
    """
    counts = {_check_forms_disc(d): 0 for d in dict.fromkeys(ds)}
    for p, a, b, c in _reduced_triples(counts):
        counts[p] += 2 if b < a < c else 1
    for p, h in counts.items():
        if h != _character_sum_class_number(p):
            raise InternalInconsistencyError(
                f"form count {h} != analytic class number for discriminant {-p}"
            )
    return {-p: h for p, h in counts.items()}


def class_number_analytic(d: int) -> int:
    """Class number by the finite character sum over the half interval.

    Independent of the reduction route entirely: only the quadratic residues
    mod p enter.  For p = 3 mod 4,

        h(-p) = (1 / (2 - (2|p))) * sum_{0 < a < p/2} (a|p).

    The squares a^2 mod p, 0 < a < p/2, are the (p-1)/2 residues, each once,
    so the sum is 2r - (p-1)/2 with r the number of them below p/2.  Refuses
    p above ``ANALYTIC_MAX_P`` before allocating anything.
    """
    p = _check_disc(d)
    if p > ANALYTIC_MAX_P:
        raise ValueError(f"analytic class number needs p <= {ANALYTIC_MAX_P}, got {p}")
    return _character_sum_class_number(p)


def _character_sum_class_number(p: int) -> int:
    """``class_number_analytic`` for a p its callers have validated, with
    the squares taken ``_SQUARE_BLOCK`` at a time and reduced mod p as
    a^2 - (a^2 // p) * p, which numpy runs faster than its ``%``."""
    n = (p - 1) // 2
    r = 0
    for lo in range(1, n + 1, _SQUARE_BLOCK):
        sq = np.arange(lo, min(lo + _SQUARE_BLOCK, n + 1), dtype=np.int64)
        sq *= sq
        q = sq // p
        q *= p
        sq -= q
        r += int(np.count_nonzero(sq <= n))
    total = 2 * r - n
    denom = 2 - kronecker(2, p)
    if total % denom:
        raise InternalInconsistencyError(f"character sum {total} not divisible by {denom}")
    h = total // denom
    if h <= 0:
        raise InternalInconsistencyError(f"nonpositive class number {h} for {-p}")
    return h


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def _solve_linmod(a: int, b: int, m: int) -> tuple[int, int]:
    # all x with a*x = b (mod m), returned as x = mu (mod v)
    g = gcd(a, m)
    q, r = divmod(b, g)
    if r:
        raise InternalInconsistencyError(f"no solution to {a}*x = {b} mod {m}")
    v = m // g
    return q * pow(a // g, -1, v) % v, v


def _compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    if f1 == f2:
        return _square(*f1)
    a1, b1, c1 = f1
    a2, b2, c2 = f2
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), g)
    j = w
    s = a1 // w
    t = a2 // w
    u = g // w
    st = s * t
    mu, nu = _solve_linmod(t * u, h * u + s * c1, st)
    lam, _ = _solve_linmod(t * nu, h - t * mu, s)
    k = mu + nu * lam
    ell = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // st
    return _reduce(st, j * u - (k * t + ell * s), k * ell - j * m)


def _square(a: int, b: int, c: int) -> QuadForm:
    mu, _ = _solve_linmod(b, c, a)
    return _reduce(a * a, b - 2 * a * mu, mu * mu - (b * mu - c) // a)


# ---------------------------------------------------------------------------
# Class group structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassGroup:
    """Class group presented by invariant factors d_1 | d_2 | ... | d_t.

    ``generators[i]`` has order ``structure[i]`` and the map
    (e_1, ..., e_t) -> prod generators[i]^(e_i) is a bijection onto the
    reduced forms; ``dlog`` inverts it.  The generators and the ``dlog``
    keys are reduced ``QuadForm``s, so ``dlog`` also answers a plain
    (a, b, c) key.
    """

    discriminant: int
    order: int
    structure: tuple[int, ...]
    generators: tuple[QuadForm, ...]
    dlog: dict[QuadForm, tuple[int, ...]]


# A walk table maps each form f to (walk, i) where walk lists g^0 = 1, g,
# g^2, ... for some g of order len(walk) and f = walk[i]: one walk of a
# generator's powers serves every power and order in its cyclic subgroup.
_Walks = dict[QuadForm, tuple[list[QuadForm], int]]


def _walks(forms: Iterable[QuadForm], identity: QuadForm, h: int) -> _Walks:
    """Walk the powers of each form not yet covered, in sorted order, one
    composition per step, until the walk returns to the identity."""
    table: _Walks = {}
    for f in sorted(forms):
        if f in table:
            continue
        walk = [identity]
        y = f
        while y != identity:
            if len(walk) >= h:
                raise InternalInconsistencyError(f"powers of {f} do not return within {h}")
            walk.append(y)
            y = _compose(y, f)
        if h % len(walk):
            raise InternalInconsistencyError(f"order {len(walk)} of {f} does not divide {h}")
        for i, x in enumerate(walk):
            table.setdefault(x, (walk, i))
    return table


def _power(walks: _Walks, f: QuadForm, n: int) -> QuadForm:
    """f^n read from the walk table; negative n works the same way."""
    walk, i = walks[f]
    return walk[i * n % len(walk)]


def _order(walks: _Walks, f: QuadForm) -> int:
    walk, i = walks[f]
    return len(walk) // gcd(i, len(walk))


def _span(
    known: dict[QuadForm, tuple[int, ...]], y: QuadForm, k: int, walks: _Walks
) -> dict[QuadForm, tuple[int, ...]]:
    """Extend a dlog table by y of order k modulo its span: each a * y^j,
    j < k, gets known[a] + (j,).  The identity's entries y^j are read from
    the walk table, and every other entry costs one composition, so a span
    from the identity alone (a cyclic group's dlog) composes nothing."""
    identity = _power(walks, y, 0)
    out = {a: exps + (0,) for a, exps in known.items()}
    layer = [(a, exps) for a, exps in known.items() if a != identity]
    for j in range(1, k):
        out[_power(walks, y, j)] = known[identity] + (j,)
        layer = [(_compose(a, y), exps) for a, exps in layer]
        out.update((a, exps + (j,)) for a, exps in layer)
    return out


def _sylow_basis(
    elems: list[QuadForm], q: int, identity: QuadForm, walks: _Walks
) -> tuple[list[QuadForm], list[int]]:
    """Basis of a finite abelian q-group given as a list of reduced forms.

    Greedy maximal-order-in-quotient with the divisibility correction; ties
    are broken by the lexicographically least form so the output is
    deterministic.  Every power and order is read from the walk table, so
    the only compositions are the corrections and the span extensions.
    """
    known: dict[QuadForm, tuple[int, ...]] = {identity: ()}
    basis: list[QuadForm] = []
    orders: list[int] = []
    elems_sorted = sorted(elems)
    while len(known) < len(elems):
        best: QuadForm | None = None
        best_k = 0
        for f in elems_sorted:
            if f in known:
                continue
            k = 1
            y = f
            while y not in known:
                y = _power(walks, y, q)
                k *= q
            if k > best_k:
                best, best_k = f, k
        assert best is not None
        x, k = best, best_k
        rem = known[_power(walks, x, k)]
        y = x
        for g, e in zip(basis, rem):
            if e % k:
                raise InternalInconsistencyError("basis correction not divisible")
            y = _compose(y, _power(walks, g, -(e // k)))
        if _order(walks, y) != k:
            raise InternalInconsistencyError("corrected element has wrong order")
        known = _span(known, y, k, walks)
        basis.append(y)
        orders.append(k)
    return basis, orders


@lru_cache(maxsize=CACHE_MAXSIZE)
def class_group(d: int) -> ClassGroup:
    """Full class group with discrete logarithms, cross-checked two ways.

    A p above ``ANALYTIC_MAX_P`` is refused before the reduced forms are
    enumerated, with the analytic route's message; below it ``reduced_forms``
    validates d, and the form count must equal the character sum.
    ``_walks`` lists the powers of each form once, one composition per
    step, and every later power and order is read from that table.  Each
    Sylow q-subgroup is the set of forms whose order divides q^e, q^e
    exactly dividing h, and ``_sylow_basis`` picks its basis greedily.  The
    dlog table starts from the identity and is extended by each generator
    in turn by ``_span``: the generator's own powers come from the walk
    table, every other entry costs one composition.
    """
    p = -d
    if p > ANALYTIC_MAX_P:
        _check_disc(d)
        raise ValueError(f"analytic class number needs p <= {ANALYTIC_MAX_P}, got {p}")
    reduced = reduced_forms(d)
    h = len(reduced)
    if h != _character_sum_class_number(p):
        raise InternalInconsistencyError(
            f"form count {h} != analytic class number for discriminant {d}"
        )
    if h % 2 == 0 or math.gcd(h, p) != 1:
        raise InternalInconsistencyError(f"class number {h} fails parity/coprimality for {d}")
    identity = QuadForm(1, 1, (1 - d) // 4)
    if h == 1:
        return ClassGroup(d, 1, (), (), {identity: ()})

    # invariant factors, assembled one prime at a time
    walks = _walks(reduced, identity, h)
    per_prime: list[tuple[list[QuadForm], list[int]]] = []
    for q, e in factorize(h).items():
        sylow = [f for f in reduced if q**e % _order(walks, f) == 0]
        if len(sylow) != q ** e:
            raise InternalInconsistencyError(f"Sylow {q}-subgroup has wrong size")
        basis, basis_orders = _sylow_basis(sylow, q, identity, walks)
        ranked = sorted(zip(basis_orders, basis), key=lambda t: (-t[0], t[1]))
        per_prime.append(([f for _, f in ranked], [o for o, _ in ranked]))

    rank = max(len(b) for b, _ in per_prime)
    gens_desc: list[QuadForm] = []
    invs_desc: list[int] = []
    for i in range(rank):
        g = identity
        dord = 1
        for basis, basis_orders in per_prime:
            if i < len(basis):
                g = _compose(g, basis[i])
                dord *= basis_orders[i]
        gens_desc.append(g)
        invs_desc.append(dord)

    structure = tuple(reversed(invs_desc))
    generators = tuple(reversed(gens_desc))
    for small, big in itertools.pairwise(structure):
        if big % small:
            raise InternalInconsistencyError(f"invariant factors {structure} not a chain")

    dlog: dict[QuadForm, tuple[int, ...]] = {identity: ()}
    for g, di in zip(generators, structure):
        dlog = _span(dlog, g, di, walks)
    if len(dlog) != h or dlog.keys() != set(reduced):
        raise InternalInconsistencyError(f"dlog table does not enumerate the group for {d}")
    return ClassGroup(d, h, structure, generators, dlog)


# ---------------------------------------------------------------------------
# Characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassCharacter:
    """Character of the class group, encoded by one exponent per generator.

    The value on a class with discrete log (e_1, ..., e_t) is
    zeta_m ^ (sum_i e_i * (m * m_i / d_i)) where m is the character order.
    """

    structure: tuple[int, ...]
    exponents: tuple[int, ...]

    @property
    def order(self) -> int:
        m = 1
        for di, mi in zip(self.structure, self.exponents):
            m = m * (di // gcd(mi, di)) // gcd(m, di // gcd(mi, di))
        return m

    def value_at(self, exps: tuple[int, ...]) -> CycloValue:
        return CycloValue.zeta(self.order, self._power(exps))

    def _power(self, exps: tuple[int, ...]) -> int:
        """k in 0..m-1 with value_at(exps) = zeta_m^k."""
        m = self.order
        total = 0
        for di, mi, e in zip(self.structure, self.exponents, exps):
            # (d_i / gcd(m_i, d_i)) divides m, so this division is exact
            total += e * (m * mi // di)
        return total % m


def characters(d: int) -> tuple[ClassCharacter, ...]:
    """All class-group characters, trivial first, in product order."""
    grp = class_group(d)
    return tuple(
        ClassCharacter(grp.structure, exps)
        for exps in itertools.product(*(range(di) for di in grp.structure))
    )


# ---------------------------------------------------------------------------
# Splitting of rational primes and theta series
# ---------------------------------------------------------------------------


def _prime_class(d: int, ell: int) -> QuadForm | None:
    """Reduced class of a prime ideal above ell, or None when ell is inert,
    for a d and a prime ell already validated.

    The ideal is (ell, (b + sqrt(d))/2), with b the lift of the least square
    root of d mod ell into (0, 2*ell) that has the parity of d; for the
    ramified ell = p that root is 0 and b = p.
    """
    if ell == 2:
        # d odd here; 2 splits exactly when d = 1 mod 8, with b = 1
        if d % 8 != 1:
            return None
        b = 1
    else:
        r = sqrt_mod(d, ell)
        if r is None:
            return None
        b = r if r % 2 else r + ell
    return _reduce(ell, b, (b * b - d) // (4 * ell))


@dataclass(frozen=True)
class QExpansion:
    """Leading q-expansion coefficients of a class-group theta series.

    ``coefficients[n]`` is a_n as an exact cyclotomic integer of order
    ``char_order``; index 0 is unused and set to zero.  Equal coefficients
    are one shared, immutable value.
    """

    discriminant: int
    char_exponents: tuple[int, ...]
    char_order: int
    coefficients: tuple[CycloValue, ...]

    def coefficient(self, n: int) -> CycloValue:
        return self.coefficients[n]


def theta_coefficients(d: int, char: ClassCharacter, bound: int) -> QExpansion:
    """a_n for 1 <= n <= bound, the sum of char(class) over ideals of norm n.

    a_n is multiplicative: a_n = a_(l^e) * a_(n / l^e) for the least prime
    l dividing n, l^e exactly dividing n.  With zeta^k the character value
    at the prime above l, the local factor a_(l^e) is 1 or 0 for inert l as
    e is even or odd, zeta^(ek) for the ramified prime, and for split l the
    sum of zeta^((2i-e)k) over the e+1 ideals P^i Pbar^(e-i), 0 <= i <= e.
    Each a_n is kept as a sparse histogram {exponent: ideal count} over the
    ideals of norm n, the local histogram times that of a_(n / l^e), so it
    costs about (ideals of norm n) operations.  An a_n that is zero, or that
    equals a_(n / l^e) (inert l at even e, the ramified prime at a shift of
    0), reuses that histogram without building one, and a built histogram
    equal to an earlier one is kept once.  The distinct histograms are the
    raw vectors of the a_n, and one sweep of ``cyclotomic._remainders``
    takes them to their remainders mod Phi_m at the end.  Repeated
    coefficients are shared: each distinct remainder becomes one
    ``CycloValue``, the same object at every n where it occurs.  l is read
    from a least-prime-factor table of 0..bound, built once per call, and
    bound above ``THETA_MAX_BOUND`` is refused before anything is built.
    Each prime's class (``_prime_class``) and its character exponent k are
    found once per call, at the first n that l divides.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if bound > THETA_MAX_BOUND:
        raise ValueError(f"theta coefficients need bound <= {THETA_MAX_BOUND}, got {bound}")
    grp = class_group(d)
    if char.structure != grp.structure:
        raise ValueError("character does not belong to this class group")
    m = char.order
    # sieve from the largest divisor down, so the least one, a prime, is
    # written last; primes keep themselves
    lpf = list(range(bound + 1))
    for q in range(isqrt(bound), 1, -1):
        lpf[q * q :: q] = [q] * ((bound - q * q) // q + 1)
    # l -> k, or None for inert l
    powers: dict[int, int | None] = {}
    # a_n is the histogram distinct[slots[n]]: each distinct histogram is
    # kept once, under its sorted items in slot_of, and never changed after
    distinct: list[dict[int, int]] = [{}, {0: 1}]
    slot_of: dict[tuple[tuple[int, int], ...], int] = {(): 0, ((0, 1),): 1}
    slots = [0, 1]
    for n in range(2, bound + 1):
        ell = lpf[n]
        rest = n // ell
        e = 1
        while rest % ell == 0:
            rest //= ell
            e += 1
        if ell not in powers:
            f = _prime_class(d, ell)
            powers[ell] = None if f is None else char._power(grp.dlog[f])
        k = powers[ell]
        slot = slots[rest]
        if slot == 0 or (k is None and e % 2):
            slots.append(0)
            continue
        if k is None or (ell == -d and e * k % m == 0):
            slots.append(slot)
            continue
        base = distinct[slot]
        if ell == -d:
            shift = e * k
            hist = {(shift + b) % m: y for b, y in base.items()}
        else:
            hist = {}
            for i in range(e + 1):
                shift = (2 * i - e) * k
                for b, y in base.items():
                    t = (shift + b) % m
                    hist[t] = hist.get(t, 0) + y
        key = tuple(sorted(hist.items()))
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(distinct)
            distinct.append(hist)
        slots.append(slot)
    # one value per distinct remainder: CycloValue is immutable, so equal
    # a_n share one object
    values: dict[tuple[int, ...], CycloValue] = {}
    made = []
    for rem in _remainders(m, [hist.items() for hist in distinct]):
        value = CycloValue._from_remainder(m, rem)
        made.append(values.setdefault(value.coeffs, value))
    coeffs = tuple([made[slot] for slot in slots])
    return QExpansion(d, char.exponents, m, coeffs)
