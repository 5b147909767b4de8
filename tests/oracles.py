"""Brute-force routes shared by several test modules."""

import dataclasses
import math
from fractions import Fraction
from math import isqrt

import numpy as np

from galim.arith import factorize, totient
from galim.cyclotomic import CycloValue
from galim.quadforms import QuadForm, _reduce


def divisors(n: int) -> list[int]:
    """Sorted divisors of n >= 1, built from ``arith.factorize``."""
    ds = [1]
    for q, e in factorize(n).items():
        ds = [d * q**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)*, by factoring the group order and descending."""
    if m < 1:
        raise ValueError("multiplicative_order needs m >= 1")
    if m == 1:
        return 1
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    t = totient(m)
    for q in factorize(t):
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t


_bern_cache: list[Fraction] = [Fraction(1)]


def bernoulli_exact(k: int) -> Fraction:
    """Exact B_k (B_1 = -1/2) via the defining convolution
    sum_{j=0}^{k} C(k+1, j) B_j = 0, in O(k^2) Fraction operations: the
    exact oracle of the mod-p Bernoulli table, for k up to a few hundred.
    Every B_j computed is kept for later calls."""
    if k < 0:
        raise ValueError("bernoulli_exact needs k >= 0")
    while len(_bern_cache) <= k:
        n = len(_bern_cache)  # computing B_n
        if n > 1 and n % 2 == 1:
            _bern_cache.append(Fraction(0))
            continue
        s = Fraction(0)
        for j in range(n):
            if j > 1 and j % 2 == 1:
                continue
            s += math.comb(n + 1, j) * _bern_cache[j]
        _bern_cache.append(-s / (n + 1))
    return _bern_cache[k]


def representation_counts(form, bound: int) -> np.ndarray:
    """r_Q(n) for 0 <= n <= bound: the number of (x, y) in Z^2 with
    Q(x, y) = n, origin excluded, counted with multiplicity, by listing every
    lattice point of the ellipse Q <= bound.  The theta-series oracle."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    a, b, c = form.a, form.b, form.c
    absd = 4 * a * c - b * b
    if absd <= 0 or a <= 0:
        raise ValueError(f"not positive definite: {form}")
    ymax = isqrt(4 * a * bound // absd)
    xmax = isqrt(4 * c * bound // absd)
    xs = np.arange(-xmax, xmax + 1, dtype=np.int64)
    ys = np.arange(-ymax, ymax + 1, dtype=np.int64)
    xx = xs[:, None]
    yy = ys[None, :]
    vals = a * xx * xx + b * xx * yy + c * yy * yy
    mask = (vals >= 1) & (vals <= bound)
    return np.bincount(vals[mask], minlength=bound + 1)


def discriminant(form) -> int:
    return form.b * form.b - 4 * form.a * form.c


def principal_form(d: int) -> QuadForm:
    """The form of the identity class of discriminant d."""
    return QuadForm(1, 1, (1 - d) // 4)


def positive_definite(form) -> QuadForm:
    """form itself, once it is checked positive definite."""
    if form.a <= 0 or discriminant(form) >= 0:
        raise ValueError(f"not a positive definite form: {form}")
    return form


def reduce_form(form) -> QuadForm:
    """The reduced form of the class of a positive definite form, by the
    library's reduction step."""
    return _reduce(*positive_definite(form))


def exponents_of(grp, form) -> tuple[int, ...]:
    """The exponents of form's class on the generators of grp."""
    return grp.dlog[reduce_form(form)]


def reduced_forms_oracle(d: int) -> tuple:
    """Every reduced form of discriminant d, sorted, by trying each pair
    (a, b) with 3a^2 <= -d and b of d's parity in [0, a] on its own: the
    oracle of ``quadforms.reduced_forms`` and ``class_numbers``, which serve
    a whole batch of discriminants from one pass over a."""
    out = []
    for a in range(1, isqrt(-d // 3) + 1):
        # b must match the parity of d and satisfy 4a | b^2 - d
        for b in range(d % 2, a + 1, 2):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            out.append(QuadForm(a, b, c))
            if 0 < b < a and a < c:
                out.append(QuadForm(a, -b, c))
    return tuple(sorted(out))


def serialize(obj):
    """``cli.serialize`` as one isinstance chain, with no exact-type dispatch
    and no field-name table: the oracle of the CLI's fast path.  Unlike
    ``cli.serialize`` it also passes subclasses of the built-in scalars and
    containers, numpy's float64 and str_ among them, so the two agree only
    on report objects built from the exact built-in types."""
    if obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, CycloValue):
        return {"order": obj.m, "coeffs": list(obj.coeffs)}
    if dataclasses.is_dataclass(obj):
        return {f.name: serialize(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, QuadForm):
        return {name: serialize(v) for name, v in obj._asdict().items()}
    if isinstance(obj, dict):
        return {str(k): serialize(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return sorted(serialize(v) for v in obj)
    if isinstance(obj, (list, tuple)):
        return [serialize(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")
