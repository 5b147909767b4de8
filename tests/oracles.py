"""Brute-force routes shared by several test modules."""

from math import isqrt

import numpy as np


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
