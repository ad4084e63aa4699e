"""Reference forms and base points used across the test-suite and selftest.

The diagonal (Fermat-style) forms are the workhorses: their multilinear
calculus is hand-checkable, the slicing lattice at y = (0, .., 0, 1, -1) has
a transparent structure, and brute-force line counts stay desk-sized.
"""

from __future__ import annotations

import random
from typing import Tuple

from .forms import HomogeneousForm


def fermat_form(nvars: int, degree: int) -> HomogeneousForm:
    """The diagonal form x1^d + ... + xn^d."""
    coeffs = {}
    for i in range(nvars):
        e = tuple(degree if k == i else 0 for k in range(nvars))
        coeffs[e] = 1
    return HomogeneousForm(nvars=nvars, degree=degree, coeffs=coeffs)


def fermat_quintic() -> HomogeneousForm:
    """x1^5 + x2^5 + x3^5 + x4^5 — the running four-variable example."""
    return fermat_form(4, 5)


QUINTIC_BASE_POINT: Tuple[int, ...] = (0, 0, 1, -1)
"""A rational point on the Fermat quintic used by most worked examples."""


def random_dense_form(nvars: int, degree: int, seed: int,
                      coeff_bound: int = 5) -> HomogeneousForm:
    """Deterministic pseudo-random form with all monomials present.

    Coefficients are drawn uniformly from [-coeff_bound, coeff_bound]
    excluding 0, so the form is genuinely dense; the generator is seeded,
    making every fixture reproducible.
    """
    rng = random.Random(seed)
    coeffs = {}
    for e in _monomials_of_degree(nvars, degree):
        c = rng.randint(1, coeff_bound)
        if rng.random() < 0.5:
            c = -c
        coeffs[e] = c
    return HomogeneousForm(nvars=nvars, degree=degree, coeffs=coeffs)


def _monomials_of_degree(nvars: int, degree: int):
    if nvars == 0:
        return
    if nvars == 1:
        yield (degree,)
        return
    for head in range(degree + 1):
        for tail in _monomials_of_degree(nvars - 1, degree - head):
            yield (head,) + tail


def diagonal_quadric(nvars: int) -> HomogeneousForm:
    """x1^2 + ... + x_{n-1}^2 - x_n^2 — an isotropic quadric."""
    coeffs = {}
    for i in range(nvars):
        e = tuple(2 if k == i else 0 for k in range(nvars))
        coeffs[e] = 1 if i < nvars - 1 else -1
    return HomogeneousForm(nvars=nvars, degree=2, coeffs=coeffs)
