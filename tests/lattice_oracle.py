"""The fixed-y slice system in the coordinates of the slicing lattice.

``density`` counts the residues of the slice system in the n ambient
coordinates.  Pulling every slice back to the s = n - 1 coordinates of a
reduced basis of the slicing lattice gives the same counts by another
route, which the tests keep as the oracle.
"""

from fractions import Fraction

from linecount.forms import (
    HomogeneousForm,
    Polynomial,
    _add_term,
    _poly_mul,
    nonzero_slices,
)
from linecount.lattice import slicing_lattice


def pullback(form, basis):
    """The form composed with x = B^T xi, as a polynomial in the s lattice
    coordinates xi (B the s x n matrix whose rows are ``basis``)."""
    s = len(basis)
    linear = []
    for i in range(form.nvars):
        row = {}
        for m in range(s):
            if basis[m][i]:
                key = tuple(1 if t == m else 0 for t in range(s))
                row[key] = Fraction(basis[m][i])
        linear.append(row)
    total = {}
    for exponents, coefficient in form.coeffs.items():
        term = {(0,) * s: Fraction(coefficient)}
        for i, e in enumerate(exponents):
            for _ in range(e):
                term = _poly_mul(term, linear[i])
        for key, value in term.items():
            _add_term(total, key, value)
    return Polynomial(nvars=s, coeffs=total)


def lattice_system(form, y):
    """(polys, s): the slices of degree 2..d pulled back to the s
    coordinates of the reduced slicing lattice at y."""
    lattice = slicing_lattice(form, y)
    return [pullback(sliced, lattice.basis)
            for _, sliced in nonzero_slices(form, y)], lattice.rank


def sheared(form, y):
    """(G, y') with G(x) = F(U x) and U y' = y, for U the identity plus
    ones on the superdiagonal.  U is unimodular, so every slice of G at y'
    is the slice of F at y composed with U, and every residue count of the
    two systems agrees; but G has monomials that join neighbouring
    variables, so its slice system can be one component where that of F
    splits into single variables."""
    n = form.nvars
    columns = [[int(j in (i - 1, i)) for j in range(n)] for i in range(n)]
    composed = pullback(form, columns)
    image = [0] * n
    for i in reversed(range(n)):
        image[i] = y[i] - (image[i + 1] if i + 1 < n else 0)
    return (HomogeneousForm(nvars=n, degree=form.degree,
                            coeffs={e: int(c) for e, c
                                    in composed.coeffs.items()}),
            tuple(image))
