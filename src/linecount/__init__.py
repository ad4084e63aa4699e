"""Desk-scale laboratory for counting lines on hypersurfaces.

The package counts pairs of integer points (x, y) that generate a line lying
inside a hypersurface F = 0, and implements every constructive ingredient of
the underlying circle-method analysis: pencil expansion and slices, the
slicing lattice with reduction and enumeration, exponential sums over it,
arc membership, truncated local densities, and the exact exponent
arithmetic that drives the admissible-parameter bookkeeping.
"""

from .errors import (
    BasisNotSpanning,
    DimensionMismatch,
    DomainError,
    FormSyntaxError,
    IndexOutOfRange,
    LineCountError,
    NotHomogeneous,
    NotOnHypersurface,
    PsiOutOfRange,
    ResourceLimit,
    ZeroForm,
    ZeroVectorInput,
)
from .forms import (
    HomogeneousForm,
    PencilExpansion,
    Polynomial,
    b_coefficient_vector,
    discrete_difference,
    evaluate_form,
    form_from_json,
    form_to_json,
    gradient,
    hessian,
    integer_slice_form,
    iterated_difference,
    load_form,
    multilinear_evaluate,
    parse_form,
    pencil_coefficients,
)

__version__ = "0.1.0"
