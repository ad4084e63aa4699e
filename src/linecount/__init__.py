"""Desk-scale laboratory for counting lines on hypersurfaces.

The package counts pairs of integer points (x, y) that generate a line lying
inside a hypersurface F = 0, and implements every constructive ingredient of
the underlying circle-method analysis: pencil expansion and slices, the
slicing lattice with reduction and enumeration, exponential sums over it,
arc membership, truncated local densities, and the exact exponent
arithmetic that drives the admissible-parameter bookkeeping.
"""

from .errors import (
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
    evaluate_form,
    form_from_json,
    form_to_json,
    gradient,
    hessian,
    integer_slice_form,
    load_form,
    parse_form,
    pencil_coefficients,
)

__version__ = "0.1.0"
