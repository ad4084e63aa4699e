"""Exception hierarchy shared by every module in the package.

All errors raised on purpose derive from :class:`LineCountError` so callers
(and the command-line front end) can separate anticipated failure modes from
genuine bugs.
"""

from __future__ import annotations


class LineCountError(Exception):
    """Base class for all anticipated failures."""


class FormSyntaxError(LineCountError):
    """The text expression for a form could not be parsed."""


class NotHomogeneous(LineCountError):
    """A parsed polynomial mixes monomials of different total degree."""


class ZeroForm(LineCountError):
    """All terms of a parsed polynomial cancelled."""


class DimensionMismatch(LineCountError):
    """A vector or matrix argument has the wrong length for the form."""


class IndexOutOfRange(LineCountError):
    """A degree-slice index lies outside 0..d."""


class BasisNotSpanning(LineCountError):
    """A supplied basis does not span the slicing lattice."""


class ZeroVectorInput(LineCountError):
    """An operation that needs a nonzero vector received the zero vector."""


class NotOnHypersurface(LineCountError):
    """A base point was required to satisfy F(y) = 0 but does not."""


class DomainError(LineCountError):
    """A numeric parameter lies outside its documented domain."""


class PsiOutOfRange(DomainError):
    """The slope parameter of a threshold formula exceeds its validity cap."""


class ResourceLimit(LineCountError):
    """An enumeration, residue scan or QMC sampling loop would exceed the
    configured work budget."""

    def __init__(self, message: str, *, needed: int | None = None,
                 budget: int | None = None) -> None:
        super().__init__(message)
        self.needed = needed
        self.budget = budget
