"""Exception hierarchy shared by all qinflate modules."""

from __future__ import annotations


class QInflateError(Exception):
    """Base class for all qinflate errors."""


class DuplicateLabel(QInflateError):
    """Two subsystem layouts share a label."""


class UnknownLabel(QInflateError):
    """A referenced subsystem label is not part of the layout."""


class NotHermitian(QInflateError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NoConvergence(QInflateError):
    """An iterative solver hit its iteration cap."""


class DomainError(QInflateError):
    """A numeric parameter lies outside its admissible range."""


class DimensionError(QInflateError):
    """Operand dimensions or arity do not match the operation."""


class InvalidParameter(QInflateError):
    """Parameter produces an invalid state (e.g. a non-PSD density matrix)."""


class ConstraintViolated(QInflateError):
    """A canonical-form constraint on state amplitudes is violated."""


class OddCardinalityRequired(QInflateError):
    """The joint-marginal construction needs an odd number of subsystems."""


class NotAnInflation(QInflateError):
    """Graph pair fails the ancestral-subgraph inflation condition."""


class UnknownBase(QInflateError):
    """An inflation node references a base name absent from the original DAG."""


class NotANetwork(QInflateError):
    """DAG is not a two-layer network (exogenous latents feeding visibles)."""
