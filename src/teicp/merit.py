"""Merit functions for the eigenpair optimization reformulations.

Two merits over the sphere-orthant feasible set: the generalized Rayleigh
quotient lambda(x) = A x^m / B x^m, and its logarithm
f(x) = ln(A x^m) - ln(B x^m), which is only defined where both forms are
strictly positive (both tensors strictly copositive in practice).  Gradients
and the Rayleigh Hessian are exact closed forms.  Whatever the merit, the
eigenvalue reported downstream is always the Rayleigh quotient, so runs under
either merit stay directly comparable.

:func:`evaluate` is the one place that contracts the pair at a point; the
gradient and Hessian functions are views of its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .tensor import TensorOperator

__all__ = [
    "MeritKind",
    "MeritEval",
    "MeritDomainError",
    "SingularDenominatorError",
    "rayleigh_value",
    "rayleigh_gradient",
    "rayleigh_hessian",
    "log_value",
    "evaluate",
]


class MeritKind(Enum):
    RAYLEIGH = "rayleigh"
    LOGARITHMIC = "log"


class SingularDenominatorError(ZeroDivisionError):
    """B x^m vanished where a Rayleigh quotient was required."""


class MeritDomainError(ValueError):
    """Logarithmic merit evaluated where A x^m or B x^m is not positive."""


@dataclass(frozen=True)
class MeritEval:
    """Everything the solvers read from the pair (A, B) at one point x.

    ``lam`` is always A x^m / B x^m regardless of the merit kind; under the
    Rayleigh merit ``value == lam``.  ``y`` is the residual
    A x^{m-1} - lam B x^{m-1}.  The contractions behind these are made once
    per point; :meth:`rayleigh_hessian` adds only the two x^{m-2} ones.
    """

    value: float
    gradient: np.ndarray
    lam: float
    y: np.ndarray
    _at: tuple = field(repr=False, compare=False)

    def rayleigh_hessian(self) -> np.ndarray:
        """Exact Hessian of the Rayleigh quotient (symmetric by construction)."""
        A, B, x, axm, bxm, axm1, bxm1 = self._at
        m = A.order
        cross = np.outer(axm1, bxm1)
        cross = cross + cross.T
        bb = np.outer(bxm1, bxm1)
        return (
            (m * (m - 1) / bxm) * A.contract_m_minus_2(x)
            - (m * (m - 1) * axm * B.contract_m_minus_2(x) + m * m * cross) / bxm**2
            + (2.0 * m * m * axm / bxm**3) * bb
        )


def _pair_check(A: TensorOperator, B: TensorOperator) -> None:
    if A.order != B.order or A.dim != B.dim:
        raise ValueError(
            f"operators must share order and dimension, got "
            f"({A.order},{A.dim}) and ({B.order},{B.dim})"
        )


def _denominator(B: TensorOperator, x) -> float:
    bxm = B.contract_m(x)
    if bxm == 0.0:
        raise SingularDenominatorError("B x^m = 0: Rayleigh quotient undefined")
    return bxm


def _log_domain(axm: float, bxm: float) -> None:
    if axm <= 0.0:
        raise MeritDomainError(f"logarithmic merit needs A x^m > 0, got {axm}")
    if bxm <= 0.0:
        raise MeritDomainError(f"logarithmic merit needs B x^m > 0, got {bxm}")


def rayleigh_value(A: TensorOperator, B: TensorOperator, x) -> float:
    """Generalized Rayleigh quotient A x^m / B x^m."""
    _pair_check(A, B)
    return A.contract_m(x) / _denominator(B, x)


def rayleigh_gradient(A: TensorOperator, B: TensorOperator, x) -> np.ndarray:
    """Gradient (m / B x^m) (A x^{m-1} - lambda(x) B x^{m-1}).

    By the Euler identity the gradient is orthogonal to x, i.e. it lies in
    the tangent plane of the sphere at x.
    """
    return evaluate(A, B, x).gradient


def rayleigh_hessian(A: TensorOperator, B: TensorOperator, x) -> np.ndarray:
    """Exact Hessian of the Rayleigh quotient (symmetric by construction)."""
    return evaluate(A, B, x).rayleigh_hessian()


def log_value(A: TensorOperator, B: TensorOperator, x) -> float:
    """ln(A x^m) - ln(B x^m); requires both forms strictly positive."""
    _pair_check(A, B)
    axm = A.contract_m(x)
    bxm = B.contract_m(x)
    _log_domain(axm, bxm)
    return math.log(axm) - math.log(bxm)


def evaluate(A: TensorOperator, B: TensorOperator, x, kind: MeritKind = MeritKind.RAYLEIGH) -> MeritEval:
    """Evaluate the chosen merit at x, contracting each operator once per power."""
    _pair_check(A, B)
    axm = A.contract_m(x)
    bxm = _denominator(B, x)
    lam = axm / bxm
    m = A.order
    axm1 = A.contract_m_minus_1(x)
    bxm1 = B.contract_m_minus_1(x)
    y = axm1 - lam * bxm1
    at = (A, B, x, axm, bxm, axm1, bxm1)
    if kind is MeritKind.RAYLEIGH:
        return MeritEval(value=lam, gradient=(m / bxm) * y, lam=lam, y=y, _at=at)
    _log_domain(axm, bxm)
    grad = m * axm1 / axm - m * bxm1 / bxm
    return MeritEval(value=math.log(axm) - math.log(bxm), gradient=grad, lam=lam, y=y, _at=at)
