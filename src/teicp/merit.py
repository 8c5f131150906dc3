"""Merit functions for the eigenpair optimization reformulations.

Two merits over the sphere-orthant feasible set: the generalized Rayleigh
quotient lambda(x) = A x^m / B x^m, and its logarithm
f(x) = ln(A x^m) - ln(B x^m), which is only defined where both forms are
strictly positive (both tensors strictly copositive in practice).  Gradients
and the Rayleigh Hessian are exact closed forms.  Whatever the merit, the
eigenvalue reported downstream is always the Rayleigh quotient, so runs under
either merit stay directly comparable.

:func:`evaluate` is the one place that contracts the pair at a point, with
one ``contract_m_minus_1_and_m`` call per operator; the gradient and Hessian
functions are views of its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# LAPACK's symmetric eigenvalue kernel, the gufunc ``np.linalg.eigvalsh``
# wraps (in numpy.linalg._umath_linalg since numpy 1.8).
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo

from .tensor import TensorOperator, ZIdentity

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
    """A merit evaluated outside its domain.

    The Rayleigh quotient is not finite there, or the logarithmic merit
    meets A x^m or B x^m not positive.
    """


@dataclass(slots=True)
class MeritEval:
    """Everything the solvers read from the pair (A, B) at one point x.

    ``lam`` is always A x^m / B x^m regardless of the merit kind; under the
    Rayleigh merit ``value == lam``.  ``y`` is the residual
    A x^{m-1} - lam B x^{m-1}.  The contractions behind these are made once
    per point; the Rayleigh Hessian (:meth:`_hessian`) adds A x^{m-2}, and
    B x^{m-2} only where B is neither identity.  The record is built once
    per evaluated point, so it has slots and is built positionally; nothing
    writes to it after.  ``_log_gradient`` is None under the Rayleigh merit.
    """

    value: float
    lam: float
    y: np.ndarray
    _at: tuple = field(repr=False, compare=False)
    _log_gradient: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def gradient(self) -> np.ndarray:
        """The merit's gradient; the Rayleigh one, (m / B x^m) y, is computed on each read."""
        if self._log_gradient is not None:
            return self._log_gradient
        A, _, _, bxm, _ = self._at
        return (A.order / bxm) * self.y

    def rayleigh_hessian(self) -> np.ndarray:
        """Exact Hessian of the Rayleigh quotient, exactly symmetric.

        It is G - alpha I from :meth:`_hessian`.  Where a product overflows,
        H holds inf or NaN instead of raising; callers test it.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            H, alpha = self._hessian()
            H.reshape(-1)[:: H.shape[0] + 1] -= alpha
        return H

    def _hessian(self) -> tuple[np.ndarray, float]:
        """(G, alpha) with the Rayleigh Hessian H = G - alpha I, under the caller's error flags.

        With u = B x^{m-1}, b = B x^m, s = m / b and the residual
        y = A x^{m-1} - lam u,
        H = (m-1) s P - s^2 (y u' + u y') with P = A x^{m-2} - lam B x^{m-2}
        (see :func:`_pencil`), the three-term closed form with its two rank-2
        terms combined through y.  Near an eigenpair y -> 0, so the
        correction vanishes instead of being the difference of two O(lam)
        terms.  b enters only as s, once per factor, so no power of b under-
        or overflows where H is finite (B = 1e-110 I or 1e110 I scales H by
        1/b and nothing else).  Under the sphere identity, with q = x . x,
        u = q^{(m-2)/2} x and s q^{(m-2)/2} = m / q, so alpha = m lam / q,
        G = (m-1) s A x^{m-2} - (x w' + w x') and
        w = (m (m-2) lam / (2 q^2)) x + (m s / q) y.  Under any other B,
        alpha = 0 and G = H.  No B x^{m-2} matrix is formed under either
        identity.  The rank-2 term is added as r + r', so G is exactly
        symmetric wherever A x^{m-2} is.  x is read as a float array, since
        :func:`evaluate` keeps the point as it is given.
        """
        A, B, x, bxm, bxm1 = self._at
        x = np.asarray(x, dtype=float)
        m = A.order
        s = m / bxm
        if type(B) is ZIdentity:
            q = float(x.dot(x))  # q > 0, as b = q^{m/2} is not 0
            alpha = m * self.lam / q
            w = x * (alpha * (m - 2) / (2.0 * q))
            w += self.y * (m * s / q)
            G = A.contract_m_minus_2(x) * ((m - 1) * s)
            r = np.multiply.outer(x, w)
        else:
            alpha = 0.0
            G = _pencil(A, B, self.lam, x)
            G *= (m - 1) * s
            r = np.multiply.outer(s * self.y, s * bxm1)
        G -= r + r.T
        return G, alpha

    def rayleigh_hessian_min_eig(self) -> float:
        """The smallest eigenvalue of the Rayleigh Hessian, the curvature the shift reads.

        It is lambda_min(G) - alpha for :meth:`_hessian`'s G and alpha: one
        n x n matrix and one call of LAPACK's symmetric eigenvalue kernel
        through numpy's ``eigvalsh_lo`` gufunc, the kernel
        ``np.linalg.eigvalsh`` wraps, with its bits and without the
        wrapper's checks.  Raises :class:`MeritDomainError` where G is not
        finite or the smallest eigenvalue is not, which includes an
        eigen-solve that does not converge: the kernel returns NaN there.
        G is tested before the solve because LAPACK returns finite
        eigenvalues for a 2 x 2 matrix with a NaN on its diagonal.
        """
        # The kernel runs under the flags np.linalg.eigvalsh sets for it but
        # the invalid one, whose NaN the test below reads instead.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            G, alpha = self._hessian()
            if not np.isfinite(G).all():
                raise MeritDomainError("the Rayleigh Hessian is not finite")
            low = float(_eigvalsh_lo(G, signature="d->d")[0]) - alpha
        if not math.isfinite(low):
            raise MeritDomainError("the Rayleigh Hessian's smallest eigenvalue is not finite")
        return low


def _pencil(A: TensorOperator, B: TensorOperator, lam: float, x: np.ndarray) -> np.ndarray:
    """A new matrix A x^{m-2} - lam B x^{m-2}: a copy of A x^{m-2}, which B folds its term into."""
    P = np.array(A.contract_m_minus_2(x), dtype=float)
    B._fold(P, lam, x)
    return P


def _pair_check(A: TensorOperator, B: TensorOperator) -> None:
    if A.order != B.order or A.dim != B.dim:
        raise ValueError(
            f"operators must share order and dimension, got "
            f"({A.order},{A.dim}) and ({B.order},{B.dim})"
        )


def _denominator(bxm: float) -> float:
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
    return A.contract_m(x) / _denominator(B.contract_m(x))


def rayleigh_gradient(A: TensorOperator, B: TensorOperator, x) -> np.ndarray:
    """Gradient (m / B x^m) (A x^{m-1} - lambda(x) B x^{m-1}).

    By the Euler identity the gradient is orthogonal to x, i.e. it lies in
    the tangent plane of the sphere at x.
    """
    return evaluate(A, B, x).gradient


def rayleigh_hessian(A: TensorOperator, B: TensorOperator, x) -> np.ndarray:
    """Exact Hessian of the Rayleigh quotient (symmetric by construction); x may be any sequence."""
    return evaluate(A, B, x).rayleigh_hessian()


def log_value(A: TensorOperator, B: TensorOperator, x) -> float:
    """ln(A x^m) - ln(B x^m); requires both forms strictly positive."""
    _pair_check(A, B)
    axm = A.contract_m(x)
    bxm = B.contract_m(x)
    _log_domain(axm, bxm)
    return math.log(axm) - math.log(bxm)


def evaluate(A: TensorOperator, B: TensorOperator, x, kind: MeritKind = MeritKind.RAYLEIGH) -> MeritEval:
    """Evaluate the chosen merit at x, with one fused contraction per operator.

    Raises :class:`SingularDenominatorError` where B x^m = 0, and
    :class:`MeritDomainError` where the Rayleigh quotient is not finite or,
    under the logarithmic merit, where A x^m or B x^m is not positive.
    """
    _pair_check(A, B)
    axm1, axm = A.contract_m_minus_1_and_m(x)
    bxm1, bxm = B.contract_m_minus_1_and_m(x)
    lam = axm / _denominator(bxm)
    if not math.isfinite(lam):
        raise MeritDomainError(f"Rayleigh quotient is not finite: A x^m = {axm}, B x^m = {bxm}")
    y = axm1 - lam * bxm1
    at = (A, B, x, bxm, bxm1)
    if kind is MeritKind.RAYLEIGH:
        return MeritEval(lam, lam, y, at)
    if kind is not MeritKind.LOGARITHMIC:
        raise ValueError(f"kind must be a MeritKind, got {kind!r}")
    _log_domain(axm, bxm)
    m = A.order
    grad = m * axm1 / axm - m * bxm1 / bxm
    return MeritEval(math.log(axm) - math.log(bxm), lam, y, at, grad)
