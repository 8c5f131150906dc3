"""Residuals, eigenpair certification, and independent oracles.

A candidate pair (lambda, x) solves the complementarity problem exactly when
x >= 0, w = lambda B x^{m-1} - A x^{m-1} >= 0, and x . w = 0.  The residual
triple measures the violation of each condition.  For diagonal tensors the
full Pareto spectrum has a closed form obtained by enumerating supports,
which serves as an independent oracle for the iterative solvers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import HIdentity, TensorOperator, ZIdentity, diagonal_tensor

__all__ = [
    "ResidualTriple",
    "residual",
    "is_pareto_eigenpair",
    "diagonal_pareto_spectrum",
]

# Off-support slack violations beyond this are treated as genuine
# inadmissibility rather than roundoff.
_DUAL_DROP_TOL = 1e-12


@dataclass(frozen=True)
class ResidualTriple:
    """Primal, dual, and complementarity violations of a candidate pair."""

    primal: float
    dual: float
    comp: float

    def max_violation(self) -> float:
        """Largest violation; NaN if any component is NaN, so it never certifies."""
        return float(np.max([self.primal, self.dual, self.comp]))


def residual(A: TensorOperator, B: TensorOperator, lam: float, x) -> ResidualTriple:
    """Violation measures for (lambda, x) against the complementarity system."""
    x = np.asarray(x, dtype=float)
    w = lam * B.contract_m_minus_1(x) - A.contract_m_minus_1(x)
    return ResidualTriple(
        primal=max(0.0, -float(np.min(x))),
        dual=max(0.0, -float(np.min(w))),
        comp=abs(float(x @ w)),
    )


def is_pareto_eigenpair(A: TensorOperator, B: TensorOperator, lam: float, x, tol: float) -> bool:
    """True when all three residuals are within tol at the unit-normalized x.

    Eigenpairs are invariant under positive scaling of x, so the candidate is
    normalized to the unit sphere before testing.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float)
    nrm = np.linalg.norm(x)
    if nrm == 0.0:
        raise ValueError("x must be nonzero")
    r = residual(A, B, lam, x / nrm)
    return r.max_violation() <= tol


def diagonal_pareto_spectrum(diag, order: int, b_kind: str = "z"):
    """Enumerate every Pareto eigenpair of a diagonal tensor.

    ``diag`` holds the super-diagonal values.  Against the sphere identity,
    a support with values of one strict sign carries the eigenvalue
    sign * (sum |a_i|^(-2/(m-2)))^(-(m-2)/2) with x_i = (lambda/a_i)^(1/(m-2));
    an all-zero support carries lambda = 0; mixed-sign supports admit no
    positive eigenvector.  Against the diagonal identity a support is
    admissible only when its values coincide, giving that common value.
    Candidates whose off-support slack w_j goes negative are dropped (for
    diagonal tensors it is identically zero, but the check is explicit).

    Returns a list of (eigenvalue, support, x) with 0-based supports, ordered
    by support bitmask.
    """
    diag = np.asarray(diag, dtype=float)
    if diag.ndim != 1 or diag.size < 1:
        raise ValueError("diag must be a nonempty vector")
    if order < 2 or order % 2:
        raise ValueError("order must be even and >= 2")
    if b_kind not in ("z", "h"):
        raise ValueError("b_kind must be 'z' or 'h'")
    n = diag.size
    A = diagonal_tensor(diag, order)
    B = ZIdentity(order, n) if b_kind == "z" else HIdentity(order, n)
    p = order - 2

    results = []
    for mask in range(1, 1 << n):
        idx = np.flatnonzero([(mask >> i) & 1 for i in range(n)])
        sub = diag[idx]
        if b_kind == "h":
            if not np.all(sub == sub[0]):
                continue
            lam = float(sub[0])
            x_sub = np.full(idx.size, idx.size**-0.5)
        elif idx.size == 1:
            lam = float(sub[0])
            x_sub = np.ones(1)
        elif np.all(sub == 0.0):
            lam = 0.0
            x_sub = np.full(idx.size, idx.size**-0.5)
        elif np.all(sub > 0.0) or np.all(sub < 0.0):
            mag = np.abs(sub)
            lam_mag = float(np.sum(mag ** (-2.0 / p)) ** (-p / 2.0))
            lam = lam_mag if sub[0] > 0 else -lam_mag
            x_sub = (lam_mag / mag) ** (1.0 / p)
            x_sub /= np.linalg.norm(x_sub)
        else:
            continue
        x = np.zeros(n)
        x[idx] = x_sub
        w = lam * B.contract_m_minus_1(x) - A.contract_m_minus_1(x)
        off = np.setdiff1d(np.arange(n), idx)
        if off.size and float(np.min(w[off])) < -_DUAL_DROP_TOL:
            continue
        results.append((lam, tuple(int(i) for i in idx), x))
    return results
