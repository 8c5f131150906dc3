"""Projections onto the feasible sets used by the solvers.

The main feasible set is the intersection of the unit sphere with the
nonnegative orthant.  Its nearest-point projection has a two-case closed
form: threshold at zero and renormalize, or fall back to the best vertex
when thresholding annihilates the vector.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import TensorOperator

__all__ = ["ScalingError", "project_sphere_plus", "project_orthant", "b_normalize"]


class ScalingError(ValueError):
    """B u^m <= 0: the scaling normalization is undefined along u."""


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a contiguous real vector.

    This is ``np.linalg.norm``'s own formula for it, sqrt(v . v), so the
    result has the same bits, without that function's dispatch.
    """
    return math.sqrt(v.dot(v))


def project_sphere_plus(v) -> np.ndarray:
    """Nearest point on the sphere-orthant intersection.

    If max(v, 0) is nonzero the projection is max(v, 0) normalized;
    otherwise it is the coordinate vector maximizing v . x, which for a
    nonpositive v is the unit vector at argmax(v) (smallest index on ties).
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty vector, got shape {v.shape}")
    clipped = np.maximum(v, 0.0)
    nrm = _norm(clipped)
    if nrm == 0.0:
        out = np.zeros_like(v)
        out[int(np.argmax(v))] = 1.0
        return out
    clipped /= nrm
    return clipped


def project_orthant(v) -> np.ndarray:
    """Componentwise max(v, 0)."""
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def b_normalize(u, B: TensorOperator) -> np.ndarray:
    """Scale u so that B u^m = 1, i.e. u / (B u^m)^(1/m)."""
    u = np.asarray(u, dtype=float)
    bum = B.contract_m(u)
    if bum <= 0.0:
        raise ScalingError(f"B u^m = {bum} <= 0: cannot scale to B x^m = 1")
    return u / bum ** (1.0 / B.order)
