"""Shared oracles and property batteries for the test suite.

Everything here is deliberately independent of the production kernels:
contractions are literal sums over index tuples, the smallest eigenvalue
comes from bisection on det(M - t I), derivatives from central differences,
and projections are checked against sampling.  Property functions assert internally and are reused by the
acceptance suite.
"""

import functools
import itertools
import math

import numpy as np

from teicp import (
    HIdentity,
    SolverConfig,
    ZIdentity,
    diagonal_pareto_spectrum,
    is_pareto_eigenpair,
    project_sphere_plus,
    rayleigh_gradient,
    rayleigh_hessian,
    rayleigh_value,
    spg1,
    spg2,
)
from teicp.problems import random_symmetric
from teicp.solvers import Status
from teicp.tensor import DenseSymmetricTensor, diagonal_tensor


def dense_contract(entries, x, times):
    """Literal sum over all index tuples, contracting the last `times` axes."""
    arr = np.asarray(entries, dtype=float)
    x = np.asarray(x, dtype=float)
    m = arr.ndim
    n = arr.shape[0]
    keep = m - times
    out = np.zeros((n,) * keep) if keep else 0.0
    for idx in itertools.product(range(n), repeat=m):
        w = arr[idx]
        for i in idx[keep:]:
            w *= x[i]
        if keep:
            out[idx[:keep]] += w
        else:
            out += w
    return out


def lam_change(old_hex: str, new_hex: str) -> float:
    """|new - old| between two recorded lambdas (``float.hex``); 0 for two NaNs, inf for one."""
    old, new = float.fromhex(old_hex), float.fromhex(new_hex)
    if math.isnan(old) or math.isnan(new):
        return 0.0 if math.isnan(old) and math.isnan(new) else math.inf
    return abs(new - old)


class ReduceTensor(DenseSymmetricTensor):
    """Dense tensor that runs a fresh reduce chain for every contraction.

    These are the per-call kernels the one-GEMV ``DenseSymmetricTensor``
    replaced.  The GEMV sums in another order, so its results are compared
    with these within a tolerance, not bit for bit.
    """

    def contract_m(self, x) -> float:
        x = self._coerce(x)
        return float(functools.reduce(np.dot, [self.entries] + [x] * self.order))

    def contract_m_minus_1(self, x) -> np.ndarray:
        x = self._coerce(x)
        return functools.reduce(np.dot, [self.entries] + [x] * (self.order - 1))

    def contract_m_minus_2(self, x) -> np.ndarray:
        x = self._coerce(x)
        if self.order == 2:
            return self.entries
        return functools.reduce(np.dot, [self.entries] + [x] * (self.order - 2))


def class_keys_reference(dim, order):
    """Flat position of sorted(idx) for every index tuple idx, in C order."""
    tuples = [sorted(idx) for idx in itertools.product(range(dim), repeat=order)]
    return np.ravel_multi_index(tuple(np.array(tuples).T), (dim,) * order)


def _sorted_indices_reference(dim, order):
    """(order, dim^order) sorted index columns, from np.indices and a generic sort."""
    idx = np.indices((dim,) * order).reshape(order, -1)
    return np.sort(idx, axis=0)


def symmetrize_reference(raw):
    """Permutation average as computed with a generic sort and four full-size gathers.

    ``symmetrize`` must return these bytes for every input.
    """
    arr = np.asarray(raw, dtype=float)
    shape = arr.shape
    keys = np.ravel_multi_index(tuple(_sorted_indices_reference(shape[0], arr.ndim)), shape)
    flat = arr.ravel()
    counts = np.bincount(keys, minlength=flat.size)
    sums = np.bincount(keys, weights=flat, minlength=flat.size)
    rep = flat[keys]
    constant = np.bincount(keys, weights=(flat == rep).astype(float), minlength=flat.size)
    means = sums / np.maximum(counts, 1)
    return np.where(constant[keys] == counts[keys], rep, means[keys]).reshape(shape)


def formula_tensor_reference(kind, n, m):
    """Entries of ex4, ex5 or ex6, each formula evaluated on the sorted 1-based indices."""
    formulas = {
        "ex4": lambda I: np.sin(I.sum(axis=0)),
        "ex5": lambda I: np.tan(I).sum(axis=0),
        "ex6": lambda I: ((-1.0) ** I / I).sum(axis=0),
    }
    return formulas[kind](_sorted_indices_reference(n, m) + 1).reshape((n,) * m)


def min_eig_det_bisect(M, tol=1e-12):
    """Smallest eigenvalue by sign bisection on det(M - t I).

    Assumes the smallest eigenvalue is simple (true for the random matrices
    used in tests); below it the determinant is positive, just above it the
    determinant is negative.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    bound = float(np.max(np.sum(np.abs(M), axis=1))) + 1.0
    grid = np.linspace(-bound, bound, 4001)
    dets = [np.linalg.det(M - t * np.eye(n)) for t in grid]
    hi = None
    for t, d in zip(grid, dets):
        if d < 0.0:
            hi = t
            break
    if hi is None:
        raise AssertionError("no sign change found; eigenvalue may be multiple")
    lo = -bound
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if np.linalg.det(M - mid * np.eye(n)) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def three_term_rayleigh_hessian(A, B, x):
    """The Rayleigh Hessian in the three-term closed form, term by term.

    With a = A x^m, b = B x^m, v = A x^{m-1} and u = B x^{m-1}:
    (m (m-1) / b) A x^{m-2} - (m (m-1) a B x^{m-2} + m^2 (v u' + u v')) / b^2
    + (2 m^2 a / b^3) u u'.  The library combines the two rank-2 terms
    through the residual v - (a / b) u; this form keeps them apart.
    """
    m = A.order
    a, b = A.contract_m(x), B.contract_m(x)
    v, u = A.contract_m_minus_1(x), B.contract_m_minus_1(x)
    cross = np.outer(v, u) + np.outer(u, v)
    return (
        (m * (m - 1) / b) * A.contract_m_minus_2(x)
        - (m * (m - 1) * a * B.contract_m_minus_2(x) + m * m * cross) / b**2
        + (2.0 * m * m * a / b**3) * np.outer(u, u)
    )


def sample_sphere_plus(n, count, rng):
    """Random points of the sphere-orthant set (uniform direction, clipped)."""
    pts = np.abs(rng.standard_normal((count, n)))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def rel_err(got, want):
    scale = max(1.0, float(np.max(np.abs(want))))
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) / scale


# ---------------------------------------------------------------------------
# Property batteries (shared with the acceptance suite)


def check_euler_identities(count=50, tol=1e-10, seed=101):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 5))
        kind = i % 3
        if kind == 0:
            T = random_symmetric(n, 4, seed + i)
        elif kind == 1:
            T = HIdentity(4, n)
        else:
            T = ZIdentity(4, n)
        x = rng.standard_normal(n)
        xm = T.contract_m(x)
        scale = max(1.0, abs(xm))
        assert abs(float(x @ T.contract_m_minus_1(x)) - xm) <= tol * scale
        assert abs(float(x @ T.contract_m_minus_2(x) @ x) - xm) <= tol * scale


def check_homogeneity(count=25, tol=1e-10, seed=103):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 5))
        T = random_symmetric(n, 4, seed + i)
        x = rng.standard_normal(n)
        c = float(rng.uniform(0.1, 3.0))
        base = T.contract_m(x)
        scale = max(1.0, abs(base) * c**4)
        assert abs(T.contract_m(c * x) - c**4 * base) <= tol * scale


def check_tangency(count=100, tol=1e-10, seed=107):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 6))
        A = random_symmetric(n, 4, seed + i)
        B = ZIdentity(4, n) if i % 2 else random_symmetric(n, 4, seed + 1000 + i)
        x = sample_sphere_plus(n, 1, rng)[0]
        if abs(B.contract_m(x)) < 1e-3:
            continue
        g = rayleigh_gradient(A, B, x)
        gnorm = float(np.linalg.norm(g))
        assert abs(float(x @ g)) <= tol * max(gnorm, 1.0)


def fd_gradient(fn, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient (fn(x + h e_i) - fn(x - h e_i)) / (2h)."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (fn(x + step) - fn(x - step)) / (2.0 * h)
    return grad


def fd_jacobian(fn, x, h: float = 1e-5) -> np.ndarray:
    """Central-difference Jacobian of a vector field, row i = d fn / d x_i."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=float)
    rows = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        rows.append((np.asarray(fn(x + step)) - np.asarray(fn(x - step))) / (2.0 * h))
    return np.vstack(rows)


def check_fd_gradients(count=20, rtol=1e-5, seed=109):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 5))
        A = random_symmetric(n, 4, seed + i)
        B = ZIdentity(4, n)
        x = sample_sphere_plus(n, 1, rng)[0] + 0.1
        x /= np.linalg.norm(x)
        got = rayleigh_gradient(A, B, x)
        want = fd_gradient(lambda v: rayleigh_value(A, B, v), x, h=1e-6)
        assert rel_err(got, want) <= rtol


def check_fd_hessians(count=20, rtol=1e-4, seed=113):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 5))
        A = random_symmetric(n, 4, seed + i)
        B = ZIdentity(4, n)
        x = sample_sphere_plus(n, 1, rng)[0] + 0.1
        x /= np.linalg.norm(x)
        H = rayleigh_hessian(A, B, x)
        Hfd = fd_jacobian(lambda v: rayleigh_gradient(A, B, v), x, h=1e-5)
        assert np.array_equal(H, H.T)
        assert rel_err(H, Hfd) <= rtol


def ascent_direction_check(x, beta: float, g) -> tuple[np.ndarray, float, float]:
    """Return d = P(x + beta g) - x together with g . d and ||d||^2 / beta.

    For any feasible x and tangent gradient, g . d >= ||d||^2 / beta, which
    makes d an ascent direction (Lemma 1).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    d = project_sphere_plus(x + beta * g) - x
    return d, float(g @ d), float(d @ d) / beta


def check_lemma1(count=1000, seed=127):
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 6))
        A = random_symmetric(n, 4, seed + i % 37)
        B = ZIdentity(4, n)
        x = sample_sphere_plus(n, 1, rng)[0]
        beta = float(rng.uniform(1e-3, 10.0))
        g = rayleigh_gradient(A, B, x)
        _, lhs, rhs = ascent_direction_check(x, beta, g)
        assert lhs >= rhs - 1e-10


def check_monotone_traces(problems, seed=131):
    rng = np.random.default_rng(seed)
    for A, B in problems:
        for solver in (spg1, spg2):
            x0 = rng.uniform(0.0, 1.0, size=A.dim)
            rep = solver(A, B, x0)
            merits = [t.merit_value for t in rep.trace]
            for a, b in zip(merits, merits[1:]):
                assert b >= a - 1e-12
            assert len(rep.trace) == rep.iters + 1


def check_projection_nearest(count=100, samples=10_000, seed=137):
    rng = np.random.default_rng(seed)
    feas = sample_sphere_plus(3, samples, rng)
    for _ in range(count):
        v = rng.uniform(-2.0, 2.0, size=3)
        p = project_sphere_plus(v)
        dp = float(np.linalg.norm(p - v))
        dmin = float(np.min(np.linalg.norm(feas - v, axis=1)))
        assert dp <= dmin + 1e-6


def check_diag_completeness(seed=139):
    """Dense scan of the feasible set + SPG refinement finds nothing that the
    closed-form enumeration misses, for diagonal tensors with n <= 3."""
    rng = np.random.default_rng(seed)
    diags = [rng.uniform(-1.0, 1.0, size=3) for _ in range(3)]
    diags += [np.array([0.5, 0.0, -0.3]), np.array([0.4, 0.4])]
    for diag in diags:
        n = diag.size
        spectrum = [lam for lam, _, _ in diagonal_pareto_spectrum(diag, 4, "z")]
        A = diagonal_tensor(diag, 4)
        B = ZIdentity(4, n)
        grid = _scan_candidates(diag, n)
        found = []
        for x0 in grid:
            rep = spg1(A, B, x0, SolverConfig(tol=1e-8, max_iters=200))
            if rep.status is Status.CONVERGED and is_pareto_eigenpair(
                A, B, rep.pair.lam, rep.pair.x, 1e-6
            ):
                found.append(rep.pair.lam)
        for lam in found:
            gap = min(abs(lam - s) for s in spectrum)
            assert gap <= 1e-4, f"scan found eigenvalue {lam} missing from enumeration"


def _scan_candidates(diag, n, res=0.01):
    """Near-stationary grid points of the scan, deduplicated by value."""
    if n == 2:
        theta = np.arange(0.0, math.pi / 2 + res, res)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        theta = np.arange(0.0, math.pi / 2 + res, res)
        phi = np.arange(0.0, math.pi / 2 + res, res)
        T, P = np.meshgrid(theta, phi, indexing="ij")
        pts = np.stack(
            [np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1
        ).reshape(-1, 3)
    pts = np.maximum(pts, 0.0)
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    lam = pts**4 @ diag
    g = 4.0 * (diag * pts**3 - lam[:, None] * pts)
    v = pts + g
    clipped = np.maximum(v, 0.0)
    nrm = np.linalg.norm(clipped, axis=1, keepdims=True)
    nrm[nrm == 0.0] = 1.0
    disp = np.linalg.norm(clipped / nrm - pts, axis=1)
    near = pts[disp < 0.05]
    picked = {}
    for x in near:
        picked.setdefault(round(float(x**4 @ diag), 2), x)
    return list(picked.values())
