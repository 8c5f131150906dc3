"""Iterative solvers for Pareto eigenpairs.

Five algorithms share the same calling convention ``solver(A, B, x0, cfg)``
and return a :class:`SolverReport` with a per-iteration trace:

* ``spg1`` -- spectral projected gradient with a backtracking line search
  along the fixed direction d_k = P(x_k + beta_k g_k) - x_k.
* ``spg2`` -- spectral projected gradient with a curvilinear search that
  re-projects the trial point at every step length.
* ``spp``  -- shifted projected power iteration; an adaptive shift
  r_k = max(0, (tau - lambda_min(H_k)) / m) keeps the objective locally
  convex before thresholding and renormalizing the ascent direction.
* ``spa``  -- scaling-and-projection: steps by the residual gradient with
  step length equal to its own norm, then rescales to B x^m = 1.
* ``sspa`` -- spa with the same adaptive shift as spp.

The spectral (Barzilai-Borwein) step length beta = <s, s> / <s, y> drives
both SPG variants, clamped to safeguards.  Because the solvers maximize,
they feed the update the gradient difference of the negated merit,
y_k = g_k - g_{k+1}, so the curvature <s, y> is positive near maxima.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .merit import (
    MeritDomainError,
    MeritKind,
    SingularDenominatorError,
    evaluate,
    log_value,
    rayleigh_gradient,
    rayleigh_hessian,
    rayleigh_value,
)
from .projection import ScalingError, b_normalize, project_orthant, project_sphere_plus
from .tensor import TensorOperator
from .verify import ResidualTriple, residual

__all__ = [
    "Status",
    "Backtrack",
    "SolverConfig",
    "EigenPair",
    "IterationRecord",
    "SolverReport",
    "bb_step",
    "min_eig_sym",
    "convexity_shift",
    "ascent_direction_check",
    "spg1",
    "spg2",
    "spp",
    "spa",
    "sspa",
    "SOLVERS",
]

LINE_SEARCH_MAX_TRIALS = 50

_DOMAIN_ERRORS = (MeritDomainError, SingularDenominatorError, ScalingError)


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    DOMAIN_ERROR = "DomainError"


class Backtrack(Enum):
    HALVING = "halving"
    QUADRATIC_INTERPOLATION = "quadratic"


@dataclass
class SolverConfig:
    """Shared solver parameters.

    ``backtrack=None`` keeps the SPG default of safeguarded quadratic
    interpolation; ``Backtrack.HALVING`` selects plain halving.  With
    ``paper_literal_safeguards`` the BB clamp interval is rebuilt each
    update from the current gradient norm g as [min(g, 1/g), max(g, 1/g)],
    which caps the raw spectral displacement ||beta g|| at max(1, ||g||^2),
    instead of using the fixed [beta_min, beta_max].  ``None`` keeps each
    solver's own default: fixed bounds for spg1 (its line search re-controls
    the step from alpha = 1 anyway), the gradient-scaled band for spg2
    (whose trial step IS beta, so the band acts as a trust region).
    ``keep_iterates`` stores a copy of every iterate on the report.
    """

    tol: float = 1e-6
    max_iters: int = 500
    rho: float = 1e-4
    tau: float = 0.05
    merit: MeritKind = MeritKind.RAYLEIGH
    beta_min: float = 1e-10
    beta_max: float = 1e10
    backtrack: Backtrack | None = None
    paper_literal_safeguards: bool | None = None
    keep_iterates: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0 < self.beta_min <= self.beta_max:
            raise ValueError("need 0 < beta_min <= beta_max")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class EigenPair:
    """Candidate Pareto eigenpair: eigenvalue and unit nonnegative vector."""

    lam: float
    x: np.ndarray


@dataclass
class IterationRecord:
    """Per-iterate trace entry; step/beta/shift are 0 where a solver has none."""

    k: int
    lam: float
    merit_value: float
    grad_norm: float
    step: float
    beta: float
    shift: float


@dataclass
class SolverReport:
    pair: EigenPair
    status: Status
    iters: int
    residual: ResidualTriple
    trace: list[IterationRecord]
    wall_time: float
    iterates: list[np.ndarray] | None = None


def bb_step(s, y, cfg: SolverConfig) -> float:
    """Spectral step <s, s> / <s, y> clamped to the configured safeguards.

    A nonpositive curvature <s, y> returns beta_max.
    """
    return _bb_clamped(np.asarray(s, float), np.asarray(y, float), cfg.beta_min, cfg.beta_max)


def _bb_clamped(s: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    b = float(s @ y)
    if b <= 0.0:
        return hi
    return min(max(float(s @ s) / b, lo), hi)


def _bb_bounds(cfg: SolverConfig, grad_norm: float, literal_default: bool) -> tuple[float, float]:
    literal = cfg.paper_literal_safeguards
    if literal is None:
        literal = literal_default
    if literal and grad_norm > 0.0:
        inv = 1.0 / grad_norm
        return min(grad_norm, inv), max(grad_norm, inv)
    return cfg.beta_min, cfg.beta_max


def min_eig_sym(M) -> float:
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric input)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-8):
        raise ValueError("matrix is not symmetric to 1e-8")
    return float(np.linalg.eigvalsh(M)[0])


def convexity_shift(H, tau: float, order: int) -> float:
    """Adaptive shift max(0, (tau - lambda_min(H)) / m) used by spp/sspa."""
    return max(0.0, (tau - min_eig_sym(H)) / order)


def ascent_direction_check(x, beta: float, g) -> tuple[np.ndarray, float, float]:
    """Return d = P(x + beta g) - x together with g . d and ||d||^2 / beta.

    For any feasible x and tangent gradient, g . d >= ||d||^2 / beta, which
    makes d an ascent direction; exposed for property testing.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    x = np.asarray(x, dtype=float)
    g = np.asarray(g, dtype=float)
    d = project_sphere_plus(x + beta * g) - x
    return d, float(g @ d), float(d @ d) / beta


def _check_problem(A: TensorOperator, B: TensorOperator, x0: np.ndarray) -> None:
    if A.order != B.order or A.dim != B.dim:
        raise ValueError("A and B must share order and dimension")
    if A.order % 2:
        raise ValueError("solvers require an even tensor order")
    if x0.shape != (A.dim,):
        raise ValueError(f"x0 must have length {A.dim}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if not np.any(x0):
        raise ValueError("x0 must be nonzero")


class _Run:
    """Accumulates the trace and builds the final report."""

    def __init__(self, A, B, cfg, t0):
        self.A = A
        self.B = B
        self.cfg = cfg
        self.t0 = t0
        self.trace: list[IterationRecord] = []
        self.iterates: list[np.ndarray] | None = [] if cfg.keep_iterates else None

    def record(self, k, lam, merit_value, grad_norm, step, beta, shift, x):
        self.trace.append(
            IterationRecord(
                k=k,
                lam=float(lam),
                merit_value=float(merit_value),
                grad_norm=float(grad_norm),
                step=float(step),
                beta=float(beta),
                shift=float(shift),
            )
        )
        if self.iterates is not None:
            self.iterates.append(np.array(x, copy=True))

    def finish(self, lam, x, status, iters) -> SolverReport:
        x = np.asarray(x, dtype=float)
        x_unit = x / np.linalg.norm(x)
        lam = float(lam)
        if status is Status.CONVERGED:
            lam, x_unit = _polish(self.A, self.B, lam, x_unit)
        return SolverReport(
            pair=EigenPair(lam=lam, x=x_unit),
            status=status,
            iters=iters,
            residual=residual(self.A, self.B, lam, x_unit),
            trace=self.trace,
            wall_time=time.perf_counter() - self.t0,
            iterates=self.iterates,
        )


_POLISH_SUPPORT_CUTS = (1e-2, 1e-4)
_POLISH_NEWTON_STEPS = 25


def _polish(A, B, lam, x, target: float = 1e-10):
    """Sharpen a converged endpoint by Newton steps on its active face.

    The loose stopping rules of the iterative schemes leave the endpoint a
    few digits short of a certified eigenpair.  Converged status promises a
    pair whose complementarity residuals actually verify, so the reported
    pair is refined: detect the support, solve the face-restricted system
    A_I z^{m-1} - lam B_I z^{m-1} = 0, ||z|| = 1 by Newton, and keep the
    result only if it is feasible and strictly reduces the residual.  The
    trace and iteration counts of the main loop are untouched.
    """
    m = A.order
    best_viol = residual(A, B, lam, x).max_violation()
    best = (lam, x)
    if best_viol <= target:
        return best
    for cut in _POLISH_SUPPORT_CUTS:
        support = np.flatnonzero(x > cut)
        if support.size == 0:
            continue
        sub_pair = _newton_face(A, B, lam, x, support)
        if sub_pair is None:
            continue
        lam_new, x_new = sub_pair
        viol = residual(A, B, lam_new, x_new).max_violation()
        if viol < best_viol:
            best_viol = viol
            best = (lam_new, x_new)
        if best_viol <= target:
            break
    return best


def _newton_face(A, B, lam, x, support):
    """Newton iteration for the eigensystem restricted to one face."""
    from .tensor import DenseSymmetricTensor, principal_subtensor

    n = A.dim
    m = A.order
    full = np.arange(n)
    if support.size == n:
        A_s, B_s = A, B
    else:
        if not isinstance(A, DenseSymmetricTensor):
            return None
        A_s = principal_subtensor(A, support)
        B_s = _restrict_operator(B, support)
        if B_s is None:
            return None
    z = x[support] / np.linalg.norm(x[support])
    lam_z = float(lam)
    k = support.size
    for _ in range(_POLISH_NEWTON_STEPS):
        f_top = A_s.contract_m_minus_1(z) - lam_z * B_s.contract_m_minus_1(z)
        f_bot = 0.5 * (float(z @ z) - 1.0)
        fval = np.concatenate([f_top, [f_bot]])
        if float(np.linalg.norm(fval)) <= 1e-13 * max(1.0, abs(lam_z)):
            break
        jac = np.zeros((k + 1, k + 1))
        jac[:k, :k] = (m - 1) * (A_s.contract_m_minus_2(z) - lam_z * B_s.contract_m_minus_2(z))
        jac[:k, k] = -B_s.contract_m_minus_1(z)
        jac[k, :k] = z
        try:
            delta = np.linalg.solve(jac, -fval)
        except np.linalg.LinAlgError:
            return None
        z = z + delta[:k]
        lam_z = lam_z + float(delta[k])
        if not np.all(np.isfinite(z)) or not np.isfinite(lam_z):
            return None
    if np.any(z <= 0.0):
        return None
    x_new = np.zeros(n)
    x_new[support] = z
    nrm = float(np.linalg.norm(x_new))
    if nrm == 0.0:
        return None
    return lam_z, x_new / nrm


def _restrict_operator(B, support):
    from .tensor import DenseSymmetricTensor, HIdentity, ZIdentity, principal_subtensor

    if isinstance(B, ZIdentity):
        return ZIdentity(B.order, support.size)
    if isinstance(B, HIdentity):
        return HIdentity(B.order, support.size)
    if isinstance(B, DenseSymmetricTensor):
        return principal_subtensor(B, support)
    return None


def _safe_lambda(A, B, x) -> float:
    try:
        return rayleigh_value(A, B, x)
    except SingularDenominatorError:
        return float("nan")


def _trial_value(A, B, x, kind: MeritKind) -> float:
    return rayleigh_value(A, B, x) if kind is MeritKind.RAYLEIGH else log_value(A, B, x)


def _shrink(alpha: float, f0: float, f_trial: float, slope: float, mode: Backtrack) -> float:
    """Reduce a rejected trial step, by halving or safeguarded interpolation.

    The quadratic model through f0, the slope at 0, and the trial value has
    its maximizer at alpha^2 * slope / (2 (f0 + alpha slope - f_trial)); when
    that denominator is nonpositive the model is useless and the step is
    halved, otherwise the new step is clamped to [0.1 alpha, 0.9 alpha].
    """
    if mode is Backtrack.HALVING:
        return 0.5 * alpha
    denom = 2.0 * (f0 + alpha * slope - f_trial)
    if denom <= 0.0:
        return 0.5 * alpha
    return min(max(alpha * alpha * slope / denom, 0.1 * alpha), 0.9 * alpha)


def spg1(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Spectral projected gradient with a straight-line backtracking search.

    Each iteration projects the spectral trial point, takes
    d_k = P(x_k + beta_k g_k) - x_k, and backtracks from a full step until
    f(x_k + alpha d_k) >= f(x_k) + rho alpha g_k . d_k.  Iterates are kept on
    the unit sphere (the merits are scale-invariant, so partial steps can be
    renormalized without changing any merit value).  Stops when ||d_k|| drops
    below tol, or when the step, the eigenvalue change, or the gradient norm
    does.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    _check_problem(A, B, x0)
    t0 = time.perf_counter()
    run = _Run(A, B, cfg, t0)
    backtrack = cfg.backtrack or Backtrack.QUADRATIC_INTERPOLATION

    x = project_sphere_plus(x0)
    try:
        ev = evaluate(A, B, x, cfg.merit)
    except _DOMAIN_ERRORS:
        run.record(0, _safe_lambda(A, B, x), float("nan"), float("nan"), 0.0, 0.0, 0.0, x)
        return run.finish(_safe_lambda(A, B, x), x, Status.DOMAIN_ERROR, 0)
    val, g, lam = ev.value, ev.gradient, ev.lam
    gnorm = float(np.linalg.norm(g))
    beta = 1.0 / gnorm if gnorm > 0.0 else 1.0

    k = 0
    while True:
        z = project_sphere_plus(x + beta * g)
        d = z - x
        if float(np.linalg.norm(d)) < cfg.tol:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.CONVERGED, k)
        if k >= cfg.max_iters:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.MAX_ITERS, k)

        slope = float(g @ d)
        alpha = 1.0
        accepted = False
        for _ in range(LINE_SEARCH_MAX_TRIALS):
            try:
                f_trial = _trial_value(A, B, x + alpha * d, cfg.merit)
            except _DOMAIN_ERRORS:
                run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
                return run.finish(lam, x, Status.DOMAIN_ERROR, k)
            if f_trial >= val + cfg.rho * alpha * slope:
                accepted = True
                break
            alpha = _shrink(alpha, val, f_trial, slope, backtrack)
        if not accepted:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.LINE_SEARCH_FAILURE, k)

        x_new = x + alpha * d
        x_new = x_new / np.linalg.norm(x_new)
        try:
            ev_new = evaluate(A, B, x_new, cfg.merit)
        except _DOMAIN_ERRORS:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.DOMAIN_ERROR, k)
        run.record(k, lam, val, gnorm, alpha, beta, 0.0, x)

        gnorm_new = float(np.linalg.norm(ev_new.gradient))
        lo, hi = _bb_bounds(cfg, gnorm_new, literal_default=False)
        # Maximizing f is minimizing -f, whose gradient difference is
        # g_k - g_{k+1}; that sign keeps the BB curvature positive near maxima.
        beta = _bb_clamped(x_new - x, g - ev_new.gradient, lo, hi)
        done = (
            float(np.linalg.norm(x_new - x)) <= cfg.tol
            or abs(ev_new.lam - lam) <= cfg.tol
            or gnorm_new <= cfg.tol
        )
        x, val, g, lam, gnorm = x_new, ev_new.value, ev_new.gradient, ev_new.lam, gnorm_new
        k += 1
        if done:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.CONVERGED, k)


def spg2(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Spectral projected gradient with a curvilinear search.

    The trial point x_+ = P(x_k + alpha g_k) is re-projected at every trial
    step length, and accepted once
    f(x_+) >= f(x_k) + rho alpha g_k . (x_+ - x_k).  Stops when the
    projected-gradient displacement P(x_k + beta_k g_k) - x_k drops below
    tol, or on the same step / eigenvalue / gradient tests as spg1.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    _check_problem(A, B, x0)
    t0 = time.perf_counter()
    run = _Run(A, B, cfg, t0)
    backtrack = cfg.backtrack or Backtrack.QUADRATIC_INTERPOLATION

    x = project_sphere_plus(x0)
    try:
        ev = evaluate(A, B, x, cfg.merit)
    except _DOMAIN_ERRORS:
        run.record(0, _safe_lambda(A, B, x), float("nan"), float("nan"), 0.0, 0.0, 0.0, x)
        return run.finish(_safe_lambda(A, B, x), x, Status.DOMAIN_ERROR, 0)
    val, g, lam = ev.value, ev.gradient, ev.lam
    gnorm = float(np.linalg.norm(g))
    beta = 1.0 / gnorm if gnorm > 0.0 else 1.0

    k = 0
    while True:
        step_move = project_sphere_plus(x + beta * g) - x
        if float(np.linalg.norm(step_move)) < cfg.tol:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.CONVERGED, k)
        if k >= cfg.max_iters:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.MAX_ITERS, k)

        alpha = beta
        accepted = False
        for _ in range(LINE_SEARCH_MAX_TRIALS):
            x_plus = project_sphere_plus(x + alpha * g)
            try:
                f_trial = _trial_value(A, B, x_plus, cfg.merit)
            except _DOMAIN_ERRORS:
                run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
                return run.finish(lam, x, Status.DOMAIN_ERROR, k)
            chord = float(g @ (x_plus - x))
            if f_trial >= val + cfg.rho * alpha * chord:
                accepted = True
                break
            alpha = _shrink(alpha, val, f_trial, chord / alpha, backtrack)
        if not accepted:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.LINE_SEARCH_FAILURE, k)

        x_new = x_plus
        try:
            ev_new = evaluate(A, B, x_new, cfg.merit)
        except _DOMAIN_ERRORS:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.DOMAIN_ERROR, k)
        run.record(k, lam, val, gnorm, alpha, beta, 0.0, x)

        gnorm_new = float(np.linalg.norm(ev_new.gradient))
        lo, hi = _bb_bounds(cfg, gnorm_new, literal_default=True)
        beta = _bb_clamped(x_new - x, g - ev_new.gradient, lo, hi)
        done = (
            float(np.linalg.norm(x_new - x)) <= cfg.tol
            or abs(ev_new.lam - lam) <= cfg.tol
            or gnorm_new <= cfg.tol
        )
        x, val, g, lam, gnorm = x_new, ev_new.value, ev_new.gradient, ev_new.lam, gnorm_new
        k += 1
        if done:
            run.record(k, lam, val, gnorm, 0.0, beta, 0.0, x)
            return run.finish(lam, x, Status.CONVERGED, k)


def spp(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Shifted projected power iteration (merit fixed to the Rayleigh quotient).

    Each iteration shifts the gradient by r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), thresholds negatives to zero,
    and renormalizes.  Stops when the thresholded direction norm or the
    eigenvalue change drops below tol; an exactly-zero thresholded direction
    is reported as a domain error rather than silently perturbed.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    _check_problem(A, B, x0)
    t0 = time.perf_counter()
    run = _Run(A, B, cfg, t0)
    m = A.order

    x = project_sphere_plus(x0)
    try:
        lam = rayleigh_value(A, B, x)
    except SingularDenominatorError:
        run.record(0, float("nan"), float("nan"), float("nan"), 0.0, 0.0, 0.0, x)
        return run.finish(float("nan"), x, Status.DOMAIN_ERROR, 0)

    x_prev = None
    lam_prev = None
    k = 0
    while True:
        g = rayleigh_gradient(A, B, x)
        shift = convexity_shift(rayleigh_hessian(A, B, x), cfg.tau, m)
        ascent = project_orthant(g + shift * m * x)
        ascent_norm = float(np.linalg.norm(ascent))
        gnorm = float(np.linalg.norm(g))
        if ascent_norm == 0.0:
            run.record(k, lam, lam, gnorm, 0.0, 0.0, shift, x)
            return run.finish(lam, x, Status.DOMAIN_ERROR, k)
        done = ascent_norm <= cfg.tol or (
            lam_prev is not None
            and (abs(lam - lam_prev) <= cfg.tol or float(np.linalg.norm(x - x_prev)) <= cfg.tol)
        )
        if done:
            run.record(k, lam, lam, gnorm, 0.0, 0.0, shift, x)
            return run.finish(lam, x, Status.CONVERGED, k)
        if k >= cfg.max_iters:
            run.record(k, lam, lam, gnorm, 0.0, 0.0, shift, x)
            return run.finish(lam, x, Status.MAX_ITERS, k)
        run.record(k, lam, lam, gnorm, 0.0, 0.0, shift, x)
        x_prev, lam_prev = x, lam
        x = ascent / ascent_norm
        lam = rayleigh_value(A, B, x)
        k += 1


def spa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection iteration.

    Iterates are kept on the scale B x^m = 1.  The residual gradient
    g_k = A x_k^{m-1} - lambda_k B x_k^{m-1} doubles as the step direction
    and, through its norm, the step length, so steps vanish near solutions
    (slow final tail).  Stops when ||g_k||, the step, or the eigenvalue
    change drops below tol.
    """
    cfg = cfg or SolverConfig()
    u0 = np.asarray(u0, dtype=float)
    _check_problem(A, B, u0)
    t0 = time.perf_counter()
    run = _Run(A, B, cfg, t0)

    start = project_sphere_plus(u0)
    try:
        x = b_normalize(start, B)
    except ScalingError:
        run.record(0, _safe_lambda(A, B, start), float("nan"), float("nan"), 0.0, 0.0, 0.0, start)
        return run.finish(_safe_lambda(A, B, start), start, Status.DOMAIN_ERROR, 0)

    x_prev = None
    lam_prev = None
    k = 0
    while True:
        lam = rayleigh_value(A, B, x)
        g = A.contract_m_minus_1(x) - lam * B.contract_m_minus_1(x)
        gnorm = float(np.linalg.norm(g))
        done = gnorm <= cfg.tol or (
            lam_prev is not None
            and (abs(lam - lam_prev) <= cfg.tol or float(np.linalg.norm(x - x_prev)) <= cfg.tol)
        )
        if done:
            run.record(k, lam, lam, gnorm, 0.0, 0.0, 0.0, x)
            return run.finish(lam, x, Status.CONVERGED, k)
        if k >= cfg.max_iters:
            run.record(k, lam, lam, gnorm, 0.0, 0.0, 0.0, x)
            return run.finish(lam, x, Status.MAX_ITERS, k)
        run.record(k, lam, lam, gnorm, gnorm, 0.0, 0.0, x)
        u = project_sphere_plus(x + gnorm * g)
        x_prev, lam_prev = x, lam
        try:
            x = b_normalize(u, B)
        except ScalingError:
            return run.finish(lam, x, Status.DOMAIN_ERROR, k)
        k += 1


def sspa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection with the adaptive convexifying shift.

    Like spa but stepping along y_k + r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), which keeps the step length
    bounded away from zero near solutions.  Stops once the eigenvalue
    change between consecutive iterates is within tol.
    """
    cfg = cfg or SolverConfig()
    u0 = np.asarray(u0, dtype=float)
    _check_problem(A, B, u0)
    t0 = time.perf_counter()
    run = _Run(A, B, cfg, t0)
    m = A.order

    start = project_sphere_plus(u0)
    try:
        x = b_normalize(start, B)
        lam = rayleigh_value(A, B, x)
    except _DOMAIN_ERRORS:
        run.record(0, _safe_lambda(A, B, start), float("nan"), float("nan"), 0.0, 0.0, 0.0, start)
        return run.finish(_safe_lambda(A, B, start), start, Status.DOMAIN_ERROR, 0)

    x_prev = None
    lam_prev = None
    k = 0
    while True:
        y = A.contract_m_minus_1(x) - lam * B.contract_m_minus_1(x)
        # The step field is y, not the full Rayleigh gradient m y / B x^m, so
        # the curvature matrix for the shift is its Jacobian, which at the
        # B x^m = 1 scale equals the Rayleigh Hessian divided by m.
        shift = convexity_shift(rayleigh_hessian(A, B, x) / m, cfg.tau, m)
        ascent = y + shift * m * x
        step = float(np.linalg.norm(ascent))
        ynorm = float(np.linalg.norm(y))
        done = ynorm <= cfg.tol or (
            lam_prev is not None
            and (abs(lam - lam_prev) <= cfg.tol or float(np.linalg.norm(x - x_prev)) <= cfg.tol)
        )
        if done:
            run.record(k, lam, lam, ynorm, 0.0, 0.0, shift, x)
            return run.finish(lam, x, Status.CONVERGED, k)
        if k >= cfg.max_iters:
            run.record(k, lam, lam, ynorm, 0.0, 0.0, shift, x)
            return run.finish(lam, x, Status.MAX_ITERS, k)
        run.record(k, lam, lam, ynorm, step, 0.0, shift, x)
        u = project_sphere_plus(x + step * ascent)
        x_prev, lam_prev = x, lam
        try:
            x = b_normalize(u, B)
        except ScalingError:
            return run.finish(lam, x, Status.DOMAIN_ERROR, k)
        lam = rayleigh_value(A, B, x)
        k += 1


SOLVERS = {"spg1": spg1, "spg2": spg2, "spp": spp, "spa": spa, "sspa": sspa}
