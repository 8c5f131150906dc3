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
* ``sspa`` -- shifted scaling-and-projection: steps along the residual
  y_k = A x_k^{m-1} - lambda_k B x_k^{m-1} plus the same adaptive shift
  r_k m x_k, with step length equal to the norm of that direction, then
  rescales to B x^m = 1.
* ``spa``  -- sspa with the shift forced to r_k = 0.

All five run one driver loop, which owns the set-up, the stop tests, the
trace rows and the report; a small step rule supplies what differs.  spg1
and spg2 share the SPG rule and differ only in the trial point of the line
search, x_k + alpha d_k (renormalized) versus P(x_k + alpha g_k); spp, sspa
and spa share the power rule.

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
    rayleigh_value,
)

# No solver calls these views of ``evaluate``; bench/tracer.py looks them up
# here by name, so they stay importable from this module.
from .merit import rayleigh_gradient, rayleigh_hessian  # noqa: F401
from .projection import ScalingError, b_normalize, project_orthant, project_sphere_plus
from .tensor import DenseSymmetricTensor, HIdentity, TensorOperator, ZIdentity, principal_subtensor
from .verify import ResidualTriple, residual

__all__ = [
    "Status",
    "SolverConfig",
    "EigenPair",
    "IterationRecord",
    "SolverReport",
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


@dataclass
class SolverConfig:
    """Shared solver parameters.

    With ``paper_literal_safeguards`` the BB clamp interval is rebuilt each
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


def _bb_clamped(s: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Spectral step <s, s> / <s, y> clamped to [lo, hi]; hi if <s, y> <= 0."""
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
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric or non-finite input)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix must be finite")
    if np.abs(M - M.T).max(initial=0.0) > 1e-8:
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


_POLISH_SUPPORT_CUTS = (1e-2, 1e-4, 1e-1, 0.0)
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

    The support is {i : x_i > cut} for each cut in turn, until one face
    reaches ``target``.  The 1e-2 and 1e-4 cuts come first; 0.1 drops
    coordinates that are noise around a vertex, and 0 keeps small but
    genuine coordinates the 1e-4 cut drops.
    """
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


def _shrink(alpha: float, f0: float, f_trial: float, slope: float) -> float:
    """Reduce a rejected trial step by safeguarded quadratic interpolation.

    The quadratic model through f0, the slope at 0, and the trial value has
    its maximizer at alpha^2 * slope / (2 (f0 + alpha slope - f_trial)); when
    that denominator is nonpositive the model is useless and the step is
    halved, otherwise the new step is clamped to [0.1 alpha, 0.9 alpha].
    """
    denom = 2.0 * (f0 + alpha * slope - f_trial)
    if denom <= 0.0:
        return 0.5 * alpha
    return min(max(alpha * alpha * slope / denom, 0.1 * alpha), 0.9 * alpha)


class _SpgRule:
    """Spectral projected gradient step with a monotone Armijo line search.

    spg1 (``curvilinear=False``) tries x + alpha d with d = P(x + beta g) - x
    and renormalizes the accepted point; spg2 (``curvilinear=True``) tries
    P(x + alpha g) from alpha = beta and uses the gradient-scaled BB band.
    """

    def __init__(self, A, B, cfg: SolverConfig, curvilinear: bool):
        self.A, self.B, self.cfg, self.curvilinear = A, B, cfg, curvilinear

    def start(self, x):
        ev = evaluate(self.A, self.B, x, self.cfg.merit)
        self.val, self.g = ev.value, ev.gradient
        self.gnorm = float(np.linalg.norm(self.g))
        self.beta = 1.0 / self.gnorm if self.gnorm > 0.0 else 1.0
        return x, ev.lam

    def measure(self, x, lam):
        return (self.val, self.gnorm, self.beta, 0.0), None

    def stationary(self, x, k) -> bool:
        if k and self.gnorm <= self.cfg.tol:
            return True
        self.d = project_sphere_plus(x + self.beta * self.g) - x
        return float(np.linalg.norm(self.d)) < self.cfg.tol

    def step(self, x, lam):
        A, B, cfg, g, val = self.A, self.B, self.cfg, self.g, self.val
        alpha = self.beta if self.curvilinear else 1.0
        slope = float(g @ self.d)
        for _ in range(LINE_SEARCH_MAX_TRIALS):
            if self.curvilinear:
                trial = project_sphere_plus(x + alpha * g)
                # The chord g . (x_+ - x) already grows with alpha, so the
                # quadratic model below takes chord / alpha as its slope.
                slope = float(g @ (trial - x))
            else:
                trial = x + alpha * self.d
            try:
                f_trial = _trial_value(A, B, trial, cfg.merit)
            except _DOMAIN_ERRORS:
                return None, None, 0.0, Status.DOMAIN_ERROR
            if f_trial >= val + cfg.rho * alpha * slope:
                break
            model_slope = slope / alpha if self.curvilinear else slope
            alpha = _shrink(alpha, val, f_trial, model_slope)
        else:
            return None, None, 0.0, Status.LINE_SEARCH_FAILURE
        x_new = trial if self.curvilinear else trial / np.linalg.norm(trial)
        try:
            ev = evaluate(A, B, x_new, cfg.merit)
        except _DOMAIN_ERRORS:
            return None, None, 0.0, Status.DOMAIN_ERROR
        gnorm = float(np.linalg.norm(ev.gradient))
        lo, hi = _bb_bounds(cfg, gnorm, literal_default=self.curvilinear)
        # Maximizing f is minimizing -f, whose gradient difference is
        # g_k - g_{k+1}; that sign keeps the BB curvature positive near maxima.
        self.beta = _bb_clamped(x_new - x, g - ev.gradient, lo, hi)
        self.val, self.g, self.gnorm = ev.value, ev.gradient, gnorm
        return x_new, ev.lam, alpha, None


class _PowerRule:
    """Power step along the residual plus an optional convexifying shift.

    Unscaled (spp): the Rayleigh gradient g plus r m x is thresholded to the
    orthant and renormalized.  Scaled (sspa, and spa with r = 0): iterates sit
    on B x^m = 1 and step along y + r m x with y = A x^{m-1} - lambda B x^{m-1},
    by a step length equal to its norm, before rescaling.  The rule evaluates
    the pair once where it makes a point, and the measure reads the gradient,
    y and the Hessian from that evaluation.
    """

    def __init__(self, A, B, cfg: SolverConfig, scaled: bool, shifted: bool):
        if cfg.merit is not MeritKind.RAYLEIGH:
            raise ValueError(
                "merit=log is supported by spg1 and spg2 only; "
                "spp, spa and sspa use the Rayleigh quotient"
            )
        self.A, self.B, self.cfg, self.scaled, self.shifted = A, B, cfg, scaled, shifted

    def _evaluate(self, x) -> float:
        self.ev = evaluate(self.A, self.B, x)
        return self.ev.lam

    def start(self, x):
        if self.scaled:
            x = b_normalize(x, self.B)
        return x, self._evaluate(x)

    def measure(self, x, lam):
        ev, m = self.ev, self.A.order
        g = ev.y if self.scaled else ev.gradient
        shift = 0.0
        ascent = g
        if self.shifted:
            H = ev.rayleigh_hessian()
            # The scaled step field is y, not the full Rayleigh gradient
            # m y / B x^m, so the curvature matrix for the shift is its
            # Jacobian, which at the B x^m = 1 scale equals H / m.
            shift = convexity_shift(H / m if self.scaled else H, self.cfg.tau, m)
            ascent = g + shift * m * x
        if not self.scaled:
            ascent = project_orthant(ascent)
        gnorm = float(np.linalg.norm(g))
        self.ascent = ascent
        self.length = gnorm if ascent is g else float(np.linalg.norm(ascent))
        # spp stops on its thresholded direction, spa and sspa on the residual.
        self.stop_norm = gnorm if self.scaled else self.length
        degenerate = not self.scaled and self.length == 0.0
        return (lam, gnorm, 0.0, shift), Status.DOMAIN_ERROR if degenerate else None

    def stationary(self, x, k) -> bool:
        return self.stop_norm <= self.cfg.tol

    def step(self, x, lam):
        if not self.scaled:
            x = self.ascent / self.length
            return x, self._evaluate(x), 0.0, None
        u = project_sphere_plus(x + self.length * self.ascent)
        try:
            x = b_normalize(u, self.B)
        except ScalingError:
            return None, None, self.length, Status.DOMAIN_ERROR
        return x, self._evaluate(x), self.length, None


def _drive(A, B, x0, cfg: SolverConfig | None, rule_type, **flags) -> SolverReport:
    """The one loop every solver runs; ``rule_type(A, B, cfg, **flags)`` steps.

    At each iterate the rule measures the trace fields.  The run then stops,
    in this order, on the rule's degenerate-direction failure, on a lambda or
    x change within tol since the last iterate or the rule's stationarity
    test, and at the iteration cap; otherwise the rule steps.  A failed step
    ends the run at the current iterate, whose trace row keeps the step the
    rule reports.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    _check_problem(A, B, x0)
    rule = rule_type(A, B, cfg, **flags)
    run = _Run(A, B, cfg, time.perf_counter())
    start = project_sphere_plus(x0)
    try:
        x, lam = rule.start(start)
    except _DOMAIN_ERRORS:
        lam = _safe_lambda(A, B, start)
        run.record(0, lam, float("nan"), float("nan"), 0.0, 0.0, 0.0, start)
        return run.finish(lam, start, Status.DOMAIN_ERROR, 0)

    x_prev = lam_prev = None
    k = 0
    while True:
        (merit_value, grad_norm, beta, shift), status = rule.measure(x, lam)
        stalled = x_prev is not None and (
            abs(lam - lam_prev) <= cfg.tol or float(np.linalg.norm(x - x_prev)) <= cfg.tol
        )
        if status is None and (stalled or rule.stationary(x, k)):
            status = Status.CONVERGED
        if status is None and k >= cfg.max_iters:
            status = Status.MAX_ITERS
        step = 0.0
        if status is None:
            x_new, lam_new, step, status = rule.step(x, lam)
        run.record(k, lam, merit_value, grad_norm, step, beta, shift, x)
        if status is not None:
            return run.finish(lam, x, status, k)
        x_prev, lam_prev, x, lam = x, lam, x_new, lam_new
        k += 1


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
    return _drive(A, B, x0, cfg, _SpgRule, curvilinear=False)


def spg2(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Spectral projected gradient with a curvilinear search.

    The trial point x_+ = P(x_k + alpha g_k) is re-projected at every trial
    step length, and accepted once
    f(x_+) >= f(x_k) + rho alpha g_k . (x_+ - x_k).  Stops when the
    projected-gradient displacement P(x_k + beta_k g_k) - x_k drops below
    tol, or on the same step / eigenvalue / gradient tests as spg1.
    """
    return _drive(A, B, x0, cfg, _SpgRule, curvilinear=True)


def spp(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Shifted projected power iteration (merit fixed to the Rayleigh quotient).

    Each iteration shifts the gradient by r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), thresholds negatives to zero,
    and renormalizes.  Stops when the thresholded direction norm or the
    eigenvalue change drops below tol; an exactly-zero thresholded direction
    is reported as a domain error rather than silently perturbed.
    """
    return _drive(A, B, x0, cfg, _PowerRule, scaled=False, shifted=True)


def spa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection iteration.

    Iterates are kept on the scale B x^m = 1.  The residual gradient
    g_k = A x_k^{m-1} - lambda_k B x_k^{m-1} doubles as the step direction
    and, through its norm, the step length, so steps vanish near solutions
    (slow final tail).  Stops when ||g_k||, the step, or the eigenvalue
    change drops below tol.
    """
    return _drive(A, B, u0, cfg, _PowerRule, scaled=True, shifted=False)


def sspa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection with the adaptive convexifying shift.

    Like spa but stepping along y_k + r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), which keeps the step length
    bounded away from zero near solutions.  Stops once the eigenvalue
    change between consecutive iterates is within tol.
    """
    return _drive(A, B, u0, cfg, _PowerRule, scaled=True, shifted=True)


SOLVERS = {"spg1": spg1, "spg2": spg2, "spp": spp, "spa": spa, "sspa": sspa}
