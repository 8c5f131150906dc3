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

All five run one driver loop, which owns the set-up, the evaluation of
every point, the stop test, the trace rows and the report; a small step
rule measures each point's trace fields and proposes the next one.  spg1
and spg2 share the SPG rule and differ only in the trial point of the line
search, x_k + alpha d_k (renormalized) versus P(x_k + alpha g_k); spp, sspa
and spa share the power rule.

One stop test serves all five.  Every iterate is feasible, x >= 0, so a
point is a candidate stop when its dual residual is within tol,
max_i y_i <= tol ||x||^{m-1} with y = A x^{m-1} - lambda B x^{m-1} (the dual
residual of (lambda, x / ||x||), read from the evaluation the driver
holds), or when lambda changed by at most tol since the last iterate.
There the driver polishes (lambda, x / ||x||) and stops Converged,
reporting the polished pair, only if that pair certifies at tol; elsewhere
the run goes on.  So every Converged report certifies at tol.

The spectral (Barzilai-Borwein) step length beta = <s, s> / <s, y> drives
both SPG variants, clamped to safeguards.  Because the solvers maximize,
they feed the update the gradient difference of the negated merit,
y_k = g_k - g_{k+1}, so the curvature <s, y> is positive near maxima.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

# LAPACK's inverse, the gufunc ``np.linalg.inv`` wraps (in
# numpy.linalg._umath_linalg since numpy 1.8).
from numpy.linalg._umath_linalg import inv as _inv

from .merit import (
    MeritDomainError,
    MeritKind,
    SingularDenominatorError,
    _pair_check,
    _pencil,
    evaluate,
    log_value,
    rayleigh_value,
)

# No solver calls these views of ``evaluate``; bench/tracer.py looks them up
# here by name, so they stay importable from this module.
from .merit import rayleigh_gradient, rayleigh_hessian  # noqa: F401
from .projection import ScalingError, _norm, b_normalize, project_orthant, project_sphere_plus
from .tensor import TensorOperator
from .verify import ResidualTriple, residual

__all__ = [
    "Status",
    "SolverConfig",
    "EigenPair",
    "IterationRecord",
    "SolverReport",
    "min_eig_sym",
    "spg1",
    "spg2",
    "spp",
    "spa",
    "sspa",
    "SOLVERS",
]

LINE_SEARCH_MAX_TRIALS = 50
# Fixed safeguard interval for the Barzilai-Borwein step.
BETA_MIN = 1e-10
BETA_MAX = 1e10

_DOMAIN_ERRORS = (MeritDomainError, SingularDenominatorError, ScalingError)
# The trace fields of a point whose evaluation or measure raised.
_UNMEASURED = (float("nan"), float("nan"), 0.0, 0.0)


class Status(Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    DOMAIN_ERROR = "DomainError"


@dataclass
class SolverConfig:
    """Shared solver parameters.

    By default each SPG variant keeps its own Barzilai-Borwein safeguard:
    spg1 clamps to the fixed [BETA_MIN, BETA_MAX] = [1e-10, 1e10] (its line
    search re-controls the step from alpha = 1 anyway), spg2 to the
    gradient-scaled band [min(g, 1/g), max(g, 1/g)] rebuilt at each update
    from the gradient norm g (its trial step IS beta, so the band acts as a
    trust region and caps ||beta g|| at max(1, g^2)).
    ``paper_literal_safeguards`` gives spg1 the band too.
    """

    tol: float = 1e-6
    max_iters: int = 500
    rho: float = 1e-4
    tau: float = 0.05
    merit: MeritKind = MeritKind.RAYLEIGH
    paper_literal_safeguards: bool = False

    def __post_init__(self):
        # A string such as "rayleigh" would fail every ``is`` test on the kind.
        self.merit = MeritKind(self.merit)
        # NaN fails every comparison, so the finiteness test comes first.
        if not math.isfinite(self.tol) or self.tol <= 0:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not 0 < self.rho < 1:
            raise ValueError("rho must lie in (0, 1)")
        if not math.isfinite(self.tau) or self.tau <= 0:
            raise ValueError(f"tau must be finite and positive, got {self.tau!r}")
        # The driver's cap test is k >= max_iters, which inf and NaN never
        # meet; a bool is an Integral, but True is no iteration count.
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {self.max_iters!r}")


@dataclass
class EigenPair:
    """Candidate Pareto eigenpair: eigenvalue and unit nonnegative vector."""

    lam: float
    x: np.ndarray


@dataclass(slots=True)
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


def _bb_clamped(s: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Spectral step <s, s> / <s, y> clamped to [lo, hi]; hi if <s, y> <= 0."""
    b = float(s @ y)
    if b <= 0.0:
        return hi
    return min(max(float(s @ s) / b, lo), hi)


def _bb_bounds(grad_norm: float, literal: bool) -> tuple[float, float]:
    """The gradient-scaled band if ``literal`` and g > 0, else the fixed bounds."""
    if literal and grad_norm > 0.0:
        inv = 1.0 / grad_norm
        return min(grad_norm, inv), max(grad_norm, inv)
    return BETA_MIN, BETA_MAX


# No solver calls min_eig_sym: the shift reads
# MeritEval.rayleigh_hessian_min_eig.  Tests compare against it, and
# bench/tracer.py looks it up here by name.
def min_eig_sym(M) -> float:
    """Smallest eigenvalue of a symmetric matrix (rejects asymmetric or non-finite input).

    One pass tests both: D = M - M' is antisymmetric, so D.max() is its
    largest |entry|, and a NaN or inf anywhere in M makes some entry of D
    NaN, so ``D.max() <= 1e-8`` fails on either fault.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    with np.errstate(invalid="ignore"):
        gap = (M - M.T).max(initial=0.0)
    if not gap <= 1e-8:
        if not np.isfinite(M).all():
            raise ValueError("matrix must be finite")
        raise ValueError("matrix is not symmetric to 1e-8")
    return float(np.linalg.eigvalsh(M)[0])


def _check_problem(A: TensorOperator, B: TensorOperator, x0: np.ndarray) -> None:
    _pair_check(A, B)
    if A.order % 2:
        raise ValueError("solvers require an even tensor order")
    if x0.shape != (A.dim,):
        raise ValueError(f"x0 must have length {A.dim}, got shape {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 must be finite")
    if not np.any(x0):
        raise ValueError("x0 must be nonzero")


_POLISH_SUPPORT_CUTS = (1e-2, 1e-4, 1e-1, 0.0)
_POLISH_NEWTON_STEPS = 25
# A face whose Newton residual ||F|| has set no new low in this many steps
# since its first step is cycling, not converging, and its Newton iteration
# ends there.
_NEWTON_STALL_STEPS = 4
# The polish stops trying faces once the kept pair's max violation is this small.
_POLISH_TARGET = 1e-10
# Above this estimate ||J||_max ||J^-1||_max of the Newton Jacobian's
# condition, its lambda column scaled to max 1, the polish takes the
# minimum-norm step instead of J^-1 F.
_NEWTON_COND_MAX = 1e10


def _max(a: np.ndarray):
    """The largest entry of ``a``: the ufunc reduce ``a.max()`` calls, without its dispatch."""
    return np.maximum.reduce(a, axis=None)


def _polish(A, B, lam, x):
    """Sharpen a candidate stop by Newton steps on its active face.

    The driver's loose stop test leaves the endpoint a few digits short of
    a certified eigenpair.  Converged status promises a
    pair whose complementarity residuals actually verify, so the candidate
    pair is refined: detect the support, solve the face-restricted system
    A_I z^{m-1} - lam B_I z^{m-1} = 0, ||z|| = 1 by Newton, and keep the
    result only if it is feasible and strictly reduces the residual.  Newton
    contracts the full operators at z padded with zeros, so the faces of
    every operator are polished.  Its step solves with the inverse Jacobian,
    and takes the minimum-norm step where the Jacobian is singular or
    nearly so, so a face whose eigenvectors form a set still converges to
    the nearest one.  Each face gets at most ``_POLISH_NEWTON_STEPS`` = 25
    steps, and ends early once its residual has set no new low in
    ``_NEWTON_STALL_STEPS`` = 4 steps since the first.  A regular face's
    residual falls quadratically and a singular one's (ex4 at lam = 0)
    linearly, so neither stalls, and over the corpus the stop never ends a
    face; a face whose Newton iteration cycles without a root nearby stops
    paying for the full 25 steps.  Such a face can still land on a root
    after a far jump, which the stop gives up: the main loop then goes on
    to its next candidate stop.  Newton steps count in neither the trace
    nor the iteration count of the main loop.

    The support is {i : x_i > cut} for each cut in turn, until one face
    reaches ``_POLISH_TARGET``.  The 1e-2 and 1e-4 cuts come first; 0.1 drops
    coordinates that are noise around a vertex, and 0 keeps small but
    genuine coordinates the 1e-4 cut drops.  Two cuts often give the same
    face; Newton runs on each face once, since a second run from the same
    (lam, x) would only repeat the first candidate.  Returns
    ``(lam, x, residual)`` for the pair it keeps, so a certified stop reports
    that residual triple as it is.
    """
    best = (lam, x, residual(A, B, lam, x))
    best_viol = best[2].max_violation()
    tried = set()
    for cut in _POLISH_SUPPORT_CUTS:
        if best_viol <= _POLISH_TARGET:
            break
        support = np.flatnonzero(x > cut)
        if support.size == 0 or support.tobytes() in tried:
            continue
        tried.add(support.tobytes())
        sub_pair = _newton_face(A, B, lam, x, support)
        if sub_pair is None:
            continue
        lam_new, x_new = sub_pair
        res = residual(A, B, lam_new, x_new)
        viol = res.max_violation()
        if viol < best_viol:
            best_viol = viol
            best = (lam_new, x_new, res)
    return best


# A singular J's inverse comes back NaN, which raises the invalid flag.
@np.errstate(invalid="ignore")
def _newton_face(A, B, lam, x, support):
    """Newton iteration for the eigensystem on one face; None if it fails.

    z stays a full-length vector that is zero off ``support``, so the full
    contractions sliced to the support are the face's: (T z^{m-1})[I] is
    T_I z_I^{m-1} and (T z^{m-2})[I, I] is T_I z_I^{m-2}, for every operator.
    With F = (A z^{m-1} - lam B z^{m-1}, (z . z - 1) / 2) on the face, J's
    (z, z) block is (m-1) P[I, I] for the pencil matrix
    P = A z^{m-2} - lam B z^{m-2} of :func:`~teicp.merit._pencil`, its lambda
    column is -B z^{m-1} and its last row is z'.  Each step is
    delta = -J^{-1} F from one call of LAPACK's inverse, the ``inv`` gufunc
    that ``np.linalg.inv`` wraps, with its bits and without the wrapper.
    Its result also gives the condition estimate
    ||J||_max ||J^{-1}||_max of J with its lambda column -B z^{m-1} scaled to
    max 1, so the estimate does not grow with the scale of B.  A singular J
    comes back as NaN, which makes the estimate NaN; where the estimate is
    NaN or exceeds 1e10, the step is the minimum-norm ``lstsq`` one.  The
    iteration ends where ||F|| <= 1e-13 max(1, |lam|), after
    ``_POLISH_NEWTON_STEPS`` steps, or where ||F|| has set no new low in
    ``_NEWTON_STALL_STEPS`` steps, counted from the first step's result.
    Returns ``(lam, z / ||z||)``.
    """
    k = support.size
    # The face's (k, k) block of an (n, n) matrix, as flat positions for ``take``.
    face = (support[:, None] * A.dim + support).ravel()
    zs = x[support] / _norm(x[support])
    z = np.zeros(A.dim)
    z[support] = zs
    lam_z = float(lam)
    # F and J, refilled at each step through views of their blocks; J's
    # corner entry stays 0.
    fval = np.empty(k + 1)
    jac = np.zeros((k + 1, k + 1))
    f_face, j_face, j_col, j_row = fval[:k], jac[:k, :k], jac[:k, k], jac[k, :k]
    low, since_low = math.inf, 0
    for step in range(_POLISH_NEWTON_STEPS):
        bz = B.contract_m_minus_1(z).take(support)
        np.subtract(A.contract_m_minus_1(z).take(support), lam_z * bz, out=f_face)
        fval[k] = 0.5 * (float(zs @ zs) - 1.0)
        f_norm = _norm(fval)
        if f_norm <= 1e-13 * max(1.0, abs(lam_z)):
            break
        # The first step from the cut's point may overshoot by orders of
        # magnitude before Newton closes in, so the low counts from its result.
        if f_norm < low or step == 1:
            low, since_low = f_norm, 0
        else:
            since_low += 1
            if since_low == _NEWTON_STALL_STEPS:
                break
        np.multiply(A.order - 1, _pencil(A, B, lam_z, z).take(face).reshape(k, k), out=j_face)
        np.negative(bz, out=j_col)
        j_row[:] = zs
        inv = _inv(jac, signature="d->d")
        # The estimate is that of J with its lambda column scaled to max 1,
        # which scales the last row of J^-1 by max|B z^{m-1}|, the
        # maximum of |J|'s last column (its corner is 0).  A NaN inverse
        # makes it NaN, which fails the test.
        abs_jac, abs_inv = np.abs(jac), np.abs(inv)
        scale = _max(abs_jac[:, k])
        cond = max(_max(abs_jac[:, :k]), 1.0) * max(_max(abs_inv[:k]), scale * _max(abs_inv[k]))
        if cond <= _NEWTON_COND_MAX:
            delta = inv.dot(-fval)
        else:
            try:
                # The minimum-norm step: where a face holds a set of eigenvectors
                # (ex4 at lam = 0), jac is singular and a plain solve throws z far
                # along its null direction.
                delta = np.linalg.lstsq(jac, -fval, rcond=None)[0]
            except np.linalg.LinAlgError:
                return None
        # zs is z[support] throughout: J's last row copied it above.
        zs += delta[:k]
        z[support] = zs
        lam_z = lam_z + float(delta[k])
        if not np.isfinite(zs).all() or not math.isfinite(lam_z):
            return None
    if (zs <= 0.0).any():
        return None
    return lam_z, z / _norm(z)


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
    The measure reads the merit value and gradient from the driver's
    evaluation, makes the Barzilai-Borwein update from the last measured
    (x, g) and projects P(x + beta g) once: spg1's step takes d from it, and
    it is spg2's first trial point.  The line search computes only
    merit values, and a trial point outside the merit's domain raises to the
    driver, as do a non-finite gradient and a NaN trial value.
    """

    def __init__(self, A, B, cfg: SolverConfig, curvilinear: bool):
        self.A, self.B, self.cfg, self.curvilinear = A, B, cfg, curvilinear
        self.x = None

    def start(self, x):
        return x

    def measure(self, x, ev):
        g = ev.gradient
        gnorm = _norm(g)
        if not math.isfinite(gnorm):
            raise MeritDomainError(f"merit gradient is not finite: norm {gnorm}")
        if self.x is None:
            self.beta = 1.0 / gnorm if gnorm > 0.0 else 1.0
        else:
            lo, hi = _bb_bounds(gnorm, self.cfg.paper_literal_safeguards or self.curvilinear)
            # Maximizing f is minimizing -f, whose gradient difference is
            # g_k - g_{k+1}; that sign keeps the BB curvature positive near maxima.
            self.beta = _bb_clamped(x - self.x, self.g - g, lo, hi)
        self.x, self.g, self.val = x, g, ev.value
        self.p = project_sphere_plus(x + self.beta * g)
        return ev.value, gnorm, self.beta, 0.0

    def step(self, x):
        cfg, g, val = self.cfg, self.g, self.val
        if self.curvilinear:
            alpha = self.beta
        else:
            alpha, d = 1.0, self.p - x
            slope = float(g @ d)
        for tried in range(LINE_SEARCH_MAX_TRIALS):
            if self.curvilinear:
                # The first trial, at alpha = beta, is the measure's P(x + beta g).
                trial = project_sphere_plus(x + alpha * g) if tried else self.p
                # The chord g . (x_+ - x) already grows with alpha, so the
                # quadratic model below takes chord / alpha as its slope.
                slope = float(g @ (trial - x))
            else:
                trial = x + alpha * d
            f_trial = _trial_value(self.A, self.B, trial, cfg.merit)
            if math.isnan(f_trial):
                raise MeritDomainError("merit value is NaN at a line-search trial point")
            if f_trial >= val + cfg.rho * alpha * slope:
                break
            model_slope = slope / alpha if self.curvilinear else slope
            alpha = _shrink(alpha, val, f_trial, model_slope)
        else:
            return None, 0.0, Status.LINE_SEARCH_FAILURE
        return (trial if self.curvilinear else trial / _norm(trial)), alpha, None


class _PowerRule:
    """Power step along the residual plus an optional convexifying shift.

    Unscaled (spp): the Rayleigh gradient g plus r m x is thresholded to the
    orthant and renormalized.  Scaled (sspa, and spa with r = 0): iterates sit
    on B x^m = 1 and step along y + r m x with y = A x^{m-1} - lambda B x^{m-1},
    by a step length equal to its norm, before rescaling.  The measure reads
    the gradient, y and the Rayleigh Hessian's smallest eigenvalue from the
    driver's evaluation of the point, and spp's step fails where the
    thresholded direction is zero.
    """

    def __init__(self, A, B, cfg: SolverConfig, scaled: bool, shifted: bool):
        if cfg.merit is not MeritKind.RAYLEIGH:
            raise ValueError(
                "merit=log is supported by spg1 and spg2 only; "
                "spp, spa and sspa use the Rayleigh quotient"
            )
        self.A, self.B, self.cfg, self.scaled, self.shifted = A, B, cfg, scaled, shifted

    def start(self, x):
        return b_normalize(x, self.B) if self.scaled else x

    def measure(self, x, ev):
        m = self.A.order
        g = ev.y if self.scaled else ev.gradient
        shift = 0.0
        ascent = g
        if self.shifted:
            low = ev.rayleigh_hessian_min_eig()
            if self.scaled:
                # The scaled step field is y, not the full Rayleigh gradient
                # m y / B x^m, so the curvature matrix for the shift is its
                # Jacobian, which at the B x^m = 1 scale equals H / m.
                low /= m
            shift = max(0.0, (self.cfg.tau - low) / m)
            ascent = g + shift * m * x
        if not self.scaled:
            ascent = project_orthant(ascent)
        gnorm = _norm(g)
        self.ascent = ascent
        self.length = gnorm if ascent is g else _norm(ascent)
        return ev.lam, gnorm, 0.0, shift

    def step(self, x):
        if not self.scaled:
            if self.length == 0.0:  # a zero direction cannot be renormalized
                return None, 0.0, Status.DOMAIN_ERROR
            return self.ascent / self.length, 0.0, None
        u = project_sphere_plus(x + self.length * self.ascent)
        try:
            return b_normalize(u, self.B), self.length, None
        except ScalingError:
            # Unlike a point the driver cannot evaluate, this failed row
            # keeps the step length that was tried.
            return None, self.length, Status.DOMAIN_ERROR


def _drive(A, B, x0, cfg: SolverConfig | None, rule_type, **flags) -> SolverReport:
    """The one loop every solver runs; ``rule_type(A, B, cfg, **flags)`` steps.

    The driver makes, evaluates and records every point; the rule measures
    the trace fields from that evaluation and proposes the next point.  The
    run then stops at a candidate stop (a dual residual
    max_i y_i <= tol ||x||^{m-1}, or a lambda change within tol since the
    last iterate) whose polished pair certifies at tol, then at the
    iteration cap; otherwise the rule steps.  A step that fails ends the run
    at the current iterate, whose trace row keeps the step the rule reports.
    A point the merit cannot be evaluated at (the start, a line-search trial
    or a new iterate), which includes a non-finite Rayleigh quotient, ends
    any solver with DomainError and step 0, as does a non-finite shift
    Hessian; at the start, the row holds the Rayleigh quotient of the
    projected x0, NaN where B x^m = 0, and a point whose measure raised gets
    NaN merit fields.  A Converged report keeps the certified pair and its
    residual triple; any other report keeps the unit endpoint and its
    residual.

    A run that comes back to an exact state is fast-forwarded.  The driver's
    state at iterate k is the pair (x_{k-1}, x_k): the rule's state after
    measuring x_k is a function of it alone, and so are lam_prev, the stop
    test and the polish.  A new rule must keep that invariant, and any state
    a later change gives the driver must join the key below.  Once the stop
    test has failed at k > 0, ``seen`` maps the bytes of x_{k-1} followed by
    x_k to k (j = 0 is left out: the SPG rule's first measure has no memory).
    Where the key was seen at j < k, the run repeats iterations j .. k-1,
    none of which stopped, until the cap.  So the driver appends their rows,
    with their k renumbered, for every whole period below the cap, and the
    loop computes the rest, the cap row and the reported pair included.
    Every report is the one the full run gives, ``wall_time`` aside, and a
    MaxIters report's ``iters`` and trace include the replayed periods.  Every stop leaves the loop, and the run's last
    row is recorded after it.
    """
    cfg = cfg or SolverConfig()
    x0 = np.asarray(x0, dtype=float)
    _check_problem(A, B, x0)
    rule = rule_type(A, B, cfg, **flags)
    t0 = time.perf_counter()
    trace: list[IterationRecord] = []

    def record(k, lam, fields, step):
        # Every value here is a Python float already: the rules, evaluate and
        # _safe_lambda make them with float() or math functions.
        merit_value, grad_norm, beta, shift = fields
        trace.append(IterationRecord(k, lam, merit_value, grad_norm, step, beta, shift))

    seen: dict[bytes, int] = {}
    # y is homogeneous of degree m - 1 in x, so the dual residual of
    # (lam, x / ||x||) is max_i y_i / (x . x)^half.
    half = (A.order - 1) / 2
    x = project_sphere_plus(x0)
    lam = lam_prev = x_prev = kept = None
    fields = _UNMEASURED
    k = 0
    try:
        x_new = rule.start(x)
        ev = evaluate(A, B, x_new, cfg.merit)
        while True:
            x, lam = x_new, ev.lam
            fields = _UNMEASURED  # until the measure returns
            fields = rule.measure(x, ev)
            # A NaN in y can at most make a candidate stop and cost one polish:
            # certification goes through ResidualTriple.max_violation, which
            # never certifies NaN.
            stationary = max(ev.y.tolist()) <= cfg.tol * float(x.dot(x)) ** half
            if stationary or (lam_prev is not None and abs(lam - lam_prev) <= cfg.tol):
                # Neither test proves the pair is an eigenpair: stop only if
                # the polished pair certifies, else go on.
                polished = _polish(A, B, float(lam), x / _norm(x))
                if polished[2].max_violation() <= cfg.tol:
                    status, step, kept = Status.CONVERGED, 0.0, polished
                    break
            if k:
                j = seen.setdefault(x_prev.tobytes() + x.tobytes(), k)
                if j < k:  # iterations j .. k-1 repeat: copy their whole periods below the cap
                    p = k - j
                    for i in range(k, k + (cfg.max_iters - k) // p * p):
                        r = trace[i - p]
                        trace.append(IterationRecord(i, r.lam, r.merit_value, r.grad_norm, r.step, r.beta, r.shift))
                    k = len(trace)
            if k >= cfg.max_iters:
                status, step = Status.MAX_ITERS, 0.0
                break
            x_new, step, status = rule.step(x)
            if status is not None:
                break
            ev = evaluate(A, B, x_new, cfg.merit)
            record(k, lam, fields, step)
            lam_prev, x_prev = lam, x
            k += 1
    except _DOMAIN_ERRORS:
        if lam is None:  # the start itself could not be evaluated
            lam = _safe_lambda(A, B, x)
        status, step = Status.DOMAIN_ERROR, 0.0
    record(k, lam, fields, step)
    if kept is None:
        x = x / _norm(x)
        lam = float(lam)
        kept = (lam, x, residual(A, B, lam, x))
    lam, x, res = kept
    return SolverReport(
        pair=EigenPair(lam=lam, x=x),
        status=status,
        iters=k,
        residual=res,
        trace=trace,
        wall_time=time.perf_counter() - t0,
    )


def spg1(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Spectral projected gradient with a straight-line backtracking search.

    Each iteration projects the spectral trial point, takes
    d_k = P(x_k + beta_k g_k) - x_k, and backtracks from a full step until
    f(x_k + alpha d_k) >= f(x_k) + rho alpha g_k . d_k.  Iterates are kept on
    the unit sphere (the merits are scale-invariant, so partial steps can be
    renormalized without changing any merit value).
    """
    return _drive(A, B, x0, cfg, _SpgRule, curvilinear=False)


def spg2(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Spectral projected gradient with a curvilinear search.

    The trial point x_+ = P(x_k + alpha g_k) is re-projected at every trial
    step length, and accepted once
    f(x_+) >= f(x_k) + rho alpha g_k . (x_+ - x_k).
    """
    return _drive(A, B, x0, cfg, _SpgRule, curvilinear=True)


def spp(A: TensorOperator, B: TensorOperator, x0, cfg: SolverConfig | None = None) -> SolverReport:
    """Shifted projected power iteration (merit fixed to the Rayleigh quotient).

    Each iteration shifts the gradient by r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), thresholds negatives to zero,
    and renormalizes.  An exactly-zero thresholded direction is reported as
    a domain error rather than silently perturbed.
    """
    return _drive(A, B, x0, cfg, _PowerRule, scaled=False, shifted=True)


def spa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection iteration.

    Iterates are kept on the scale B x^m = 1.  The residual gradient
    g_k = A x_k^{m-1} - lambda_k B x_k^{m-1} doubles as the step direction
    and, through its norm, the step length, so steps vanish near solutions
    (slow final tail).
    """
    return _drive(A, B, u0, cfg, _PowerRule, scaled=True, shifted=False)


def sspa(A: TensorOperator, B: TensorOperator, u0, cfg: SolverConfig | None = None) -> SolverReport:
    """Scaling-and-projection with the adaptive convexifying shift.

    Like spa but stepping along y_k + r_k m x_k with
    r_k = max(0, (tau - lambda_min(H_k)) / m), which keeps the step length
    bounded away from zero near solutions.
    """
    return _drive(A, B, u0, cfg, _PowerRule, scaled=True, shifted=True)


SOLVERS = {"spg1": spg1, "spg2": spg2, "spp": spp, "spa": spa, "sspa": sspa}
