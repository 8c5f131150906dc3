import dataclasses
import math

import numpy as np
import pytest

import teicp.merit
import teicp.solvers

from corpus import GOLDEN, compare, compare_outputs, gate_cases, run_set
from helpers import ReduceTensor, ascent_direction_check, check_lemma1, min_eig_det_bisect, three_term_rayleigh_hessian
from test_acceptance import MULTISTART_RUNS, MULTISTART_SEED, TABLE_MEDIANS
from teicp.merit import MeritKind, evaluate, rayleigh_gradient
from teicp.problems import build, parse_problem, random_start, random_symmetric
from teicp.projection import project_sphere_plus
from teicp.solvers import (
    SOLVERS,
    SolverConfig,
    Status,
    _bb_clamped,
    min_eig_sym,
    spa,
    spg1,
    spg2,
    spp,
    sspa,
)
from teicp.tensor import DenseSymmetricTensor, HIdentity, ZIdentity, diagonal_tensor
from teicp.verify import is_pareto_eigenpair


@pytest.fixture(scope="module")
def diag5():
    diag = [(i - 1.0) / i for i in range(1, 6)]
    return diagonal_tensor(diag, 4), ZIdentity(4, 5)


# --- BB step -----------------------------------------------------------------


def test_bb_step_unit_quotient():
    s = np.array([0.3, -0.2])
    assert _bb_clamped(s, s, 1e-10, 1e10) == 1.0


def test_bb_step_nonpositive_curvature_returns_cap():
    assert _bb_clamped(np.array([1.0, 0.0]), np.array([-0.5, 0.0]), 1e-10, 123.0) == 123.0


def test_bb_step_hand_value():
    assert _bb_clamped(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1e-10, 1e10) == 2.0


def test_bb_step_clamps():
    assert _bb_clamped(np.array([2.0, 0.0]), np.array([1.0, 0.0]), 0.5, 1.5) == 1.5


# --- eigen helpers -----------------------------------------------------------


def test_min_eig_sym_known_values():
    assert min_eig_sym(np.diag([3.0, -1.0, 2.0])) == -1.0
    assert min_eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 6, 13, 20])
def test_lapack_kernels_are_numpy_linalgs_bit_for_bit(n):
    """The shift's eigenvalue kernel and the Newton step's inverse are the
    gufuncs that ``np.linalg.eigvalsh`` and ``np.linalg.inv`` wrap, with
    their bits; a numpy whose wrappers compute otherwise fails here."""
    rng = np.random.default_rng(n)
    for _ in range(5):
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        S = M + M.T
        got = teicp.merit._eigvalsh_lo(S, signature="d->d")
        assert got.tobytes() == np.linalg.eigvalsh(S).tobytes()
        assert teicp.solvers._inv(M, signature="d->d").tobytes() == np.linalg.inv(M).tobytes()


def test_min_eig_sym_matches_det_bisection(rng):
    for seed in range(5):
        M = np.random.default_rng(seed).uniform(-1, 1, size=(5, 5))
        M = M + M.T
        assert min_eig_sym(M) == pytest.approx(min_eig_det_bisect(M), abs=1e-8)


def test_min_eig_sym_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        min_eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # the symmetry test is absolute and inclusive: a gap within 1e-8 passes
    assert min_eig_sym(np.array([[0.0, 1.0], [1.0 + 1e-8, 0.0]])) == pytest.approx(-1.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_min_eig_sym_rejects_non_finite(bad):
    # On the diagonal, in both off-diagonal places, and in only the upper or
    # only the lower triangle: eigvalsh reads one triangle, so each must fail.
    placements = (
        [[bad, 1.0], [1.0, 2.0]],
        [[1.0, bad], [bad, 2.0]],
        [[1.0, bad], [1.0, 2.0]],
        [[1.0, 1.0], [bad, 2.0]],
    )
    for M in placements:
        with pytest.raises(ValueError, match="finite"):
            min_eig_sym(np.array(M))


@pytest.mark.parametrize("problem", ["ex1", "ex4:n=5"])
def test_power_shift_is_the_formula_at_every_iterate(problem):
    """Each spp and sspa row's shift is max(0, (tau - low) / m), with low the
    smallest eigenvalue of the three-term Rayleigh Hessian at that iterate,
    divided by m first under sspa, to rounding of the eigenvalue."""
    A, B = build(parse_problem(problem))
    cfg = SolverConfig(keep_iterates=True)
    m = A.order
    shifted = 0
    for solver, scale in ((spp, 1), (sspa, m)):
        for seed in range(3):
            rep = solver(A, B, random_start(A.dim, seed), cfg)
            assert len(rep.iterates) == len(rep.trace)
            for row, x in zip(rep.trace, rep.iterates):
                H = three_term_rayleigh_hessian(A, B, x)
                want = max(0.0, (cfg.tau - min_eig_sym(H) / scale) / m)
                assert abs(row.shift - want) <= 1e-12 * max(np.abs(H).max(), 1.0), (solver.__name__, seed, row.k)
                shifted += row.shift > 0.0
    assert shifted > 0


# --- ascent direction --------------------------------------------------------


def test_ascent_direction_zero_gradient():
    d, lhs, rhs = ascent_direction_check(np.array([1.0, 0.0]), 0.5, np.zeros(2))
    assert np.all(d == 0.0) and lhs == 0.0 and rhs == 0.0
    x = project_sphere_plus(np.array([1.0, 2.0]))
    d, lhs, rhs = ascent_direction_check(x, 0.5, np.zeros(2))
    assert np.linalg.norm(d) <= 1e-15 and lhs == 0.0 and rhs <= 1e-30


def test_ascent_direction_lemma_batch():
    check_lemma1(count=1000)


def test_ascent_direction_small_beta_taylor(rng):
    beta = 1e-4
    for seed in range(10):
        A = random_symmetric(3, 4, seed)
        B = ZIdentity(4, 3)
        x = np.abs(rng.standard_normal(3)) + 0.3
        x /= np.linalg.norm(x)
        g = rayleigh_gradient(A, B, x)
        d, lhs, rhs = ascent_direction_check(x, beta, g)
        gn = float(np.linalg.norm(g))
        assert np.linalg.norm(d - beta * g) <= 5 * beta**2 * (1 + gn) ** 2
        assert abs(lhs - rhs) <= beta**2 * (1 + gn) ** 4


# --- solver behavior on the benchmark problems -------------------------------


def test_spg1_on_diagonal_problem(diag5):
    A, B = diag5
    rep = spg1(A, B, np.ones(5))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == pytest.approx(0.8, abs=1e-6)
    assert np.max(np.abs(rep.pair.x - np.eye(5)[4])) <= 1e-3
    assert rep.iters <= 10


def test_spg1_stationary_start_converges_immediately(diag5):
    A, B = diag5
    rep = spg1(A, B, np.eye(5)[4])
    assert rep.status is Status.CONVERGED
    assert rep.iters == 0
    assert len(rep.trace) == 1


@pytest.mark.parametrize("start, lam", [(0, 0.0), (4, 0.8), ("near e1", 0.0)])
def test_every_solver_stops_at_a_dual_stationary_start(start, lam, ex2):
    """At a start whose dual residual max_i y_i is within tol, every solver
    stops at k = 0 on a certified pair.

    No lambda change exists at k = 0, so the dual test makes these stops:
    spp stops by it too, and near e1 no solver leaves e1's certified pair.
    """
    A, B = ex2
    x0 = np.eye(5)[0] + 1e-3 if start == "near e1" else np.eye(5)[start]
    for name, solver in SOLVERS.items():
        rep = solver(A, B, x0)
        assert rep.status is Status.CONVERGED and rep.iters == 0, name
        assert rep.pair.lam == pytest.approx(lam, abs=1e-12), name
        assert rep.residual.max_violation() <= 1e-6, name


def test_a_tiny_scale_of_a_stops_on_a_true_eigenpair(ex1):
    """With A scaled by 1e-8, every solver ends Converged on a Pareto
    eigenpair of ex1 itself, not on a pair that certifies only because every
    residual of the scaled problem is tiny."""
    A, B = ex1
    c = 1e-8
    scaled = DenseSymmetricTensor(A.entries * c)
    for name, solver in SOLVERS.items():
        rep = solver(scaled, B, np.ones(3))
        assert rep.status is Status.CONVERGED, name
        assert is_pareto_eigenpair(A, B, rep.pair.lam / c, rep.pair.x, 1e-6), name


def test_spg2_reference_solution(ex3):
    A, B = ex3
    rep = spg2(A, B, np.array([0.9015, 0.3183, 0.5970]))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == pytest.approx(1.2048, abs=1e-3)


def test_spp_small_problem(ex1):
    A, B = ex1
    rep = spp(A, B, np.ones(3))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == pytest.approx(0.3633, abs=1e-3)
    assert rep.iters <= 30
    assert all(t.shift >= 0.0 for t in rep.trace)


def test_spa_starts_at_solution(diag5):
    A, B = diag5
    rep = spa(A, B, np.eye(5)[4])
    assert rep.status is Status.CONVERGED and rep.iters == 0


def test_spa_slow_tail(ex1):
    A, B = ex1
    rep = spa(A, B, np.ones(3))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == pytest.approx(0.3632, abs=1e-3)
    assert rep.iters >= 100


def test_sspa_huge_shift_fixed_point(diag5):
    A, B = diag5
    rep = sspa(A, B, np.eye(5)[4], SolverConfig(tau=1e3))
    assert rep.status is Status.CONVERGED
    assert rep.iters <= 2
    np.testing.assert_allclose(rep.pair.x, np.eye(5)[4], atol=1e-10)


def test_sspa_improves_on_spa(ex1):
    A, B = ex1
    fast = sspa(A, B, np.ones(3))
    slow = spa(A, B, np.ones(3))
    assert fast.status is Status.CONVERGED
    assert fast.iters <= 40 < slow.iters


# --- report and trace invariants ---------------------------------------------


def test_trace_length_matches_iters(diag5, ex1):
    for (A, B), x0 in ((diag5, np.ones(5)), (ex1, np.ones(3))):
        for name, solver in SOLVERS.items():
            rep = solver(A, B, x0)
            assert len(rep.trace) == rep.iters + 1, name
            assert [t.k for t in rep.trace] == list(range(rep.iters + 1))
            assert rep.wall_time >= 0.0


def test_monotone_ascent_and_lemma_on_trace(ex1):
    A, B = ex1
    cfg = SolverConfig(keep_iterates=True)
    for solver in (spg1, spg2):
        rep = solver(A, B, np.ones(3), cfg)
        merits = [t.merit_value for t in rep.trace]
        assert all(b >= a - 1e-12 for a, b in zip(merits, merits[1:]))
        # accepted iterates satisfy the ascent-direction guarantee
        for t, x in zip(rep.trace[:-1], rep.iterates[:-1]):
            g = rayleigh_gradient(A, B, x)
            d, lhs, rhs = ascent_direction_check(x, t.beta, g)
            assert lhs >= rhs - 1e-10


def test_iterate_feasibility(ex1, ex4):
    cfg = SolverConfig(keep_iterates=True)
    A, B = ex1
    for solver in (spg1, spg2, spp):
        rep = solver(A, B, np.ones(3), cfg)
        for x in rep.iterates:
            assert np.all(x >= 0.0)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
    A4, B4 = ex4
    for solver in (spa, sspa):
        rep = solver(A4, B4, np.ones(5), cfg)
        for x in rep.iterates:
            assert np.all(x >= 0.0)
            assert B4.contract_m(x) == pytest.approx(1.0, abs=1e-10)


def test_converged_pairs_certify(ex1, ex3, diag5):
    for (A, B), x0 in ((ex1, np.ones(3)), (ex3, np.array([0.9015, 0.3183, 0.5970])), (diag5, np.ones(5))):
        for solver in SOLVERS.values():
            rep = solver(A, B, x0)
            if rep.status is Status.CONVERGED:
                assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-4)
                assert np.all(rep.pair.x >= 0.0)
                assert np.linalg.norm(rep.pair.x) == pytest.approx(1.0, abs=1e-12)


def test_deterministic_traces(ex1):
    A, B = ex1
    x0 = random_start(3, 5)
    for solver in SOLVERS.values():
        r1 = solver(A, B, x0)
        r2 = solver(A, B, x0)
        assert r1.iters == r2.iters and r1.status is r2.status
        assert r1.pair.lam == r2.pair.lam
        assert np.array_equal(r1.pair.x, r2.pair.x)
        for a, b in zip(r1.trace, r2.trace):
            assert a == b


def test_log_merit_run(rng):
    A = diagonal_tensor([1.0, 2.0, 3.0], 4)
    B = ZIdentity(4, 3)
    cfg = SolverConfig(merit=MeritKind.LOGARITHMIC)
    rep = spg1(A, B, np.ones(3), cfg)
    assert rep.status is Status.CONVERGED
    # reported lambda stays the Rayleigh quotient; the merit column is its log
    assert rep.pair.lam == pytest.approx(3.0, abs=1e-4)
    last = rep.trace[-1]
    assert last.merit_value == pytest.approx(np.log(last.lam), rel=1e-9)


def test_log_merit_domain_error(ex1):
    A, B = ex1
    # the merit is undefined where A x^4 < 0, e.g. at the third vertex
    rep = spg1(A, B, np.array([0.0, 0.0, 1.0]), SolverConfig(merit=MeritKind.LOGARITHMIC))
    assert rep.status is Status.DOMAIN_ERROR
    assert len(rep.trace) == rep.iters + 1


@pytest.mark.parametrize("name", ["spp", "spa", "sspa"])
def test_power_solvers_reject_log_merit(name, ex1):
    A, B = ex1
    with pytest.raises(ValueError, match="spg1 and spg2 only"):
        SOLVERS[name](A, B, np.ones(3), SolverConfig(merit=MeritKind.LOGARITHMIC))


def test_spa_domain_error_on_nonpositive_scale():
    A = HIdentity(4, 2)
    B = diagonal_tensor([1.0, -1.0], 4)
    rep = spa(A, B, np.array([0.0, 1.0]))
    assert rep.status is Status.DOMAIN_ERROR


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_every_solver_reports_a_point_it_cannot_evaluate(name):
    """A step to where B x^m = 0 ends every solver with DomainError at k = 0.

    From [1, 1], spp's power step lands on e2, a line-search trial of spg1
    and spg2 reaches e2, and spa's and sspa's steps cannot be rescaled.
    """
    A = diagonal_tensor([0.0, 1.0], 4)
    B = diagonal_tensor([1.0, 0.0], 4)
    rep = SOLVERS[name](A, B, np.array([1.0, 1.0]))
    assert rep.status is Status.DOMAIN_ERROR
    assert rep.iters == 0 and len(rep.trace) == 1
    assert rep.pair.lam == 1.0 and rep.trace[0].lam == 1.0


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_overflowing_runs_end_without_a_silent_non_finite_run(scale, ex1):
    """Huge entries overflow the gradient or the power steps: the run ends DomainError.

    No solver raises, none runs to MaxIters at a non-finite lambda, and no
    SPG run searches on NaN trial values to a LineSearchFailure; every solver
    stops at k = 0 and keeps the finite start.
    """
    A, B = ex1
    A = DenseSymmetricTensor(A.entries * scale)
    for name, solver in SOLVERS.items():
        with np.errstate(all="ignore"):
            rep = solver(A, B, np.ones(3))
        assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0, name
        assert math.isfinite(rep.pair.lam), name


def test_spg2_projects_once_per_line_search_trial(monkeypatch):
    """spg2's first trial point is the measure's P(x + beta g), not a second projection.

    A Converged run of k iterations projects the start once, each of its
    k + 1 points once in the measure, and each trial but the first of each of
    its k steps once: trials + 2 projections in all.
    """
    counts = {"project": 0, "trial": 0}

    def counting(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(teicp.solvers, "project_sphere_plus", counting("project", project_sphere_plus))
    monkeypatch.setattr(teicp.solvers, "_trial_value", counting("trial", teicp.solvers._trial_value))
    iters = trials = 0
    for problem in ("ex1", "ex3", "ex5:n=5", "rand:n=6,m=4"):
        A, B = build(parse_problem(problem))
        for seed in range(10):
            for cfg in (SolverConfig(), SolverConfig(merit=MeritKind.LOGARITHMIC)):
                counts.update(project=0, trial=0)
                rep = spg2(A, B, random_start(A.dim, seed), cfg)
                if rep.status is Status.CONVERGED:
                    assert counts["project"] == counts["trial"] + 2, (problem, seed)
                    iters, trials = iters + rep.iters, trials + counts["trial"]
    # Some steps reject a trial, so the later trials' projections are counted too.
    assert trials > iters > 0


@pytest.mark.parametrize("solver", [spg1, spg2])
def test_nan_line_search_value_ends_domain_error(solver, ex1, monkeypatch):
    """A NaN trial value ends the run at once, where 50 trials would end LineSearchFailure."""
    trials = []

    def nan_value(*args):
        trials.append(args)
        return float("nan")

    monkeypatch.setattr(teicp.solvers, "_trial_value", nan_value)
    rep = solver(*ex1, np.array([0.2, 0.5, 0.9]))
    assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0 and len(trials) == 1
    assert math.isfinite(rep.pair.lam)


@pytest.mark.parametrize("name", ["spp", "sspa"])
def test_non_finite_shift_hessian_ends_domain_error(name, ex1):
    """At ex1 x 1e308 lambda is finite but the shift's Hessian overflows.

    The rank-2 Hessian is finite at ex1 x 4e307, where the three-term form
    overflowed; there the run still ends DomainError at k = 0, through the
    gradient norm.  From about 8e307 up the Hessian overflows too.
    """
    A, B = ex1
    A = DenseSymmetricTensor(A.entries * 1e308)
    with np.errstate(all="ignore"):
        rep = SOLVERS[name](A, B, np.ones(3))
    assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0
    assert math.isfinite(rep.pair.lam) and rep.trace[0].lam == rep.pair.lam
    assert math.isnan(rep.trace[0].merit_value) and math.isnan(rep.trace[0].grad_norm)


@pytest.mark.parametrize("problem", ["rand:n=2,m=4", "ex1", "ex4:n=5"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["spp", "sspa"])
def test_non_finite_entry_in_the_shift_matrix_ends_domain_error(name, bad, problem, monkeypatch):
    """A NaN or an inf in the matrix whose smallest eigenvalue the shift
    reads, on its diagonal or off it, ends spp and sspa DomainError at k = 0.

    The entry enters through A x^{m-2}, which both the folded sphere-identity
    matrix and the full Hessian of ex4 scale.  On rand:n=2,m=4 a NaN on the
    diagonal alone leaves LAPACK's eigenvalues finite, so the matrix is
    tested before the solve.
    """
    for where in ((1, 1), (0, 1)):
        A, B = build(parse_problem(problem))

        def poisoned(x, matrix=A.contract_m_minus_2, where=where):
            M = np.array(matrix(x))
            M[where] = M[where[::-1]] = bad
            return M

        monkeypatch.setattr(A, "contract_m_minus_2", poisoned)
        with np.errstate(invalid="ignore"):
            rep = SOLVERS[name](A, B, np.ones(A.dim))
        assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0, where
        assert math.isfinite(rep.pair.lam) and math.isnan(rep.trace[0].merit_value)


@pytest.mark.parametrize("name", ["spp", "sspa"])
def test_shift_eigen_solve_that_does_not_converge_ends_domain_error(name, ex1, monkeypatch):
    """LAPACK's eigenvalue kernel returns NaN eigenvalues where it does not converge."""

    def no_convergence(M, signature):
        return np.full(M.shape[-1], np.nan)

    monkeypatch.setattr(teicp.merit, "_eigvalsh_lo", no_convergence)
    rep = SOLVERS[name](*ex1, np.ones(3))
    assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0


@pytest.mark.parametrize("scale", [1e-110, 1e110])
def test_tiny_or_huge_b_never_raises(scale, ex1):
    """With B = scale * I (dense), the cube of B x^m under- or overflows.

    The shift's Hessian once took Python float powers of B x^m, so spp
    raised ZeroDivisionError at 1e-110 and OverflowError at 1e110.  Now every
    solver returns a report.  The rank-2 Hessian forms no power of B x^m,
    so at 1e-110 it stays finite and spp converges to a certified pair,
    where the underflow of (B x^m)^3 ended it DomainError.  Its dual
    residual max_i y_i falls within tol at k = 24, two iterations before
    lambda settles within tol.
    """
    A = ex1[0]
    B = diagonal_tensor([scale] * 3, 4)
    reports = {}
    for name, solver in SOLVERS.items():
        with np.errstate(all="ignore"):
            reports[name] = solver(A, B, np.ones(3))
    assert all(isinstance(rep.status, Status) for rep in reports.values())
    if scale < 1.0:
        rep = reports["spp"]
        assert rep.status is Status.CONVERGED and rep.iters == 24
        assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-6)


def test_huge_b_needs_no_minimum_norm_newton_step(ex1, monkeypatch):
    """The polish's condition estimate scales the Jacobian's lambda column
    -B z^{m-1} to max 1, so B = 1e110 I makes no face look singular.

    Its estimate once grew with B's scale: every Newton step also took the
    lstsq step, and spg1, spp, spa and sspa each ran about 500 polishes to
    MaxIters.  Now no step calls lstsq, and those four certify at once.
    """
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(teicp.solvers.np.linalg, "lstsq", counting_lstsq)
    A, B = ex1[0], diagonal_tensor([1e110] * 3, 4)
    for name, solver in SOLVERS.items():
        with np.errstate(all="ignore"):
            rep = solver(A, B, np.ones(3))
        if name != "spg2":
            assert rep.status is Status.CONVERGED and rep.iters <= 1, name
            assert rep.residual.max_violation() <= 1e-15, name
    assert calls == []


@pytest.mark.parametrize("problem", ["ex1", "ex4:n=5", "rand:n=6,m=4", "rand:n=4,m=6"])
def test_driver_evaluates_each_point_once(problem, monkeypatch):
    """Before the polish, a converged run evaluates the pair once per iterate: iters + 1.

    Line-search trials compute only the merit value, so spg1 and spg2 make no
    further evaluation under either merit.
    """
    calls = []
    at_polish = []
    evaluate = teicp.solvers.evaluate
    polish = teicp.solvers._polish

    def counting_evaluate(*args):
        calls.append(1)
        return evaluate(*args)

    def spy_polish(*args):
        at_polish.append(len(calls))
        return polish(*args)

    monkeypatch.setattr(teicp.solvers, "evaluate", counting_evaluate)
    monkeypatch.setattr(teicp.solvers, "_polish", spy_polish)
    A, B = build(parse_problem(problem))
    runs = [(name, SolverConfig()) for name in SOLVERS]
    runs += [(name, SolverConfig(merit=MeritKind.LOGARITHMIC)) for name in ("spg1", "spg2")]
    converged = 0
    for name, cfg in runs:
        for seed in range(10):
            calls.clear()
            at_polish.clear()
            rep = SOLVERS[name](A, B, random_start(A.dim, seed), cfg)
            if rep.status is Status.CONVERGED:
                assert at_polish == [rep.iters + 1], (name, cfg.merit, seed)
                converged += 1
    assert converged >= 40, problem


# Faces that two support cuts share: spg1 on ex3 from this start stops where
# the 1e-2 and 0.1 cuts both give {0}, and the polish goes on to the 0 cut.
_REPEATED_FACE_START = 20249


def test_polish_tries_each_face_once(monkeypatch):
    faces = []
    newton_face = teicp.solvers._newton_face

    def spy_newton_face(A, B, lam, x, support):
        faces.append(tuple(support.tolist()))
        return newton_face(A, B, lam, x, support)

    monkeypatch.setattr(teicp.solvers, "_newton_face", spy_newton_face)
    A, B = build(parse_problem("ex3"))
    spg1(A, B, random_start(3, _REPEATED_FACE_START))
    assert faces == [(0,), (0, 1), (0, 1, 2)]
    for name, solver in SOLVERS.items():
        for r in range(40):
            faces.clear()
            solver(A, B, random_start(3, 20240 + r))
            assert len(faces) == len(set(faces)), (name, r, faces)


def test_newton_takes_minimum_norm_steps_only_on_singular_faces(monkeypatch):
    """Over the criterion-8 runs, only ex4 sends Newton steps to ``lstsq``.

    Each step inverts the Jacobian once, with LAPACK's inverse, and takes
    the minimum-norm step where the inverse is NaN (J singular) or
    ||J||_max ||J^-1||_max exceeds 1e10.  ex4 has faces whose eigenvectors
    form a set (lam = 0), so its Jacobian is singular there; every step on
    ex1-ex3, ex5 and ex6 stays on the inverse.
    """
    calls = {}
    for owner, name, key in ((teicp.solvers, "_inv", "inv"), (np.linalg, "lstsq", "lstsq")):
        def spy(*args, _f=getattr(owner, name), _key=key, **kwargs):
            calls[_key] += 1
            return _f(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    for problem, names in TABLE_MEDIANS.items():
        A, B = build(parse_problem(problem))
        calls.update(inv=0, lstsq=0)
        for r in range(MULTISTART_RUNS):
            x0 = random_start(A.dim, MULTISTART_SEED + r)
            for name in names:
                SOLVERS[name](A, B, x0)
        assert calls["inv"] > 0, problem
        if problem == "ex4:n=5":
            assert calls["lstsq"] > 0
        else:
            assert calls["lstsq"] == 0, problem


def test_newton_ends_faces_whose_residual_stalls(monkeypatch):
    """The polishes of this spg1 run meet faces where Newton cycles at
    ||F|| around 1e-3 without converging.  The stall stop ends those faces
    early, and the report is the one that the full 25 steps give."""
    A, B = build(parse_problem("rand:n=16,m=4,seed=2709000113"))
    steps = [0]

    def counting(*args, _f=teicp.solvers._inv, **kwargs):
        steps[0] += 1
        return _f(*args, **kwargs)

    monkeypatch.setattr(teicp.solvers, "_inv", counting)
    runs = []
    for stall in (teicp.solvers._NEWTON_STALL_STEPS, teicp.solvers._POLISH_NEWTON_STEPS):
        monkeypatch.setattr(teicp.solvers, "_NEWTON_STALL_STEPS", stall)
        steps[0] = 0
        rep = spg1(A, B, random_start(A.dim, 2709000113), SolverConfig(max_iters=40))
        runs.append((rep.status, rep.iters, rep.pair.lam.hex(), rep.pair.x.tobytes(), steps[0]))
    (*stopped, stopped_steps), (*full, full_steps) = runs
    assert stopped == full
    assert 0 < 2 * stopped_steps < full_steps


@pytest.mark.parametrize("r, name", [(3, "spa"), (26, "spa"), (80, "spg2"), (80, "sspa")])
def test_polish_of_singular_ex4_faces_reaches_its_target(r, name):
    """On ex4's lam = 0 faces J is singular and the minimum-norm step gains
    digits only linearly, but steadily, so no stall stop ends them: the
    polished pair meets the polish's 1e-10 target (10 steps left it at
    4.3e-10 to 9.5e-9)."""
    A, B = build(parse_problem("ex4:n=5"))
    rep = SOLVERS[name](A, B, random_start(5, 20240 + r))
    assert rep.status is Status.CONVERGED
    assert rep.residual.max_violation() <= teicp.solvers._POLISH_TARGET


def test_solvers_reject_bad_problems():
    A = HIdentity(3, 2)  # odd order
    with pytest.raises(ValueError):
        spg1(A, HIdentity(3, 2), np.ones(2))
    with pytest.raises(ValueError, match=r"\(4,2\) and \(4,3\)"):
        spg1(HIdentity(4, 2), HIdentity(4, 3), np.ones(2))
    with pytest.raises(ValueError):
        spg1(HIdentity(4, 2), HIdentity(4, 2), np.zeros(2))
    with pytest.raises(ValueError):
        spg1(HIdentity(4, 2), HIdentity(4, 2), np.ones(3))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_solvers_reject_non_finite_x0(name, ex1):
    A, B = ex1
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            SOLVERS[name](A, B, np.array([bad, 1.0, 1.0]))


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_start_where_b_form_vanishes_ends_domain_error(name, ex1):
    """B x^m = 0 at the start: lambda is NaN, in the report and in its one trace row."""
    A, _ = ex1
    rep = SOLVERS[name](A, DenseSymmetricTensor(np.zeros((3,) * 4)), np.ones(3))
    assert rep.status is Status.DOMAIN_ERROR and rep.iters == 0 and len(rep.trace) == 1
    assert math.isnan(rep.pair.lam) and math.isnan(rep.trace[0].lam)
    assert math.isnan(rep.residual.max_violation())


@pytest.mark.parametrize("problem, lam", [("rand:n=4,m=2,seed=1", 0.433385), ("rand:n=6,m=2,seed=3", 1.059668)])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_order_two_problems_converge_certified(name, problem, lam):
    """At m = 2 the sphere identity's x^{m-2} matrix is I, which the shift and the polish read."""
    A, B = build(parse_problem(problem))
    rep = SOLVERS[name](A, B, random_start(A.dim, 5))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == pytest.approx(lam, abs=1e-6)
    assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-6)


def test_spp_zero_direction_fails_in_its_step(ex1):
    """spp's measure only returns its trace fields; a zero direction fails the step."""
    A, B = ex1
    rule = teicp.solvers._PowerRule(A, B, SolverConfig(), scaled=False, shifted=True)
    x = np.ones(3) / np.sqrt(3)
    fields = rule.measure(x, evaluate(A, B, x, MeritKind.RAYLEIGH))
    assert len(fields) == 4
    rule.length = 0.0
    assert rule.step(x) == (None, 0.0, Status.DOMAIN_ERROR)


def _trace_rows(rep):
    return np.array([dataclasses.astuple(t) for t in rep.trace], dtype=float)


def test_gemv_pass_matches_per_call_reduce():
    """The one-GEMV pass reproduces the per-call reduce chains' runs to rounding.

    The GEMV sums in another order than the reduce chains, so bits differ;
    the bounds sit about 100x above the largest differences seen on these
    98 runs (|dlam| 1.1e-12, residuals 5.7e-13, |dx| 4.4e-14, iterates
    1.0e-11, trace rows 3.5e-10 relative to max(1, |value|)).
    """
    runs = 0
    for problem, starts in gate_cases():
        A, B = build(parse_problem(problem))
        A_ref = ReduceTensor(A.entries)
        for name, solver in SOLVERS.items():
            merits = [MeritKind.RAYLEIGH]
            if name in ("spg1", "spg2"):
                merits.append(MeritKind.LOGARITHMIC)
            for merit in merits:
                cfg = SolverConfig(merit=merit, keep_iterates=True)
                for i, x0 in enumerate(starts):
                    case = (problem, name, merit, i)
                    got = solver(A, B, x0, cfg)
                    want = solver(A_ref, B, x0, cfg)
                    assert (got.status, got.iters) == (want.status, want.iters), case
                    assert abs(got.pair.lam - want.pair.lam) <= 1e-10, case
                    np.testing.assert_allclose(
                        dataclasses.astuple(got.residual),
                        dataclasses.astuple(want.residual),
                        rtol=0,
                        atol=1e-10,
                        err_msg=str(case),
                    )
                    np.testing.assert_allclose(got.pair.x, want.pair.x, rtol=0, atol=1e-9, err_msg=str(case))
                    assert len(got.iterates) == len(want.iterates), case
                    for a, b in zip(got.iterates, want.iterates):
                        np.testing.assert_allclose(a, b, rtol=0, atol=1e-9, err_msg=str(case))
                    np.testing.assert_allclose(
                        _trace_rows(got), _trace_rows(want), rtol=1e-8, atol=1e-8, err_msg=str(case)
                    )
                    runs += 1
    assert runs == 6 * 7 + 2 * 7 * 4


def test_polish_certifies_edge_endpoints():
    """Endpoints the 1e-2 and 1e-4 support cuts miss certify through the 0.1 and 0 cuts.

    spa on ex2 stops at e2 plus about 1e-2 of noise, so only the 0.1 cut
    finds the vertex; the ex3 endpoint has a coordinate near 2.5e-5 that the
    1e-4 cut drops, so only the 0 cut keeps it.
    """
    A, B = build(parse_problem("ex2:n=5"))
    rep = SOLVERS["spa"](A, B, random_start(5, 20258))
    assert rep.status is Status.CONVERGED
    assert rep.pair.lam == 0.5
    assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-6)
    A, B = build(parse_problem("ex3"))
    for name in ("spg1", "spg2"):
        rep = SOLVERS[name](A, B, random_start(3, 20257))
        assert rep.status is Status.CONVERGED, name
        assert rep.pair.lam == pytest.approx(0.99397202, abs=1e-8), name
        assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-6), name


# Starts 20240 + r of the criterion-8 corpus whose polish moves lam or x the
# most (r = 95 on ex4 spa is the largest move of x; 72 on ex2 spa, 32 on
# ex3 spg1/spg2 go through the 0.1 and 0 cuts).
_POLISH_EXTREMES = (3, 9, 17, 21, 32, 38, 51, 66, 70, 72, 74, 78, 95)


def test_polish_stays_with_the_endpoint_eigenvalue(monkeypatch):
    """The polish never trades the endpoint for another eigenvalue.

    Over the ex1-ex6 runs it moves lam by at most 5.6e-4.  x moves by at most
    1.3e-2 (the noise the 0.1 cut drops around an ex2 vertex), except on ex4.
    There A x^3 = Im((u.x)^3 u) with u_j = e^{ij}, so every x with u.x = 0
    is an eigenvector for lam = 0; slow spa endpoints lie about 0.1 off that
    set, and Newton's minimum-norm steps land on it up to 0.105 away.
    """
    moves = []
    polish = teicp.solvers._polish

    def spy_polish(A, B, lam, x, *args):
        lam_new, x_new, res = polish(A, B, lam, x, *args)
        moves.append((abs(lam_new - lam), float(np.linalg.norm(x_new - x)), lam_new))
        return lam_new, x_new, res

    monkeypatch.setattr(teicp.solvers, "_polish", spy_polish)
    for problem in ("ex1", "ex2:n=5", "ex3", "ex4:n=5", "ex5:n=5", "ex6:n=5"):
        A, B = build(parse_problem(problem))
        moves.clear()
        for name, solver in SOLVERS.items():
            for r in _POLISH_EXTREMES:
                solver(A, B, random_start(A.dim, 20240 + r))
        assert moves, problem
        assert max(dlam for dlam, _, _ in moves) <= 1e-3, problem
        for dlam, dx, lam in moves:
            if problem == "ex4:n=5" and abs(lam) <= 1e-12:
                assert dx <= 0.15, problem
            else:
                assert dx <= 0.02, (problem, dlam, dx, lam)
        if problem == "ex4:n=5":  # the sample holds the largest move
            assert max(dx for _, dx, _ in moves) > 0.1


# Runs whose lambda or x change fell within tol at a point the polish could
# not certify: ex3 corpus start #47, the cli-fresh ops of workload seed 101
# (spg1, start seed = tensor seed) and rand-m4 seed 13's sspa op.
_STALLS = [("ex3", 20287, "spg1", True), ("ex3", 20287, "spg2", True)]
_STALLS += [(f"rand:n=16,m=4,seed={s}", s, "spg1", True) for s in (101000035, 101000109, 101000303, 101000691)]
_STALLS += [("rand:n=20,m=4,seed=1", 13000223, "sspa", False)]


@pytest.mark.parametrize("problem, start, name, certifies", _STALLS)
def test_a_stall_stops_only_where_the_polish_certifies(problem, start, name, certifies, monkeypatch):
    polished = []
    polish = teicp.solvers._polish

    def spy_polish(*args):
        polished.append(polish(*args))
        return polished[-1]

    monkeypatch.setattr(teicp.solvers, "_polish", spy_polish)
    A, B = build(parse_problem(problem))
    rep = SOLVERS[name](A, B, random_start(A.dim, start))
    assert rep.status is (Status.CONVERGED if certifies else Status.MAX_ITERS)
    # Every stall polished before the last was not certified, so the run went on.
    assert polished and all(p[2].max_violation() > 1e-6 for p in polished[:-1])
    if certifies:
        assert is_pareto_eigenpair(A, B, rep.pair.lam, rep.pair.x, 1e-6)
        # The report keeps the pair that certified the stop; it does not polish again.
        assert rep.residual is polished[-1][2]


@pytest.mark.parametrize("scale", [2.0**40, 1e12])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_converged_always_certifies_at_tol(scale, name, ex1):
    """A candidate stop whose polished pair does not certify does not stop the run.

    On ex1 scaled by 2^40 or 1e12, the driver's candidate stops polish to
    pairs whose residuals are 2.0e-5 to 1.8e-2: at 2^40 spg2 goes on to a
    pair that certifies and the other four run to the cap, as all five do
    at 1e12.
    """
    A, B = ex1
    cfg = SolverConfig()
    rep = SOLVERS[name](DenseSymmetricTensor(A.entries * scale), B, np.ones(3), cfg)
    assert rep.status is not Status.CONVERGED or rep.residual.max_violation() <= cfg.tol


def test_report_residual_is_computed_once_per_pair(monkeypatch):
    """A run evaluates the residual once for each pair it considers.

    Every polish evaluates its endpoint and each face candidate Newton
    returns.  A Converged report keeps the triple of the polish that
    certified; any other report evaluates its endpoint once more.
    """
    calls = []
    candidates = []
    polishes = []
    residual = teicp.solvers.residual
    newton_face = teicp.solvers._newton_face
    polish = teicp.solvers._polish

    def counting_residual(*args):
        calls.append(1)
        return residual(*args)

    def counting_newton_face(*args):
        pair = newton_face(*args)
        candidates.append(pair is not None)
        return pair

    def counting_polish(*args):
        polishes.append(1)
        return polish(*args)

    monkeypatch.setattr(teicp.solvers, "residual", counting_residual)
    monkeypatch.setattr(teicp.solvers, "_newton_face", counting_newton_face)
    monkeypatch.setattr(teicp.solvers, "_polish", counting_polish)
    statuses = set()
    polished = 0
    uncertified_polishes = 0
    # B x^m = 0 at [1, 1] makes the domain errors
    cases = [((HIdentity(4, 2), diagonal_tensor([1.0, -1.0], 4)), np.array([1.0, 1.0]))]
    for problem in ("ex1", "ex2:n=5", "ex3", "ex4:n=5"):
        A, B = build(parse_problem(problem))
        cases += [((A, B), random_start(A.dim, 20240 + r)) for r in range(6)]
    # spg1, spg2, spp and sspa pass candidate stops that do not certify here, and end at the cap.
    A, B = build(parse_problem("ex1"))
    cases.append(((DenseSymmetricTensor(A.entries * 1e12), B), np.ones(3)))
    for (A, B), x0 in cases:
        for max_iters in (3, 500):
            for name, solver in SOLVERS.items():
                calls.clear()
                candidates.clear()
                polishes.clear()
                rep = solver(A, B, x0, SolverConfig(max_iters=max_iters))
                statuses.add(rep.status)
                want = len(polishes) + sum(candidates)
                if rep.status is Status.CONVERGED:
                    polished += sum(candidates)
                else:
                    want += 1
                    uncertified_polishes += len(polishes)
                assert len(calls) == want, (name, rep.status)
    assert statuses == set(Status)
    assert polished > 0
    assert uncertified_polishes > 0


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.5)
    with pytest.raises(ValueError):
        SolverConfig(tau=-1.0)
    # NaN compares False with everything, so "tol <= 0" alone let it through
    # as a silent 500-iteration MaxIters, and tol=inf "converged" at k = 0.
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            SolverConfig(tol=bad)
        with pytest.raises(ValueError, match="tau must be finite"):
            SolverConfig(tau=bad)
    with pytest.raises(ValueError, match="rho"):
        SolverConfig(rho=math.nan)


def test_paper_literal_safeguards_flag(ex1):
    A, B = ex1
    base = spg1(A, B, np.ones(3))
    lit = spg1(A, B, np.ones(3), SolverConfig(paper_literal_safeguards=True))
    assert base.status is Status.CONVERGED and lit.status is Status.CONVERGED
    assert lit.pair.lam == pytest.approx(base.pair.lam, abs=1e-6)


def test_golden_reports():
    """Every golden-set report matches its line in ``golden.txt`` bit for bit.

    The lines were recorded with numpy 2.4.6.  Re-record them with
    ``python tests/corpus.py --record`` only when a change of results is
    intended and explained; it prints what changed against the old file.
    """
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got, _ = run_set("golden")
    assert got == want, "\n".join(compare(want, got))
    assert {line.split()[-4] for line in want} == {s.value for s in Status}


def test_corpus_compare_lists_status_and_lambda_changes():
    half, moved = (0.5).hex(), (0.5 + 2.0**-40).hex()
    old = ["ex1 entries aa", "ex1 packed bb", f"ex1 x0#0 spa rayleigh Converged 9 {half} d",
           f"ex1 x0#1 spa rayleigh MaxIters 500 {half} d", "ex1 x0#2 spp rayleigh raises ZeroDivisionError"]
    new = ["ex1 entries aa", "ex1 packed bc", f"ex1 x0#0 spa rayleigh Converged 9 {moved} e",
           f"ex1 x0#1 spa rayleigh Converged 467 {half} d", f"ex1 x0#2 spp rayleigh DomainError 0 {half} d"]
    assert compare(old, new) == [
        "entries digests equal (1 problems)",
        "packed digests differ: ex1",
        "old: 3 runs, 1 Converged",
        "new: 3 runs, 2 Converged",
        "3 of 3 shared runs changed in some field",
        "  2 in ex1 spa",
        "  1 in ex1 spp",
        "status or iterations: ex1 x0#1 spa rayleigh: MaxIters 500 -> Converged 467",
        "status or iterations: ex1 x0#2 spp rayleigh: raises ZeroDivisionError -> DomainError 0",
        "lambda bits changed: 1 Converged runs, max |dlam| 9.09e-13",
    ]


def test_corpus_compare_lists_runs_in_one_output_and_no_lambda_change():
    half = (0.5).hex()
    old = ["ex1 entries aa", "ex1 packed bb", f"ex1 vertices x0#0 spg1 log Converged 4 {half} d",
           f"ex1 vertices x0#1 spg1 log Converged 4 {half} d"]
    new = ["ex1 entries ab", "ex1 packed bb", f"ex1 vertices x0#0 spg1 log Converged 4 {half} e"]
    assert compare(old, new) == [
        "entries digests differ: ex1",
        "packed digests equal (1 problems)",
        "old: 2 runs, 2 Converged",
        "new: 1 runs, 1 Converged",
        "1 runs only in old, 0 only in new",
        "1 of 1 shared runs changed in some field",
        "  1 in ex1 vertices spg1",
        "lambda bits changed: none",
    ]
    outputs = ["\n".join(["# golden", *lines]) for lines in (old, new)]
    assert compare_outputs(outputs[0], outputs[0]) == ["golden: identical"]
    assert compare_outputs(*outputs) == ["golden:", *("  " + line for line in compare(old, new))]
    with pytest.raises(ValueError, match="comes before a '# set' line"):
        compare_outputs("\n".join(old), outputs[1])
