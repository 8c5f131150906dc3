import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import teicp.solvers

from helpers import ReduceTensor, check_lemma1, min_eig_det_bisect
from test_acceptance import STARTS
from teicp.merit import MeritKind, rayleigh_gradient
from teicp.problems import build, parse_problem, random_start, random_symmetric
from teicp.projection import project_sphere_plus
from teicp.solvers import (
    SOLVERS,
    SolverConfig,
    Status,
    _bb_clamped,
    ascent_direction_check,
    convexity_shift,
    min_eig_sym,
    spa,
    spg1,
    spg2,
    spp,
    sspa,
)
from teicp.tensor import HIdentity, ZIdentity, diagonal_tensor
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
    for M in ([[bad, 1.0], [1.0, 2.0]], [[1.0, bad], [bad, 2.0]]):
        with pytest.raises(ValueError, match="finite"):
            min_eig_sym(np.array(M))
    with pytest.raises(ValueError, match="finite"):
        convexity_shift(np.array([[bad, 1.0], [1.0, 2.0]]), 0.05, 4)


def test_convexity_shift_formula():
    assert convexity_shift(np.diag([1.0, 2.0]), 0.05, 4) == 0.0
    assert convexity_shift(np.diag([-3.0, 2.0]), 0.05, 4) == pytest.approx((0.05 + 3.0) / 4)


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


def test_solvers_reject_bad_problems():
    A = HIdentity(3, 2)  # odd order
    with pytest.raises(ValueError):
        spg1(A, HIdentity(3, 2), np.ones(2))
    with pytest.raises(ValueError):
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


def _fingerprint(rep):
    """Every bit of a report except its wall time."""
    r = rep.residual
    return (
        rep.status,
        rep.iters,
        rep.pair.lam.hex(),
        rep.pair.x.tobytes(),
        np.array([r.primal, r.dual, r.comp]).tobytes(),
        [np.array(dataclasses.astuple(t), dtype=float).tobytes() for t in rep.trace],
        [x.tobytes() for x in rep.iterates],
    )


def _gate_cases():
    for name, x0 in STARTS.items():
        yield name, [np.array(x0)]
    yield "rand:n=6,m=4", [random_start(6, seed) for seed in range(4)]
    yield "rand:n=4,m=6", [random_start(4, seed) for seed in range(4)]


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
    for problem, starts in _gate_cases():
        A, B = build(parse_problem(problem))
        A_ref = ReduceTensor(A.entries, validate=False)
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
# most (r = 66 on ex4 spa is the largest move of x; 72 on ex2 spa, 32 on
# ex3 spg1/spg2 go through the 0.1 and 0 cuts).
_POLISH_EXTREMES = (3, 9, 17, 21, 32, 38, 51, 66, 70, 72, 74, 78)


def test_polish_stays_with_the_endpoint_eigenvalue(monkeypatch):
    """The polish never trades the endpoint for another eigenvalue.

    Over the ex1-ex6 runs it moves lam by at most 5.6e-4.  x moves by at most
    1.3e-2 (the noise the 0.1 cut drops around an ex2 vertex), except on ex4.
    There A x^3 = Im((u.x)^3 u) with u_j = e^{ij}, so every x with u.x = 0
    is an eigenvector for lam = 0; slow spa endpoints lie about 0.1 off that
    set, and Newton lands on it up to 0.19 away.
    """
    moves = []
    polish = teicp.solvers._polish

    def spy_polish(A, B, lam, x, *args):
        lam_new, x_new = polish(A, B, lam, x, *args)
        moves.append((abs(lam_new - lam), float(np.linalg.norm(x_new - x)), lam_new))
        return lam_new, x_new

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
                assert dx <= 0.25, problem
            else:
                assert dx <= 0.02, (problem, dlam, dx, lam)
        if problem == "ex4:n=5":  # the sample holds the largest move
            assert max(dx for _, dx, _ in moves) > 0.15


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(rho=1.5)
    with pytest.raises(ValueError):
        SolverConfig(beta_min=1.0, beta_max=0.5)
    with pytest.raises(ValueError):
        SolverConfig(tau=-1.0)


def test_paper_literal_safeguards_flag(ex1):
    A, B = ex1
    base = spg1(A, B, np.ones(3))
    lit = spg1(A, B, np.ones(3), SolverConfig(paper_literal_safeguards=True))
    assert base.status is Status.CONVERGED and lit.status is Status.CONVERGED
    assert lit.pair.lam == pytest.approx(base.pair.lam, abs=1e-6)


def test_shift_zero_when_hessian_convex():
    # positive-definite curvature above tau leaves the power step unshifted
    assert convexity_shift(np.diag([0.06, 0.9]), 0.05, 4) == 0.0


# --- golden reports ----------------------------------------------------------

GOLDEN_PATH = Path(__file__).with_name("golden_solver_reports.json")
_SPG = ("spg1", "spg2")
_GOLDEN_CONFIGS = {
    "rayleigh": ({}, tuple(SOLVERS)),
    "log": ({"merit": MeritKind.LOGARITHMIC}, _SPG),
    "literal": ({"paper_literal_safeguards": True}, _SPG),
    "fixed-bounds": ({"paper_literal_safeguards": False}, _SPG),
    "max_iters=3": ({"max_iters": 3}, tuple(SOLVERS)),
}


def _golden_problems():
    for problem, starts in _gate_cases():
        yield problem, build(parse_problem(problem)), starts
    # B x^m = 1 - 1 = 0 at [1, 1], and B x^m = -1 < 0 at [0, 1]
    indefinite = (HIdentity(4, 2), diagonal_tensor([1.0, -1.0], 4))
    yield "H(4,2)/diag(1,-1)", indefinite, [np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    vertices = [np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])]
    yield "ex1 vertices", build(parse_problem("ex1")), vertices
    diag5 = (diagonal_tensor([(i - 1.0) / i for i in range(1, 6)], 4), ZIdentity(4, 5))
    # Near e1, ||g|| < tol at k = 0 while the projected step is not small.
    yield "diag5", diag5, [np.ones(5), np.eye(5)[0], np.eye(5)[4], np.eye(5)[0] + 1e-3]


def golden_reports() -> dict:
    """Status, iterations, lambda and a digest of every other report bit, per case."""
    out = {}
    for problem, (A, B), starts in _golden_problems():
        for i, x0 in enumerate(starts):
            for config, (fields, names) in _GOLDEN_CONFIGS.items():
                cfg = SolverConfig(keep_iterates=True, **fields)
                for name in names:
                    rep = SOLVERS[name](A, B, x0, cfg)
                    status, iters, lam, x, res, trace, iterates = _fingerprint(rep)
                    digest = hashlib.sha256()
                    for part in (x, res, *trace, *iterates):
                        digest.update(part)
                    out[f"{problem} x0#{i} {name} {config}"] = {
                        "status": status.value,
                        "iters": iters,
                        "lam": lam,
                        "sha256": digest.hexdigest(),
                    }
    return out


def test_golden_reports():
    """Every solver report matches the recorded one bit for bit.

    The records in ``golden_solver_reports.json`` were made at the commit
    after 431a0e8 (the one-GEMV tensor pass and four polish support cuts)
    with numpy 2.4.6; regenerate them
    with ``python tests/test_solvers.py`` only when a change of results is
    intended and explained.
    """
    want = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = golden_reports()
    assert sorted(got) == sorted(want)
    for case in want:
        assert got[case] == want[case], case
    statuses = {v["status"] for v in want.values()}
    assert statuses == {s.value for s in Status}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(golden_reports(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
