import math

import numpy as np
import pytest

from helpers import (
    check_fd_gradients,
    check_fd_hessians,
    check_tangency,
    fd_gradient,
    fd_jacobian,
    rel_err,
    sample_sphere_plus,
    three_term_rayleigh_hessian,
)
from teicp.merit import (
    MeritDomainError,
    MeritKind,
    SingularDenominatorError,
    evaluate,
    log_value,
    rayleigh_gradient,
    rayleigh_hessian,
    rayleigh_value,
)
from teicp.problems import build, parse_problem, random_start, random_symmetric
from teicp.projection import b_normalize
from teicp.solvers import min_eig_sym
from teicp.tensor import DenseSymmetricTensor, HIdentity, ZIdentity, diagonal_tensor


@pytest.fixture(scope="module")
def diag_example():
    diag = [(i - 1.0) / i for i in range(1, 6)]
    return diagonal_tensor(diag, 4), ZIdentity(4, 5)


def test_rayleigh_value_at_vertex(diag_example):
    A, B = diag_example
    e5 = np.eye(5)[4]
    assert rayleigh_value(A, B, e5) == pytest.approx(0.8, abs=1e-14)


def test_rayleigh_value_equal_operators(rng):
    A = random_symmetric(3, 4, 2)
    x = rng.standard_normal(3)
    assert rayleigh_value(A, A, x) == pytest.approx(1.0, rel=1e-12)


def test_rayleigh_value_reference_point(ex1):
    A, B = ex1
    x = np.array([0.2678, 0.6446, 0.7161])
    assert rayleigh_value(A, B, x) == pytest.approx(0.3633, abs=1e-3)


def test_rayleigh_gradient_zero_at_vertex_solution(diag_example):
    A, B = diag_example
    e5 = np.eye(5)[4]
    np.testing.assert_allclose(rayleigh_gradient(A, B, e5), np.zeros(5), atol=1e-12)
    fd = fd_gradient(lambda v: rayleigh_value(A, B, v), e5, h=1e-6)
    np.testing.assert_allclose(rayleigh_gradient(A, B, e5), fd, atol=1e-6)


def test_rayleigh_gradient_matches_fd(rng):
    A = random_symmetric(3, 4, 5)
    B = ZIdentity(4, 3)
    x = sample_sphere_plus(3, 1, rng)[0] + 0.05
    x /= np.linalg.norm(x)
    got = rayleigh_gradient(A, B, x)
    want = fd_gradient(lambda v: rayleigh_value(A, B, v), x, h=1e-6)
    assert rel_err(got, want) <= 1e-5


def test_rayleigh_hessian_symmetric_and_matches_fd(rng):
    A = random_symmetric(3, 4, 8)
    B = ZIdentity(4, 3)
    x = sample_sphere_plus(3, 1, rng)[0] + 0.05
    x /= np.linalg.norm(x)
    H = rayleigh_hessian(A, B, x)
    assert np.array_equal(H, H.T)
    Hfd = fd_jacobian(lambda v: rayleigh_gradient(A, B, v), x, h=1e-5)
    assert rel_err(H, Hfd) <= 1e-4


@pytest.mark.parametrize(
    "problem", ["rand:n=20,m=4,seed=1", "rand:n=6,m=6,seed=1", "ex1", "ex2:n=5", "ex3", "ex4:n=5", "ex5:n=5", "ex6:n=5"]
)
def test_rank_two_hessian_matches_the_three_term_form(problem, rng):
    """Combining the two rank-2 terms through y changes H by rounding only."""
    A, B = build(parse_problem(problem))
    for x in sample_sphere_plus(A.dim, 5, rng) + 0.05:
        x /= np.linalg.norm(x)
        H = rayleigh_hessian(A, B, x)
        want = three_term_rayleigh_hessian(A, B, x)
        assert np.abs(H - want).max() <= 1e-12 * np.abs(want).max(), problem


@pytest.mark.parametrize(
    "problem",
    ["rand:n=6,m=4", "rand:n=4,m=6", "rand:n=20,m=4", "rand:n=6,m=6", "rand:n=5,m=2", "ex1", "ex3", "ex4:n=5", "dense"],
)
def test_shift_eigenvalue_matches_the_three_term_hessian(problem, rng):
    """lambda_min of the Rayleigh Hessian, folded under the sphere identity
    (orders 2, 4 and 6), with B's diagonal folded in under the diagonal
    identity and formed in full under a dense B, is the reference's to 1e-12
    of max |H|, at unit, non-unit and B-normalized points."""
    if problem == "dense":
        A = random_symmetric(5, 4, 2)
        B = DenseSymmetricTensor(np.abs(random_symmetric(5, 4, 3).entries))
    else:
        A, B = build(parse_problem(problem))
    for x in sample_sphere_plus(A.dim, 4, rng) + 0.05:
        x /= np.linalg.norm(x)
        for point in (x, 3.7 * x, 0.3 * x, b_normalize(x, B)):
            H = three_term_rayleigh_hessian(A, B, point)
            got = evaluate(A, B, point).rayleigh_hessian_min_eig()
            assert abs(got - min_eig_sym(H)) <= 1e-12 * np.abs(H).max(), problem


class _FormedHIdentity(HIdentity):
    """The diagonal identity, but not of type HIdentity, so the Hessian forms its matrix."""


@pytest.mark.parametrize("problem", ["ex4:n=5", "ex5:n=5", "ex6:n=5"])
def test_diagonal_identity_hessian_is_the_formed_ones_bit_for_bit(problem):
    """Under the diagonal identity the Hessian takes lam x^{m-2} off a copy of
    A x^{m-2}'s diagonal instead of forming B x^{m-2}, with the bits of the
    Hessian that forms diag(x^{m-2}), and so the shift's eigenvalue too."""
    A, B = build(parse_problem(problem))
    assert type(B) is HIdentity
    formed = _FormedHIdentity(B.order, B.dim)
    for seed in range(20):
        x = random_start(A.dim, seed)
        ev, want = evaluate(A, B, x), evaluate(A, formed, x).rayleigh_hessian()
        assert ev.rayleigh_hessian().tobytes() == want.tobytes(), (problem, seed)
        assert ev.rayleigh_hessian_min_eig() == min_eig_sym(want), (problem, seed)


@pytest.mark.parametrize("scale", [1e-110, 1e110])
def test_rayleigh_hessian_scales_with_b(scale, ex1):
    """H(A, s B) = H(A, B) / s, also where s^3 under- or overflows.

    The three-term form divided by (B x^m)^3, so at s = 1e110 its last term
    was 0 and s H differed from H(A, I) by up to 8.0 per entry, and at
    s = 1e-110 it was inf.
    """
    A = ex1[0]
    x = np.ones(3) / np.sqrt(3.0)
    want = rayleigh_hessian(A, diagonal_tensor([1.0] * 3, 4), x)
    got = scale * rayleigh_hessian(A, diagonal_tensor([scale] * 3, 4), x)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_rayleigh_hessian_of_constant_merit(rng):
    H = HIdentity(4, 3)
    x = rng.standard_normal(3)
    np.testing.assert_allclose(rayleigh_hessian(H, H, x), np.zeros((3, 3)), atol=1e-10)


def test_log_value_identities(diag_example, rng):
    A, B = diag_example
    e5 = np.eye(5)[4]
    assert log_value(A, B, e5) == pytest.approx(math.log(0.8), abs=1e-12)
    C = random_symmetric(3, 4, 3)
    x = rng.standard_normal(3)
    assert log_value(C, C, x) == pytest.approx(0.0, abs=1e-12)


def test_log_exp_matches_rayleigh(rng):
    # strictly positive entries keep both forms positive on feasible points
    for seed in range(50):
        n = int(np.random.default_rng(seed).integers(2, 5))
        raw = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n,) * 4)
        from teicp.tensor import symmetrize

        A = symmetrize(raw)
        B = ZIdentity(4, n)
        x = sample_sphere_plus(n, 1, rng)[0]
        lam = rayleigh_value(A, B, x)
        assert lam > 0
        assert math.exp(log_value(A, B, x)) == pytest.approx(lam, rel=1e-12)


def test_log_gradient_identities(rng):
    A = random_symmetric(3, 4, 21)
    B = ZIdentity(4, 3)
    x = np.abs(rng.standard_normal(3)) + 0.3
    x /= np.linalg.norm(x)
    if rayleigh_value(A, B, x) <= 0:
        A = diagonal_tensor([1.0, 2.0, 3.0], 4)
    got = evaluate(A, B, x, MeritKind.LOGARITHMIC).gradient
    np.testing.assert_allclose(
        got, fd_gradient(lambda v: log_value(A, B, v), x, h=1e-6), rtol=1e-5, atol=1e-7
    )
    chain = rayleigh_gradient(A, B, x) / rayleigh_value(A, B, x)
    assert rel_err(got, chain) <= 1e-10
    C = random_symmetric(3, 4, 4)
    y = np.abs(rng.standard_normal(3)) + 0.5
    if C.contract_m(y) > 0:
        got = evaluate(C, C, y, MeritKind.LOGARITHMIC).gradient
        np.testing.assert_allclose(got, np.zeros(3), atol=1e-12)


def test_singular_denominator():
    A = random_symmetric(2, 4, 0)
    B = diagonal_tensor([1.0, -1.0], 4)
    x = np.array([1.0, 1.0])  # B x^4 = 0
    with pytest.raises(SingularDenominatorError):
        rayleigh_value(A, B, x)


def test_log_domain_error_names_offender():
    A = diagonal_tensor([-1.0, -1.0], 4)
    B = ZIdentity(4, 2)
    with pytest.raises(MeritDomainError, match="A x\\^m"):
        log_value(A, B, np.array([1.0, 1.0]))
    with pytest.raises(MeritDomainError, match="B x\\^m"):
        log_value(ZIdentity(4, 2), diagonal_tensor([-1.0, -1.0], 4), np.array([1.0, 1.0]))


def test_operator_shape_mismatch():
    with pytest.raises(ValueError):
        rayleigh_value(HIdentity(4, 3), ZIdentity(4, 2), np.ones(3))


def test_scale_invariance_and_gradient_degree(rng):
    A = random_symmetric(3, 4, 17)
    B = ZIdentity(4, 3)
    for _ in range(20):
        x = rng.standard_normal(3)
        c = float(rng.uniform(0.2, 4.0))
        v0 = rayleigh_value(A, B, x)
        assert rayleigh_value(A, B, c * x) == pytest.approx(v0, rel=1e-10)
        g0 = rayleigh_gradient(A, B, x)
        assert rel_err(rayleigh_gradient(A, B, c * x), g0 / c) <= 1e-8


def test_tangency_property():
    check_tangency(count=100, tol=1e-10)


def test_fd_batches():
    check_fd_gradients(count=20, rtol=1e-5)
    check_fd_hessians(count=20, rtol=1e-4)


def test_evaluate_shares_lambda_between_merits(rng):
    A = diagonal_tensor([1.0, 2.0, 3.0], 4)
    B = ZIdentity(4, 3)
    x = np.abs(rng.standard_normal(3)) + 0.2
    x /= np.linalg.norm(x)
    ray = evaluate(A, B, x, MeritKind.RAYLEIGH)
    logm = evaluate(A, B, x, MeritKind.LOGARITHMIC)
    assert ray.value == ray.lam
    assert logm.lam == ray.lam
    assert logm.value == pytest.approx(math.log(ray.lam), rel=1e-12)
    y = A.contract_m_minus_1(x) - ray.lam * B.contract_m_minus_1(x)
    assert np.array_equal(ray.y, y) and np.array_equal(logm.y, y)
    assert np.array_equal(ray.gradient, (4 / B.contract_m(x)) * y)
    # the Rayleigh gradient is computed when read; the log gradient is stored
    assert ray.gradient is not ray.gradient and logm.gradient is logm.gradient
