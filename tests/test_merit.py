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
from teicp.problems import random_symmetric
from teicp.tensor import HIdentity, ZIdentity, diagonal_tensor


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
