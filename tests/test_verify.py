import math

import numpy as np
import pytest

from helpers import check_diag_completeness, fd_gradient
from teicp.tensor import HIdentity, ZIdentity, diagonal_tensor
from teicp.verify import (
    ResidualTriple,
    diagonal_pareto_spectrum,
    is_pareto_eigenpair,
    residual,
)
from teicp.merit import rayleigh_gradient, rayleigh_value
from teicp.problems import random_symmetric


@pytest.fixture(scope="module")
def diag_example():
    diag = np.array([(i - 1.0) / i for i in range(1, 6)])
    return diag, diagonal_tensor(diag, 4), ZIdentity(4, 5)


def test_residual_zero_at_solution(diag_example):
    _, A, B = diag_example
    e5 = np.eye(5)[4]
    r = residual(A, B, 0.8, e5)
    assert (r.primal, r.dual, r.comp) == (0.0, 0.0, 0.0)


def test_residual_hand_computed_values():
    n = 4
    A = HIdentity(4, n)
    B = ZIdentity(4, n)
    x = np.ones(n) / np.sqrt(n)
    r = residual(A, B, 0.0, x)
    assert r.primal == 0.0
    assert r.dual == pytest.approx(n**-1.5, rel=1e-12)
    assert r.comp == pytest.approx(1.0 / n, rel=1e-12)


def test_residual_flags_negative_entries():
    A = HIdentity(4, 2)
    B = ZIdentity(4, 2)
    r = residual(A, B, 1.0, np.array([0.5, -0.25]))
    assert r.primal == 0.25


def test_residual_comp_scales_with_degree(rng):
    A = random_symmetric(3, 4, 3)
    B = ZIdentity(4, 3)
    x = np.abs(rng.standard_normal(3)) + 0.1
    lam = 0.37
    base = residual(A, B, lam, x).comp
    for s in (0.5, 2.0, 3.7):
        scaled = residual(A, B, lam, s * x).comp
        assert scaled == pytest.approx(s**4 * base, rel=1e-10)


def test_is_pareto_eigenpair_examples(diag_example, ex1):
    _, A, B = diag_example
    e5 = np.eye(5)[4]
    assert is_pareto_eigenpair(A, B, 0.8, e5, 1e-8)
    assert not is_pareto_eigenpair(A, B, 0.5, e5, 1e-8)
    A1, B1 = ex1
    x = np.array([0.2678, 0.6446, 0.7161])
    assert is_pareto_eigenpair(A1, B1, 0.3633, x, 1e-3)


def test_nan_pair_never_certifies(ex1):
    A, B = ex1
    r = residual(A, B, np.nan, np.array([np.nan, 1.0, 1.0]))
    assert np.isnan(r.max_violation())
    assert not is_pareto_eigenpair(A, B, np.nan, [np.nan, 1.0, 1.0], 1e-8)
    assert not is_pareto_eigenpair(A, B, np.nan, [0.2678, 0.6446, 0.7161], 1e-3)


@pytest.mark.parametrize("position", range(3))
def test_max_violation_is_nan_when_one_component_is(position):
    """The largest component wherever it sits, and NaN wherever the one NaN
    component sits, so a NaN never certifies."""
    parts = [1e-3, 5e-4, 1e-3]
    parts[position] = 2e-3
    assert ResidualTriple(*parts).max_violation() == 2e-3
    parts[position] = math.inf
    assert ResidualTriple(*parts).max_violation() == math.inf
    parts[position] = math.nan
    assert math.isnan(ResidualTriple(*parts).max_violation())


def test_is_pareto_eigenpair_rejects_zero_vector(diag_example):
    _, A, B = diag_example
    with pytest.raises(ValueError):
        is_pareto_eigenpair(A, B, 0.8, np.zeros(5), 1e-8)


def test_is_pareto_eigenpair_rejects_a_tol_that_is_not_finite_and_positive(ex1):
    """At tol=inf every pair passed, (5, ones) on ex1 included, and at
    tol=nan every pair failed, the certified one included."""
    A, B = ex1
    for bad in (math.inf, math.nan, 0.0, -1e-6):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            is_pareto_eigenpair(A, B, 5.0, np.ones(3), bad)
    assert not is_pareto_eigenpair(A, B, 5.0, np.ones(3), 1e-6)


def test_spectrum_maximum_is_exact(diag_example):
    diag, A, B = diag_example
    spectrum = diagonal_pareto_spectrum(diag, 4, "z")
    best = max(lam for lam, _, _ in spectrum)
    assert best == 0.8
    tops = [s for lam, s, _ in spectrum if lam == best]
    assert (4,) in tops


def test_spectrum_single_entry():
    out = diagonal_pareto_spectrum([0.37], 4, "z")
    assert len(out) == 1 and out[0][0] == 0.37


def test_spectrum_two_equal_entries():
    out = {support: lam for lam, support, _ in diagonal_pareto_spectrum([1.0, 1.0], 4, "z")}
    assert out[(0,)] == 1.0 and out[(1,)] == 1.0
    assert out[(0, 1)] == pytest.approx(0.5, rel=1e-12)
    for lam, _, x in diagonal_pareto_spectrum([1.0, 1.0], 4, "z"):
        A = diagonal_tensor([1.0, 1.0], 4)
        r = residual(A, ZIdentity(4, 2), lam, x)
        assert r.max_violation() <= 1e-12


def test_spectrum_h_identity_requires_equal_values():
    out = diagonal_pareto_spectrum([1.0, 2.0], 4, "h")
    supports = {s: lam for lam, s, _ in out}
    assert supports == {(0,): 1.0, (1,): 2.0}
    out2 = {s: lam for lam, s, _ in diagonal_pareto_spectrum([3.0, 3.0], 4, "h")}
    assert out2[(0, 1)] == 3.0


def test_spectrum_mixed_signs_and_zeros(rng):
    diag = np.array([0.5, 0.0, -0.3])
    out = diagonal_pareto_spectrum(diag, 4, "z")
    A = diagonal_tensor(diag, 4)
    B = ZIdentity(4, 3)
    for lam, _, x in out:
        assert is_pareto_eigenpair(A, B, lam, x, 1e-10)
    supports = {s for _, s, _ in out}
    assert (0, 2) not in supports  # mixed-sign support admits no eigenpair


def test_every_emitted_pair_certifies(rng):
    for seed in range(5):
        diag = np.random.default_rng(seed).uniform(-1, 1, size=4)
        A = diagonal_tensor(diag, 4)
        for kind, B in (("z", ZIdentity(4, 4)), ("h", HIdentity(4, 4))):
            for lam, _, x in diagonal_pareto_spectrum(diag, 4, kind):
                assert is_pareto_eigenpair(A, B, lam, x, 1e-10)


def test_order_two_spectrum_is_the_diagonal_identity_one():
    """At m = 2 both identities map x to x, so both kinds give one spectrum, and each pair certifies."""
    diag = [0.5, 1.0, 0.5, -0.25]
    out = diagonal_pareto_spectrum(diag, 2, "z")
    for (l1, s1, x1), (l2, s2, x2) in zip(out, diagonal_pareto_spectrum(diag, 2, "h"), strict=True):
        assert (l1, s1) == (l2, s2) and np.array_equal(x1, x2)
    assert {s: lam for lam, s, _ in out} == {(0,): 0.5, (1,): 1.0, (2,): 0.5, (0, 2): 0.5, (3,): -0.25}
    A, B = diagonal_tensor(diag, 2), ZIdentity(2, 4)
    for lam, _, x in out:
        assert is_pareto_eigenpair(A, B, lam, x, 1e-12)


def test_spectrum_completeness_against_scan():
    check_diag_completeness()


def test_fd_gradient_on_quadratic():
    got = fd_gradient(lambda v: float(v @ v), np.array([1.0, 2.0]), h=1e-6)
    np.testing.assert_allclose(got, [2.0, 4.0], atol=1e-8)


def test_fd_gradient_is_the_merit_oracle(ex1, rng):
    A, B = ex1
    x = np.abs(rng.standard_normal(3)) + 0.2
    x /= np.linalg.norm(x)
    fd = fd_gradient(lambda v: rayleigh_value(A, B, v), x, h=1e-6)
    got = rayleigh_gradient(A, B, x)
    assert np.max(np.abs(fd - got)) / max(1.0, np.max(np.abs(fd))) <= 1e-5


def test_fd_gradient_constant_function():
    np.testing.assert_allclose(fd_gradient(lambda v: 3.5, np.ones(3), h=1e-6), np.zeros(3))


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        fd_gradient(lambda v: 0.0, np.ones(2), h=0.0)
