import math

import numpy as np
import pytest

from helpers import check_projection_nearest, sample_sphere_plus
from teicp.projection import ScalingError, _norm, b_normalize, project_orthant, project_sphere_plus
from teicp.tensor import HIdentity, ZIdentity, diagonal_tensor


def grid_min_distance(v, res=1e-3):
    """Brute-force nearest feasible point for n = 3, via an angular grid."""
    steps = int(math.pi / 2 / res) + 1
    theta = np.linspace(0.0, math.pi / 2, steps)
    phi = np.linspace(0.0, math.pi / 2, steps)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    pts = np.stack([np.sin(T) * np.cos(P), np.sin(T) * np.sin(P), np.cos(T)], axis=-1)
    pts = pts.reshape(-1, 3)
    return float(np.min(np.linalg.norm(pts - v, axis=1)))


def test_feasible_point_is_fixed():
    v = np.array([0.6, 0.8, 0.0])
    np.testing.assert_allclose(project_sphere_plus(v), v, atol=1e-15)


def test_mixed_sign_projection_matches_grid():
    v = np.array([3.0, -4.0, 0.0])
    p = project_sphere_plus(v)
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=1e-12)
    assert np.linalg.norm(p - v) <= grid_min_distance(v) + 1e-5


def test_all_negative_projection_picks_best_vertex():
    v = np.array([-2.0, -1.0, -3.0])
    p = project_sphere_plus(v)
    np.testing.assert_allclose(p, [0.0, 1.0, 0.0], atol=1e-15)
    assert np.linalg.norm(p - v) <= grid_min_distance(v) + 1e-5


def test_tie_break_takes_smallest_index():
    p = project_sphere_plus(np.array([-1.0, -1.0, -1.0]))
    np.testing.assert_allclose(p, [1.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(project_sphere_plus(np.zeros(3)), [1.0, 0.0, 0.0], atol=0)


def test_output_always_feasible(rng):
    for i in range(1000):
        n = int(rng.integers(1, 7))
        if i % 10 == 0:
            v = -np.abs(rng.standard_normal(n))
        elif i % 17 == 0:
            v = np.zeros(n)
        else:
            v = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        p = project_sphere_plus(v)
        assert np.all(p >= 0.0)
        assert np.linalg.norm(p) == pytest.approx(1.0, abs=1e-12)


def test_projection_idempotent(rng):
    for _ in range(50):
        p = project_sphere_plus(rng.standard_normal(4))
        np.testing.assert_allclose(project_sphere_plus(p), p, atol=1e-15)


def test_nearest_point_property():
    check_projection_nearest(count=100, samples=10_000)


def test_project_orthant():
    np.testing.assert_array_equal(project_orthant([-1.0, 2.0, -3.0]), [0.0, 2.0, 0.0])
    v = np.array([0.5, 1.5])
    np.testing.assert_array_equal(project_orthant(v), v)
    np.testing.assert_array_equal(project_orthant(project_orthant([-2.0, 3.0])), [0.0, 3.0])


def test_b_normalize_sphere_identity():
    np.testing.assert_allclose(b_normalize([3.0, 4.0], ZIdentity(4, 2)), [0.6, 0.8], atol=1e-14)


def test_b_normalize_diagonal_identity():
    got = b_normalize([1.0, 1.0], HIdentity(4, 2))
    np.testing.assert_allclose(got, [2.0**-0.25, 2.0**-0.25], atol=1e-14)


def test_b_normalize_idempotent_and_scale(rng):
    B = HIdentity(4, 3)
    for _ in range(20):
        u = np.abs(rng.standard_normal(3)) + 0.1
        y = b_normalize(u, B)
        assert B.contract_m(y) == pytest.approx(1.0, rel=1e-10)
        np.testing.assert_allclose(b_normalize(y, B), y, atol=1e-12)


def test_b_normalize_rejects_nonpositive_scale():
    B = diagonal_tensor([1.0, -2.0], 4)
    with pytest.raises(ScalingError):
        b_normalize([0.0, 1.0], B)
    with pytest.raises(ScalingError):
        b_normalize(np.zeros(2), ZIdentity(4, 2))


def test_projection_rejects_empty():
    with pytest.raises(ValueError):
        project_sphere_plus(np.zeros(0))


def test_scaling_step_agrees_for_both_projection_targets(rng):
    # The scaling iterations may project onto the sphere-orthant set or onto
    # the orthant alone: after rescaling to B u^m = 1 both give the same
    # point whenever the positive part is nonzero, so the literal target is
    # used without a separate code path.
    for B in (ZIdentity(4, 4), HIdentity(4, 4)):
        for _ in range(25):
            v = rng.standard_normal(4)
            if not np.any(v > 0):
                continue
            via_sphere = b_normalize(project_sphere_plus(v), B)
            via_orthant = b_normalize(project_orthant(v), B)
            np.testing.assert_allclose(via_sphere, via_orthant, atol=1e-12)


def test_norm_helper_has_the_bits_of_numpy_norm(rng):
    tiny = np.finfo(float).smallest_subnormal
    base = rng.standard_normal(40)
    vectors = [rng.standard_normal(n) for n in (1, 2, 3, 5, 17, 64, 300)]
    vectors += [np.zeros(4), np.full(3, tiny), tiny * rng.uniform(1, 1e6, 6)]
    vectors += [1e154 * rng.uniform(0.5, 2.0, n) for n in (2, 3, 9)]
    vectors += [base[rng.permutation(40)[:k]] for k in (3, 11, 25)]
    vectors += [base[base > 0.0]]
    for v in vectors:
        with np.errstate(over="ignore"):  # 1e154 squared sums past the float range
            want = np.linalg.norm(v)
            got = _norm(v)
        assert type(got) is float
        assert got.hex() == float(want).hex(), v
