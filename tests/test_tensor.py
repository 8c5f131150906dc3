import collections
import json

import numpy as np
import pytest

import teicp.solvers
from helpers import ReduceTensor, dense_contract, fd_jacobian, rel_err
from teicp.problems import build, parse_problem, random_start
from teicp.tensor import (
    DenseSymmetricTensor,
    HIdentity,
    ZIdentity,
    diagonal_tensor,
    load_tensor_json,
    principal_subtensor,
    symmetrize,
    tensor_from_json,
)
from teicp.problems import random_symmetric


def test_h_identity_scalar():
    assert HIdentity(4, 2).contract_m([1.0, 1.0]) == 2.0


def test_z_identity_scalar_unit_vector():
    assert ZIdentity(4, 3).contract_m([0.6, 0.8, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_example_scalar_at_vertex():
    diag = [(i - 1.0) / i for i in range(1, 6)]
    A = diagonal_tensor(diag, 4)
    e5 = np.eye(5)[4]
    assert A.contract_m(e5) == 0.8


def test_h_identity_vector():
    np.testing.assert_allclose(HIdentity(4, 3).contract_m_minus_1([1.0, 2.0, 0.0]), [1.0, 8.0, 0.0])


def test_z_identity_vector():
    np.testing.assert_allclose(ZIdentity(4, 2).contract_m_minus_1([3.0, 4.0]), [75.0, 100.0])


def test_diagonal_example_vector_matches_direct_sum():
    diag = [(i - 1.0) / i for i in range(1, 6)]
    A = diagonal_tensor(diag, 4)
    e5 = np.eye(5)[4]
    got = A.contract_m_minus_1(e5)
    want = dense_contract(A.entries, e5, 3)
    np.testing.assert_allclose(got, want, atol=1e-14)
    np.testing.assert_allclose(got, [0, 0, 0, 0, 0.8], atol=1e-14)


def test_h_identity_matrix():
    np.testing.assert_allclose(HIdentity(4, 2).contract_m_minus_2([1.0, 2.0]), np.diag([1.0, 4.0]))


def test_z_identity_matrix_closed_form_and_fd():
    got = ZIdentity(4, 2).contract_m_minus_2([1.0, 0.0])
    np.testing.assert_allclose(got, [[1.0, 0.0], [0.0, 1.0 / 3.0]], atol=1e-14)
    # matrix form is pinned to the Hessian of ||x||^m scaled by 1/(m(m-1))
    x = np.array([0.7, -0.3])
    fd = fd_jacobian(lambda v: 4.0 * float(v @ v) * v, x, h=1e-6) / (4 * 3)
    np.testing.assert_allclose(ZIdentity(4, 2).contract_m_minus_2(x), fd, rtol=1e-6, atol=1e-8)


def test_z_identity_matrix_rejects_zero_for_high_order():
    with pytest.raises(ValueError):
        ZIdentity(6, 2).contract_m_minus_2([0.0, 0.0])
    # order 4 stays defined at the origin
    np.testing.assert_allclose(ZIdentity(4, 2).contract_m_minus_2([0.0, 0.0]), np.zeros((2, 2)))


def test_quadratic_form_identity(rng):
    for seed in range(5):
        T = random_symmetric(3, 4, seed)
        x = rng.standard_normal(3)
        M = T.contract_m_minus_2(x)
        assert float(x @ M @ x) == pytest.approx(T.contract_m(x), rel=1e-12, abs=1e-12)


def test_dimension_mismatch_rejected():
    T = random_symmetric(3, 4, 0)
    with pytest.raises(ValueError):
        T.contract_m([1.0, 2.0])
    with pytest.raises(ValueError):
        HIdentity(4, 3).contract_m_minus_1([1.0, 2.0])


def test_symmetrize_fixed_point_is_exact():
    T = random_symmetric(3, 4, 7)
    again = symmetrize(T.entries)
    assert np.array_equal(again.entries, T.entries)


def test_symmetrize_single_entry_average():
    raw = np.zeros((3, 3, 3, 3))
    raw[0, 1, 1, 1] = 0.00401
    out = symmetrize(raw)
    for idx in [(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
        assert out.entries[idx] == 0.00401 / 4
    assert out.entries[1, 1, 1, 1] == 0.0


def test_symmetrize_idempotent_exactly(rng):
    raw = rng.standard_normal((3, 3, 3, 3))
    once = symmetrize(raw)
    twice = symmetrize(once)
    assert np.array_equal(once.entries, twice.entries)


def test_symmetry_validation_rejects_asymmetric():
    raw = np.zeros((2, 2, 2, 2))
    raw[0, 0, 0, 1] = 1.0
    with pytest.raises(ValueError):
        DenseSymmetricTensor(raw)


def test_symmetry_invariance_under_random_permutations(rng):
    T = random_symmetric(3, 4, 11)
    for _ in range(100):
        idx = tuple(rng.integers(0, 3, size=4))
        perm = tuple(rng.permutation(np.array(idx)))
        assert T.entries[idx] == T.entries[perm]


def test_principal_subtensor_full_set_is_identity():
    T = random_symmetric(4, 4, 3)
    sub = principal_subtensor(T, range(4))
    assert np.array_equal(sub.entries, T.entries)


def test_principal_subtensor_diagonal_values():
    diag = [(i - 1.0) / i for i in range(1, 6)]
    A = diagonal_tensor(diag, 4)
    single = principal_subtensor(A, [4])
    assert single.dim == 1 and single.entries[0, 0, 0, 0] == 0.8
    pair = principal_subtensor(A, [1, 3])
    np.testing.assert_allclose(
        pair.entries[tuple(np.arange(2) for _ in range(4))], [0.5, 0.75]
    )


def test_principal_subtensor_errors():
    T = random_symmetric(3, 4, 1)
    with pytest.raises(ValueError):
        principal_subtensor(T, [])
    with pytest.raises(IndexError):
        principal_subtensor(T, [0, 3])


def test_euler_and_matrix_consistency(rng):
    ops = [random_symmetric(3, 4, 5), HIdentity(4, 3), ZIdentity(4, 3), random_symmetric(4, 6, 6)]
    for T in ops:
        for _ in range(15):
            x = rng.standard_normal(T.dim)
            xm = T.contract_m(x)
            scale = max(1.0, abs(xm))
            assert abs(float(x @ T.contract_m_minus_1(x)) - xm) <= 1e-10 * scale
            assert abs(float(x @ T.contract_m_minus_2(x) @ x) - xm) <= 1e-10 * scale


def test_homogeneity(rng):
    T = random_symmetric(3, 4, 9)
    for _ in range(20):
        x = rng.standard_normal(3)
        c = float(rng.uniform(0.1, 5.0))
        want = c**4 * T.contract_m(x)
        assert T.contract_m(c * x) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_h_identity_matches_materialized_diagonal(rng):
    for n in range(1, 6):
        H = HIdentity(4, n)
        D = diagonal_tensor(np.ones(n), 4)
        for _ in range(5):
            x = rng.standard_normal(n)
            assert H.contract_m(x) == pytest.approx(D.contract_m(x), abs=1e-12, rel=1e-12)
            np.testing.assert_allclose(
                H.contract_m_minus_1(x), D.contract_m_minus_1(x), atol=1e-12
            )
            np.testing.assert_allclose(
                H.contract_m_minus_2(x), D.contract_m_minus_2(x), atol=1e-12
            )


def test_dense_contractions_match_direct_sum(rng):
    T = random_symmetric(3, 4, 13)
    x = rng.standard_normal(3)
    assert T.contract_m(x) == pytest.approx(dense_contract(T.entries, x, 4), rel=1e-12)
    np.testing.assert_allclose(T.contract_m_minus_1(x), dense_contract(T.entries, x, 3), rtol=1e-12)
    np.testing.assert_allclose(T.contract_m_minus_2(x), dense_contract(T.entries, x, 2), rtol=1e-12)
    # Every entry of every contraction, for more orders and dimensions, within
    # 1e-12 of the sum of its terms' magnitudes: an entry that cancels to
    # near zero has no small relative error in any summation order.
    for m in (2, 4, 6):
        for n in (3, 5):
            T = random_symmetric(n, m, 13 + m + n)
            x = rng.standard_normal(n)
            for k, name in ((m, "contract_m"), (m - 1, "contract_m_minus_1"), (m - 2, "contract_m_minus_2")):
                err = np.abs(np.asarray(getattr(T, name)(x)) - dense_contract(T.entries, x, k))
                assert np.all(err <= 1e-12 * dense_contract(np.abs(T.entries), np.abs(x), k)), (m, n, name)


def test_matrix_contraction_is_exactly_symmetric(rng):
    for m, dims in ((4, range(2, 9)), (6, range(2, 9))):
        for n in dims:
            T = random_symmetric(n, m, 100 + n)
            for _ in range(10):
                M = T.contract_m_minus_2(rng.standard_normal(n))
                assert np.array_equal(M, M.T), (m, n)


def test_json_roundtrip_and_symmetrize_flag(tmp_path):
    doc = {
        "order": 4,
        "dim": 3,
        "entries": [{"idx": [1, 2, 2, 2], "val": 0.00401}],
        "symmetrize": True,
    }
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    T = load_tensor_json(path)
    assert T.entries[0, 1, 1, 1] == 0.00401 / 4

    sym_doc = {
        "order": 2,
        "dim": 2,
        "entries": [{"idx": [1, 2], "val": 3.0}, {"idx": [2, 1], "val": 3.0}],
    }
    M = tensor_from_json(sym_doc)
    assert M.entries[0, 1] == 3.0


def test_json_asymmetric_without_flag_rejected():
    doc = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": 3.0}]}
    with pytest.raises(ValueError):
        tensor_from_json(doc)


def test_json_bad_index_rejected():
    doc = {"order": 2, "dim": 2, "entries": [{"idx": [1, 5], "val": 3.0}]}
    with pytest.raises(ValueError):
        tensor_from_json(doc)


def test_entries_are_immutable():
    T = random_symmetric(2, 4, 0)
    with pytest.raises(ValueError):
        T.entries[0, 0, 0, 0] = 5.0


def test_large_tensor_uses_sampled_validation():
    # 6^8 > 10^6 entries takes the sampled-symmetry path
    arr = np.zeros((6,) * 8)
    arr[(0,) * 8] = 1.0
    T = DenseSymmetricTensor(arr)
    assert T.order == 8 and T.entries.size == 6**8


def test_non_finite_entry_rejected():
    T = random_symmetric(2, 4, 0)
    for bad in (np.nan, np.inf):
        arr = np.array(T.entries)
        arr[0, 0, 0, 0] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            DenseSymmetricTensor(arr)


def _assert_matches_cold(T, x):
    """T's (possibly cached) contractions equal a cold tensor's bit for bit,
    and the per-call reduce chains' to rounding."""
    ref = ReduceTensor(T.entries, validate=False)
    got = (T.contract_m(x), T.contract_m_minus_1(x), T.contract_m_minus_2(x))
    for k, name in enumerate(("contract_m", "contract_m_minus_1", "contract_m_minus_2")):
        cold = DenseSymmetricTensor(T.entries, validate=False)
        assert np.asarray(got[k]).tobytes() == np.asarray(getattr(cold, name)(x)).tobytes(), name
        assert rel_err(got[k], getattr(ref, name)(x)) <= 1e-13, name


def test_cache_follows_in_place_mutation(rng):
    for m in (2, 4, 6):
        T = random_symmetric(3, m, m)
        x = rng.standard_normal(3)
        _assert_matches_cold(T, x)
        x[1] += 0.5
        _assert_matches_cold(T, x)


def test_cache_alternating_points(rng):
    T = random_symmetric(4, 4, 21)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    for _ in range(3):
        _assert_matches_cold(T, x)
        _assert_matches_cold(T, y)


def test_matrix_contraction_is_read_only(rng):
    for m in (2, 4):
        T = random_symmetric(3, m, 2)
        M = T.contract_m_minus_2(rng.standard_normal(3))
        with pytest.raises(ValueError):
            M[0, 0] = 1.0


@pytest.mark.parametrize("problem", ["rand:n=6,m=4", "rand:n=4,m=6", "ex1", "ex4:n=5"])
def test_power_methods_make_one_pass_per_iterate(problem, monkeypatch):
    """Before the polish, spp and sspa pass over A once per iterate: iters + 1.

    They also call each contraction of A and of B once per iterate, except
    sspa's B x^m, which b_normalize makes once more to scale each new point.
    """
    passes = []
    calls = collections.Counter()
    operands = {}
    at_polish = []
    polish = teicp.solvers._polish

    one_pass = DenseSymmetricTensor._pass

    def counting_pass(self, x):
        passes.append(1)
        return one_pass(self, x)

    def counting(name, method):
        def counted(self, x):
            calls[operands.get(id(self)), name] += 1
            return method(self, x)

        return counted

    def spy_polish(*args):
        at_polish.append((len(passes), dict(calls)))
        return polish(*args)

    A, B = build(parse_problem(problem))
    for cls in {type(A), type(B)}:
        for name in ("contract_m", "contract_m_minus_1", "contract_m_minus_2"):
            monkeypatch.setattr(cls, name, counting(name, vars(cls)[name]))
    monkeypatch.setattr(DenseSymmetricTensor, "_pass", counting_pass)
    monkeypatch.setattr(teicp.solvers, "_polish", spy_polish)
    converged = 0
    for solver in (teicp.solvers.spp, teicp.solvers.sspa):
        for seed in range(15):
            A, B = build(parse_problem(problem))
            operands.clear()
            operands.update({id(A): "A", id(B): "B"})
            passes.clear()
            calls.clear()
            at_polish.clear()
            rep = solver(A, B, random_start(A.dim, seed))
            if rep.status is teicp.solvers.Status.CONVERGED:
                points = rep.iters + 1
                want = {
                    (op, name): points
                    for op in "AB"
                    for name in ("contract_m", "contract_m_minus_1", "contract_m_minus_2")
                }
                if solver is teicp.solvers.sspa:
                    want["B", "contract_m"] = 2 * points
                assert at_polish == [(points, want)], (solver.__name__, seed)
                converged += 1
    assert converged == 30
