import collections
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import teicp.solvers
from helpers import (
    ReduceTensor,
    class_keys_reference,
    dense_contract,
    fd_jacobian,
    formula_tensor_reference,
    rel_err,
    symmetrize_reference,
)
from teicp.merit import MeritKind, evaluate
from teicp.problems import ProblemSpec, build, parse_problem, random_start
from teicp.tensor import (
    DenseSymmetricTensor,
    HIdentity,
    TensorOperator,
    ZIdentity,
    _class_plan,
    _pack_plan,
    diagonal_tensor,
    symmetrize,
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


@pytest.mark.parametrize("m", [4, 6, 8])
def test_z_identity_matrix_is_zero_at_the_origin(m):
    Z = ZIdentity(m, 3)
    assert np.array_equal(Z.contract_m_minus_2(np.zeros(3)), np.zeros((3, 3)))
    # x . x underflows to 0 here while x is not 0
    assert np.all(np.isfinite(Z.contract_m_minus_2(np.full(3, 1e-200))))


@pytest.mark.parametrize("m", [4, 6])
def test_z_identity_overflows_to_inf_like_h_identity(m):
    x = np.full(5, 1e80)
    Z, H = ZIdentity(m, 5), HIdentity(m, 5)
    with np.errstate(over="ignore"):
        assert Z.contract_m(x) == H.contract_m(x) == math.inf
        v, s = Z.contract_m_minus_1_and_m(x)
        assert s == math.inf
        assert np.array_equal(v, Z.contract_m_minus_1(x))
        assert np.all(np.isinf(v)) == (m == 6)
        M = Z.contract_m_minus_2(x)
    assert not np.any(np.isnan(M)) and np.all(np.isinf(np.diag(M))) == (m == 6)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_z_identity_finite_contractions_keep_python_float_bits(m, rng):
    """Finite results keep the bits of the unguarded Python float formulas."""
    Z = ZIdentity(m, 4)
    for _ in range(100):
        x = rng.standard_normal(4) * 10.0 ** rng.uniform(-40, 40)
        sq = float(x @ x)
        v, s = Z.contract_m_minus_1_and_m(x)
        assert Z.contract_m(x) == s == sq ** (m // 2)
        assert Z.contract_m_minus_1(x).tobytes() == v.tobytes() == (sq ** ((m - 2) // 2) * x).tobytes()
        if m > 2:
            cross = (m - 2) * (1.0 if m == 4 else sq ** ((m - 4) // 2))
            M = (sq ** ((m - 2) // 2) * np.eye(4) + cross * np.outer(x, x)) / (m - 1)
            assert Z.contract_m_minus_2(x).tobytes() == M.tobytes()


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
    twice = symmetrize(once.entries)
    assert np.array_equal(once.entries, twice.entries)


_KEY_SHAPES = [(n, m) for n in range(1, 9) for m in range(1, 8) if n**m <= 300_000]


@pytest.mark.parametrize("n, m", _KEY_SHAPES)
def test_class_keys_match_literal_oracle(n, m):
    ids, first, _ = _class_plan(n, m)
    keys = class_keys_reference(n, m)
    assert first.dtype == np.intp
    assert np.array_equal(np.unique(ids), np.arange(math.comb(n + m - 1, m)))
    # first is one-to-one onto the positions that are their own literal key,
    assert np.array_equal(np.sort(first), np.flatnonzero(keys == np.arange(keys.size)))
    # so two positions share an id exactly when they share a literal key.
    assert np.array_equal(first[ids], keys)


def test_class_plan_arrays_are_read_only_and_small():
    plan_ids, first, sizes = _class_plan(5, 4)
    for a in (plan_ids, first, sizes):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    assert plan_ids.dtype == np.uint8 and sizes.dtype == np.uint8
    assert np.array_equal(sizes, np.bincount(plan_ids))


def test_class_plan_of_20_4_takes_at_most_0_35_units():
    # A unit is one float64 copy of the tensor; uint16 ids take 0.25 of it.
    plan = _class_plan(20, 4)
    assert plan[0].dtype == np.uint16
    assert sum(a.nbytes for a in plan) / (8 * 20**4) <= 0.35


def test_packed_matrix_of_20_4_takes_at_most_0_3_units():
    T = random_symmetric(20, 4, 0)
    held = T._packed.nbytes + T._rows.nbytes + T._pair_pos.nbytes
    assert T._packed.shape == (210, 210) and not T._packed.flags.writeable
    assert held / (8 * 20**4) <= 0.3


@pytest.mark.parametrize("n, m", [(6, 4), (4, 6)])
def test_pack_plan_is_read_only_shared_and_gathers_the_packed_matrix(n, m):
    """Tensors of one shape share its read-only packing plan, and the packed
    matrix gathered through it is the direct gather of the class values."""
    plan = _pack_plan(n, m)
    for a in plan:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0
    T, U = random_symmetric(n, m, 0), random_symmetric(n, m, 1)
    assert T._rows is U._rows is plan[2] and T._pair_pos is U._pair_pos is plan[3]
    ids = _class_plan(n, m)[0]
    _, first_r, sizes_r = _class_plan(n, m - 2)
    first_c = _class_plan(n, 2)[1]
    for V in (T, U):
        direct = V._values[ids.reshape(n ** (m - 2), n * n)[np.ix_(first_r, first_c)]] * sizes_r[:, None]
        assert V._packed.tobytes() == direct.tobytes()


def test_packing_keeps_the_build_plan():
    """A tensor packs with the (n, m - 2) and (n, 2) plans, which must not
    evict the (n, m) plan: a second build of the shape rebuilds no plan."""
    _class_plan.cache_clear()
    random_symmetric(16, 4, 0)
    misses = _class_plan.cache_info().misses
    random_symmetric(16, 4, 1)
    assert _class_plan.cache_info().misses == misses


def _cold_and_warm(build_tensor):
    _class_plan.cache_clear()
    cold = build_tensor().entries.tobytes()
    hits = _class_plan.cache_info().hits
    warm = build_tensor().entries.tobytes()
    assert _class_plan.cache_info().hits > hits
    return cold, warm


@pytest.mark.parametrize("n, m", [(16, 4), (6, 6), (3, 2)])
def test_cold_and_warm_plan_builds_are_byte_equal(n, m):
    cold, warm = _cold_and_warm(lambda: random_symmetric(n, m, 3))
    assert cold == warm
    for kind in ("ex4", "ex5", "ex6"):
        cold, warm = _cold_and_warm(lambda: build(ProblemSpec(kind, n=n, m=m))[0])
        assert cold == warm == formula_tensor_reference(kind, n, m).tobytes(), kind


def _symmetrize_inputs(rng, n, m):
    shape = (n,) * m
    raw = rng.uniform(-1.0, 1.0, size=shape)
    sparse = np.zeros(raw.size)
    picked = rng.choice(raw.size, size=max(1, raw.size // 20), replace=False)
    sparse[picked] = rng.standard_normal(picked.size)
    return {
        "random": raw,
        "ties": np.round(raw * 2.0) / 4.0,
        "symmetric": symmetrize_reference(raw),
        "sparse": sparse.reshape(shape),
    }


@pytest.mark.parametrize("n, m", [(n, m) for n in range(1, 8) for m in range(2, 7) if n**m <= 50_000])
def test_symmetrize_is_byte_equal_to_sort_reference(n, m):
    rng = np.random.default_rng(1000 * n + m)
    for kind, raw in _symmetrize_inputs(rng, n, m).items():
        got = symmetrize(raw).entries
        assert got.tobytes() == symmetrize_reference(raw).tobytes(), kind


@pytest.mark.parametrize("kind", ["ex4", "ex5", "ex6"])
def test_formula_problems_are_byte_equal_to_sort_reference(kind):
    shapes = [(n, 4) for n in range(1, 9)] + [(n, m) for n in range(1, 6) for m in (2, 6)]
    for n, m in shapes:
        A, _ = build(ProblemSpec(kind, n=n, m=m))
        assert A.entries.tobytes() == formula_tensor_reference(kind, n, m).tobytes(), (n, m)


def _peak_units(build_tensor, n, m):
    """tracemalloc peak of a build, in units of one float64 copy of the (n,) * m tensor.

    A materialized (m, n^m) index array and its sorted copy take 2m units on
    their own.  The class plan is dropped first, so the build makes it anew.
    """
    _class_plan.cache_clear()
    tracemalloc.start()
    try:
        T = build_tensor()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.entries.shape == (n,) * m
    return peak / (8 * n**m)


# The (n, m) class plan is the only n^m-sized array a formula build or
# ``symmetrize`` makes; the raw array given to ``symmetrize`` is not counted.
@pytest.mark.parametrize("n, m", [(20, 4), (6, 6), (4, 7), (50, 4), (10, 6)])
def test_symmetrize_peak_allocation_is_bounded(n, m):
    raw = np.random.default_rng(0).uniform(-1.0, 1.0, size=(n,) * m)
    assert _peak_units(lambda: symmetrize(raw), n, m) <= 2.0


@pytest.mark.parametrize("kind", ["ex4", "ex5", "ex6"])
@pytest.mark.parametrize("n, m", [(20, 4), (6, 6), (50, 4), (10, 6)])
def test_formula_problem_peak_allocation_is_bounded(kind, n, m):
    assert _peak_units(lambda: build(ProblemSpec(kind, n=n, m=m))[0], n, m) <= 2.0


def test_tensors_hold_class_values_and_derive_their_entries():
    """A tensor keeps no n^m array: ``entries`` is derived and read-only, and
    writing to the array a tensor was built from does not reach the tensor."""
    raw = symmetrize(np.random.default_rng(2).standard_normal((3,) * 4)).entries.copy()
    T = DenseSymmetricTensor(raw)
    want = raw.copy()
    raw[0, 0, 0, 0] = 7.0
    assert np.array_equal(T.entries, want) and not T.entries.flags.writeable
    built = {
        "dense": T,
        "symmetrize": symmetrize(raw),
        "diagonal": diagonal_tensor([1.0, 2.0, 3.0], 4),
    }
    built.update((p, build(parse_problem(p))[0]) for p in ("ex1", "ex4:n=3", "ex5:n=3", "ex6:n=3", "ex3"))
    for name, U in built.items():
        sizes = [a.size for a in vars(U).values() if isinstance(a, np.ndarray)]
        assert sizes and 3**4 not in sizes, name


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


def _zero_padded(rng, n, support):
    z = np.zeros(n)
    z[support] = rng.random(support.size) + 0.1
    return z


def test_full_contractions_restrict_to_a_face(rng):
    """On a vector that is zero off a support I, the full contractions sliced
    to I are the face's: (T z^{m-1})[I] = T_I z_I^{m-1} and
    (T z^{m-2})[I, I] = T_I z_I^{m-2}.  The polish relies on this."""
    cases = [
        (random_symmetric(5, 4, 8), np.array([0, 2, 3])),
        (random_symmetric(4, 6, 9), np.array([1, 3])),
        (ReduceTensor(random_symmetric(5, 4, 10).entries), np.array([1, 2, 4])),
    ]
    for T, support in cases:
        z = _zero_padded(rng, T.dim, support)
        sub, zs, m = T.entries[np.ix_(*[support] * T.order)], z[support], T.order
        np.testing.assert_allclose(T.contract_m_minus_1(z)[support], dense_contract(sub, zs, m - 1), rtol=1e-12)
        np.testing.assert_allclose(
            T.contract_m_minus_2(z)[np.ix_(support, support)], dense_contract(sub, zs, m - 2), rtol=1e-12
        )
    for identity in (HIdentity(4, 5), ZIdentity(4, 5), HIdentity(6, 4), ZIdentity(6, 4)):
        for support in (np.array([0, 2, 3]), np.array([1]), np.arange(identity.dim)):
            support = support[support < identity.dim]
            z = _zero_padded(rng, identity.dim, support)
            smaller = type(identity)(identity.order, support.size)
            zs = z[support]
            assert np.array_equal(identity.contract_m_minus_1(z)[support], smaller.contract_m_minus_1(zs))
            assert np.array_equal(
                identity.contract_m_minus_2(z)[np.ix_(support, support)], smaller.contract_m_minus_2(zs)
            )


def test_newton_face_polishes_any_operator():
    """A face of an operator known only through the TensorOperator methods is
    polished exactly as the same face of the dense tensor behind it."""

    class Delegate(TensorOperator):
        def __init__(self, inner):
            self.inner, self.order, self.dim = inner, inner.order, inner.dim

        def contract_m(self, x):
            return self.inner.contract_m(x)

        def contract_m_minus_1(self, x):
            return self.inner.contract_m_minus_1(x)

        def contract_m_minus_2(self, x):
            return self.inner.contract_m_minus_2(x)

    A, B = build(parse_problem("ex1"))
    faces = 0
    for seed in (0, 1, 15):
        rep = teicp.solvers.spg1(A, B, random_start(3, seed), teicp.solvers.SolverConfig(keep_iterates=True))
        x = rep.iterates[-1] / np.linalg.norm(rep.iterates[-1])
        lam = rep.trace[-1].lam
        support = np.flatnonzero(x > 1e-2)
        faces += support.size < A.dim
        want = teicp.solvers._newton_face(A, B, lam, x, support)
        got = teicp.solvers._newton_face(Delegate(A), B, lam, x, support)
        assert want is not None and got is not None, seed
        assert got[0].hex() == want[0].hex() and got[1].tobytes() == want[1].tobytes(), seed
        assert np.all(got[1][np.setdiff1d(np.arange(3), support)] == 0.0), seed
    assert faces == 2


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


def _any_order_tensor(n, m, seed):
    """A symmetrized tensor with entries uniform in [-1, 1], for odd m too."""
    return symmetrize(np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n,) * m))


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_packed_contractions_match_literal_sums(m, rng):
    """Every entry of T x^{m-2} within 1e-12 of the literal sum over all index
    tuples, relative to the sum of its terms' magnitudes; T x^{m-1} and T x^m
    against that literal matrix times x, with the same bound."""
    for n in range(1, 9):
        T = _any_order_tensor(n, m, 10 * m + n)
        x = rng.standard_normal(n)
        M, bound = dense_contract(T.entries, x, m - 2), dense_contract(np.abs(T.entries), np.abs(x), m - 2)
        v, v_bound = M @ x, bound @ np.abs(x)
        for got, want, scale in (
            (T.contract_m_minus_2(x), M, bound),
            (T.contract_m_minus_1(x), v, v_bound),
            (T.contract_m(x), x @ v, np.abs(x) @ v_bound),
        ):
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (m, n)


def test_matrix_contraction_is_exactly_symmetric(rng):
    cases = ((3, range(2, 9)), (4, (*range(2, 9), 20)), (5, range(2, 7)), (6, range(2, 9)))
    for m, dims in cases:
        for n in dims:
            T = _any_order_tensor(n, m, 100 + n)
            for _ in range(10):
                M = T.contract_m_minus_2(rng.standard_normal(n))
                assert np.array_equal(M, M.T), (m, n)


def test_entries_are_immutable():
    T = random_symmetric(2, 4, 0)
    with pytest.raises(ValueError):
        T.entries[0, 0, 0, 0] = 5.0


def test_large_tensor_is_checked_entry_by_entry():
    # 6^8 > 10^6 entries, checked entry by entry like any other size
    arr = np.zeros((6,) * 8)
    arr[(0,) * 8] = 1.0
    T = DenseSymmetricTensor(arr)
    assert T.order == 8 and T.entries.size == 6**8


def test_symmetry_check_sees_one_asymmetric_entry_in_a_large_tensor():
    arr = np.zeros((32,) * 4)
    arr[0, 1, 2, 3] = 1.0
    with pytest.raises(ValueError, match="invariant under index permutations"):
        DenseSymmetricTensor(arr)
    assert symmetrize(arr).entries[3, 2, 1, 0] == 1.0 / 24


def test_symmetry_check_matches_literal_permutations(rng):
    """The class test accepts exactly the tensors whose entries equal
    those at every permutation of their index."""
    verdicts = collections.Counter()
    for m in range(2, 6):
        for n in range(1, 4):
            for perturb in (False, True):
                arr = np.array(symmetrize(rng.standard_normal((n,) * m)).entries)
                if perturb:
                    arr[tuple(rng.integers(0, n, size=m))] += 1.0
                literal = all(
                    arr[idx] == arr[perm]
                    for idx in itertools.product(range(n), repeat=m)
                    for perm in itertools.permutations(idx)
                )
                try:
                    DenseSymmetricTensor(arr)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == literal, (m, n, perturb)
                verdicts[accepted] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_non_finite_entry_rejected():
    T = random_symmetric(2, 4, 0)
    for bad in (np.nan, np.inf, -np.inf):
        arr = np.array(T.entries)
        arr[0, 0, 0, 0] = bad
        raw = np.array(T.entries)
        raw[0, 1, 1, 1] = bad
        for make in (
            lambda: DenseSymmetricTensor(arr),
            lambda: symmetrize(arr),
            lambda: symmetrize(raw),
            lambda: diagonal_tensor([1.0, bad], 4),
        ):
            with pytest.raises(ValueError, match="entries must be finite"):
                make()


def test_an_entry_times_its_class_size_must_not_overflow():
    """The packed matrix scales a row of class R by its size mu_R, so 1e308
    overflows at (2, 4), where row class (0, 1) has two members, and 5e307
    does not."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for make in (DenseSymmetricTensor, symmetrize):
            with pytest.raises(ValueError, match="an entry times its class size overflows"):
                make(np.full((2,) * 4, 1e308))
        T = DenseSymmetricTensor(np.full((2,) * 4, 5e307))
    assert T.contract_m([1.0, 0.0]) == 5e307


def test_symmetrize_says_a_class_sum_overflows():
    """The class {(0, 1), (1, 0)} sums 1.7e308 + 1e308, which overflows though
    its mean 1.35e308 does not, so the error names the sum; an inf entry is
    still reported as one."""
    raw = np.full((2, 2), 1e308)
    raw[0, 1] = 1.7e308
    with pytest.raises(ValueError, match="a class sum overflows"):
        symmetrize(raw)
    raw[0, 1] = np.inf
    with pytest.raises(ValueError, match="entries must be finite"):
        symmetrize(raw)


def _assert_matches_cold(T, x):
    """T's (possibly cached) contractions equal a cold tensor's bit for bit,
    and the per-call reduce chains' to rounding."""
    ref = ReduceTensor(T.entries)
    got = (T.contract_m(x), T.contract_m_minus_1(x), T.contract_m_minus_2(x))
    for k, name in enumerate(("contract_m", "contract_m_minus_1", "contract_m_minus_2")):
        cold = DenseSymmetricTensor(T.entries)
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


def _same_pair(got, want):
    """Byte equality of two (T x^{m-1}, T x^m) pairs."""
    (v, s), (w, t) = got, want
    return type(s) is float and v.tobytes() == w.tobytes() and s.hex() == float(t).hex()


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_dense_fused_pair_is_bitwise_the_two_contractions(m, warm, rng):
    """With the one-point cache cold or already holding x, one call gives both results."""
    entries = random_symmetric(4, m, 3).entries
    for _ in range(5):
        x = rng.standard_normal(4)
        fused, split = (DenseSymmetricTensor(entries) for _ in range(2))
        if warm:
            fused.contract_m_minus_2(x)
        assert _same_pair(fused.contract_m_minus_1_and_m(x), (split.contract_m_minus_1(x), split.contract_m(x)))


@pytest.mark.parametrize("m", [2, 4, 6])
@pytest.mark.parametrize("cls", [HIdentity, ZIdentity])
def test_identity_fused_pair_is_bitwise_the_two_contractions(cls, m, rng):
    T = cls(m, 5)
    for x in [rng.standard_normal(5) for _ in range(5)] + [np.zeros(5), np.full(5, 1e30)]:
        assert _same_pair(T.contract_m_minus_1_and_m(x), (T.contract_m_minus_1(x), T.contract_m(x)))


def test_base_class_pair_is_the_euler_default(rng):
    """The default pair is (T x^{m-1}, x . T x^{m-1}); on the reduce chains
    that is bit for bit their T x^m, whose last step is the same dot."""
    T = ReduceTensor(random_symmetric(4, 4, 3).entries)
    assert type(T).contract_m_minus_1_and_m is TensorOperator.contract_m_minus_1_and_m
    assert "contract_m_minus_1_and_m" not in vars(DenseSymmetricTensor)
    x = rng.standard_normal(4)
    v = T.contract_m_minus_1(x)
    assert _same_pair(T.contract_m_minus_1_and_m(x), (v, float(v.dot(x))))
    assert _same_pair(T.contract_m_minus_1_and_m(x), (v, T.contract_m(x)))


@pytest.mark.parametrize("m", [2, 4, 6])
def test_fold_subtracts_lam_times_the_formed_matrix(m, rng):
    """The base class's fold and the diagonal identity's are P - lam T x^{m-2} bit for bit."""
    dense = random_symmetric(4, m, 5)
    for _ in range(20):
        x, lam, P0 = rng.standard_normal(4), float(rng.standard_normal()), rng.standard_normal((4, 4))
        for T in (dense, ReduceTensor(dense.entries), HIdentity(m, 4)):
            P = P0.copy()
            T._fold(P, lam, x)
            assert P.tobytes() == (P0 - T.contract_m_minus_2(x) * lam).tobytes(), type(T)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_sphere_identity_fold_is_lam_times_its_matrix_taken_off(m, rng):
    """The sphere identity folds its two terms without forming its matrix,
    and matches P - lam Z x^{m-2} to 1e-15 of max |P|."""
    Z = ZIdentity(m, 4)
    for _ in range(50):
        x, lam, P0 = rng.standard_normal(4), float(rng.standard_normal()), rng.standard_normal((4, 4))
        P = P0.copy()
        Z._fold(P, lam, x)
        want = P0 - Z.contract_m_minus_2(x) * lam
        assert np.abs(P - want).max() <= 1e-15 * np.abs(P).max()


@pytest.mark.parametrize("kind", list(MeritKind))
def test_evaluate_makes_one_pass_and_one_fused_call_per_operand(kind, monkeypatch):
    """evaluate gets T x^{m-1} and T x^m of each operand from one fused call,
    and a dense operand from one pass; the dense operand's pair is the
    default one, which calls contract_m_minus_1 once.  No other contraction
    is called."""
    passes = collections.Counter()
    calls = collections.Counter()
    one_pass = DenseSymmetricTensor._pass

    def counting_pass(self, x):
        passes[id(self)] += 1
        return one_pass(self, x)

    def counting(name, method):
        def counted(self, x):
            calls[id(self), name] += 1
            return method(self, x)

        return counted

    names = ("contract_m", "contract_m_minus_1", "contract_m_minus_2", "contract_m_minus_1_and_m")
    for cls in (DenseSymmetricTensor, HIdentity, ZIdentity):
        for name in names:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
    monkeypatch.setattr(DenseSymmetricTensor, "_pass", counting_pass)
    # Nonnegative entries and starts keep A x^m > 0 for the logarithmic merit.
    A = DenseSymmetricTensor(np.abs(random_symmetric(5, 4, 1).entries))
    for B in (diagonal_tensor(np.arange(1.0, 6.0), 4), HIdentity(4, 5), ZIdentity(4, 5)):
        for seed in range(3):
            passes.clear()
            calls.clear()
            evaluate(A, B, random_start(5, seed), kind)
            dense = [id(T) for T in (A, B) if isinstance(T, DenseSymmetricTensor)]
            assert passes == {i: 1 for i in dense}
            want = {(id(T), "contract_m_minus_1_and_m"): 1 for T in (A, B)}
            want.update({(i, "contract_m_minus_1"): 1 for i in dense})
            assert calls == want


@pytest.mark.parametrize("problem", ["rand:n=6,m=4", "rand:n=4,m=6", "ex1", "ex4:n=5"])
def test_power_methods_make_one_pass_per_iterate(problem, monkeypatch):
    """Before the polish, spp and sspa pass over A once per iterate: iters + 1.

    They also call the fused pair of A and of B and A x^{m-2} once per
    iterate, and no other contraction, except the T x^{m-1} that a dense
    operand's default pair calls, sspa's B x^m, which b_normalize makes once
    to scale each new point, and B x^{m-2}, which the shift forms once per
    iterate unless B is the sphere or the diagonal identity.
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
        for name in ("contract_m", "contract_m_minus_1", "contract_m_minus_2", "contract_m_minus_1_and_m"):
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
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
                    for name in ("contract_m_minus_1_and_m", "contract_m_minus_2")
                }
                if isinstance(B, (ZIdentity, HIdentity)):
                    del want["B", "contract_m_minus_2"]
                for op, T in (("A", A), ("B", B)):
                    if isinstance(T, DenseSymmetricTensor):
                        want[op, "contract_m_minus_1"] = points
                if solver is teicp.solvers.sspa:
                    want["B", "contract_m"] = points
                assert at_polish == [(points, want)], (solver.__name__, seed)
                converged += 1
    assert converged == 30
