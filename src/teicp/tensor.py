"""Dense symmetric tensors, identity operators, and contraction kernels.

A dense symmetric order-m dimension-n tensor is stored as one value per
permutation class of its index tuples, C(n+m-1, m) floats, numbered by the
class ids of ``_class_plan``; its n^m ``entries`` are derived from them on
each access.  Contractions against a vector x follow the multilinear
conventions: T x^m is a scalar, T x^{m-1} a vector, and T x^{m-2} a
symmetric matrix, each summing the free indices against copies of x.

A dense tensor computes T x^{m-2} in one pass over its unique entries: a
single matrix-vector product of the row weights w_R = prod_k x_{R_k}, one per
permutation class R of m-2 indices, against a packed matrix with one row per
class R and one column per index pair a <= b, whose rows are scaled by the
class sizes.  The tensor gathers that matrix from its class values once,
through the packing plan its shape shares (``_pack_plan``); at (20, 4) it is
210 x 210, 0.28 of the dense entries' memory.  The tensor
keeps the result for the last point it was asked about, so the three
contractions at the same point share that pass:
T x^{m-1} = (T x^{m-2}) x and T x^m = x . (T x^{m-1}).  The matrix
``contract_m_minus_2`` returns is read-only.

``contract_m_minus_1_and_m`` returns the pair (T x^{m-1}, T x^m) from one
call.  By default it is (T x^{m-1}, x . T x^{m-1}), which on a dense tensor
has the bits of the two separate contractions and makes one matrix-vector
product where the two calls make two; the identities override it with their
closed forms for T x^m.  ``_fold`` subtracts lam T x^{m-2} from a matrix in
place, and each identity folds its own term, so no pencil
A x^{m-2} - lam B x^{m-2} forms an identity's matrix.
"""

from __future__ import annotations

import abc
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TensorOperator",
    "DenseSymmetricTensor",
    "HIdentity",
    "ZIdentity",
    "symmetrize",
    "diagonal_tensor",
]


def _sorted_index_grids(dim: int, order: int) -> list[np.ndarray]:
    """The m sorted indices s_0 <= ... <= s_{m-1} of every index tuple, as grids.

    Grid k broadcasts to shape (dim,) * order, and its entry at (i_1, ..., i_m)
    is the k-th smallest of those indices.  The grids come from an odd-even
    transposition network of min/max compare-exchanges over the m index axes,
    so the first round works on dim^2-sized broadcasts and no (m, dim^m)
    index array or generic sort is needed.  The dtype is the smallest that
    holds dim - 1.
    """
    axis = np.arange(dim, dtype=np.min_scalar_type(dim - 1))
    grids = [axis.reshape((1,) * k + (dim,) + (1,) * (order - 1 - k)) for k in range(order)]
    for rnd in range(order):
        for k in range(rnd % 2, order - 1, 2):
            lo, hi = grids[k], grids[k + 1]
            grids[k], grids[k + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    return grids


@functools.lru_cache(maxsize=3)
def _class_plan(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(ids, first, sizes)``, built once per (dim, order).

    ``ids`` holds, in flat order, the rank of each index tuple's sorted
    indices s_0 <= ... <= s_{m-1} in the combinatorial number system,
    sum_k binom(s_k + k, k + 1), so two tuples share an id exactly when one
    permutes the other, and the ids run over 0..C-1 with
    C = binom(dim + order - 1, order).  ``first[c]`` is the flat position of
    the first member of class c, which is its nondecreasing tuple, and
    ``sizes[c]`` is the number of members of class c.  ``ids`` is held in the
    smallest dtype that holds C - 1 (uint16 at (16, 4), (20, 4) and (6, 6)),
    a quarter of an intp array there, and ``sizes`` in the smallest that
    holds order!.  The last three shapes' plans are kept: a dense tensor of
    order m packs its values with the plans of (dim, m - 2) and (dim, 2),
    and those must not evict the (dim, m) plan its builder used.
    """
    count = math.comb(dim + order - 1, order)
    small = np.min_scalar_type(count - 1)
    ids = np.zeros((dim,) * order, dtype=small)
    for k, s in enumerate(_sorted_index_grids(dim, order)):
        # Every partial sum is below the class count, so it fits in ids' dtype.
        term = np.array([math.comb(v + k, k + 1) for v in range(dim)], dtype=small)
        ids += term[s]
    axes = [np.arange(dim).reshape((1,) * k + (dim,) + (1,) * (order - 1 - k)) for k in range(order)]
    nondecreasing = np.ones((1,) * order, dtype=bool)
    for lo, hi in zip(axes, axes[1:]):
        nondecreasing = nondecreasing & (lo <= hi)
    ids = ids.ravel()
    # At order 1 there is no axis pair, so the mask still has shape (1,).
    positions = np.flatnonzero(np.broadcast_to(nondecreasing, (dim,) * order))
    first = np.empty(count, dtype=np.intp)
    first[ids[positions]] = positions
    sizes = np.bincount(ids, minlength=count).astype(np.min_scalar_type(math.factorial(order)))
    for a in (ids, first, sizes):
        a.setflags(write=False)
    return ids, first, sizes


@functools.lru_cache(maxsize=3)
def _pack_plan(dim: int, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(index, sizes, rows, pair_pos)`` of the packed matrix, for order >= 3.

    Entry (R, c) of the packed matrix is ``values[index[R, c]] * sizes[R]``:
    ``index`` holds the class id of the tuple (R, a_c, b_c), for each class
    R of m-2 indices and each pair a_c <= b_c, and ``sizes`` the class sizes
    mu_R as a float column.  Both are in the dtypes the build's gather and
    scale read without a cast, intp and float64: at (16, 4) the gather took
    18 us against 55 us with uint16 indices, and the scale 12 us against
    42 us with uint8 sizes.  The index takes as many bytes as the packed
    matrix.  Column R of
    ``rows``, an (m - 2, rows) array, is row R's index tuple, and
    ``pair_pos[a, b]`` is the column of the pair {a, b}.  The plan depends on
    the shape only, so every tensor of one shape shares it.
    """
    ids = _class_plan(dim, order)[0]
    _, first_r, sizes_r = _class_plan(dim, order - 2)
    pair_ids, first_c, _ = _class_plan(dim, 2)
    index = ids.reshape(dim ** (order - 2), dim * dim)[np.ix_(first_r, first_c)].astype(np.intp)
    sizes = sizes_r[:, None].astype(float)
    rows = np.stack(np.unravel_index(first_r, (dim,) * (order - 2)))
    pair_pos = pair_ids.astype(np.intp).reshape(dim, dim)
    for a in (index, sizes, rows, pair_pos):
        a.setflags(write=False)
    return index, sizes, rows, pair_pos


class TensorOperator(abc.ABC):
    """An order-m operator known through its contractions at a point.

    Implementations provide the homogeneous form T x^m, the vector
    T x^{m-1}, and the matrix T x^{m-2}.  The three are consistent:
    x . (T x^{m-1}) = T x^m and x^T (T x^{m-2}) x = T x^m.  The pair
    ``contract_m_minus_1_and_m`` defaults to (T x^{m-1}, x . T x^{m-1}),
    and ``_fold`` to subtracting lam times the formed T x^{m-2}; an operator
    with a closed form for either overrides it.
    """

    order: int
    dim: int

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(
                f"expected a vector of length {self.dim}, got shape {x.shape}"
            )
        return x

    @abc.abstractmethod
    def contract_m(self, x) -> float:
        """Scalar T x^m."""

    @abc.abstractmethod
    def contract_m_minus_1(self, x) -> np.ndarray:
        """Vector whose i-th component sums T against m-1 copies of x."""

    @abc.abstractmethod
    def contract_m_minus_2(self, x) -> np.ndarray:
        """Symmetric matrix summing T against m-2 copies of x."""

    def contract_m_minus_1_and_m(self, x) -> tuple[np.ndarray, float]:
        """The pair (T x^{m-1}, T x^m), with T x^m = x . (T x^{m-1}) by Euler's identity."""
        v = self.contract_m_minus_1(x)
        return v, float(v.dot(x))

    def _fold(self, P: np.ndarray, lam: float, x: np.ndarray) -> None:
        """Subtract lam T x^{m-2} from the square float matrix P, in place."""
        P -= self.contract_m_minus_2(x) * lam


class DenseSymmetricTensor(TensorOperator):
    """Dense order-m dimension-n tensor with symmetric entries.

    The tensor holds one read-only value per permutation class, in the class
    id order of ``_class_plan``, and ``entries``, the (n,) * m array, is
    gathered from them on each access.  The constructor takes that dense
    array: it must be finite and invariant under index permutations, which
    holds exactly when every entry equals its class's first member, and it
    is reduced to its class values, so later writes to the caller's array do
    not reach the tensor.  For m >= 3 the tensor also keeps the packed matrix
    its contraction GEMV reads (see ``_pass``): entry (R, c) is
    mu_R T[R, a_c, b_c], for each class R of m-2 indices with mu_R members
    and each pair a_c <= b_c; every builder rejects a tensor where such an
    entry overflows.  For m = 2 it keeps the (n, n) matrix itself.
    """

    def __init__(self, entries):
        arr = np.asarray(entries, dtype=float)
        if arr.ndim < 2:
            raise ValueError("tensor order must be at least 2")
        if arr.shape[0] < 1 or any(s != arr.shape[0] for s in arr.shape):
            raise ValueError(f"entries must be square in every axis, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("entries must be finite")
        ids, first, _ = _class_plan(arr.shape[0], arr.ndim)
        flat = arr.ravel()
        values = flat[first]
        if not np.array_equal(flat, values[ids]):
            raise ValueError("entries are not invariant under index permutations")
        self._hold(values, arr.shape[0], arr.ndim)

    def _hold(self, values: np.ndarray, dim: int, order: int) -> None:
        """Keep ``values``, one float per class, and gather the matrix the pass reads."""
        if not np.all(np.isfinite(values)):
            raise ValueError("entries must be finite")
        values.setflags(write=False)
        self._values, self.order, self.dim = values, order, dim
        # (x.tobytes(), T x^{m-2}) for the last point; one tuple, so a reader
        # never pairs a new key with an old matrix.
        self._last: tuple[bytes, np.ndarray | None] = (b"", None)
        if order == 2:
            packed = values[_class_plan(dim, order)[0]].reshape(dim, dim)
        else:
            index, sizes, self._rows, self._pair_pos = _pack_plan(dim, order)
            packed = values[index]
            # In place: a second (rows, pairs) array would raise the build's peak.
            with np.errstate(over="ignore"):
                packed *= sizes
            if not np.all(np.isfinite(packed)):
                raise ValueError("an entry times its class size overflows")
        packed.setflags(write=False)
        self._packed = packed

    @property
    def entries(self) -> np.ndarray:
        """The read-only (n,) * m array of entries, gathered from the class values."""
        arr = self._values[_class_plan(self.dim, self.order)[0]].reshape((self.dim,) * self.order)
        arr.setflags(write=False)
        return arr

    def __repr__(self) -> str:
        return f"DenseSymmetricTensor(order={self.order}, dim={self.dim})"

    def _matrix_at(self, x: np.ndarray) -> np.ndarray:
        """Read-only T x^{m-2}, from one pass unless x is the last point."""
        key = x.tobytes()
        last_key, M = self._last
        if last_key != key:
            M = self._pass(x)
            self._last = (key, M)
        return M

    def _pass(self, x: np.ndarray) -> np.ndarray:
        """Read-only T x^{m-2} as one GEMV over the unique entries.

        T x^{m-2} at (a, b) sums T[i, a, b] x_{i_1} ... x_{i_{m-2}} over all
        (m-2)-tuples i, and the tuples of one class R share both the entry
        and the product w_R, so it is sum_R w_R mu_R T[R, a, b]: w against
        the packed matrix, one value per pair class.  ``take`` spreads the
        pair values over the (n, n) matrix, so M is exactly symmetric by
        construction; the merit Hessians rely on that.  The weights come
        from one gather of x and a product over the tuple axis, which was
        faster at (20, 4), (16, 4), (6, 6) and n <= 5 than the outer-power
        chain followed by a gather of one member per class.  The product is
        the ufunc reduce that ``prod(axis=0)`` calls, without its dispatch.
        """
        if self.order == 2:
            return self._packed
        w = np.multiply.reduce(x.take(self._rows), axis=0)
        M = w.dot(self._packed).take(self._pair_pos)
        M.setflags(write=False)
        return M

    def contract_m(self, x) -> float:
        x = self._coerce(x)
        return float(self._matrix_at(x).dot(x).dot(x))

    def contract_m_minus_1(self, x) -> np.ndarray:
        x = self._coerce(x)
        return self._matrix_at(x).dot(x)

    def contract_m_minus_2(self, x) -> np.ndarray:
        return self._matrix_at(self._coerce(x))


@dataclass(frozen=True)
class HIdentity(TensorOperator):
    """Diagonal identity: contractions reduce to componentwise powers."""

    order: int
    dim: int

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("order must be at least 2")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    def contract_m(self, x) -> float:
        x = self._coerce(x)
        return float(np.add.reduce(x**self.order))

    def contract_m_minus_1(self, x) -> np.ndarray:
        x = self._coerce(x)
        return x ** (self.order - 1)

    def contract_m_minus_1_and_m(self, x) -> tuple[np.ndarray, float]:
        x = self._coerce(x)
        return x ** (self.order - 1), float(np.add.reduce(x**self.order))

    def contract_m_minus_2(self, x) -> np.ndarray:
        x = self._coerce(x)
        return np.diag(x ** (self.order - 2))

    def _fold(self, P: np.ndarray, lam: float, x: np.ndarray) -> None:
        # lam x^{m-2} off the diagonal, with the bits of the formed diag(x^{m-2}).
        P.reshape(-1)[:: self.dim + 1] -= x ** (self.order - 2) * lam


def _power(base: float, exp: int) -> float:
    """base ** exp for base >= 0, and inf where the float power overflows."""
    try:
        return base**exp
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class ZIdentity(TensorOperator):
    """Sphere identity: maps x to ||x||^{m-2} x (order must be even).

    The matrix form is defined through the Hessian relation
    m (m-1) * (eps x^{m-2}) = Hess(||x||^m), which keeps all three
    contractions mutually consistent; on the unit sphere the vector
    contraction is x itself.  A power of x . x that overflows is inf, as
    the diagonal identity's powers are.
    """

    order: int
    dim: int

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError("sphere identity requires an even order >= 2")
        if self.dim < 1:
            raise ValueError("dim must be positive")

    def contract_m(self, x) -> float:
        x = self._coerce(x)
        return _power(float(x @ x), self.order // 2)

    def contract_m_minus_1(self, x) -> np.ndarray:
        x = self._coerce(x)
        return _power(float(x @ x), (self.order - 2) // 2) * x

    def contract_m_minus_1_and_m(self, x) -> tuple[np.ndarray, float]:
        x = self._coerce(x)
        sq = float(x.dot(x))
        return _power(sq, (self.order - 2) // 2) * x, _power(sq, self.order // 2)

    def _terms(self, x: np.ndarray) -> tuple[float, float]:
        """(lead, cross) with eps x^{m-2} = (lead I + cross x x') / (m - 1)."""
        m = self.order
        sq = float(x.dot(x))
        return _power(sq, (m - 2) // 2), (m - 2) * (1.0 if m <= 4 else _power(sq, (m - 4) // 2))

    def contract_m_minus_2(self, x) -> np.ndarray:
        x = self._coerce(x)
        if self.order == 2:
            return np.eye(self.dim)
        lead, cross = self._terms(x)
        # Built in place, with the bits of (lead I + cross x x') / (m - 1) but
        # for the sign of a zero off the diagonal; only the diagonal gets lead,
        # so the off-diagonal entries stay finite where lead alone is inf.
        M = np.multiply.outer(x, x)
        M *= cross
        M.reshape(-1)[:: self.dim + 1] += lead
        M /= self.order - 1
        return M

    def _fold(self, P: np.ndarray, lam: float, x: np.ndarray) -> None:
        # lam (lead I + cross x x') / (m - 1) is taken off P term by term:
        # the rank-1 term as one outer product, lead off the diagonal.
        lead, cross = self._terms(x)
        if self.order > 2:
            P -= np.multiply.outer(x, x * (lam * cross / (self.order - 1)))
        P.reshape(-1)[:: self.dim + 1] -= lam * lead / (self.order - 1)


def _from_class_values(values, dim: int, order: int) -> DenseSymmetricTensor:
    """The tensor whose class c, in ``_class_plan`` id order, holds ``values[c]``."""
    T = DenseSymmetricTensor.__new__(DenseSymmetricTensor)
    T._hold(np.asarray(values, dtype=float), dim, order)
    return T


def _from_symmetric_formula(dim: int, order: int, fn) -> DenseSymmetricTensor:
    """The tensor whose class c holds ``fn(I)[c]``, with I the 1-based tuples.

    Column c of the (order, classes) array I is class c's nondecreasing
    index tuple, so fn is evaluated once per class, on its sorted indices,
    and no n^m array is formed.
    """
    first = _class_plan(dim, order)[1]
    return _from_class_values(fn(np.stack(np.unravel_index(first, (dim,) * order)) + 1), dim, order)


def symmetrize(raw) -> DenseSymmetricTensor:
    """Average a raw tensor over all index permutations.

    Every entry of the result is the mean of its permutation class.  Classes
    whose members are already equal keep their value bit-for-bit, so the map
    is exactly idempotent and already-symmetric inputs are fixed points.  A
    finite array one of whose class sums overflows is rejected with
    ``ValueError("a class sum overflows")``.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim < 2 or any(s != arr.shape[0] for s in arr.shape):
        raise ValueError(f"expected a square order-m array, got shape {arr.shape}")
    ids, first, sizes = _class_plan(arr.shape[0], arr.ndim)
    flat = arr.ravel()
    # Per class: the first member's own value where every member equals it
    # (its largest and smallest members are equal), else the mean summed in
    # flat order.  Each ufunc.at walks the plan's ids as they are, so no
    # n^m temporary is made.  A NaN or inf entry, or a sum that overflows,
    # leaves a non-finite class value, which the finiteness check rejects.
    sums, top, bottom = np.zeros(first.size), np.full(first.size, -np.inf), np.full(first.size, np.inf)
    with np.errstate(all="ignore"):
        np.add.at(sums, ids, flat)
        np.maximum.at(top, ids, flat)
        np.minimum.at(bottom, ids, flat)
    values = np.where(top == bottom, flat[first], sums / sizes)
    # Where every class's extremes, and so every entry, are finite, a
    # non-finite class value is an overflowed sum.
    if not np.isfinite(values).all() and np.isfinite(top).all() and np.isfinite(bottom).all():
        raise ValueError("a class sum overflows")
    return _from_class_values(values, arr.shape[0], arr.ndim)


def diagonal_tensor(values, order: int) -> DenseSymmetricTensor:
    """Dense tensor with the given values on the super-diagonal, zero elsewhere."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size < 1:
        raise ValueError("values must be a nonempty vector")
    if order < 2:
        raise ValueError("tensor order must be at least 2")
    # A class's sorted tuple is (i, ..., i) exactly when its first and last indices agree.
    return _from_symmetric_formula(vals.size, order, lambda I: np.where(I[0] == I[-1], vals[I[0] - 1], 0.0))
