"""Built-in benchmark tensors and seeded random instances.

Six named fourth-order problems are provided.  ex1-ex3 are paired with the
sphere identity, ex4-ex6 with the diagonal identity:

* ex1: 3-dimensional tensor given by its 15 distinct index classes.
* ex2: diagonal tensor with a_{ii...i} = (i - 1) / i.
* ex3: 3-dimensional tensor assembled from nine literal entries and then
  symmetrized by permutation averaging.
* ex4: a_{ijkl} = sin(i + j + k + l).
* ex5: a_{ijkl} = tan(i) + tan(j) + tan(k) + tan(l).
* ex6: a_{ijkl} = (-1)^i / i + (-1)^j / j + (-1)^k / k + (-1)^l / l.

ex1 and ex3 exist only at n = 3 and m = 4.  Formula indices are 1-based.
``rand`` builds a seeded random symmetric tensor for property testing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DenseSymmetricTensor,
    HIdentity,
    TensorOperator,
    ZIdentity,
    _from_symmetric_formula,
    diagonal_tensor,
    symmetrize,
)

__all__ = ["ProblemSpec", "parse_problem", "build", "random_symmetric", "random_start"]

_Z_PROBLEMS = ("ex1", "ex2", "ex3", "rand")
_H_PROBLEMS = ("ex4", "ex5", "ex6")

# The 15 distinct index classes of a symmetric order-4 dim-3 tensor, keyed by
# their nondecreasing 1-based index tuples.
_EX1_CLASSES = {
    (1, 1, 1, 1): 0.2883,
    (1, 1, 1, 2): -0.0031,
    (1, 1, 1, 3): 0.1973,
    (1, 1, 2, 2): -0.2485,
    (1, 2, 2, 3): 0.1862,
    (1, 1, 3, 3): 0.3847,
    (1, 2, 2, 2): 0.2972,
    (1, 1, 2, 3): -0.2939,
    (1, 2, 3, 3): 0.0919,
    (1, 3, 3, 3): -0.3619,
    (2, 2, 2, 2): 0.1241,
    (2, 2, 2, 3): -0.3420,
    (2, 2, 3, 3): 0.2127,
    (2, 3, 3, 3): 0.2727,
    (3, 3, 3, 3): -0.3054,
}

# Nine literal positions set on an all-zero tensor before symmetrizing;
# (1,2,2,2) and (2,1,1,1) are distinct slots here.
_EX3_ENTRIES = {
    (1, 1, 1, 1): 1.00397,
    (2, 2, 2, 2): 0.99397,
    (3, 3, 3, 3): 1.00207,
    (1, 2, 2, 2): 0.00401,
    (2, 1, 1, 1): 0.00788,
    (3, 1, 1, 1): 0.00001,
    (3, 2, 2, 2): 0.00005,
    (1, 3, 3, 3): 0.99603,
    (2, 3, 3, 3): 1.0040,
}


@dataclass(frozen=True)
class ProblemSpec:
    """A named benchmark instance: problem kind plus its parameters."""

    kind: str
    n: int = 5
    m: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _Z_PROBLEMS + _H_PROBLEMS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.kind in ("ex1", "ex3") and self.n != 3:
            raise ValueError(f"{self.kind} is fixed at dimension 3")
        if self.kind in ("ex1", "ex3") and self.m != 4:
            raise ValueError(f"{self.kind} is fixed at order 4, got m={self.m}")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.m < 2 or self.m % 2:
            raise ValueError("m must be even and >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got seed={self.seed}")

    @property
    def b_kind(self) -> str:
        return "h" if self.kind in _H_PROBLEMS else "z"


def parse_problem(text: str) -> ProblemSpec:
    """Parse a CLI problem id such as ``ex1``, ``ex2:n=5`` or ``rand:n=4,m=4,seed=7``."""
    head, _, tail = text.strip().partition(":")
    kind = head.lower()
    params = {}
    if tail:
        for piece in tail.split(","):
            key, eq, value = piece.partition("=")
            key = key.strip()
            if not eq or key not in ("n", "m", "seed"):
                raise ValueError(f"bad problem parameter {piece!r} in {text!r}")
            if key in params:
                raise ValueError(f"repeated problem parameter {key!r} in {text!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ValueError(f"problem parameter {key!r} must be an integer, got {value!r} in {text!r}") from None
    if "seed" in params and kind != "rand":
        raise ValueError(f"only rand takes a seed, got {text!r}")
    if kind in ("ex1", "ex3"):
        params.setdefault("n", 3)
    return ProblemSpec(kind=kind, **params)


def _ex3() -> DenseSymmetricTensor:
    arr = np.zeros((3, 3, 3, 3))
    for idx, val in _EX3_ENTRIES.items():
        arr[tuple(i - 1 for i in idx)] = val
    return symmetrize(arr)


def build(spec: ProblemSpec) -> tuple[DenseSymmetricTensor, TensorOperator]:
    """Materialize (A, B) for a problem spec."""
    n, m = spec.n, spec.m
    if spec.kind == "ex1":
        A = _from_symmetric_formula(3, 4, lambda I: np.array([_EX1_CLASSES[c] for c in zip(*I.tolist())]))
    elif spec.kind == "ex2":
        A = diagonal_tensor([(i - 1.0) / i for i in range(1, n + 1)], m)
    elif spec.kind == "ex3":
        A = _ex3()
    elif spec.kind == "ex4":
        A = _from_symmetric_formula(n, m, lambda I: np.sin(I.sum(axis=0)))
    elif spec.kind == "ex5":
        A = _from_symmetric_formula(n, m, lambda I: np.tan(I).sum(axis=0))
    elif spec.kind == "ex6":
        A = _from_symmetric_formula(n, m, lambda I: ((-1.0) ** I / I).sum(axis=0))
    else:
        A = random_symmetric(n, m, spec.seed)
    B = HIdentity(m, n) if spec.b_kind == "h" else ZIdentity(m, n)
    return A, B


def random_symmetric(n: int, m: int, seed: int) -> DenseSymmetricTensor:
    """Symmetrized tensor with entries drawn uniformly from [-1, 1].

    n, m and seed obey ``rand``'s rules, which :class:`ProblemSpec` states.
    """
    ProblemSpec("rand", n, m, seed)
    # 2 u - 1 in place has the bits of rng.uniform(-1.0, 1.0, size), which
    # computes -1 + 2 u from the same doubles u, and takes less time.
    raw = np.random.default_rng(seed).random(size=(n,) * m)
    raw *= 2.0
    raw -= 1.0
    return symmetrize(raw)


def random_start(n: int, seed: int) -> np.ndarray:
    """Vector with entries uniform on [0, 1]; solvers do their own normalizing."""
    if n < 1:
        raise ValueError("n must be positive")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got seed={seed}")
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=n)
