import math

import numpy as np
import pytest

from teicp.problems import ProblemSpec, build, parse_problem, random_start, random_symmetric
from teicp.tensor import HIdentity, ZIdentity


def test_ex2_diagonal_values():
    A, B = build(parse_problem("ex2:n=5"))
    diag = A.entries[tuple(np.arange(5) for _ in range(4))]
    np.testing.assert_allclose(diag, [0.0, 0.5, 2.0 / 3.0, 0.75, 0.8])
    assert isinstance(B, ZIdentity)


def test_ex1_distinct_class_values(ex1):
    A, _ = ex1
    assert A.entries[0, 0, 0, 0] == 0.2883
    assert A.contract_m([1.0, 0.0, 0.0]) == 0.2883
    # class values are replicated, not averaged
    assert A.entries[0, 0, 0, 1] == -0.0031
    assert A.entries[1, 0, 0, 0] == -0.0031


def test_ex3_diagonal_untouched_by_averaging(ex3):
    A, _ = ex3
    assert A.contract_m([1.0, 0.0, 0.0]) == pytest.approx(1.00397, abs=1e-12)
    # literal slots land in distinct index classes before averaging
    assert A.entries[0, 1, 1, 1] == pytest.approx(0.00401 / 4, abs=1e-15)
    assert A.entries[1, 0, 0, 0] == pytest.approx(0.00788 / 4, abs=1e-15)


def test_ex4_entry_formula(ex4):
    A, B = ex4
    assert A.entries[0, 0, 0, 0] == pytest.approx(math.sin(4.0), abs=1e-15)
    assert A.entries[0, 1, 2, 3] == pytest.approx(math.sin(1 + 2 + 3 + 4), abs=1e-15)
    assert isinstance(B, HIdentity)


def test_ex5_entry_formula(ex5):
    A, _ = ex5
    want = 4 * math.tan(1.0)
    assert A.entries[0, 0, 0, 0] == pytest.approx(want, abs=1e-12)


def test_ex6_entry_formula(ex6):
    A, _ = ex6
    assert A.entries[0, 0, 0, 0] == -4.0
    want = -1.0 + 0.5 - 1.0 / 3.0 + 0.25
    assert A.entries[0, 1, 2, 3] == pytest.approx(want, abs=1e-14)


def test_generated_tensors_are_exactly_symmetric(rng):
    for prob in ("ex1", "ex2:n=4", "ex3", "ex4:n=5", "ex5:n=5", "ex6:n=5"):
        A, _ = build(parse_problem(prob))
        for _ in range(20):
            idx = tuple(rng.integers(0, A.dim, size=4))
            perm = tuple(rng.permutation(np.array(idx)))
            assert A.entries[idx] == A.entries[perm]


def test_random_symmetric_deterministic_and_euler(rng):
    T1 = random_symmetric(3, 4, 42)
    T2 = random_symmetric(3, 4, 42)
    assert np.array_equal(T1.entries, T2.entries)
    T3 = random_symmetric(3, 4, 43)
    assert not np.array_equal(T1.entries, T3.entries)
    for _ in range(10):
        x = rng.standard_normal(3)
        xm = T1.contract_m(x)
        assert abs(float(x @ T1.contract_m_minus_1(x)) - xm) <= 1e-12 * max(1.0, abs(xm))


def test_random_symmetric_takes_rands_rules_from_problem_spec():
    """A negative seed is named instead of reaching numpy, and n and m fail
    with ProblemSpec's own messages."""
    with pytest.raises(ValueError, match="seed must be nonnegative, got seed=-1"):
        random_symmetric(3, 4, -1)
    for n, m in ((0, 4), (3, 3), (3, 0)):
        with pytest.raises(ValueError) as want:
            ProblemSpec("rand", n, m)
        with pytest.raises(ValueError) as got:
            random_symmetric(n, m, 0)
        assert str(got.value) == str(want.value)


def test_random_start_contract():
    a = random_start(6, 7)
    b = random_start(6, 7)
    c = random_start(6, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a <= 1.0))


def test_parse_problem_forms():
    assert parse_problem("ex1") == ProblemSpec(kind="ex1", n=3)
    assert parse_problem("ex2:n=7").n == 7
    spec = parse_problem("rand:n=4,m=4,seed=7")
    assert (spec.kind, spec.n, spec.m, spec.seed) == ("rand", 4, 4, 7)


def test_parse_problem_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_problem("ex9")
    with pytest.raises(ValueError):
        parse_problem("ex2:k=5")
    with pytest.raises(ValueError):
        parse_problem("ex1:n=4")  # fixed at dimension 3
    with pytest.raises(ValueError, match="repeated problem parameter 'n'"):
        parse_problem("rand:n=3,n=5")
    for kind in ("ex1", "ex2", "ex3", "ex4", "ex5", "ex6"):
        # build reads the seed of rand alone, so a seed elsewhere is rejected, not dropped
        with pytest.raises(ValueError, match="only rand takes a seed"):
            parse_problem(f"{kind}:n=3,seed=77")
    with pytest.raises(ValueError):
        ProblemSpec(kind="ex2", n=0)
    with pytest.raises(ValueError):
        ProblemSpec(kind="rand", n=3, m=3)
    # each message names the bad parameter, where numpy's and int()'s would not
    with pytest.raises(ValueError, match="seed must be nonnegative, got seed=-2"):
        parse_problem("rand:n=3,seed=-2")
    for text, key in (("rand:n=3.5", "n"), ("rand:m=four", "m"), ("rand:seed=1e3", "seed")):
        with pytest.raises(ValueError, match=f"problem parameter '{key}' must be an integer"):
            parse_problem(text)
    with pytest.raises(ValueError, match="seed must be nonnegative, got seed=-1"):
        random_start(3, -1)


def test_rand_problem_builds_z_pair():
    A, B = build(parse_problem("rand:n=3,m=4,seed=5"))
    assert isinstance(B, ZIdentity)
    assert A.dim == 3 and A.order == 4


@pytest.mark.parametrize("kind", ["ex1", "ex3"])
@pytest.mark.parametrize("m", [2, 6])
def test_fixed_order_problems_reject_other_orders(kind, m):
    with pytest.raises(ValueError, match=f"m={m}"):
        parse_problem(f"{kind}:m={m}")
    assert parse_problem(f"{kind}:m=4") == ProblemSpec(kind=kind, n=3, m=4)
