import random
from fractions import Fraction

import pytest

from profmack import linalg as la

F = Fraction


def rand_matrix(rng, r, c, den=5):
    return [[F(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(c)]
            for _ in range(r)]


def test_rref_identity():
    m = la.identity(3)
    red, piv = la.rref(m)
    assert red == la.identity(3)
    assert piv == [0, 1, 2]


def test_rank_and_nullspace_consistency():
    rng = random.Random(7)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, r, c)
        rk = la.rank(a)
        null = la.nullspace(a)
        assert rk + len(null) == c
        for v in null:
            assert all(x == 0 for x in la.matvec(a, v))


def test_solve_exact():
    rng = random.Random(3)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, r, c)
        x0 = [F(rng.randint(-3, 3)) for _ in range(c)]
        b = la.matvec(a, x0)
        x = la.solve(a, b)
        assert x is not None
        assert la.matvec(a, x) == b


def test_solve_inconsistent():
    a = [[F(1)], [F(1)]]
    assert la.solve(a, [F(1), F(2)]) is None


def test_quotient_basis():
    sub = [[F(1), F(0), F(0)]]
    comp, proj = la.quotient_basis(sub, 3)
    assert comp == [1, 2]
    # class of (5, 2, 3) is (2, 3)
    assert la.matvec(proj, [F(5), F(2), F(3)]) == [F(2), F(3)]


def test_in_span():
    vs = [[F(1), F(1)], [F(0), F(1)]]
    assert la.in_span(vs, [F(2), F(3)])
    assert not la.in_span([[F(1), F(1)]], [F(1), F(2)])
    assert la.in_span([], [F(0), F(0)])
    assert not la.in_span([], [F(1), F(0)])


def test_degenerate_matmul():
    # zero-row matrices are stored as [] and must multiply through
    assert la.matmul([], la.identity(4)) == []
    z = la.zeros(3, 0)
    assert la.matmul(z, []) == la.zeros(3, 0)


def test_matmul_associativity():
    rng = random.Random(11)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    c = rand_matrix(rng, 2, 5)
    assert la.matmul(la.matmul(a, b), c) == la.matmul(a, la.matmul(b, c))


def dense_matvec(a, v):
    return [sum((x * y for x, y in zip(row, v)), F(0)) for row in a]


def sparse_matrix(rng, r, c, density=0.1):
    return [[F(rng.randint(-4, 4) or 1, rng.randint(1, 5))
             if rng.random() < density else F(0) for _ in range(c)]
            for _ in range(r)]


def test_matvec_matches_dense_formula_on_sparse_input():
    rng = random.Random(5)
    for _ in range(40):
        r, c = rng.randint(1, 30), rng.randint(1, 30)
        a = sparse_matrix(rng, r, c)
        v = [F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.3
             else F(0) for _ in range(c)]
        out = la.matvec(a, v)
        assert out == dense_matvec(a, v)
        assert all(type(x) is Fraction for x in out)


def test_matvec_zeros_and_empty():
    a = [[F(0), F(0), F(0)], [F(1), F(2), F(3)], [F(0), F(0), F(0)]]
    assert la.matvec(a, [F(0)] * 3) == [F(0)] * 3
    assert la.matvec(a, [F(1), F(1), F(1)]) == [F(0), F(6), F(0)]
    assert la.matvec([], []) == []
    assert la.matvec(la.zeros(2, 0), []) == [F(0), F(0)]
    assert all(type(x) is Fraction
               for x in la.matvec(a, [F(0)] * 3) + la.matvec(la.zeros(2, 0), []))


def test_matvec_shape_mismatch():
    with pytest.raises(ValueError):
        la.matvec(la.identity(3), [F(1), F(2)])
    with pytest.raises(ValueError):
        la.matvec(la.identity(2), [F(1), F(2), F(3)])
