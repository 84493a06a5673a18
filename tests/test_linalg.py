import random
from fractions import Fraction

import pytest

from profmack import linalg as la
from linalg_helpers import solve_each

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


def test_nullspace_without_rows_or_unknowns():
    assert la.nullspace(la.zeros(0, 3)) == la.identity(3)
    assert la.nullspace(la.zeros(0, 0)) == []
    assert la.nullspace(la.zeros(2, 0)) == []


def test_nullspace_of_zero_row_matrix_has_one_vector_per_column():
    null = la.nullspace(la.zeros(0, 3))
    assert len(null) == 3
    assert la.from_columns(null, 3) == la.identity(3)


def test_nullspace_rejects_row_length_mismatch():
    with pytest.raises(ValueError):
        la.nullspace(la.Matrix([[F(1), F(2)]], 3))
    with pytest.raises(ValueError):
        la.nullspace(la.Matrix([[F(1), F(2), F(3)], [F(1)]], 3))


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
    # matrices with no rows or no columns keep their shape through products
    m = la.matmul(la.zeros(0, 4), la.identity(4))
    assert la.shape(m) == (0, 4)
    m = la.matmul(la.zeros(3, 0), la.zeros(0, 0))
    assert la.shape(m) == (3, 0) and m == [[], [], []]
    m = la.matmul(la.zeros(0, 2), la.zeros(2, 5))
    assert la.shape(m) == (0, 5)
    with pytest.raises(ValueError):
        la.matmul(la.zeros(0, 3), la.identity(4))


def test_matmul_through_zero_space_is_the_zero_map():
    m = la.matmul(la.zeros(2, 0), la.zeros(0, 3))
    assert la.shape(m) == (2, 3)
    assert la.eq(m, la.zeros(2, 3))


def test_solve_without_equations():
    assert la.solve(la.zeros(0, 2), []) == [F(0), F(0)]
    assert la.solve(la.zeros(0, 0), []) == []


def test_add_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        la.add(la.zeros(2, 3), la.zeros(3, 2))
    with pytest.raises(ValueError):
        la.add(la.zeros(0, 2), la.zeros(0, 3))
    assert la.shape(la.add(la.zeros(0, 2), la.zeros(0, 2))) == (0, 2)


def test_operations_keep_shape_without_rows_or_columns():
    assert la.shape(la.zeros(0, 3)) == (0, 3)
    assert la.shape(la.identity(0)) == (0, 0)
    assert la.shape(la.scale(la.zeros(0, 2), F(3))) == (0, 2)
    assert la.shape(la.from_columns([], 3)) == (3, 0)
    assert la.shape(la.from_columns([[], []], 0)) == (0, 2)
    assert la.shape(la.read_block([F(1)] * 4, (2, 0, 5))) == (0, 5)
    assert la.shape(la.equation_rows(4, {"x": (0, 0, 2)}, [(None, "x", la.zeros(2, 2))],
                                     [(la.zeros(0, 0), "x", None)])) == (0, 4)
    red, piv = la.rref(la.zeros(0, 3))
    assert la.shape(red) == (0, 3) and piv == []
    assert la.rank(la.zeros(0, 3)) == 0 and la.rank(la.zeros(3, 0)) == 0
    # a plain list of rows is read by its first row
    assert la.shape([[F(1), F(2)]]) == (1, 2)


def test_from_columns_is_transpose_of_rows():
    rng = random.Random(19)
    for _ in range(20):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, r, c)
        cols = [[a[i][j] for i in range(r)] for j in range(c)]
        assert la.from_columns(cols, r) == a


def test_add_block_adds_scaled_nonzero_entries():
    rng = random.Random(23)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        out = rand_matrix(rng, r, c)
        br, bc = rng.randint(0, r), rng.randint(0, c)
        r0, c0 = rng.randint(0, r - br), rng.randint(0, c - bc)
        block = la.Matrix(sparse_matrix(rng, br, bc, 0.5), bc)
        f = F(rng.randint(-3, 3), rng.randint(1, 3))
        want = [[out[i][j] + (f * block[i - r0][j - c0]
                              if r0 <= i < r0 + br and c0 <= j < c0 + bc else 0)
                 for j in range(c)] for i in range(r)]
        la.add_block(out, r0, c0, block, f)
        assert out == want
        assert all(type(x) is Fraction for row in out for x in row)


def test_fixed_space_of_permutation_and_reflection():
    swap = [[F(0), F(1), F(0)], [F(1), F(0), F(0)], [F(0), F(0), F(1)]]
    fixed = la.fixed_space([swap], 3)
    assert len(fixed) == 2
    assert all(la.matvec(swap, v) == v for v in fixed)
    assert la.fixed_space([swap, la.scale(la.identity(3), F(-1))], 3) == []
    assert la.fixed_space([], 2) == la.identity(2)
    assert la.fixed_space([la.zeros(0, 0)], 0) == []


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


def random_blocks(rng, k):
    """k unknown blocks (offset, rows, cols) packed back to back, some empty."""
    blocks, n = [], 0
    for _ in range(k):
        r, c = rng.randint(0, 3), rng.randint(0, 3)
        blocks.append((n, r, c))
        n += r * c
    return blocks, n


def pack(mats, n):
    v = [F(0)] * n
    off = 0
    for m in mats:
        for row in m:
            v[off: off + len(row)] = row
            off += len(row)
    return v


def test_read_block_inverts_packing():
    rng = random.Random(13)
    for _ in range(30):
        blocks, n = random_blocks(rng, rng.randint(1, 5))
        mats = [rand_matrix(rng, r, c) for _, r, c in blocks]
        v = pack(mats, n)
        assert len(v) == n
        for m, blk in zip(mats, blocks):
            assert la.read_block(v, blk) == m


def test_intertwiner_rows_match_dense_product():
    rng = random.Random(17)
    for trial in range(60):
        blocks, n = random_blocks(rng, rng.randint(1, 4))
        mats = [rand_matrix(rng, r, c) for _, r, c in blocks]
        v = pack(mats, n)
        d = rng.randrange(len(blocks))
        s = d if trial % 3 == 0 else rng.randrange(len(blocks))  # src = dst too
        (_, rd, cd), (_, rs, cs) = blocks[d], blocks[s]
        a = la.Matrix(rand_matrix(rng, cd, cs), cs)
        b = la.Matrix(rand_matrix(rng, rd, rs), rs)
        # X_dst·a = b·X_src, the equation of every Hom solve
        rows = la.equation_rows(n, dict(enumerate(blocks)), [(None, d, a)], [(b, s, None)])
        assert len(rows) == rd * cs
        assert all(len(row) == n for row in rows)
        Xd, Xs = mats[d], mats[s]
        want = [sum((Xd[i][t] * a[t][j] for t in range(cd)), F(0))
                - sum((b[i][t] * Xs[t][j] for t in range(rs)), F(0))
                for i in range(rd) for j in range(cs)]
        assert [dense_matvec([row], v)[0] for row in rows] == want


def test_intertwiner_rows_zero_size():
    def rows(n, dst, a, src, b):
        return la.equation_rows(n, {"d": dst, "s": src}, [(None, "d", a)], [(b, "s", None)])
    assert rows(4, (0, 0, 2), la.zeros(2, 2), (0, 0, 2), la.zeros(0, 0)) == []
    assert rows(4, (0, 2, 2), la.zeros(2, 0), (4, 0, 0), la.zeros(2, 0)) == []
    # X·a = b·X with a = b = 1 on a 1x1 block is the zero equation
    assert rows(1, (0, 1, 1), [[F(1)]], (0, 1, 1), [[F(1)]]) == [[F(0)]]


def test_matvec_checks_the_column_count_without_rows():
    assert la.matvec(la.zeros(0, 3), [F(1)] * 3) == []
    with pytest.raises(ValueError):
        la.matvec(la.zeros(0, 3), [F(1)])


def test_in_span_of_no_vectors_needs_no_elimination(monkeypatch):
    def no_rref(a):
        raise AssertionError("rref called")

    monkeypatch.setattr(la, "rref", no_rref)
    assert la.in_span([], [F(0), F(0)])
    assert not la.in_span([], [F(0), F(1)])
    assert la.in_span([], [])


def dense_rref(a, cols):
    """Dense Gauss–Jordan with whole-row updates: the reference for `la.rref`."""
    rows = len(a)
    m = [row[:] for row in a]
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def dense_solve(a, cols, b):
    red, piv = dense_rref([row + [x] for row, x in zip(a, b)], cols + 1)
    if cols in piv:
        return None
    x = [F(0)] * cols
    for p, row in zip(piv, red):
        x[p] = row[cols]
    return x


def oracle_matrices():
    """About 200 seeded rational matrices: empty shapes, zero and duplicate
    rows, rank-deficient products, densities from 5% to 100%."""
    rng = random.Random(20261019)
    out = [la.zeros(0, 0), la.zeros(0, 4), la.zeros(3, 0), la.zeros(4, 5),
           la.identity(5)]
    for k in range(200):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        density = (0.05, 0.1, 0.25, 0.5, 1.0)[k % 5]
        a = sparse_matrix(rng, r, c, density)
        if k % 4 == 1:  # rank-deficient: a product through a thin space
            t = rng.randint(1, max(1, min(r, c) - 1))
            left, right = rand_matrix(rng, r, t), sparse_matrix(rng, t, c, density)
            a = [[sum((x * right[s][j] for s, x in enumerate(row)), F(0))
                  for j in range(c)] for row in left]
        if k % 6 == 2:
            a[rng.randrange(r)] = [F(0)] * c
        if k % 6 == 3 and r > 1:
            a[rng.randrange(r)] = a[rng.randrange(r)][:]
        if k % 7 == 4:
            a.append([F(-x) for x in a[0]])  # a negated duplicate
        out.append(la.Matrix(a, c))
    return out


def test_rref_matches_dense_gauss_jordan():
    seen_rank_deficient = 0
    for a in oracle_matrices():
        rows, cols = la.shape(a)
        before = [row[:] for row in a]
        red, piv = la.rref(a)
        assert a == before and la.shape(a) == (rows, cols)  # input untouched
        want, want_piv = dense_rref(before, cols)
        assert piv == want_piv
        assert la.shape(red) == (rows, cols)
        assert red == want
        assert all(type(x) is Fraction for row in red for x in row)
        seen_rank_deficient += len(piv) < min(rows, cols)
    assert seen_rank_deficient >= 40


def test_nullspace_solve_and_in_span_agree_with_dense_reference():
    rng = random.Random(41)
    for a in oracle_matrices():
        rows, cols = la.shape(a)
        rk = len(dense_rref(a, cols)[1])
        null = la.nullspace(a)
        assert len(null) == cols - rk
        assert all(not any(dense_matvec(a, v)) for v in null)
        assert la.rank(la.Matrix(null, cols)) == len(null)
        # P of quotient_basis kills the row space and keeps the free coordinates
        comp, proj = la.quotient_basis([row[:] for row in a], cols)
        want_piv = dense_rref(a, cols)[1]
        assert comp == [j for j in range(cols) if j not in want_piv]
        assert la.shape(proj) == (len(comp), cols)
        assert all(not any(dense_matvec(proj, row)) for row in a)
        assert [[row[j] for j in comp] for row in proj] == la.identity(len(comp))
        for consistent in (True, False):
            x0 = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(cols)]
            b = dense_matvec(a, x0) if consistent else \
                [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)]
            x = la.solve(a, b)
            assert x == dense_solve(a, cols, b)
            if consistent:
                assert x is not None and dense_matvec(a, x) == b
        # in_span over the rows of a, of a row combination and of a random vector
        if rows and cols:
            combo = [sum((F(s) * row[j] for s, row in zip(range(1, rows + 1), a)), F(0))
                     for j in range(cols)]
            v = [F(rng.randint(-3, 3)) for _ in range(cols)]
            assert la.in_span([row[:] for row in a], combo)
            in_ref = dense_solve(la.from_columns(a, cols), rows, v) is not None
            assert la.in_span([row[:] for row in a], v) == in_ref


def test_intertwiner_rows_on_one_block_with_zero_heavy_maps():
    """dst == src, as in sheaf.hom_fin and hom_conv: X·a = b·X on one
    block, where an a term and a b term can land on the same unknown."""
    rng = random.Random(29)
    met = cancelled = 0
    for trial in range(80):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        off = rng.randint(0, 3)
        n = off + r * c + rng.randint(0, 2)
        blk = (off, r, c)
        a = sparse_matrix(rng, c, c, 0.3)
        b = sparse_matrix(rng, r, r, 0.3)
        i0, j0 = rng.randrange(r), rng.randrange(c)
        # a[j0][j0] and b[i0][i0] both meet at unknown X[i0][j0] of row (i0, j0);
        # every fourth trial they cancel there
        a[j0][j0] = F(rng.randint(1, 4), rng.randint(1, 3))
        b[i0][i0] = a[j0][j0] if trial % 4 == 0 else F(-rng.randint(1, 4), 3)
        rows = la.equation_rows(n, {"x": blk}, [(None, "x", la.Matrix(a, c))],
                                [(la.Matrix(b, r), "x", None)])
        assert la.shape(rows) == (r * c, n)
        assert all(type(x) is Fraction for row in rows for x in row)
        for i in range(r):
            for j in range(c):
                row = rows[i * c + j]
                for p in range(r):
                    for q in range(c):
                        want = (a[q][j] if p == i else 0) - (b[i][p] if q == j else 0)
                        assert row[off + p * c + q] == want
                assert not any(row[:off]) and not any(row[off + r * c:])
        both = rows[i0 * c + j0][off + i0 * c + j0]
        assert both == a[j0][j0] - b[i0][i0]
        met += 1
        cancelled += both == 0
        # the rows evaluate X·a − b·X on a random X
        X = rand_matrix(rng, r, c)
        v = [F(0)] * off + [x for row in X for x in row] + [F(0)] * (n - off - r * c)
        want = [sum((X[i][t] * a[t][j] for t in range(c)), F(0))
                - sum((b[i][t] * X[t][j] for t in range(r)), F(0))
                for i in range(r) for j in range(c)]
        assert [dense_matvec([row], v)[0] for row in rows] == want
    assert met == 80 and cancelled == 20


def test_solve_columns_matches_dense_solve_column_by_column():
    """`la.solve`, one row reduction of [a | b], on the seeded systems the
    several-column solve it replaced was checked on, column by column."""
    rng = random.Random(53)
    inconsistent = 0
    for a in oracle_matrices():
        rows, cols = la.shape(a)
        k = rng.randint(2, 4)
        bs = [dense_matvec(a, [F(rng.randint(-3, 3), rng.randint(1, 3))
                               for _ in range(cols)]) for _ in range(k)]
        for b in bs:
            x = la.solve(a, b)
            assert len(x) == cols
            assert all(type(v) is Fraction for v in x)
            assert x == dense_solve(a, cols, b)
        bad = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)]
        if dense_solve(a, cols, bad) is None:
            inconsistent += 1
            assert la.solve(a, bad) is None
    assert inconsistent >= 40


def test_solve_columns_without_rows_or_columns():
    assert la.solve(la.zeros(0, 3), []) == [F(0)] * 3
    assert la.solve(la.zeros(2, 0), [F(0), F(0)]) == []
    assert la.solve(la.zeros(2, 0), [F(0), F(1)]) is None
    assert la.solve(la.zeros(0, 0), []) == []
    with pytest.raises(ValueError):
        la.solve(la.identity(2), [F(1)])


def last_nonzero(v):
    return max((j for j, x in enumerate(v) if x), default=None)


def test_nullspace_has_unit_columns():
    """On the dense-reference battery: null vector k is 1 at its last nonzero
    entry, a free column of the reduced form, and every other null vector is
    0 there; so is every fixed-space basis."""
    for a in oracle_matrices():
        cols = la.shape(a)[1]
        null = la.nullspace(a)
        free = [last_nonzero(v) for v in null]
        pivots = dense_rref(a, cols)[1]
        assert free == [j for j in range(cols) if j not in pivots]
        assert all(v[f] == 1 for v, f in zip(null, free))
        assert all(not w[f] for k, f in enumerate(free) for i, w in enumerate(null) if i != k)
        if la.shape(a)[0] == cols:
            la.UnitColumnBasis(la.fixed_space([a], cols), cols)  # raises if not


def span_and_outside(rng, basis, n, k):
    """k random vectors of span(basis), then k random vectors of Q^n."""
    inside = [[sum((F(c) * v[i] for c, v in zip(coeffs, basis)), F(0)) for i in range(n)]
              for coeffs in ([rng.randint(-3, 3) for _ in basis] for _ in range(k))]
    return inside, [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(k)]


def test_unit_column_coordinates_match_solve_columns_on_null_bases():
    rng = random.Random(61)
    outside = 0
    for a in oracle_matrices():
        n = la.shape(a)[1]
        basis = la.nullspace(a)
        reader = la.UnitColumnBasis(basis, n)
        inside, anywhere = span_and_outside(rng, basis, n, rng.randint(1, 4))
        for ws in (inside, anywhere, inside + anywhere[:1], []):
            want = solve_each(la.from_columns(basis, n), ws)
            got = reader.coordinates(ws)
            assert got == want
            assert got is None or la.shape(got) == (len(basis), len(ws))
        assert reader.coordinates(inside) is not None
        outside += reader.coordinates(anywhere) is None
    assert outside >= 100


def test_unit_column_basis_rejects_a_vector_that_agrees_at_the_free_columns_only():
    """w agrees with a vector of the span at every free column but not at
    one other row: its entries there would be the right coordinates, so only
    the check at the other rows rejects it."""
    rng = random.Random(67)
    rejected = 0
    for a in oracle_matrices():
        n = la.shape(a)[1]
        basis = la.nullspace(a)
        reader = la.UnitColumnBasis(basis, n)
        if not reader.rest:
            continue
        w = span_and_outside(rng, basis, n, 1)[0][0]
        assert reader.coordinates([w]) is not None
        w[rng.choice(reader.rest)] += 1
        assert reader.coordinates([w]) is None
        assert solve_each(la.from_columns(basis, n), [w]) is None
        rejected += 1
    assert rejected >= 100


def test_unit_column_basis_rejects_a_basis_without_unit_columns():
    one, two, zero = F(1), F(2), F(0)
    for basis in ([[one, two]],  # 2 at its last nonzero entry
                  [[zero, zero]],  # no nonzero entry
                  [[one, zero], [one, one]],  # vector 2 is 1 at column 0
                  [[zero, one], [one, one]],  # the same free column twice
                  [[one]]):  # not of length 2
        with pytest.raises(ValueError):
            la.UnitColumnBasis(basis, 2)
    reader = la.UnitColumnBasis([[two, one]], 2)
    assert reader.free == [1] and reader.rest == [0]
    with pytest.raises(ValueError):
        reader.coordinates([[one]])
    assert la.UnitColumnBasis([], 3).coordinates([[zero] * 3]) == la.zeros(0, 1)


def test_intertwiners_with_no_unknowns():
    assert la.intertwiners({}, []) == []
    shapes = {"x": (0, 3), "y": (2, 0)}
    assert la.intertwiners(shapes, [([(None, "x", la.zeros(3, 3))],
                                     [(la.zeros(0, 0), "x", None)])]) == []


def random_term(rng, blocks, p, q):
    """A term (left, key, right) of product shape p x q, None where it fits."""
    key = rng.randrange(len(blocks))
    _, r, c = blocks[key]
    left = None if r == p and rng.random() < 0.5 else la.Matrix(
        [[rng.randint(-2, 2) for _ in range(r)] for _ in range(p)], r)
    right = None if c == q and rng.random() < 0.5 else la.Matrix(
        [[rng.randint(-2, 2) for _ in range(q)] for _ in range(c)], q)
    return left, key, right


def term_value(term, mats, q):
    left, key, right = term
    X = mats[key]
    if left is not None:
        X = dense_matmul(left, X, la.shape(X)[1])
    if right is not None:
        X = dense_matmul(X, right, q)
    return X


def dense_matmul(a, b, cols):
    return la.Matrix([[sum((x * b[t][j] for t, x in enumerate(row)), F(0))
                       for j in range(cols)] for row in a], cols)


def test_equation_rows_match_dense_sums_of_terms():
    """Σ left·X·right over lhs = the same over rhs, with one to three terms a
    side, identities and integer entries: each row evaluates its product entry
    of Σ lhs − Σ rhs on a packed X, in Fraction."""
    rng = random.Random(31)
    kinds = set()
    for _ in range(150):
        blocks, n = random_blocks(rng, rng.randint(1, 4))
        mats = [la.Matrix(rand_matrix(rng, r, c), c) for _, r, c in blocks]
        p, q = rng.randint(0, 3), rng.randint(0, 3)
        lhs = [random_term(rng, blocks, p, q) for _ in range(rng.randint(1, 3))]
        rhs = [random_term(rng, blocks, p, q) for _ in range(rng.randint(0, 3))]
        kinds |= {(left is None, right is None) for left, _, right in lhs + rhs}
        rows = la.equation_rows(n, dict(enumerate(blocks)), lhs, rhs)
        assert la.shape(rows) == (p * q, n)
        assert all(type(x) is Fraction for row in rows for x in row)
        want = [[F(0)] * q for _ in range(p)]
        for sign, side in ((1, lhs), (-1, rhs)):
            for term in side:
                val = term_value(term, mats, q)
                for i in range(p):
                    for j in range(q):
                        want[i][j] += sign * val[i][j]
        v = pack(mats, n)
        assert [dense_matvec([row], v)[0] for row in rows] == [x for row in want for x in row]
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_equation_terms_must_agree_on_the_product_shape():
    blocks = {"x": (0, 2, 3), "y": (6, 3, 3)}
    with pytest.raises(ValueError, match="shapes"):  # 2 x 3 against 3 x 3
        la.equation_rows(9, blocks, [(None, "x", None)], [(None, "y", None)])
    with pytest.raises(ValueError, match="shapes"):  # 2 x 3 against 2 x 2
        la.equation_rows(9, blocks, [(None, "x", None)],
                         [(la.zeros(2, 3), "y", la.zeros(3, 2))])
    with pytest.raises(ValueError, match="fit"):  # a 2 x 2 right factor of a 2 x 3
        la.equation_rows(9, blocks, [(None, "x", la.identity(2))], [])
    with pytest.raises(ValueError, match="fit"):  # a 2 x 2 left factor of a 3 x 3
        la.intertwiners({"x": (2, 3), "y": (3, 3)},
                        [([(None, "x", None)], [(la.identity(2), "y", None)])])
    with pytest.raises(ValueError, match="term"):
        la.equation_rows(9, blocks, [], [])
