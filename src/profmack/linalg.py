"""Exact rational linear algebra over fractions.Fraction.

Matrices are lists of rows; rows are lists of Fraction.  Everything here is
tolerance-free: dimensions in this package are integers and stay integers.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]

Q0 = Fraction(0)
Q1 = Fraction(1)


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(rows: int, cols: int) -> Matrix:
    return [[Q0] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q1
    return m


def shape(a: Matrix) -> tuple[int, int]:
    return (len(a), len(a[0]) if a else 0)


def copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ra == 0:
        return []
    if ca != rb:
        raise ValueError(f"matmul shape mismatch {shape(a)} x {shape(b)}")
    out = zeros(ra, cb)
    for i in range(ra):
        ai = a[i]
        oi = out[i]
        for k in range(ca):
            v = ai[k]
            if v:
                bk = b[k]
                for j in range(cb):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    if a and len(a[0]) != len(v):
        raise ValueError(f"matvec shape mismatch {shape(a)} x {len(v)}")
    # matrices on the Ext path are about 10% nonzero: multiply only where
    # both factors are nonzero
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nz if row[j]), Q0) for row in a]


def add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a: Matrix, c: Fraction) -> Matrix:
    return [[c * x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    r, c = shape(a)
    return [[a[i][j] for i in range(r)] for j in range(c)]


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


def same_map(a: Matrix, b: Matrix) -> bool:
    """Equality of two matrices of the same linear map, or both zero.

    A matrix with no rows loses its column count, so maps into or out of a
    zero space are stored with degenerate shapes; two all-zero matrices
    between the same spaces are the same map.
    """
    return (is_zero(a) and is_zero(b)) or eq(a, b)


def vstack(blocks: list[Matrix]) -> Matrix:
    out: Matrix = []
    for b in blocks:
        out.extend(copy(b))
    return out


Block = tuple[int, int, int]  # (offset, rows, cols) of an unknown matrix


def intertwiner_rows(n: int, dst: Block, a: Matrix, src: Block,
                     b: Matrix) -> Matrix:
    """Rows over Q^n of the equation X_dst·a − b·X_src = 0.

    X_dst and X_src are unknown matrices packed row-major into Q^n at their
    blocks (they may be the same block); a maps into X_dst's source space and
    b out of X_src's target space.  One row per entry (i, j) of the product.
    """
    od, rd, cd = dst
    os_, rs, cs = src
    rows = []
    for i in range(rd):
        for j in range(cs):
            row = [Q0] * n
            for t in range(cd):
                row[od + i * cd + t] += a[t][j]
            for t in range(rs):
                row[os_ + t * cs + j] -= b[i][t]
            rows.append(row)
    return rows


def read_block(v: Vector, block: Block) -> Matrix:
    """The matrix packed row-major at `block` of the vector v."""
    off, r, c = block
    return [v[off + i * c: off + (i + 1) * c] for i in range(r)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = copy(a)
    rows, cols = shape(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Q1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Matrix, n: int) -> list[Vector]:
    """Basis of the right null space {v in Q^n : a v = 0}.

    ``n`` is the number of unknowns, so ``a`` may have no rows.
    """
    if any(len(row) != n for row in a):
        raise ValueError(f"nullspace row length differs from {n} unknowns")
    red, pivots = rref(a)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [Q0] * n
        v[f] = Q1
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, or None if inconsistent."""
    rows, cols = shape(a)
    if rows != len(b):
        raise ValueError("solve shape mismatch")
    aug = [a[i][:] + [b[i]] for i in range(rows)] if rows else []
    if not aug:
        return [Q0] * cols
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Q0] * cols
    for r, p in enumerate(pivots):
        x[p] = red[r][cols]
    return x


def in_span(vectors: list[Vector], v: Vector) -> bool:
    """True iff v lies in the span of the given vectors."""
    if not vectors:
        return all(not x for x in v)
    a = transpose(vectors)
    return solve(a, v) is not None


def quotient_basis(sub: list[Vector], dim: int) -> tuple[list[int], Matrix]:
    """Coordinates for V/span(sub) where V = Q^dim.

    Returns (complement coordinate indices, projection matrix P) with P of
    shape (len(complement), dim) such that P maps v to the coordinates of
    its class in the chosen complement basis.
    """
    if not sub:
        return list(range(dim)), identity(dim)
    red, piv = rref(sub)  # row space of sub
    comp = [j for j in range(dim) if j not in piv]
    # projection: subtract the unique span element matching pivot coords
    # For v in Q^dim, class coords: v_comp - R v_piv with R from rref rows.
    proj = zeros(len(comp), dim)
    for ci, j in enumerate(comp):
        proj[ci][j] = Q1
        for r, p in enumerate(piv):
            proj[ci][p] = -red[r][j]
    return comp, proj
