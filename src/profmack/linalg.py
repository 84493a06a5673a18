"""Exact rational linear algebra over fractions.Fraction.

Matrices are lists of rows that also record their column count (`Matrix`),
so a matrix with no rows keeps its shape: a map into or out of the zero
space is a true 0 x n or n x 0 matrix, and every operation here that returns
a matrix returns one of the right shape.  Rows are lists of Fraction.  A
plain list of rows is accepted as input, and one without rows is 0 x 0.
Everything here is tolerance-free: dimensions in this package are integers
and stay integers.

Every Hom solve of the package is one `intertwiners(shapes, equations)`
call: the unknowns are matrices X_key of the given shapes, and an equation
is a pair (lhs, rhs) of term lists read as Σ left·X_key·right over lhs =
the same sum over rhs, None standing for an identity factor.
`equation_rows` writes its rows, one per entry of the product.

Matrices go in and come out dense.  Elimination (`rref`, and through it
`rank`, `nullspace`, `solve`, `in_span`, `quotient_basis`
and `intertwiners`) works on sparse rows inside the function, because the
equation systems it meets are mostly zero.  Coordinates in a null basis
need none (`UnitColumnBasis`).
"""

from __future__ import annotations

from fractions import Fraction

Vector = list[Fraction]

Q0 = Fraction(0)
Q1 = Fraction(1)


class Matrix(list):
    """A list of rows whose column count is `cols`, also with no rows.

    CPython indexes a list subclass more slowly than a plain list, so the
    hot loops below iterate over rows or index a plain list.
    """

    __slots__ = ("cols",)

    def __init__(self, rows, cols: int):
        list.__init__(self, rows)
        self.cols = cols


def frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix([[Q0] * cols for _ in range(rows)], cols)


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Q1
    return m


def from_columns(vectors: list[Vector], rows: int) -> Matrix:
    """The rows x len(vectors) matrix whose columns are the given vectors."""
    return Matrix([[v[i] for v in vectors] for i in range(rows)], len(vectors))


def shape(a: Matrix) -> tuple[int, int]:
    """(rows, columns) of a Matrix, or of a plain list of rows (0 x 0 if empty)."""
    return len(a), a.cols if type(a) is Matrix else len(a[0]) if a else 0


def matmul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"matmul shape mismatch {shape(a)} x {shape(b)}")
    out = zeros(ra, cb)
    for ai, oi in zip(a, out):
        for v, bk in zip(ai, b):
            if v:
                for j in range(cb):
                    if bk[j]:
                        oi[j] += v * bk[j]
    return out


def matvec(a: Matrix, v: Vector) -> Vector:
    # a plain list without rows records no column count
    if (a or type(a) is Matrix) and shape(a)[1] != len(v):
        raise ValueError(f"matvec shape mismatch {shape(a)} x {len(v)}")
    # matrices on the Ext path are about 10% nonzero: multiply only where
    # both factors are nonzero
    nz = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nz if row[j]), Q0) for row in a]


def add(a: Matrix, b: Matrix) -> Matrix:
    sa, sb = shape(a), shape(b)
    if sa != sb:
        raise ValueError(f"add shape mismatch {sa} + {sb}")
    return Matrix([[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)], sa[1])


def scale(a: Matrix, c: Fraction) -> Matrix:
    return Matrix([[c * x for x in row] for row in a], shape(a)[1])


def add_block(out: Matrix, r0: int, c0: int, block: Matrix, f: Fraction = Q1) -> None:
    """out[r0 + i][c0 + j] += f * block[i][j] over the nonzero block entries."""
    scaled = f != 1  # most blocks are added unscaled: skip a Fraction product
    for i, brow in enumerate(block):
        orow = out[r0 + i]
        for j, x in enumerate(brow):
            if x:
                orow[c0 + j] += x * f if scaled else x


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def eq(a: Matrix, b: Matrix) -> bool:
    return shape(a) == shape(b) and all(
        x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb)
    )


Block = tuple[int, int, int]  # (offset, rows, cols) of an unknown matrix


def equation_rows(n: int, blocks: dict, lhs, rhs) -> Matrix:
    """Rows over Q^n of Σ lhs = Σ rhs, one per product entry: a term
    (left, key, right) is left·X_key·right, X_key packed row-major at
    blocks[key] and None standing for an identity factor.  Factors that do
    not fit X_key, or terms of different product shapes, raise ValueError."""
    shape_, terms = None, []
    for neg, side in ((False, lhs), (True, rhs)):
        for left, key, right in side:
            off, r, c = blocks[key]
            if left is not None and shape(left)[1] != r or right is not None and len(right) != c:
                raise ValueError(f"factors of {key!r} do not fit its {r} x {c} shape")
            p, q = r if left is None else len(left), c if right is None else shape(right)[1]
            if shape_ != (p, q):
                if shape_ is not None:
                    raise ValueError(f"equation terms of shapes {shape_} and {(p, q)}")
                shape_ = p, q
            # X[s][t] is unknown off + s·c + t; a term writes (column,
            # coefficient) cells over the nonzero factor entries only, with
            # no product where a factor is an identity
            if left is None:
                right = identity(c) if right is None else right
                cols = [[(off + t, -frac(rt[j]) if neg else frac(rt[j]))
                         for t, rt in enumerate(right) if rt[j]] for j in range(q)]
                terms.append(("col", cols, c))
                continue
            lrows = [[(off + s * c, -frac(x) if neg else frac(x)) for s, x in enumerate(li) if x]
                     for li in left]
            if right is None:
                terms.append(("row", lrows, None))
                continue
            cols = [[(t, frac(rt[j])) for t, rt in enumerate(right) if rt[j]] for j in range(q)]
            terms.append(("cell", [[[(k + t, x * y) for k, x in lrow for t, y in col]
                                    for col in cols] for lrow in lrows], None))
    if shape_ is None:
        raise ValueError("an equation needs at least one term")
    rows = Matrix([], n)
    for i in range(shape_[0]):
        for j in range(shape_[1]):
            row = [Q0] * n
            for by, table, c in terms:
                if by == "col":  # left = I: column j of right, at row i of X
                    cells, shift = table[j], i * c
                elif by == "row":  # right = I: row i of left, at column j of X
                    cells, shift = table[i], j
                else:
                    cells, shift = table[i][j], 0
                for k, x in cells:
                    k += shift
                    row[k] = x if row[k] is Q0 else row[k] + x
            rows.append(row)
    return rows


def read_block(v: Vector, block: Block) -> Matrix:
    """The matrix packed row-major at `block` of the vector v."""
    off, r, c = block
    return Matrix([v[off + i * c: off + (i + 1) * c] for i in range(r)], c)


def intertwiners(shapes: dict, equations) -> list[dict]:
    """Basis of the solutions {key: X_key} of the equations (lhs, rhs), each
    read as Σ lhs = Σ rhs over terms left·X_key·right (`equation_rows`).

    shapes maps each key to the (rows, cols) of X_key.  The unknowns are
    packed row-major into one vector, a block per key in shapes order; every
    null vector is read back as one matrix per key.  With no unknowns at all
    the basis is empty.
    """
    blocks, n = {}, 0
    for key, (r, c) in shapes.items():
        blocks[key] = (n, r, c)
        n += r * c
    if n == 0:
        return []
    rows = Matrix([], n)
    for lhs, rhs in equations:
        rows += equation_rows(n, blocks, lhs, rhs)
    return [{key: read_block(v, blk) for key, blk in blocks.items()}
            for v in nullspace(rows)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns.

    Sparse Gauss–Jordan on {column: Fraction} rows: each incoming row is
    reduced by the pivots it has, and a nonzero remainder, normalised at its
    leading column, clears that column from the other pivot rows.  The form
    is unique, so the dense result equals that of dense elimination.
    """
    rows, cols = shape(a)
    piv: dict[int, dict[int, Fraction]] = {}  # pivot column -> its row
    for dense in a:
        r = {j: x for j, x in enumerate(dense) if x}
        for p in [j for j in r if j in piv]:  # piv[p] is 0 at the other pivots
            _sub_into(r, r[p], piv[p])
        if r:
            c = min(r)
            inv = Q1 / r[c]
            r = {j: x * inv for j, x in r.items()}
            for q in piv.values():
                if c in q:
                    _sub_into(q, q[c], r)
            piv[c] = r
    pivots = sorted(piv)
    m = zeros(rows, cols)  # pivot rows in column order, then zero rows
    for out, p in zip(m, pivots):
        for j, x in piv[p].items():
            out[j] = x
    return m, pivots


def _sub_into(r: dict[int, Fraction], f: Fraction, p: dict[int, Fraction]) -> None:
    """r -= f·p on sparse rows, dropping the entries that cancel."""
    for j, y in p.items():
        x = r[j] - f * y if j in r else -f * y
        if x:
            r[j] = x
        else:
            del r[j]


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of the right null space {v : a v = 0}, one vector per free column.

    Unit columns: vector k is 1 at its free column f_k, which is its last
    nonzero entry, and every other vector is 0 at f_k (`UnitColumnBasis`)."""
    n = shape(a)[1]
    if any(len(row) != n for row in a):
        raise ValueError(f"nullspace row length differs from {n} columns")
    return _null_basis(a, n)[1]


def _null_basis(a: Matrix, n: int) -> tuple[list[int], list[Vector]]:
    """The free columns f of rref(a), each with the null vector that is 1 at f
    and 0 at the other free columns."""
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Q0] * n
        v[f] = Q1
        for p, row in zip(pivots, red):
            v[p] = -row[f]
        basis.append(v)
    return free, basis


def fixed_space(mats: list[Matrix], n: int) -> list[Vector]:
    """Basis of the vectors of Q^n fixed by every n x n matrix in mats."""
    return nullspace(Matrix([[x - Q1 if i == j else x for j, x in enumerate(row)]
                             for m in mats for i, row in enumerate(m)], n))


class UnitColumnBasis:
    """Coordinates in a basis of vectors in Q^n with unit columns, as
    `nullspace` and `fixed_space` return: vector k is 1 at its last nonzero
    entry f_k, and every other vector is 0 at f_k.

    The coordinates of w in such a basis are its entries at the free columns
    f_k, and w lies in the span exactly when the basis read at the other
    rows, times those coordinates, equals w there.  The free columns, the
    other rows and that sub-matrix are found once here; `coordinates` then
    costs one `matvec` per vector, with no elimination.  A basis without
    the unit-column property raises ValueError.
    """

    __slots__ = ("n", "free", "rest", "sub")

    def __init__(self, basis: list[Vector], n: int):
        free = []
        for v in basis:
            if len(v) != n:
                raise ValueError(f"basis vector of length {len(v)} in Q^{n}")
            f = next((j for j in range(n - 1, -1, -1) if v[j]), None)
            if f is None or v[f] != 1:
                raise ValueError("basis vector is not 1 at its last nonzero entry")
            free.append(f)
        for k, f in enumerate(free):
            if any(v[f] for i, v in enumerate(basis) if i != k):
                raise ValueError(f"free column {f} is nonzero in another basis vector")
        at_free = set(free)
        self.n, self.free = n, free
        self.rest = [i for i in range(n) if i not in at_free]
        self.sub = Matrix([[v[i] for v in basis] for i in self.rest], len(basis))

    def coordinates(self, ws: list[Vector]) -> Matrix | None:
        """The len(basis) x len(ws) matrix whose column j is the coordinate
        vector of ws[j], or None if some ws[j] is outside the span."""
        cols = []
        for w in ws:
            if len(w) != self.n:
                raise ValueError(f"vector of length {len(w)} in Q^{self.n}")
            c = [w[f] for f in self.free]
            if matvec(self.sub, c) != [w[i] for i in self.rest]:
                return None
            cols.append(c)
        return from_columns(cols, len(self.free))


def solve(a: Matrix, b: Vector) -> Vector | None:
    """One solution of a x = b, free unknowns 0, or None if b is not in the
    column space of a.

    One row reduction of [a | b]: a pivot in the last column marks an
    inconsistent system.
    """
    rows, cols = shape(a)
    if len(b) != rows:
        raise ValueError("solve shape mismatch")
    red, pivots = rref(Matrix([row + [b[r]] for r, row in enumerate(a)], cols + 1))
    if pivots and pivots[-1] == cols:
        return None
    x = [Q0] * cols
    for p, row in zip(pivots, red):
        x[p] = row[cols]
    return x


def in_span(vectors: list[Vector], v: Vector) -> bool:
    """True iff v lies in the span of the given vectors."""
    if not vectors:  # the span of nothing is {0}
        return not any(v)
    return solve(from_columns(vectors, len(v)), v) is not None


def quotient_basis(sub: list[Vector], dim: int) -> tuple[list[int], Matrix]:
    """Coordinates for V/span(sub) where V = Q^dim.

    Returns (complement coordinate indices, projection matrix P) with P of
    shape (len(complement), dim) such that P maps v to the coordinates of
    its class in the chosen complement basis.
    """
    # P kills span(sub) and keeps the free coordinates: its rows are the null
    # vectors of sub, one per free column j, each 1 at j and 0 at the others
    comp, proj = _null_basis(Matrix(sub, dim), dim)
    return comp, Matrix(proj, dim)
