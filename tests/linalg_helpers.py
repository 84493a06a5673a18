"""Linear-algebra helpers that only the tests use: several right-hand sides
solved one column at a time, the reference for coordinate reads."""

from profmack import linalg as la


def solve_each(a, bs):
    """The matrix whose column j is `la.solve(a, bs[j])`, with as many rows
    as a has columns, or None if some bs[j] is not in the column space of a."""
    xs = [la.solve(a, b) for b in bs]
    return None if None in xs else la.from_columns(xs, la.shape(a)[1])
