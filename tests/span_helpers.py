"""Span and G-set helpers that only the tests use: the empty G-set,
disjoint unions, identity spans, sums of parallel spans, span equivalence,
relabelled groups, and the general span action of a Mackey functor, kept as
the reference for ``mackey._class_action``."""

from dataclasses import dataclass

from profmack import linalg as la
from profmack.burnside import Span
from profmack.groups import FiniteGroup, Subgroup, TableGroup, conjugate_subgroup
from profmack.gsets import FiniteGSet
from profmack.mackey import MackeyFunctorQ


def empty_gset(G: FiniteGroup) -> FiniteGSet:
    return FiniteGSet(G, tuple(() for _ in range(G.order)), label="empty")


def disjoint_union(*sets: FiniteGSet) -> FiniteGSet:
    G = sets[0].group
    assert all(s.group is G for s in sets)
    act = []
    for g in G.elements():
        row: list[int] = []
        offset = 0
        for s in sets:
            row.extend(s.act[g][x] + offset for x in range(s.size))
            offset += s.size
        act.append(tuple(row))
    return FiniteGSet(G, tuple(act), label="+".join(s.label for s in sets))


def span_equivalent(s: Span, t: Span) -> bool:
    return (
        s.left_foot is t.left_foot
        and s.right_foot is t.right_foot
        and s.canonical() == t.canonical()
    )


def identity_span(A: FiniteGSet) -> Span:
    ident = tuple(range(A.size))
    return Span(A, A, A, ident, ident)


def span_add(s: Span, t: Span) -> Span:
    """Sum of parallel spans: disjoint-union apex."""
    assert s.left_foot is t.left_foot and s.right_foot is t.right_foot
    apex = disjoint_union(s.apex, t.apex)
    left = s.left + t.left
    right = s.right + t.right
    return Span(s.left_foot, s.right_foot, apex, left, right)


def relabelled(G: FiniteGroup, shift: int) -> TableGroup:
    """G as a TableGroup with element a renamed (a + shift) % |G|."""
    n = G.order
    mult = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mult[(a + shift) % n][(b + shift) % n] = (G.mul(a, b) + shift) % n
    return TableGroup(mult, label=f"{G.label}+{shift}")


@dataclass
class GSetValue:
    """M evaluated on a G-set: one summand M(stab basepoint) per orbit, the
    basepoint being the orbit's least point."""

    orbit_of: list[int]
    stabs: list[Subgroup]
    transporter: list[int]  # least g with point = g . basepoint(orbit)
    offsets: list[int]
    dim: int


def value_on_gset(M: MackeyFunctorQ, A: FiniteGSet) -> GSetValue:
    orbit_of = [0] * A.size
    transporter = [M.group.identity] * A.size
    stabs, offsets = [], []
    off = 0
    for i, (orbit, stab, t) in enumerate(A.orbit_scan()):
        stabs.append(stab)
        offsets.append(off)
        off += M.dim(stab)
        for x in orbit:
            orbit_of[x] = i
            transporter[x] = t[x]
    return GSetValue(orbit_of, stabs, transporter, offsets, off)


def span_action_matrix(M: MackeyFunctorQ, s: Span) -> la.Matrix:
    """The linear map M(left foot) -> M(right foot) induced by the span."""
    G = M.group
    VA = value_on_gset(M, s.left_foot)
    VB = value_on_gset(M, s.right_foot)
    out = la.zeros(VB.dim, VA.dim)
    for orbit, L, _ in s.apex.orbit_scan():
        w = orbit[0]
        a, b = s.left[w], s.right[w]
        ia, ib = VA.orbit_of[a], VB.orbit_of[b]
        Sa, Sb = VA.stabs[ia], VB.stabs[ib]
        g, h = VA.transporter[a], VB.transporter[b]
        Sag = conjugate_subgroup(Sa, g)  # = Stab(a) ⊇ L
        Lh = conjugate_subgroup(L, G.inv(h))  # ⊆ Sb
        block = la.matmul(
            M.ind_mat(Sb, Lh),
            la.matmul(
                M.conj_mat(G.inv(h), L),
                la.matmul(M.res_mat(Sag, L), M.conj_mat(g, Sa)),
            ),
        )
        la.add_block(out, VB.offsets[ib], VA.offsets[ia], block)
    return out
