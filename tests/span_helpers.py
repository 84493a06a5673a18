"""Span and G-set helpers that only the tests use: the empty G-set,
disjoint unions, identity spans, sums of parallel spans, span equivalence,
relabelled groups, the general span action of a Mackey functor, kept as
the reference for ``mackey._class_action``, and the span-functor view of a
Mackey functor with its inverse, whose round trip checks representables."""

from dataclasses import dataclass
from fractions import Fraction

from profmack import linalg as la
from profmack.burnside import Component, Span, decompose_span, span_compose
from profmack.groups import (FiniteGroup, Subgroup, TableGroup, all_subgroups,
                             class_rep_of, conjugate_subgroup)
from profmack.gsets import FiniteGSet
from profmack.mackey import (AxiomViolation, MackeyFunctorQ, _build_mackey, _class_action,
                             _one_leg_span, _RepTools, _structure_span, check_axioms)


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
            M.ind[Sb, Lh],
            la.matmul(
                M.conj[G.inv(h), L],
                la.matmul(M.res[Sag, L], M.conj[g, Sa]),
            ),
        )
        la.add_block(out, VB.offsets[ib], VA.offsets[ia], block)
    return out


# span-functor view: the values of M on all transitive span classes between
# class representatives, and M rebuilt from them


@dataclass
class SpanFunctorQ:
    group: FiniteGroup
    dims: dict[Subgroup, int]  # on class representatives
    mats: dict[tuple[Subgroup, Subgroup, Component], la.Matrix]

    def mat(self, H, K, c):
        return self.mats[(H, K, c)]


def to_span_functor(M: MackeyFunctorQ, tools: _RepTools | None = None) -> SpanFunctorQ:
    """Values of M on all transitive span classes between class reps."""
    if check_axioms(M):
        raise AxiomViolation(f"{M.name} violates the Mackey axioms")
    G = M.group
    tools = tools or _RepTools(G)
    reps = tools.class_reps
    mats = {}
    for H in reps:
        for K in reps:
            for c in tools.basis(H, K):
                mats[(H, K, c)] = _class_action(M, H, K, c)
    return SpanFunctorQ(G, {H: M.dim(H) for H in reps}, mats)


def from_span_functor(F: SpanFunctorQ) -> MackeyFunctorQ:
    """Rebuild a Mackey functor (on all subgroups) from span-class matrices."""
    G = F.group
    subs = all_subgroups(G)
    rep_for = class_rep_of(G)
    transporter = {H: min(g for g in G.elements() if conjugate_subgroup(rep_for[H], g) == H)
                   for H in subs}
    dims = {H: F.dims[rep_for[H]] for H in subs}

    def span_between(kind, key, src, dst) -> la.Matrix:
        """Matrix of F on the structure span O_src -> O_dst, conjugated
        into class-representative coordinates."""
        A0, B0 = rep_for[src], rep_for[dst]
        # iso O_A0 -> O_src, then the map, then iso O_dst -> O_B0; compose
        # as actual spans and decompose.
        s1 = _one_leg_span(G, A0, src, G.inv(transporter[src]))
        s2 = _structure_span(G, kind, key, src, dst)
        s3 = _one_leg_span(G, dst, B0, transporter[dst])
        s = span_compose(span_compose(s1, s2), s3)
        total = la.zeros(F.dims[B0], F.dims[A0])
        for comp, mult in decompose_span(s).items():
            total = la.add(total, la.scale(F.mat(A0, B0, comp), Fraction(mult)))
        return total

    return _build_mackey(G, dims, span_between, "from_span")
