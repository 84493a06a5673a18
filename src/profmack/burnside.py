"""Spans of finite G-sets, the Burnside category and ring, tables of marks.

Span equivalence classes are decided by a complete invariant: decompose the
apex into orbits and record, per orbit, the minimum over its points x of
(stabilizer elements, left image, right image).  Two spans over the same
feet are equivalent iff these component multisets agree, because an
equivariant isomorphism over the feet exists exactly when components can be
matched with equal basepoint data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    all_subgroups,
    conjugate_subgroup,
    generators,
    subgroup_conjugacy_classes,
)
from .gsets import (
    FiniteGSet,
    coset_orbit,
    inflate_gset,
    orbit_decompose,
    product_gset,
    transitive_gset,
)

# a component invariant: (stabilizer element tuple, left image, right image)
Component = tuple[tuple[int, ...], int, int]
# canonical form of a span over fixed feet: sorted tuple of components
CanonicalSpan = tuple[Component, ...]


class MiddleMismatch(Exception):
    """Span composition with non-matching middle objects."""


@dataclass
class Span:
    """A span left_foot <- apex -> right_foot of equivariant maps.

    Construction checks each leg exactly at |apex|·(1 + |gens|) cost: it maps
    the apex into its foot, and leg(s·x) == s·leg(x) for every generator s
    of ``generators(G)`` and every x.  Apex and feet are valid actions, so
    this gives leg(g·x) == g·leg(x) for every g by induction on word length.
    """

    left_foot: FiniteGSet
    right_foot: FiniteGSet
    apex: FiniteGSet
    left: tuple[int, ...]
    right: tuple[int, ...]

    def __post_init__(self):
        self.left = tuple(self.left)
        self.right = tuple(self.right)
        apex = self.apex
        gens = generators(apex.group)
        for table, foot in ((self.left, self.left_foot), (self.right, self.right_foot)):
            if len(table) != apex.size:
                raise ValueError("leg table has wrong length")
            if table and (min(table) < 0 or max(table) >= foot.size):
                raise ValueError("span leg leaves its foot")
            for s in gens:
                foot_s = foot.act[s]
                if (tuple(map(table.__getitem__, apex.act[s]))
                        != tuple(map(foot_s.__getitem__, table))):
                    raise ValueError("span leg is not equivariant")

    def canonical(self) -> CanonicalSpan:
        comps = decompose_span(self)
        return tuple(c for c in sorted(comps) for _ in range(comps[c]))

    def dual(self) -> "Span":
        # the legs were checked when this span was built and swapping them
        # keeps them equivariant, so the copy skips __post_init__
        d = copy.copy(self)
        d.left_foot, d.right_foot = self.right_foot, self.left_foot
        d.left, d.right = self.right, self.left
        return d


def span_compose(s1: Span, s2: Span) -> Span:
    """Composite s2 o s1 (s1: A -> B, s2: B -> C) via the pullback apex.

    The pullback's points are the pairs (m1, m2) of apex points over the same
    middle point, numbered with m1 then m2 ascending.  When s2's apex is its
    left foot B and its left leg the identity, pair m1 is (m1, s1.right[m1])
    and has number m1: the pullback is s1's apex point for point, so it is
    reused and only the right leg s2.right ∘ s1.right is new.
    """
    if s1.right_foot is not s2.left_foot:
        raise MiddleMismatch("middle objects differ")
    if s2.apex is s2.left_foot and s2.left == tuple(range(s2.apex.size)):
        return Span(s1.left_foot, s2.right_foot, s1.apex, s1.left,
                    tuple(map(s2.right.__getitem__, s1.right)))
    G = s1.apex.group
    # the points of s2's apex over each middle point, ascending; pair
    # (m1, m2) is numbered start[m1] + rank[m2], with m1 then m2 ascending,
    # and g moves it to the pair (g·m1, g·m2), which lies over one point too
    over: dict[int, list[int]] = {}
    rank = []
    for m2, b in enumerate(s2.left):
        bucket = over.setdefault(b, [])
        rank.append(len(bucket))
        bucket.append(m2)
    p1: list[int] = []  # the pullback's point i is the pair (p1[i], p2[i])
    p2: list[int] = []
    start = []
    for m1, b in enumerate(s1.right):
        start.append(len(p1))
        bucket = over.get(b, ())
        p1.extend([m1] * len(bucket))
        p2.extend(bucket)
    act = tuple(
        tuple(start[a1[m1]] + rank[a2[m2]] for m1, m2 in zip(p1, p2))
        for a1, a2 in zip(s1.apex.act, s2.apex.act)
    )
    apex = FiniteGSet(G, act, label="pullback")
    left = tuple(map(s1.left.__getitem__, p1))
    right = tuple(map(s2.right.__getitem__, p2))
    return Span(s1.left_foot, s2.right_foot, apex, left, right)


def decompose_span(s: Span) -> dict[Component, int]:
    """Multiset of transitive components of a span.

    One ``orbit_scan`` of the apex gives, per orbit, the stabilizer of its
    least point x0 and a t[x] with t[x]·x0 = x for each point x, so that the
    stabilizer of x is t[x]·Stab(x0)·t[x]⁻¹.
    """
    out: dict[Component, int] = {}
    for orbit, S0, t in s.apex.orbit_scan():
        best = min((conjugate_subgroup(S0, t[x]).elements,
                    s.left[x], s.right[x]) for x in orbit)
        out[best] = out.get(best, 0) + 1
    return out


def component_span(G: FiniteGroup, A: FiniteGSet, B: FiniteGSet, comp: Component) -> Span:
    """Representative transitive span for one component invariant."""
    stab, a, b = comp
    # point i of apex is the coset with canonical representative reps[i]
    reps, _, apex = coset_orbit(G, Subgroup(G, stab))
    left = tuple(A.act[r][a] for r in reps)
    right = tuple(B.act[r][b] for r in reps)
    return Span(A, B, apex, left, right)


def hom_basis(A: FiniteGSet, B: FiniteGSet) -> list[Component]:
    """All transitive span classes A -> B, sorted canonically.

    Complete by the orbit decomposition argument: any span splits into
    transitive spans G/L with basepoint images fixed by L, and every such
    datum occurs below.
    """
    G = A.group
    seen = set()
    for L in all_subgroups(G):
        fa = A.fixed_points(L)
        fb = B.fixed_points(L)
        if not fa or not fb:
            continue
        reps = coset_orbit(G, L)[0]
        # basepoints (a, b) move to (ga, gb) with stabilizer gLg^-1
        moved = [(conjugate_subgroup(L, g).elements, A.act[g], B.act[g])
                 for g in reps]
        for a in fa:
            for b in fb:
                seen.add(min((stab, ag[a], bg[b]) for stab, ag, bg in moved))
    return sorted(seen)


# ---------------------------------------------------------------------------
# Burnside ring and table of marks


@dataclass
class BurnsideRing:
    group: FiniteGroup
    basis: list[Subgroup]  # class representatives, ascending canonical order
    structure: list[list[list[int]]]  # structure[i][j][k]: coeff of basis k in i*j
    marks: list[list[int]]  # marks[i][j] = |(G/H_i)^{H_j}|
    unit_index: int


def burnside_ring(G: FiniteGroup) -> BurnsideRing:
    reps = [rep for rep, _ in subgroup_conjugacy_classes(G)]
    orbits = [transitive_gset(G, H) for H in reps]
    idx = {H: i for i, H in enumerate(reps)}
    n = len(reps)
    structure = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            prod = product_gset(orbits[i], orbits[j])
            for stab_rep, _orbit in orbit_decompose(prod):
                structure[i][j][idx[stab_rep]] += 1
    marks = [[len(orbits[i].fixed_points(reps[j])) for j in range(n)] for i in range(n)]
    unit_index = n - 1  # [G/G]: G is the largest class representative
    return BurnsideRing(G, reps, structure, marks, unit_index)


# ---------------------------------------------------------------------------
# inflation across a tower and the colimit witness


def inflate_span(s: Span, q: GroupHom) -> Span:
    return Span(
        inflate_gset(s.left_foot, q),
        inflate_gset(s.right_foot, q),
        inflate_gset(s.apex, q),
        s.left,
        s.right,
    )


def _acts_trivially(N: Subgroup, X: FiniteGSet) -> bool:
    return all(
        X.act[n][x] == x for n in N.elements for x in range(X.size)
    )


def deflate_gset(X: FiniteGSet, q: GroupHom) -> FiniteGSet:
    """View a G_m-set on which ker(q) acts trivially as a G_k-set."""
    if not _acts_trivially(q.kernel(), X):
        raise ValueError("kernel does not act trivially; cannot deflate")
    Gk = q.codomain
    # one preimage per element of the quotient
    pre = {}
    for g in q.domain.elements():
        pre.setdefault(q(g), g)
    act = tuple(tuple(X.act[pre[gk]][x] for x in range(X.size)) for gk in Gk.elements())
    return FiniteGSet(Gk, act, label=X.label)


def deflate_span(s: Span, q: GroupHom) -> Span:
    return Span(
        deflate_gset(s.left_foot, q),
        deflate_gset(s.right_foot, q),
        deflate_gset(s.apex, q),
        s.left,
        s.right,
    )


def colimit_witness(s: Span, tower, level: int) -> int:
    """Minimal tower level k <= `level` at which the span is realizable.

    The span lives over tower.levels[level]; level k realizes it when the
    kernel of the composite bond acts trivially on apex and feet, and then
    inflating the deflated span reproduces the original class.
    """
    for k in range(level + 1):
        q = tower.bond_to(level, k)
        N = q.kernel()
        if all(
            _acts_trivially(N, X) for X in (s.apex, s.left_foot, s.right_foot)
        ):
            down = deflate_span(s, q)
            back = inflate_span(down, q)
            if back.canonical() != s.canonical():
                raise AssertionError("inflation round-trip failed")
            return k
    raise AssertionError("span not realizable at any level (bond chain broken)")
