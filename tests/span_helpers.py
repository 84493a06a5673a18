"""Span and G-set helpers that only the tests use: the empty G-set,
disjoint unions, identity spans, sums of parallel spans and span
equivalence."""

from profmack.burnside import Span
from profmack.groups import FiniteGroup
from profmack.gsets import FiniteGSet


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
