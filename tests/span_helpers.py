"""Span helpers that only the tests use: identity spans, sums of parallel
spans and span equivalence."""

from profmack.burnside import Span
from profmack.gsets import FiniteGSet, disjoint_union


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
