import random

import pytest

from profmack import burnside as bs
from profmack import groups as gr
from profmack import gsets as gs
from profmack import tower as tw

SEED = 20260823


def regular(G):
    return gs.transitive_gset(G, gr.trivial_subgroup(G))


# ---------------------------------------------------------------------------
# spans


def test_identity_span_laws_c2():
    G = gr.cyclic(2)
    X = regular(G)
    ids = bs.identity_span(X)
    for comp in bs.hom_basis(X, X):
        s = bs.component_span(G, X, X, comp)
        assert bs.span_equivalent(bs.span_compose(s, ids), s)
        assert bs.span_equivalent(bs.span_compose(ids, s), s)


def test_hom_basis_counts_c2():
    G = gr.cyclic(2)
    X = regular(G)
    # End of C2/e in the Burnside category has rank 2 (identity and swap)
    assert len(bs.hom_basis(X, X)) == 2


def test_middle_mismatch():
    G = gr.cyclic(2)
    X, P = regular(G), gs.point_gset(G)
    s = bs.identity_span(X)
    t = bs.identity_span(P)
    with pytest.raises(bs.MiddleMismatch):
        bs.span_compose(s, t)


def test_pullback_size_identity():
    """|apex(s2 o s1)| = sum over middle points of fiber products."""
    rng = random.Random(SEED)
    G = gr.symmetric(3)
    subs = gr.all_subgroups(G)
    sets = [gs.transitive_gset(G, H) for H in subs]
    for _ in range(10):
        A, B, C = (rng.choice(sets) for _ in range(3))
        ha = bs.hom_basis(A, B)
        hb = bs.hom_basis(B, C)
        if not ha or not hb:
            continue
        s1 = bs.component_span(G, A, B, rng.choice(ha))
        s2 = bs.component_span(G, B, C, rng.choice(hb))
        comp = bs.span_compose(s1, s2)
        expected = sum(
            sum(1 for x in range(s1.apex.size) if s1.right[x] == c)
            * sum(1 for y in range(s2.apex.size) if s2.left[y] == c)
            for c in range(B.size)
        )
        assert comp.apex.size == expected


def test_span_add_and_dual():
    G = gr.cyclic(3)
    X = regular(G)
    s = bs.identity_span(X)
    two = bs.span_add(s, s)
    assert two.apex.size == 2 * s.apex.size
    assert bs.span_equivalent(s.dual().dual(), s)


def test_dual_swaps_the_checked_legs():
    rng = random.Random(SEED)
    G = gr.symmetric(3)
    sets = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
    for _ in range(10):
        A, B = rng.choice(sets), rng.choice(sets)
        for comp in bs.hom_basis(A, B):
            s = bs.component_span(G, A, B, comp)
            assert s.dual() == bs.Span(s.right_foot, s.left_foot, s.apex, s.right, s.left)
            assert s.dual().dual().canonical() == s.canonical()


def test_span_rejects_a_leg_that_is_not_equivariant():
    G = gr.cyclic(2)
    X, P = regular(G), gs.point_gset(G)
    with pytest.raises(ValueError):
        bs.Span(P, X, X, (0, 0), (0, 0))


def test_associativity_seeded_battery_small():
    rng = random.Random(SEED)
    for G in (gr.cyclic(2), gr.cyclic(3), gr.symmetric(3)):
        subs = gr.all_subgroups(G)
        sets = [gs.transitive_gset(G, H) for H in subs]
        done = 0
        while done < 20:
            A, B, C, D = (rng.choice(sets) for _ in range(4))
            h1, h2, h3 = (bs.hom_basis(p, q) for p, q in ((A, B), (B, C), (C, D)))
            if not (h1 and h2 and h3):
                continue
            s1 = bs.component_span(G, A, B, rng.choice(h1))
            s2 = bs.component_span(G, B, C, rng.choice(h2))
            s3 = bs.component_span(G, C, D, rng.choice(h3))
            left = bs.span_compose(bs.span_compose(s1, s2), s3)
            right = bs.span_compose(s1, bs.span_compose(s2, s3))
            assert left.canonical() == right.canonical()
            done += 1


# ---------------------------------------------------------------------------
# Burnside ring


def test_marks_c2():
    R = bs.burnside_ring(gr.cyclic(2))
    assert R.marks == [[2, 0], [1, 1]]


def test_marks_s3():
    R = bs.burnside_ring(gr.symmetric(3))
    assert R.marks == [
        [6, 0, 0, 0],
        [3, 1, 0, 0],
        [2, 0, 2, 0],
        [1, 1, 1, 1],
    ]
    assert R.unit_index == 3


def test_a_c2_relation():
    # [C2/e]^2 = 2 [C2/e]
    R = bs.burnside_ring(gr.cyclic(2))
    free = 0  # basis index of C2/e (trivial subgroup first)
    assert R.basis[free].order == 1
    assert R.structure[free][free] == [2, 0]


def test_unit_element():
    for G in (gr.cyclic(2), gr.symmetric(3)):
        R = bs.burnside_ring(G)
        u = R.unit_index
        n = len(R.basis)
        for i in range(n):
            expect = [1 if k == i else 0 for k in range(n)]
            assert R.structure[u][i] == expect
            assert R.structure[i][u] == expect


# ---------------------------------------------------------------------------
# inflation and the colimit witness


def test_inflate_functorial():
    T = tw.builtin_tower("pro_p:2", 3)
    G1 = T.levels[1]
    A = gs.transitive_gset(G1, gr.trivial_subgroup(G1))
    one_step = bs.inflate(bs.inflate(A, T, 1, 2), T, 2, 3)
    direct = bs.inflate(A, T, 1, 3)
    assert one_step.act == direct.act


def test_colimit_witness_round_trip():
    T = tw.builtin_tower("pro_p:2", 3)
    G3 = T.levels[3]
    for H in gr.all_subgroups(G3):
        X = gs.transitive_gset(G3, H)
        for comp in bs.hom_basis(X, X):
            s = bs.component_span(G3, X, X, comp)
            k = bs.colimit_witness(s, T, 3)
            assert 0 <= k <= 3


def test_deflate_requires_trivial_kernel_action():
    T = tw.builtin_tower("pro_p:2", 2)
    G2 = T.levels[2]
    q = T.bond_to(2, 1)
    X = gs.transitive_gset(G2, gr.trivial_subgroup(G2))  # faithful orbit
    with pytest.raises(ValueError):
        bs.deflate_gset(X, q)


def _per_orbit_minimum(s):
    """The per-orbit-minimum canonical form, coded directly on the span."""
    G = s.apex.group
    comps = []
    for orbit in s.apex.orbits():
        best = None
        for x in orbit:
            stab = tuple(sorted(g for g in G.elements() if s.apex.act[g][x] == x))
            cand = (stab, s.left[x], s.right[x])
            if best is None or cand < best:
                best = cand
        comps.append(best)
    return tuple(sorted(comps))


def test_canonical_matches_per_orbit_minimum():
    rng = random.Random(SEED)
    for sel in ("cyclic:2", "cyclic:3", "sym:3", "dihedral:8"):
        G = gr.parse_group(sel)
        sets = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
        done = 0
        while done < 15:
            A, B, C = (rng.choice(sets) for _ in range(3))
            h1, h2 = bs.hom_basis(A, B), bs.hom_basis(B, C)
            if not (h1 and h2):
                continue
            s1 = bs.component_span(G, A, B, rng.choice(h1))
            s2 = bs.component_span(G, B, C, rng.choice(h2))
            for s in (s1, bs.span_compose(s1, s2), bs.span_add(s1, s1)):
                assert s.canonical() == _per_orbit_minimum(s)
            done += 1
