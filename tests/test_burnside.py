import random

import pytest

from profmack import burnside as bs
from profmack import groups as gr
from profmack import gsets as gs
from profmack import mackey as mk
from profmack import tower as tw
from span_helpers import empty_gset, identity_span, span_add, span_equivalent

SEED = 20260823


def regular(G):
    return gs.transitive_gset(G, gr.trivial_subgroup(G))


# ---------------------------------------------------------------------------
# spans


def test_identity_span_laws_c2():
    G = gr.cyclic(2)
    X = regular(G)
    ids = identity_span(X)
    for comp in bs.hom_basis(X, X):
        s = bs.component_span(G, X, X, comp)
        assert span_equivalent(bs.span_compose(s, ids), s)
        assert span_equivalent(bs.span_compose(ids, s), s)


def test_hom_basis_counts_c2():
    G = gr.cyclic(2)
    X = regular(G)
    # End of C2/e in the Burnside category has rank 2 (identity and swap)
    assert len(bs.hom_basis(X, X)) == 2


def test_middle_mismatch():
    G = gr.cyclic(2)
    X, P = regular(G), gs.point_gset(G)
    s = identity_span(X)
    t = identity_span(P)
    with pytest.raises(bs.MiddleMismatch):
        bs.span_compose(s, t)


def test_spans_on_feet_from_separate_calls_compose():
    """transitive_gset returns one G/H per group, so feet built by separate
    calls are the same object and spans over them compose."""
    G = gr.symmetric(3)
    e, H = gr.trivial_subgroup(G), gr.all_subgroups(G)[1]
    A, B = gs.transitive_gset(G, e), gs.transitive_gset(G, H)
    s = bs.component_span(G, A, B, bs.hom_basis(A, B)[0])
    B2, C = gs.transitive_gset(G, H), gs.transitive_gset(G, e)
    t = bs.component_span(G, B2, C, bs.hom_basis(B2, C)[0])
    u = bs.span_compose(s, t)
    assert u.left_foot is A and u.right_foot is C
    ids = identity_span(gs.transitive_gset(G, H))
    assert span_equivalent(bs.span_compose(s, ids), s)


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
    s = identity_span(X)
    two = span_add(s, s)
    assert two.apex.size == 2 * s.apex.size
    assert span_equivalent(s.dual().dual(), s)


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
    one_step = gs.inflate_gset(gs.inflate_gset(A, T.bond_to(2, 1)), T.bond_to(3, 2))
    direct = gs.inflate_gset(A, T.bond_to(3, 1))
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
            for s in (s1, bs.span_compose(s1, s2), span_add(s1, s1)):
                assert s.canonical() == _per_orbit_minimum(s)
            done += 1


# ---------------------------------------------------------------------------
# reduced checks and hoisted loops against their old all-pairs forms


def test_span_rejects_a_leg_outside_its_foot():
    G = gr.cyclic(2)
    T, P = regular(G), gs.point_gset(G)
    with pytest.raises(ValueError, match="leaves its foot"):
        bs.Span(T, P, T, (0, 1), (0, 7))
    with pytest.raises(ValueError, match="leaves its foot"):
        bs.Span(T, P, T, (0, 1), (0, -1))
    with pytest.raises(ValueError, match="leaves its foot"):
        bs.Span(T, empty_gset(G), T, (0, 1), (0, 0))


def test_span_rejects_a_leg_equivariant_for_the_first_generator_only():
    D8 = gr.dihedral(8)
    r, s = gr.generators(D8)
    rotations = set(gr.closure_set(D8, [r]))
    X = regular(D8)  # point x is the element x, and g·x = gx
    assert all(X.act[g][x] == D8.mul(g, x) for g in D8.elements() for x in range(8))
    # the identity on the rotations, x ↦ xs on the reflections: it commutes
    # with left multiplication by r but sends s·e = s to e, not to s·e
    leg = tuple(x if x in rotations else D8.mul(x, s) for x in range(8))
    assert all(leg[D8.mul(r, x)] == D8.mul(r, leg[x]) for x in range(8))
    assert leg[D8.mul(s, 0)] != D8.mul(s, leg[0])
    ident = tuple(range(8))
    with pytest.raises(ValueError, match="not equivariant"):
        bs.Span(X, X, X, ident, leg)
    with pytest.raises(ValueError, match="not equivariant"):
        bs.Span(X, X, X, leg, ident)


def _hom_basis_per_pair(A, B):
    """hom_basis with the conjugate stabilizer recomputed per (a, b, g)."""
    G = A.group
    seen = set()
    for L in gr.all_subgroups(G):
        fa = A.fixed_points(L)
        fb = B.fixed_points(L)
        if not fa or not fb:
            continue
        reps, _ = gr.left_cosets(G, L)
        for a in fa:
            for b in fb:
                best = None
                for g in reps:
                    stab = tuple(sorted(G.conj(g, x) for x in L.elements))
                    cand = (stab, A.act[g][a], B.act[g][b])
                    if best is None or cand < best:
                        best = cand
                seen.add(best)
    return sorted(seen)


def _span_compose_all_pairs(s1, s2):
    """(apex act, left, right) of s2 o s1 from the all-pairs pullback filter."""
    G = s1.apex.group
    pairs = [
        (m1, m2)
        for m1 in range(s1.apex.size)
        for m2 in range(s2.apex.size)
        if s1.right[m1] == s2.left[m2]
    ]
    index = {p: i for i, p in enumerate(pairs)}
    act = tuple(
        tuple(index[(s1.apex.act[g][m1], s2.apex.act[g][m2])] for m1, m2 in pairs)
        for g in G.elements()
    )
    left = tuple(s1.left[m1] for m1, _ in pairs)
    right = tuple(s2.right[m2] for _, m2 in pairs)
    return act, left, right


REFERENCE_GROUPS = ("dihedral:8", "prod:cyclic:2,cyclic:4", "cyclic:12", "sym:3")


@pytest.mark.parametrize("sel", REFERENCE_GROUPS)
def test_hom_basis_matches_the_per_pair_reference(sel):
    G = gr.parse_group(sel)
    sets = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
    for A in sets:
        for B in sets:
            assert bs.hom_basis(A, B) == _hom_basis_per_pair(A, B)


def test_span_compose_matches_the_all_pairs_reference():
    rng = random.Random(SEED)
    extra = random.Random(SEED + 1)
    done = 0
    while done < 30:
        G = gr.parse_group(rng.choice(REFERENCE_GROUPS))
        subs = gr.all_subgroups(G)
        sets = [gs.transitive_gset(G, H) for H in subs]
        A, B, C = (rng.choice(sets) for _ in range(3))
        h1, h2 = bs.hom_basis(A, B), bs.hom_basis(B, C)
        if not (h1 and h2):
            continue
        s1 = bs.component_span(G, A, B, rng.choice(h1))
        s2 = bs.component_span(G, B, C, rng.choice(h2))
        # a sum and a composite give apexes with several orbits
        if rng.random() < 0.5:
            s1 = span_add(s1, bs.component_span(G, A, B, rng.choice(h1)))
        if rng.random() < 0.5:
            s2 = bs.span_compose(identity_span(B), s2)
        comp = bs.span_compose(s1, s2)
        assert (comp.apex.act, comp.left, comp.right) == _span_compose_all_pairs(s1, s2)
        # second spans whose apex is B with the identity left leg: the
        # identity, and the one-leg spans of ind and conj in representables
        K = next(H for H in subs if gs.transitive_gset(G, H) is B)
        above = [H for H in subs if set(K.elements) <= set(H.elements)]
        g = extra.choice(G.elements())
        for t in (identity_span(B),
                  mk._one_leg_span(G, K, extra.choice(above), G.identity),
                  mk._one_leg_span(G, K, gr.conjugate_subgroup(K, g), G.inv(g))):
            comp = bs.span_compose(s1, t)
            assert comp.apex is s1.apex
            assert (comp.apex.act, comp.left, comp.right) == _span_compose_all_pairs(s1, t)
        done += 1
