import random

import pytest

from profmack import _kernels
from profmack import groups as gr
from profmack import gsets as gs
from span_helpers import disjoint_union, empty_gset, relabelled


def test_transitive_gset_sizes():
    G = gr.symmetric(3)
    for H in gr.all_subgroups(G):
        X = gs.transitive_gset(G, H)
        assert X.size == G.order // H.order
        assert len(X.orbits()) == 1


def test_point_and_empty():
    G = gr.cyclic(3)
    assert gs.point_gset(G).size == 1
    assert empty_gset(G).size == 0


def test_fixed_points_regular_orbit():
    G = gr.symmetric(3)
    X = gs.transitive_gset(G, gr.trivial_subgroup(G))
    assert len(X.fixed_points(gr.trivial_subgroup(G))) == 6
    for H in gr.all_subgroups(G):
        if H.order > 1:
            assert X.fixed_points(H) == []


def test_fixed_points_are_scanned_once_per_subgroup():
    G = gr.dihedral(8)
    X = gs.product_gset(gs.transitive_gset(G, gr.all_subgroups(G)[1]),
                        gs.transitive_gset(G, gr.all_subgroups(G)[3]))
    for H in gr.all_subgroups(G):
        fixed = X.fixed_points(H)
        assert fixed == [x for x in range(X.size)
                         if all(X.act[g][x] == x for g in H.elements)]
        assert X.fixed_points(H) is fixed


def test_product_decomposition_c2():
    # C2/e x C2/e = 2 copies of C2/e
    G = gr.cyclic(2)
    X = gs.transitive_gset(G, gr.trivial_subgroup(G))
    P = gs.product_gset(X, X)
    assert P.size == 4
    parts = list(gs.orbit_decompose(P))
    assert len(parts) == 2
    for stab, orbit in parts:
        assert stab.order == 1
        assert len(orbit) == 2


def test_disjoint_union():
    G = gr.cyclic(2)
    X = gs.transitive_gset(G, gr.trivial_subgroup(G))
    Y = gs.point_gset(G)
    U = disjoint_union(X, Y)
    assert U.size == 3
    assert len(U.orbits()) == 2


def test_inflate_gset():
    G4 = gr.cyclic(4)
    G2 = gr.cyclic(2)
    q = gr.GroupHom(G4, G2, tuple(x % 2 for x in range(4)))
    X = gs.transitive_gset(G2, gr.trivial_subgroup(G2))
    Y = gs.inflate_gset(X, q)
    assert Y.group is G4
    assert Y.size == 2
    # kernel acts trivially after inflation
    for n in q.kernel().elements:
        assert all(Y.act[n][x] == x for x in range(Y.size))


def _is_action(G, act):
    """The full action law on all |G|^2 pairs, as a reference."""
    n = len(act[0])
    return all(
        len(row) == n and all(0 <= x < n for x in row) for row in act
    ) and act[G.identity] == tuple(range(n)) and all(
        act[G.mul(g, h)][x] == act[g][act[h][x]]
        for g in G.elements() for h in G.elements() for x in range(n)
    )


def test_gset_rejects_ragged_and_out_of_range_rows():
    G = gr.cyclic(2)
    for act in (((0, 1), (1, 0, 5)), ((0, 1), (1,)), ((0, 1), (1, 2)),
                ((0, 1), (1, -1))):
        with pytest.raises(ValueError, match="range"):
            gs.FiniteGSet(G, act)
    with pytest.raises(ValueError, match="one row per group element"):
        gs.FiniteGSet(G, ((0, 1),))


def test_gset_rejects_a_table_wrong_only_at_the_second_generator():
    D8 = gr.dihedral(8)
    r, s = gr.generators(D8)
    rotations = set(gr.closure_set(D8, [r]))
    # rotations act trivially on three points and every reflection by one
    # 3-cycle c: act[r·h] == act[r]∘act[h] for every h, but act[s·s] = id
    # while act[s]∘act[s] = c∘c
    c = (1, 2, 0)
    act = tuple((0, 1, 2) if g in rotations else c for g in D8.elements())
    assert all(act[D8.mul(r, h)] == tuple(act[r][y] for y in act[h])
               for h in D8.elements())
    assert not _is_action(D8, act)
    with pytest.raises(ValueError, match="not a group action"):
        gs.FiniteGSet(D8, act)


def test_gset_rejects_seeded_single_row_corruptions():
    rng = random.Random(9)
    done = 0
    while done < 40:
        G = gr.parse_group(rng.choice(("dihedral:8", "prod:cyclic:2,cyclic:4",
                                       "sym:3")))
        H = rng.choice([H for H in gr.all_subgroups(G) if H.order < G.order])
        X = gs.transitive_gset(G, H)
        act = [list(row) for row in X.act]
        row = act[rng.randrange(G.order)]
        i, j = rng.sample(range(X.size), 2)
        kind = rng.randrange(3)
        if kind == 0:  # another permutation
            row[i], row[j] = row[j], row[i]
        elif kind == 1:  # not a bijection
            row[i] = row[j]
        else:  # a point outside the set
            row[i] = rng.choice((-1, X.size))
        act = tuple(map(tuple, act))
        assert not _is_action(G, act)
        with pytest.raises(ValueError):
            gs.FiniteGSet(G, act)
        done += 1


# ---------------------------------------------------------------------------
# one G/H per group and one orbit scan


def scan_groups():
    groups = [gr.parse_group(sel)
              for sel in ("sym:3", "dihedral:8", "prod:cyclic:2,cyclic:4")]
    moved = relabelled(gr.symmetric(3), 2)
    assert moved.identity != 0
    return groups + [moved]


def sample_sets(G):
    """Every G/H, a disjoint union and two products."""
    orbits = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
    return orbits + [
        disjoint_union(orbits[-1], orbits[0], gs.point_gset(G), orbits[1]),
        gs.product_gset(orbits[0], orbits[0]),
        gs.product_gset(orbits[1], orbits[len(orbits) // 2]),
    ]


@pytest.mark.parametrize("G", scan_groups(), ids=lambda G: G.label)
def test_transitive_gset_is_one_object_numbered_by_coset_reps(G):
    for H in gr.all_subgroups(G):
        X = gs.transitive_gset(G, H)
        assert gs.transitive_gset(G, H) is X
        reps, rep_of, Y = gs.coset_orbit(G, H)
        assert Y is X
        assert list(reps) == sorted(reps) and len(reps) == X.size
        cosets = [{G.mul(r, h) for h in H.elements} for r in reps]
        for r, coset in zip(reps, cosets):
            assert r == min(coset) and all(rep_of[x] == r for x in coset)
        # point i is the coset reps[i]·H, so g moves it to the coset of g·reps[i]
        for g in G.elements():
            for i, r in enumerate(reps):
                assert G.mul(g, r) in cosets[X.act[g][i]]


def brute_force_scan(X):
    """Per orbit, ordered by least point: its points, the stabilizer of the
    least point x0, and the least g with g·x0 = x for each point x."""
    G = X.group
    out = []
    for x0 in range(X.size):
        images = {X.act[g][x0] for g in G.elements()}
        if min(images) != x0:
            continue
        stab = tuple(g for g in G.elements() if X.act[g][x0] == x0)
        t = {x: min(g for g in G.elements() if X.act[g][x0] == x) for x in images}
        out.append((sorted(images), stab, t))
    return out


@pytest.mark.parametrize("G", scan_groups(), ids=lambda G: G.label)
def test_orbit_scan_matches_brute_force(G, monkeypatch):
    labelled = []
    orbit_labels = _kernels.orbit_labels
    monkeypatch.setattr(_kernels, "orbit_labels",
                        lambda perms, n: labelled.append(n) or orbit_labels(perms, n))
    # copies, so that no scan made before this test is reused
    for X in [gs.FiniteGSet(G, X.act, X.label) for X in sample_sets(G)]:
        before = len(labelled)
        scan = X.orbit_scan()
        assert X.orbit_scan() is scan  # the second pass reads the kept scan
        assert len(labelled) == before + 1  # one orbit partition per G-set
        assert [orbit for orbit, _, _ in scan] == X.orbits()
        assert all(S.parent is G for _, S, _ in scan)
        assert [(orbit, S.elements, t) for orbit, S, t in scan] == brute_force_scan(X)


@pytest.mark.parametrize("G", scan_groups(), ids=lambda G: G.label)
def test_orbits_under_generators_are_the_orbits_under_all_of_g(G):
    # the trivial group has no generators
    C1 = gr.cyclic(1)
    trivial = [gs.point_gset(C1), disjoint_union(*[gs.point_gset(C1)] * 3)]
    for X in sample_sets(G) + [empty_gset(G)] + trivial:
        labels = _kernels.orbit_labels(X.act, X.size)
        every_row = [[x for x in range(X.size) if labels[x] == l]
                     for l in range(len(set(labels)))]
        assert X.orbits() == every_row


# ---------------------------------------------------------------------------
# one conjugation table and one class partition per group


def conjugation_groups():
    groups = [gr.parse_group(sel)
              for sel in ("sym:3", "dihedral:8", "prod:cyclic:2,sym:3")]
    return groups + [relabelled(gr.symmetric(3), 2)]


def conjugate(G, H, g):
    return tuple(sorted(G.conj(g, x) for x in H.elements))


@pytest.mark.parametrize("G", conjugation_groups(), ids=lambda G: G.label)
def test_conjugate_subgroup_table_matches_the_formula(G):
    assert not G.abelian
    for H in gr.all_subgroups(G):
        for g in G.elements():
            Hg = gr.conjugate_subgroup(H, g)
            assert Hg.parent is G and Hg.elements == conjugate(G, H, g)
            assert gr.conjugate_subgroup(H, g) is Hg


@pytest.mark.parametrize("G", conjugation_groups() + [gr.cyclic(12)],
                         ids=lambda G: G.label)
def test_class_map_is_built_once_and_agrees_with_the_classes(G):
    rep_of = gr.class_rep_of(G)
    classes = gr.subgroup_conjugacy_classes(G)
    assert gr.subgroup_conjugacy_classes(G) is classes
    assert gr.class_rep_of(G) is rep_of
    subs = gr.all_subgroups(G)
    assert sorted(rep_of, key=gr.Subgroup.key) == subs
    assert sum(len(members) for _, members in classes) == len(subs)
    reps = [rep for rep, _ in classes]
    assert reps == sorted(reps, key=gr.Subgroup.key)
    for rep, members in classes:
        orbit = {conjugate(G, rep, g) for g in G.elements()}
        assert [H.elements for H in members] == sorted(orbit, key=lambda t: (len(t), t))
        assert rep == members[0]
        assert all(rep_of[H] is rep for H in members)
