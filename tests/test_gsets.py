import random

import pytest

from profmack import groups as gr
from profmack import gsets as gs


def test_transitive_gset_sizes():
    G = gr.symmetric(3)
    for H in gr.all_subgroups(G):
        X = gs.transitive_gset(G, H)
        assert X.size == G.order // H.order
        assert len(X.orbits()) == 1


def test_point_and_empty():
    G = gr.cyclic(3)
    assert gs.point_gset(G).size == 1
    assert gs.empty_gset(G).size == 0


def test_fixed_points_regular_orbit():
    G = gr.symmetric(3)
    X = gs.transitive_gset(G, gr.trivial_subgroup(G))
    assert len(X.fixed_points(gr.trivial_subgroup(G))) == 6
    for H in gr.all_subgroups(G):
        if H.order > 1:
            assert X.fixed_points(H) == []


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
    U = gs.disjoint_union(X, Y)
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
