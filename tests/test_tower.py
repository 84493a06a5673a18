import json

import pytest

from profmack import cbrank as cb
from profmack import tower as tw
from profmack.groups import (TABLE_LIMIT, CyclicGroup, GroupHom, TableGroup,
                             UnknownFamily, all_subgroups, cyclic, dihedral,
                             direct_product, parse_group, symmetric)


def test_pro_p_levels_and_bonds():
    T = tw.builtin_tower("pro_p:2", 4)
    assert [G.order for G in T.levels] == [1, 2, 4, 8, 16]
    for q in T.bonds:
        assert q.is_surjective()
    q = T.bond_to(4, 1)
    assert q.codomain.order == 2
    assert all(q(x) == x % 2 for x in range(16))


def test_trivial_and_finite_families():
    T = tw.builtin_tower("trivial", 3)
    assert all(G.order == 1 for G in T.levels)
    T = tw.builtin_tower("finite:sym:3", 3)
    assert [G.order for G in T.levels] == [1, 6, 6, 6]


def test_prod_distinct_primes_required():
    T = tw.builtin_tower("prod:pro_p:2,pro_p:3", 2)
    assert [G.order for G in T.levels] == [1, 6, 36]
    with pytest.raises(UnknownFamily):
        tw.builtin_tower("prod:pro_p:2,pro_p:2", 2)


def test_unknown_family():
    with pytest.raises(UnknownFamily):
        tw.builtin_tower("pro_p:6", 2)  # not prime
    with pytest.raises(UnknownFamily):
        tw.builtin_tower("adic", 2)


def test_tower_json_round_trip():
    T = tw.builtin_tower("prod:pro_p:2,pro_p:3", 2)
    data = tw.tower_to_json(T)
    U = tw.tower_from_json(data)
    assert [G.order for G in U.levels] == [G.order for G in T.levels]
    assert [q.mapping for q in U.bonds] == [q.mapping for q in T.bonds]
    assert U.family == T.family


def test_subgroup_space_tower_shapes():
    for fam, depth, sizes in (
        ("pro_p:2", 3, [1, 2, 3, 4]),  # S(Z/2^k) has k+1 subgroups
        ("prod:pro_p:2,pro_p:3", 2, [1, 4, 9]),  # S(Z/2^k x Z/3^k): (k+1)^2
    ):
        X = tw.subgroup_space_tower(tw.builtin_tower(fam, depth))
        assert [len(level) for level in X.levels] == sizes
        # bond k maps the level-(k+1) subgroups onto all level-k subgroups
        for k, row in enumerate(X.bonds):
            assert len(row) == len(X.levels[k + 1])
            assert set(row) == set(range(len(X.levels[k])))


def test_thread_certs_pro_p():
    T = tw.builtin_tower("pro_p:3", 4)
    X = tw.subgroup_space_tower(T)
    ms = sorted(c.m for c in X.certs)
    # proper subgroups scatter at stage 0; the zero thread at stage 1
    assert ms == [0, 0, 0, 0, 1]


def test_a_mislabelled_tower_gets_unknown_certificates():
    """Only builtin_tower binds a thread lemma, and the family label is read
    for the chain name alone: the pro_p:3 levels and bonds under another
    label, built by hand or read from a tower file, certify no thread.  A
    lemma read off the label would give Exact(1), but Sub(Z_3) has rank 2."""
    T = tw.builtin_tower("pro_p:3", 3)
    assert cb.cb_rank(tw.subgroup_space_tower(T)).rank == 2
    data = tw.tower_to_json(T)
    data["family"] = "finite:cyclic:2"
    towers = [tw.GroupTower(T.levels, T.bonds, label)
              for label in ("pro_p:2", "trivial", "finite:sym:3")]
    towers.append(tw.tower_from_json(json.loads(json.dumps(data))))
    for U in towers:
        X = tw.subgroup_space_tower(U)
        assert X.chain == f"{U.family}@depth3"
        assert [c.kind for c in X.certs] == ["unknown"] * 4, U.family
        cert = cb.cb_rank(X)
        assert (cert.verdict, cert.lo, cert.hi) == ("Interval", 1, None), U.family


PRODUCT_FAMILIES = ("prod:pro_p:2,pro_p:3", "prod:pro_p:2,pro_p:5",
                    "prod:pro_p:2,pro_p:3,pro_p:5")


def test_product_level_subgroups_match_the_generic_enumeration():
    # Sub(A x B) = Sub(A) x Sub(B) for coprime orders: the digit-built
    # subgroups of each level of order <= 100 (C6, C36, C10, C100, C30) and
    # of coprime products of non-cyclic groups equal the closure enumeration
    # over the group's multiplication table
    levels = [G for fam in PRODUCT_FAMILIES for G in tw.builtin_tower(fam, 2).levels
              if G.order <= 100]
    assert {G.order for G in levels} == {1, 6, 36, 10, 100, 30}
    products = [direct_product(cyclic(5), symmetric(3)),
                direct_product(cyclic(4), direct_product(cyclic(3), cyclic(3))),
                direct_product(dihedral(8), cyclic(3)),
                direct_product(cyclic(7), dihedral(6), cyclic(5))]
    for G in levels + products:
        generic = all_subgroups(TableGroup(G.table()))
        assert [H.elements for H in all_subgroups(G)] == [H.elements for H in generic]


@pytest.mark.parametrize("fam,depth", [
    ("prod:pro_p:2,pro_p:3", 5), ("prod:pro_p:2,pro_p:3,pro_p:5", 3),
])
def test_product_level_subgroup_count(fam, depth):
    primes = tw._family_primes(fam)
    for k, G in enumerate(tw.builtin_tower(fam, depth).levels):
        assert len(all_subgroups(G)) == (k + 1) ** len(primes)


@pytest.mark.parametrize("fam", PRODUCT_FAMILIES)
def test_product_bonds_reduce_every_coordinate(fam):
    primes = tw._family_primes(fam)
    T = tw.builtin_tower(fam, 3)
    for k, q in enumerate(T.bonds):
        Gm, Gk = T.levels[k + 1], T.levels[k]
        assert q.mapping == tuple(
            Gk.encode([x % p**k for x, p in zip(Gm.decode(g), primes)])
            for g in range(Gm.order))


# ---------------------------------------------------------------------------
# S(G) from level orders: cyclic levels against the element path


def as_table_tower(T):
    """T with every level rebuilt as a TableGroup and the same bond tables:
    a tower that ``subgroup_space_tower`` reads through its element path."""
    levels = [TableGroup(G.table(), label=G.label) for G in T.levels]
    bonds = [GroupHom(levels[k + 1], levels[k], q.mapping) for k, q in enumerate(T.bonds)]
    return tw.GroupTower(levels, bonds, T.family, T.lemma)


def space_data(X):
    return X.levels, X.bonds, X.certs, X.actions, X.chain


@pytest.mark.parametrize("fam", [
    "trivial", "pro_p:2", "pro_p:3", "pro_p:5", "pro_p:7", "prod:pro_p:2,pro_p:3",
    "prod:pro_p:2,pro_p:3,pro_p:5", "finite:cyclic:4", "finite:prod:cyclic:2,cyclic:3",
])
def test_cyclic_levels_give_the_element_paths_space_tree(fam):
    for depth in range(8):
        T = tw.builtin_tower(fam, depth)
        if T.levels[-1].order > TABLE_LIMIT:
            break
        X = tw.subgroup_space_tower(T)
        assert space_data(X) == space_data(tw.subgroup_space_tower(as_table_tower(T)))
        # read off the orders: no level enumerated its subgroups
        assert all(G._subgroup_cache is None for G in T.levels)


def test_levels_that_are_not_cyclic_by_construction_take_the_element_path():
    assert tw._cyclic_by_construction(parse_group("prod:cyclic:4,cyclic:3"))
    assert tw._cyclic_by_construction(direct_product(cyclic(2), direct_product(cyclic(3),
                                                                               cyclic(5))))
    C1, C6 = CyclicGroup(1), TableGroup(cyclic(6).table())  # cyclic, but a table group
    towers = [tw.builtin_tower(f"finite:{sel}", 2) for sel in (
        "prod:cyclic:2,cyclic:2",  # not coprime
        "prod:cyclic:3,sym:3",  # a non-cyclic factor
        "prod:cyclic:5,sym:3",  # a non-cyclic factor of coprime order
    )] + [tw.GroupTower([C1, C6], [GroupHom(C6, C1, (0,) * 6)])]
    tops = []
    for T in towers:
        G = T.levels[-1]
        assert not tw._cyclic_by_construction(G)
        tops.append(tw.subgroup_space_tower(T).levels[-1])
        assert G._subgroup_cache is not None  # the element path enumerated Sub(G)
        orders = [H.order for H in all_subgroups(G)]
        assert tops[-1] == [f"ord{n}" + (f"#{i}" if orders.count(n) > 1 else "")
                            for i, n in enumerate(orders)]
    assert tops[0] == ["ord1", "ord2#1", "ord2#2", "ord2#3", "ord4"]  # C2xC2
    # each of the three has three subgroups of order 2
    assert all("ord2#2" in top for top in tops[:3])


def test_a_cyclic_tower_whose_bond_is_not_reduction():
    # C9 -> C3, x -> 2x mod 3: surjective, with kernel the subgroup of order 3
    C1, C3, C9 = CyclicGroup(1), CyclicGroup(3), CyclicGroup(9)
    T = tw.GroupTower([C1, C3, C9], [GroupHom(C3, C1, (0,) * 3),
                                     GroupHom(C9, C3, tuple(2 * x % 3 for x in range(9)))])
    X = tw.subgroup_space_tower(T)
    assert X.levels == [["ord1"], ["ord1", "ord3"], ["ord1", "ord3", "ord9"]]
    assert X.bonds == [[0, 0], [0, 0, 1]]
    assert X.chain == "user@depth2"
    assert all(c.kind == "unknown" for c in X.certs)
    assert space_data(X) == space_data(tw.subgroup_space_tower(as_table_tower(T)))


def test_a_non_surjective_bond_is_rejected_before_either_path():
    C1, C3, C9 = CyclicGroup(1), CyclicGroup(3), CyclicGroup(9)
    for top, mid in ((C9, C3), (TableGroup(C9.table()), TableGroup(C3.table()))):
        # the zero map C9 -> C3 is a homomorphism, but not onto
        with pytest.raises(ValueError, match="bond 1 is not surjective"):
            tw.GroupTower([C1, mid, top], [GroupHom(mid, C1, (0,) * 3),
                                           GroupHom(top, mid, (0,) * 9)])
