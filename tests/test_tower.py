import pytest

from profmack import tower as tw
from profmack.groups import (TableGroup, UnknownFamily, all_subgroups, cyclic,
                             dihedral, direct_product, symmetric)


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
