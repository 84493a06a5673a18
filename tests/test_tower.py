import pytest

from profmack import tower as tw
from profmack.groups import UnknownFamily, all_subgroups


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
    T = tw.builtin_tower("pro_p:2", 3)
    X = tw.subgroup_space_tower(T)
    # S(Z/2^k) has k+1 subgroups
    assert [len(level) for level in X.levels] == [1, 2, 3, 4]
    # bonds map the level-(k+1) subgroups onto level-k images surjectively
    for row in X.bonds:
        assert set(row) <= set(range(len(row)))


def test_thread_certs_pro_p():
    T = tw.builtin_tower("pro_p:3", 4)
    X = tw.subgroup_space_tower(T)
    ms = sorted(c.m for c in X.certs)
    # proper subgroups scatter at stage 0; the zero thread at stage 1
    assert ms == [0, 0, 0, 0, 1]


def test_stability_oracle():
    T = tw.builtin_tower("pro_p:2", 4)
    subs2 = all_subgroups(T.levels[2])
    verdicts = {
        H.order: tw.stability_oracle(T, tw.SubgroupPoint(2, H)) for H in subs2
    }
    # index 4 = p^2 at level 2: the maximal-index thread is unstable
    assert verdicts[1] == tw.UNSTABLE
    assert verdicts[2] == tw.STABLE
    assert verdicts[4] == tw.STABLE
    triv = tw.builtin_tower("trivial", 2)
    H = all_subgroups(triv.levels[1])[0]
    assert tw.stability_oracle(triv, tw.SubgroupPoint(1, H)) == tw.STABLE


def test_stability_oracle_level_zero_unknown():
    T = tw.builtin_tower("pro_p:2", 3)
    H = all_subgroups(T.levels[0])[0]
    assert tw.stability_oracle(T, tw.SubgroupPoint(0, H)) == tw.UNKNOWN
