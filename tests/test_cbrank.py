import pytest

from profmack import cbrank as cb
from profmack import tower as tw
from tree_helpers import binary_tree, discrete_tree, empty_tree


def pro_p_tree(p, depth):
    return tw.subgroup_space_tower(tw.builtin_tower(f"pro_p:{p}", depth))


def test_empty_tree_rank_zero():
    cert = cb.cb_rank(empty_tree())
    assert cert.verdict == "Exact" and cert.rank == 0


def test_discrete_tree_rank_one():
    cert = cb.cb_rank(discrete_tree(["a", "b", "c"]))
    assert cert.verdict == "Exact" and cert.rank == 1


def test_pro_p_rank_two():
    for p in (2, 3):
        cert = cb.cb_rank(pro_p_tree(p, 5))
        assert cert.verdict == "Exact" and cert.rank == 2
        assert cert.as_dict()["schema"] == 1
        assert "convention" in cert.as_dict()


def test_prod_rank_three():
    # two maximal-index coordinates give a thread surviving two derivatives
    X = tw.subgroup_space_tower(tw.builtin_tower("prod:pro_p:2,pro_p:3", 4))
    cert = cb.cb_rank(X)
    assert cert.verdict == "Exact" and cert.rank == 3


def test_unknown_certs_give_interval():
    X = binary_tree(3, certified=False)
    cert = cb.cb_rank(X)
    assert cert.verdict == "Interval"
    assert cert.lo >= 1 and cert.hi is None


def test_perfect_hull_detected():
    X = binary_tree(3, certified=True)
    cert = cb.cb_rank(X)
    assert cert.verdict == "PerfectHullDetected"


def test_thread_cert_validation():
    with pytest.raises(ValueError):
        cb.ThreadCert("scattered")  # missing m
    with pytest.raises(ValueError):
        cb.ThreadCert("perfect", 1)  # spurious m
    with pytest.raises(ValueError):
        cb.ThreadCert("solid")


def test_derivative_removes_stage_zero():
    X = pro_p_tree(2, 4)
    cert = cb.cb_rank(X)
    # the first derivative removes the four proper-subgroup threads; only
    # the zero-subgroup thread survives it, and goes at stage 1
    proper = sorted(label for label in X.levels[-1] if label != "ord1")
    assert [sorted(stage["removed"]) for stage in cert.trace] == [proper, ["ord1"]]
    assert len(proper) == 4


def test_heights_pro_p():
    X = pro_p_tree(2, 5)
    rep = cb.heights(X)
    assert rep.heights["ord1"] == 1  # the zero subgroup accumulates
    assert all(h == 0 for lbl, h in rep.heights.items() if lbl != "ord1")
    assert not rep.hull and not rep.lower_bounds


def test_depth_exhausted():
    X = cb.SpaceTree(
        levels=[["*"], ["x"]],
        bonds=[[0]],
        certs=[cb.ThreadCert("scattered", 5, "far too high")],
    )
    with pytest.raises(cb.DepthExhausted):
        cb.cb_rank(X)


def test_equivariant_heights_pro_p():
    X = pro_p_tree(2, 4)
    assert cb.check_equivariant_heights(X)


def test_equivariant_heights_corrupted_action():
    X = tw.subgroup_space_tower(tw.builtin_tower("prod:pro_p:2,pro_p:3", 2))
    assert cb.check_equivariant_heights(X)
    # corrupt: make the certificates non-constant on a (forced) orbit by
    # installing a bogus permutation that merges threads of unequal height
    hts = [c.m for c in X.certs]
    lo = hts.index(min(hts))
    hi = hts.index(max(hts))
    swap = list(range(X.top_size))
    swap[lo], swap[hi] = swap[hi], swap[lo]
    bad = cb.SpaceTree(
        X.levels, X.bonds, X.certs,
        actions=[[] for _ in range(X.depth)] + [[tuple(swap)]],
        chain=X.chain,
    )
    assert not cb.check_equivariant_heights(bad)


@pytest.mark.parametrize("sel,depth,rank", [
    ("prod:pro_p:2,pro_p:3", 1, 3),
    ("prod:pro_p:2,pro_p:3,pro_p:5", 2, 4),
])
def test_rank_not_capped_by_depth(sel, depth, rank):
    # the derivative chain may be longer than the tree is deep: every
    # thread carries a scattered certificate, so the rank is exact
    X = tw.subgroup_space_tower(tw.builtin_tower(sel, depth))
    cert = cb.cb_rank(X)
    assert cert.verdict == "Exact" and cert.rank == rank
    assert len(cert.trace) == rank


def test_equivariant_heights_fiber_in_one_orbit():
    # both threads over the root have height 1, but the swap puts the whole
    # fiber in one orbit, so neither point can accumulate equivariantly
    def tree(top_perms):
        return cb.SpaceTree(
            levels=[["*"], ["a", "b"]],
            bonds=[[0, 0]],
            certs=[cb.ThreadCert("scattered", 1)] * 2,
            actions=[[(0,), (0,)], top_perms],
        )

    assert cb.check_equivariant_heights(tree([(0, 1), (0, 1)]))
    assert not cb.check_equivariant_heights(tree([(0, 1), (1, 0)]))


@pytest.mark.parametrize("primes", [(2,), (3,), (5,), (2, 3), (2, 5), (3, 5), (2, 3, 5)])
@pytest.mark.parametrize("depth", (1, 2, 3))
def test_cb_rank_product_rule(primes, depth):
    # rank(Z_p) = 2, and a product of k such factors has rank
    # sum of ranks - (k - 1) = k + 1; pro_p:p is the case k = 1
    tags = ",".join(f"pro_p:{p}" for p in primes)
    fam = tags if len(primes) == 1 else f"prod:{tags}"
    cert = cb.cb_rank(tw.subgroup_space_tower(tw.builtin_tower(fam, depth)))
    assert cert.verdict == "Exact" and cert.rank == len(primes) + 1
