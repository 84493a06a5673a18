import random
from fractions import Fraction

import pytest

from profmack import homdim as hd
from profmack import linalg as la
from profmack import mackey as mk
from profmack import sheaf as sh
from profmack.groups import (UnknownFamily, cyclic, symmetric, subgroup_conjugacy_classes,
                             trivial_subgroup)
from profmack.gsets import transitive_gset

F = Fraction
SEED = 20260823


# ---------------------------------------------------------------------------
# Hom over converging bases


def test_skyscraper_reduction_cross_check():
    # for E = sky(omega, Q) degree 0 reduces to (ker lambda_F)^W; compare
    B = sh.spzp_base(2)
    sky = sh.skyscraper_omega(B, 1)
    for d in (1, 2):
        cQ = sh.constant_sheaf(B, d)
        general = len(sh.hom_conv(sky, cQ))
        lam_mat = [sh.tail_coords(t, 2) for t in cQ.lam]
        reduced = d - la.rank([list(col) for col in zip(*lam_mat)]) if lam_mat else d
        assert general == reduced == 0


# ---------------------------------------------------------------------------
# non-split extensions


def test_nonsplit_extension_sky_constQ():
    for p in (2, 3):
        B = sh.spzp_base(p)
        sky = sh.skyscraper_omega(B, 1)
        cQ = sh.constant_sheaf(B, 1)
        d = hd.nonsplit_extension(sky, cQ)
        assert d is not None
        # the witness is the alternating section (1, 0, 1, 0, ...)
        assert d.witness == sh.Tail(2, ((F(1),), (F(0),)))
        M = d.middle
        assert M.fin_dim == 2
        assert M.lam[1].eq(d.witness)


def test_nonsplit_extension_none_cases():
    B = sh.spzp_base(2)
    sky = sh.skyscraper_omega(B, 1)
    # skyscrapers are injective: length-0 resolution
    assert hd.nonsplit_extension(sky, sky) is None
    assert hd.nonsplit_extension(sky, sh.skyscraper_omega(B, 2)) is None
    # I0-type targets (lambda surjective on the tail) also kill Ext^1
    assert hd.nonsplit_extension(sky, sh.godement_I0(sh.constant_sheaf(B, 1))) is None
    # finite-discrete-like target (zero pattern)
    base = sh.ConvergingBase(r=2, m=1)
    fin = sh.ConvSheaf(base, [1, 1], [0], 1, [sh.zero_tail([0])])
    skyb = sh.ConvSheaf(base, [0, 0], [0], 1, [sh.zero_tail([0])])
    assert hd.nonsplit_extension(skyb, fin) is None


# ---------------------------------------------------------------------------
# certificates


def test_certificate_spzp_exact_one():
    for p in (2, 3):
        cert = hd.homdim_certificate(f"spzp:{p}", depth=5)
        assert cert.verdict == "Exact" and cert.value == 1
        assert cert.godement_length == 1
        assert cert.witness is not None
        data = cert.as_dict()
        assert data["schema"] == 1
        assert data["rank_certificate"]["verdict"] == "Exact"


def test_certificate_finite_exact_zero():
    for sel in ("cyclic:2", "cyclic:4", "sym:3"):
        cert = hd.homdim_certificate(f"finite:{sel}", depth=3)
        assert cert.verdict == "Exact" and cert.value == 0


def test_certificate_perfect_hull_flag_only():
    from profmack import cbrank as cb
    from tree_helpers import binary_tree

    tree = binary_tree(3, certified=True)
    cert = hd.combine_certificate("binary", cb.cb_rank(tree), None, 0, None, [])
    assert cert.verdict == "PerfectHull"
    assert cert.value is None and cert.upper is None


def test_certificate_unknown_setup():
    with pytest.raises(UnknownFamily):
        hd.homdim_certificate("rhombus")


# ---------------------------------------------------------------------------
# Phi = mackey_to_weylsheaf


def test_phi_burnside_c2():
    A = mk.burnside_mackey(cyclic(2))
    S, flag = hd.mackey_to_weylsheaf(A)
    assert S.dims == [1, 1]
    assert flag.ok
    assert S.check_equivariance()


def test_phi_zero():
    S, _ = hd.mackey_to_weylsheaf(mk.zero_mackey(cyclic(2)))
    assert S.dims == [0, 0]


def test_phi_representable_dims_s3():
    G = symmetric(3)
    reps = [rep for rep, _ in subgroup_conjugacy_classes(G)]
    got = {}
    for H in reps:
        M = mk.representable(G, transitive_gset(G, H))
        S, flag = hd.mackey_to_weylsheaf(M)
        assert flag.ok
        got[G.order // H.order] = S.dims
    assert got[6] == [6, 0, 0, 0, 0, 0]
    assert got[3] == [3, 1, 1, 1, 0, 0]
    assert got[2] == [2, 0, 0, 0, 2, 0]
    assert got[1] == [1, 1, 1, 1, 1, 1]


def test_phi_hom_dimension_match_c2():
    G = cyclic(2)
    pool = [mk.burnside_mackey(G)] + [
        mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)
    ]
    sheaves = [hd.mackey_to_weylsheaf(M)[0] for M in pool]
    for i, M in enumerate(pool):
        for j, N in enumerate(pool):
            assert len(mk.hom_space(M, N)) == len(sh.hom_fin(sheaves[i], sheaves[j]))


@pytest.mark.parametrize("G", [symmetric(3), cyclic(12)], ids=["sym:3", "cyclic:12"])
def test_phi_hom_dimensions_match_on_the_battery(G):
    """An oracle independent of `mackey._subfunctor`: over Q, Phi is an
    equivalence onto Weyl sheaves, so Hom dimensions agree on every ordered
    pair of representables and fixed-point functors."""
    pool = [mk.representable(G, transitive_gset(G, H)) for H, _ in subgroup_conjugacy_classes(G)]
    pool += [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]
    sheaves = [hd.mackey_to_weylsheaf(M)[0] for M in pool]
    fixed_point_pairs = 0
    for i, M in enumerate(pool):
        for j, N in enumerate(pool):
            n = len(mk.hom_space(M, N))
            assert n == len(sh.hom_fin(sheaves[i], sheaves[j]))
            fixed_point_pairs += n > 0 and M.name.startswith("FP(") and N.name.startswith("FP(")
    assert fixed_point_pairs >= 3


def twisted_ses(A, B, h):
    """0 -> A -> A(+)B -> B -> 0 twisted by h in Hom(A, B)."""
    M = mk.direct_sum_mackey([A, B])
    subs = A.subs
    inc = mk.MackeyMorphism(A, M, {
        H: la.Matrix(la.identity(A.dim(H)) + h(H), A.dim(H)) for H in subs})
    proj = mk.MackeyMorphism(M, B, {
        H: la.Matrix([[-h(H)[i][j] for j in range(A.dim(H))]
                      + [la.Q1 if i == t else la.Q0 for t in range(B.dim(H))]
                      for i in range(B.dim(H))], M.dim(H))
        for H in subs})
    return inc, proj


def test_phi_exact_on_seeded_ses():
    rng = random.Random(SEED)
    G = cyclic(2)
    pool = [mk.burnside_mackey(G)] + [
        mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)
    ] + [mk.representable(G, transitive_gset(G, trivial_subgroup(G)))]
    done = 0
    while done < 8:
        A, B = rng.choice(pool), rng.choice(pool)
        homs = mk.hom_space(A, B)
        h = rng.choice(homs) if homs else mk.zero_morphism(A, B)
        inc, proj = twisted_ses(A, B, h)
        assert inc.check() and proj.check()
        assert hd.phi_exact_on_ses(inc, proj)
        done += 1
