import random
from fractions import Fraction

import pytest

from profmack import homdim as hd
from profmack import linalg as la
from profmack import mackey as mk
from profmack import sheaf as sh
from profmack.groups import (CyclicGroup, cyclic, generators, parse_group,
                             subgroup_conjugacy_classes, symmetric, trivial_subgroup)
from profmack.gsets import transitive_gset
from sheaf_helpers import constant_sheaf_finite, reference_hom_conv, skyscraper_isolated

F = Fraction
SEED = 20260823


# ---------------------------------------------------------------------------
# periodic tails


def test_tail_arithmetic():
    a = sh.Tail(2, ((F(1),), (F(0),)))
    b = sh.Tail(1, ((F(1),),))
    s = a.add(b)
    assert s.period == 2
    assert s.values == ((F(2),), (F(1),))
    assert a.scale(F(3)).values == ((F(3),), (F(0),))
    assert not a.is_zero()
    assert sh.zero_tail([1]).is_zero()


def test_tail_equality_across_periods():
    a = sh.Tail(2, ((F(1),), (F(1),)))
    b = sh.Tail(1, ((F(1),),))
    assert a.eq(b)
    c = sh.Tail(2, ((F(1),), (F(0),)))
    assert not c.eq(b)


def test_tail_coords():
    t = sh.Tail(2, ((F(1),), (F(2),)))
    assert sh.tail_coords(t, 4) == [F(1), F(2), F(1), F(2)]


# ---------------------------------------------------------------------------
# the three canonical resolutions


def test_resolution_constQ_spzp():
    E = sh.constant_sheaf(sh.spzp_base(2), 1)
    res = sh.godement_resolution(E)
    assert res.length == 1
    s0 = res.stage_stalk_dims(0)
    assert s0["omega_fin"] == 1 and s0["omega_tail_mult"] == 1
    s1 = res.stage_stalk_dims(1)
    assert s1["exc"] == [] and s1["pattern"] == [0]
    assert s1["omega_fin"] == 0 and s1["omega_tail_mult"] == 1
    assert sh.stalk_vanishing_check(res, {"isolated": 0, "omega": 1}) == []


def test_resolution_skyscraper_length_zero():
    sky = sh.skyscraper_omega(sh.spzp_base(2), 3)
    res = sh.godement_resolution(sky)
    assert res.length == 0
    assert sh.godement_resolution(sky, max_n=0).length == 0


def test_truncated_resolution_raises():
    """Stages I0..I{max_n} that do not end the resolution are no resolution."""
    E = sh.constant_sheaf(sh.spzp_base(2), 1)
    with pytest.raises(sh.ResolutionUnavailable):
        sh.godement_resolution(E, max_n=0)
    assert sh.godement_resolution(E, max_n=1).length == 1


def test_resolution_finite_discrete_iso():
    # pattern-zero bases behave like finite discrete spaces: I0 = E
    base = sh.ConvergingBase(r=3, m=1)
    E = sh.ConvSheaf(base, [1, 2, 1], [0], 2, [sh.zero_tail([0])] * 2)
    res = sh.godement_resolution(E)
    assert res.length == 0
    I0 = res.stages[0]
    assert I0.exc_dims == E.exc_dims and I0.fin_dim == E.fin_dim


# ---------------------------------------------------------------------------
# hom spaces


def test_hom_sky_omega_is_kernel_of_lambda():
    B = sh.spzp_base(2)
    cQ = sh.constant_sheaf(B, 1)
    sky = sh.skyscraper_omega(B, 1)
    assert sh.hom_conv_dim(sky, cQ) == 0  # lambda injective on constQ
    assert sh.hom_conv_dim(sky, sky) == 1
    assert sh.hom_conv_dim(cQ, cQ) == 1


def test_hom_sky_isolated_adjunction():
    # hom(sky(x, Q), E) = E_x^{stab(x)}
    base = sh.ConvergingBase(r=1, m=1)
    skyx = skyscraper_isolated(base, 1, 1)
    E = sh.ConvSheaf(base, [3], [1], 1, [sh.constant_tail([1], [F(1)])])
    assert sh.hom_conv_dim(skyx, E) == 3


def test_hom_with_group_action():
    # W = C2 acting by sign on an exceptional stalk: fixed part is 0
    W = cyclic(2)
    base = sh.ConvergingBase(r=1, m=1, group=W)
    skyx = skyscraper_isolated(base, 1, 1)
    E = sh.ConvSheaf(
        base, [1], [0], 0, [],
        act_exc={(0, 0): la.identity(1), (1, 0): [[F(-1)]]},
    )
    assert sh.hom_conv_dim(skyx, E) == 0


def test_skyscraper_in_tail_rejected():
    base = sh.ConvergingBase(r=1, m=1)
    with pytest.raises(sh.NonPeriodicTail):
        skyscraper_isolated(base, 5, 1)


# ---------------------------------------------------------------------------
# Weyl condition


def test_weyl_check_and_corruption():
    W = cyclic(2)
    base = sh.ConvergingBase(r=1, m=1, group=W)
    K = sh.Subgroup(W, (0, 1))
    E = sh.ConvSheaf(
        base, [1], [1], 1, [sh.constant_tail([1], [F(1)])],
        weyl_exc=[K], weyl_pattern=[K], weyl_omega=K,
    )
    assert sh.weyl_check(E).ok
    bad = sh.ConvSheaf(
        base, [1], [1], 1, [sh.constant_tail([1], [F(1)])],
        act_exc={(0, 0): la.identity(1), (1, 0): [[F(-1)]]},
        weyl_exc=[K], weyl_pattern=[K], weyl_omega=K,
    )
    flag = sh.weyl_check(bad)
    assert not flag.ok and flag.exc == [False]


# ---------------------------------------------------------------------------
# randomized stalk-vanishing battery


def random_conv_sheaf(rng):
    r = rng.randint(0, 2)
    m = rng.randint(1, 2)
    base = sh.ConvergingBase(r=r, m=m)
    pattern = [rng.randint(0, 2) for _ in range(m)]
    fin = rng.randint(0, 2)
    lam = []
    for _ in range(fin):
        period = m * rng.choice([1, 2])
        vals = tuple(
            tuple(F(rng.randint(-2, 2)) for _ in range(pattern[j % m]))
            for j in range(period)
        )
        lam.append(sh.Tail(period, vals))
    exc = [rng.randint(0, 2) for _ in range(r)]
    return sh.ConvSheaf(base, exc, pattern, fin, lam,
                        name=f"rand(r={r},m={m})")


def test_random_battery_stalk_vanishing():
    rng = random.Random(SEED)
    heights = {"isolated": 0, "omega": 1}
    for _ in range(25):
        E = random_conv_sheaf(rng)
        res = sh.godement_resolution(E)
        assert res.length <= 1
        assert sh.stalk_vanishing_check(res, heights) == []


# ---------------------------------------------------------------------------
# finite discrete bases


def test_hom_fin_regular_orbit():
    G = symmetric(3)
    X = transitive_gset(G, trivial_subgroup(G))
    E = constant_sheaf_finite(X, 1)
    assert E.check_equivariance()
    # equivariant endomorphisms of the constant sheaf on a transitive set
    assert len(sh.hom_fin(E, E)) == 1


def regular_constant_sheaf(G):
    return constant_sheaf_finite(transitive_gset(G, trivial_subgroup(G)), 1)


def test_check_equivariance_rejects_a_corrupted_non_generator_matrix():
    G = symmetric(3)
    E = regular_constant_sheaf(G)
    g = next(g for g in G.elements() if g != G.identity and g not in generators(G))
    E.act[(g, 0)] = la.scale(E.act[(g, 0)], F(2))
    assert not E.check_equivariance()


def test_check_equivariance_rejects_a_corrupted_identity_matrix():
    G = symmetric(3)
    E = regular_constant_sheaf(G)
    E.act[(G.identity, 0)] = la.scale(E.act[(G.identity, 0)], F(2))
    assert not E.check_equivariance()
    # zero matrices satisfy act[(s·h, x)] = act[(s, h·x)]·act[(h, x)]
    # everywhere; only the identity clause rejects them
    E.act = {key: la.zeros(1, 1) for key in E.act}
    assert not E.check_equivariance()


def test_hom_fin_zero():
    G = cyclic(2)
    X = transitive_gset(G, trivial_subgroup(G))
    E = constant_sheaf_finite(X, 1)
    Z = sh.EqSheafFinite(X, [0, 0], {(g, x): [] for g in G.elements()
                                     for x in range(2)})
    assert sh.hom_fin(E, Z) == []


def reference_hom_fin(E, F):
    """hom_fin with its unknowns packed by hand, one block per point."""
    n = E.base.size
    blocks, total = {}, 0
    for x in range(n):
        blocks[x] = (total, F.dims[x], E.dims[x])
        total += F.dims[x] * E.dims[x]
    if total == 0:
        return []
    rows = la.Matrix([], total)
    for g in E.base.group.elements():
        for x in range(n):
            rows += la.equation_rows(total, blocks, [(None, E.base.act[g][x], E.act[(g, x)])],
                                     [(F.act[(g, x)], x, None)])
    return [{x: la.read_block(v, blocks[x]) for x in range(n)} for v in la.nullspace(rows)]


@pytest.mark.parametrize("sel", ["sym:3", "prod:cyclic:2,cyclic:2"])
def test_hom_fin_equals_the_hand_packed_solve_on_phi_sheaves(sel):
    """Phi of the representables on the class representatives: the sheaves
    whose Hom spaces the hom_audit benchmark compares with hom_space."""
    G = parse_group(sel)
    sheaves = [hd.mackey_to_weylsheaf(mk.representable(G, transitive_gset(G, H)))[0]
               for H, _ in subgroup_conjugacy_classes(G)]
    sheaves.append(sh.EqSheafFinite(sheaves[0].base, [0] * sheaves[0].base.size,
                                    {key: la.zeros(0, 0) for key in sheaves[0].act}))
    nonzero = 0
    for E in sheaves:
        for F_ in sheaves:
            got = sh.hom_fin(E, F_)
            assert got == reference_hom_fin(E, F_)
            assert all(la.shape(f[x]) == (F_.dims[x], E.dims[x])
                       for f in got for x in f)
            nonzero += bool(got)
    assert sheaves[-1].dims and sh.hom_fin(sheaves[-1], sheaves[-1]) == []
    assert nonzero >= len(sheaves) - 1


# ---------------------------------------------------------------------------
# hom_conv against the hand-packed solve


def random_stage_sheaf(rng, base):
    """A sheaf over base with W acting by diagonal ±1 matrices, lambda periods
    m, 2m or 3m and up to two tail summands, or its I0 or coker(delta)."""
    m, W = base.m, base.group
    exc = [rng.randint(0, 2) for _ in range(base.r)]
    pattern = [rng.randint(0, 2) for _ in range(m)]
    fin, tail_mult = rng.randint(0, 2), rng.randint(0, 2)
    lam = []
    for _ in range(fin):
        period = m * rng.randint(1, 3)
        lam.append(sh.Tail(period, tuple(
            tuple(F(rng.randint(-1, 1)) for _ in range(pattern[j % m]))
            for j in range(period))))

    def sign(d):
        return la.Matrix([[F(rng.choice([-1, 1])) if i == j else F(0) for j in range(d)]
                          for i in range(d)], d)

    g = [h for h in W.elements() if h != W.identity]
    E = sh.ConvSheaf(base, exc, pattern, fin, lam, tail_mult=tail_mult,
                     lam_tail=tuple(F(rng.randint(-1, 1)) for _ in range(tail_mult)),
                     act_exc={(h, i): sign(d) for h in g for i, d in enumerate(exc)},
                     act_pattern={(h, j): sign(d) for h in g for j, d in enumerate(pattern)},
                     act_fin={h: sign(fin) for h in g})
    return rng.choice([E, E, sh.godement_I0(E), sh.coker_delta(E)])


def test_hom_conv_equals_the_hand_packed_solve_on_a_seeded_battery():
    rng = random.Random(SEED)
    dims, raised = [], 0
    for _ in range(3200):
        base = sh.ConvergingBase(r=rng.randint(0, 2), m=rng.randint(1, 3),
                                 group=CyclicGroup(rng.randint(1, 2)))
        E, F_ = random_stage_sheaf(rng, base), random_stage_sheaf(rng, base)
        try:
            want = len(reference_hom_conv(E, F_))
        except sh.NonPeriodicTail:
            with pytest.raises(sh.NonPeriodicTail):
                sh.hom_conv(E, F_)
            raised += 1
            continue
        got = sh.hom_conv(E, F_)
        assert len(got) == want
        dims.append(want)
    assert len(dims) >= 2000 and raised >= 500 and 0 in dims and max(dims) >= 20


# ---------------------------------------------------------------------------
# malformed input: ValueError, also under python -O (pytest.raises only)


def _conv(r=0, m=1, **kw):
    base = sh.ConvergingBase(r=r, m=m)
    args = dict(exc_dims=[0] * r, pattern_dims=[1] * m, fin_dim=0, lam=[])
    args.update(kw)
    return lambda: sh.ConvSheaf(base, **args)


def _regular(G):
    return constant_sheaf_finite(transitive_gset(G, trivial_subgroup(G)), 1)


MALFORMED = {
    "hom_conv-m": lambda: sh.hom_conv_dim(sh.constant_sheaf(sh.ConvergingBase(r=0, m=1), 1),
                                          sh.constant_sheaf(sh.ConvergingBase(r=0, m=2), 1)),
    "hom_conv-r": lambda: sh.hom_conv(sh.constant_sheaf(sh.ConvergingBase(r=1, m=1), 1),
                                      sh.constant_sheaf(sh.ConvergingBase(r=2, m=1), 1)),
    "hom_fin-group": lambda: sh.hom_fin(_regular(cyclic(2)), _regular(cyclic(3))),
    "hom_fin-action": lambda: sh.hom_fin(
        _regular(cyclic(2)), constant_sheaf_finite(
            transitive_gset(cyclic(2), sh.Subgroup(cyclic(2), (0, 1))), 1)),
    "base-m": lambda: sh.ConvergingBase(r=0, m=0),
    "base-r": lambda: sh.ConvergingBase(r=-1, m=1),
    "tail-values": lambda: sh.Tail(2, ((F(1),),)),
    "tail-expand": lambda: sh.Tail(2, ((F(1),), (F(0),))).expand(3),
    "constant_tail": lambda: sh.constant_tail([1, 2], [F(1)]),
    "conv-exc": _conv(r=1, exc_dims=[]),
    "conv-pattern": _conv(m=2, pattern_dims=[1]),
    "conv-lam": _conv(fin_dim=1),
    "conv-lam_tail": _conv(tail_mult=1),
    "conv-tail_patterns": _conv(tail_mult=1, lam_tail=(F(0),), tail_patterns=[]),
}


@pytest.mark.parametrize("make", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_sheaf_input_raises_value_error(make):
    with pytest.raises(ValueError):
        make()
