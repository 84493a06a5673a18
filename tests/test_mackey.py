import itertools
import random
from fractions import Fraction

import pytest

from profmack import burnside as bs
from profmack import groups as gr
from profmack import gsets as gs
from profmack import linalg as la
from profmack import mackey as mk
from group_helpers import quaternion_json
from linalg_helpers import solve_each
from span_helpers import (from_span_functor, identity_span, relabelled, span_action_matrix,
                          to_span_functor)

SEED = 20260823


def class_reps(G):
    return [rep for rep, _ in gr.subgroup_conjugacy_classes(G)]


def battery(G):
    """Representables on the class representatives, then the fixed-point
    functors of the rational irreducibles."""
    objs = [mk.representable(G, gs.transitive_gset(G, H)) for H in class_reps(G)]
    return objs + [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]


def s3_objects():
    G = gr.symmetric(3)
    objs = [mk.representable(G, gs.transitive_gset(G, H),
                             name=f"rep{G.order // H.order}")
            for H in class_reps(G)]
    objs += [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]
    return G, objs


# ---------------------------------------------------------------------------
# axioms and frozen dimensions


def test_burnside_mackey_c2_dims_and_axioms():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    assert [A.dim(H) for H in A.subs] == [1, 2]
    assert mk.check_axioms(A) == []


def test_representable_dims_s3():
    G = gr.symmetric(3)
    dims = {}
    for H in class_reps(G):
        M = mk.representable(G, gs.transitive_gset(G, H))
        dims[G.order // H.order] = [M.dim(K) for K in M.subs]
    # subgroup order sequence: e, C2 x3, C3, S3
    assert dims[1] == [1, 2, 2, 2, 2, 4]
    assert dims[2] == [2, 1, 1, 1, 4, 2]
    assert dims[3] == [3, 3, 3, 3, 1, 2]
    assert dims[6] == [6, 3, 3, 3, 2, 1]


def test_fixed_point_dims_s3():
    G = gr.symmetric(3)
    irrs = {V.name: V for V in mk.rational_irreducibles(G)}
    assert set(irrs) == {"triv", "sign", "std"}
    fp = {n: mk.fixed_point_functor(V) for n, V in irrs.items()}
    assert [fp["triv"].dim(H) for H in fp["triv"].subs] == [1, 1, 1, 1, 1, 1]
    assert [fp["sign"].dim(H) for H in fp["sign"].subs] == [1, 0, 0, 0, 1, 0]
    assert [fp["std"].dim(H) for H in fp["std"].subs] == [2, 1, 1, 1, 0, 0]


def test_axioms_battery_s3():
    _, objs = s3_objects()
    for M in objs:
        assert mk.check_axioms(M) == [], M.name


def test_axiom_violation_detected():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    e, C2 = A.subs
    bad_res = dict(A.res)
    bad_res[(C2, e)] = [[la.Q0] * 2]  # break unit-compatibility
    B = mk.MackeyFunctorQ(G, dict(A.dims), bad_res, dict(A.ind),
                          dict(A.conj), name="corrupt")
    assert mk.check_axioms(B) != []


@pytest.mark.parametrize("sel", ["sym:3", "dihedral:8"])
def test_structure_maps_cover_every_map(sel):
    G = gr.parse_group(sel)
    objs = [mk.representable(G, gs.transitive_gset(G, H)) for H in class_reps(G)]
    if sel == "sym:3":
        objs += [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]
    maps = list(mk._structure_maps(G, gr.all_subgroups(G)))
    for M in objs:
        for name in ("res", "ind", "conj"):
            keys = [key for kind, key, _, _ in maps if kind == name]
            assert keys == list(getattr(M, name))
        for kind, key, src, dst in maps:
            assert la.shape(M.map(kind, key)) == (M.dim(dst), M.dim(src))


def reference_orbits(G):
    """G/H for every subgroup H, with its ascending coset representatives and
    coset map, built straight from ``left_cosets``: point i is reps[i]·H."""
    out = {}
    for H in gr.all_subgroups(G):
        reps, rep_of = gr.left_cosets(G, H)
        index = {r: i for i, r in enumerate(reps)}
        act = tuple(tuple(index[rep_of[G.mul(g, r)]] for r in reps)
                    for g in G.elements())
        out[H] = (gs.FiniteGSet(G, act), reps, rep_of, index)
    return out


def reference_representable_conj(G, A):
    """conj[(g, H)] of Span(-, A): precompose with O_Hg -> O_H, xHg |-> xgH."""
    orbits = reference_orbits(G)
    basis = {H: bs.hom_basis(O, A) for H, (O, *_) in orbits.items()}
    out = {}
    for H, (OH, _, rep_of, index_H) in orbits.items():
        spans = [bs.component_span(G, OH, A, c) for c in basis[H]]
        for g in G.elements():
            Hg = gr.conjugate_subgroup(H, g)
            OHg, reps_Hg, *_ = orbits[Hg]
            leg = tuple(index_H[rep_of[G.mul(r, g)]] for r in reps_Hg)
            iota = bs.Span(OHg, OH, OHg, tuple(range(OHg.size)), leg)
            index = {c: i for i, c in enumerate(basis[Hg])}
            m = la.zeros(len(basis[Hg]), len(basis[H]))
            for j, s_c in enumerate(spans):
                for comp, mult in bs.decompose_span(bs.span_compose(iota, s_c)).items():
                    m[index[comp]][j] += mult
            out[(g, H)] = m
    return out


@pytest.mark.parametrize("sel", ["sym:3", "dihedral:8"])
def test_representable_conj_matches_one_leg_construction(sel):
    G = gr.parse_group(sel)
    for H in class_reps(G):
        A = gs.transitive_gset(G, H)
        assert mk.representable(G, A).conj == reference_representable_conj(G, A)


# ---------------------------------------------------------------------------
# hom spaces and Yoneda


def test_yoneda_dimension_c2():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    for H in class_reps(G):
        R = mk.representable(G, gs.transitive_gset(G, H))
        assert len(mk.hom_space(R, A)) == A.dim(H)


def test_hom_morphisms_are_natural():
    G = gr.symmetric(3)
    A = mk.burnside_mackey(G)
    R = mk.representable(G, gs.transitive_gset(G, gr.trivial_subgroup(G)))
    for f in mk.hom_space(R, A):
        assert f.check()


def test_hom_basis_count_matches_yoneda_pairing():
    G = gr.symmetric(3)
    reps = class_reps(G)
    for H in reps:
        for K in reps:
            A = gs.transitive_gset(G, H)
            B = gs.transitive_gset(G, K)
            RA = mk.representable(G, A)
            RB = mk.representable(G, B)
            assert len(mk.hom_space(RA, RB)) == len(bs.hom_basis(A, B))


# ---------------------------------------------------------------------------
# Ext


def test_ext_degree_zero_is_hom():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    irr = mk.rational_irreducibles(G)
    for V in irr:
        N = mk.fixed_point_functor(V)
        assert mk.ext_mackey(A, N, 0) == len(mk.hom_space(A, N))


def test_ext_one_vanishes_c2():
    G = gr.cyclic(2)
    pool = [mk.burnside_mackey(G)] + [
        mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)
    ]
    tools = mk._RepTools(G)
    for M in pool:
        res = mk.projective_resolution(M, 2, tools)
        for N in pool:
            assert mk.ext_mackey(M, N, 1, res=res, tools=tools) == 0


def test_ext_resolution_too_short():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    tools = mk._RepTools(G)
    res = mk.projective_resolution(A, 1, tools)
    if res.exact_at is None:
        with pytest.raises(mk.ResolutionTooShort):
            mk.ext_mackey(A, A, 5, res=res, tools=tools)


def test_ext_rejects_a_negative_degree():
    A = mk.burnside_mackey(gr.cyclic(2))
    with pytest.raises(ValueError, match="degree must be non-negative"):
        mk.ext_mackey(A, A, -1)


def test_free_cover_surjective():
    G = gr.symmetric(3)
    A = mk.burnside_mackey(G)
    tools = mk._RepTools(G)
    cov = mk.free_cover(A, tools)
    for H in A.subs:
        mat = cov.cover.mats[H]
        if A.dim(H):
            assert la.rank(mat) == A.dim(H)


def test_kernel_functor_is_kernel():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    tools = mk._RepTools(G)
    cov = mk.free_cover(A, tools)
    K, inc = mk.kernel_functor(cov.cover)
    assert mk.check_axioms(K) == []
    assert cov.cover.compose(inc).is_zero()
    for H in A.subs:
        assert K.dim(H) == cov.functor.dim(H) - la.rank(cov.cover.mats[H])


def yoneda_morphism(P, N, gen_subgroups, gen_vectors, bases, tools):
    """Morphism ⊕ rep(O_Hi) -> N from elements x_i ∈ N(H_i): the column of
    (i, c) at K is N's dual span of c applied to x_i."""
    mats = {}
    for K in tools.subs:
        cols = []
        for (i, c) in bases[K]:
            H = gen_subgroups[i]
            cols.append(la.matvec(tools.dual_action(N, K, H, c), gen_vectors[i]))
        mats[K] = la.from_columns(cols, N.dim(K))
    return mk.MackeyMorphism(P, N, mats)


def identity_component(H):
    """The class of the identity span on G/H, keyed as `decompose_span` keys
    it: the least (stabilizer of x, x, x) over the points x of G/H."""
    reps = gs.coset_orbit(H.parent, H)[0]
    return min((gr.conjugate_subgroup(H, r).elements, x, x) for x, r in enumerate(reps))


def reference_differential(res, j):
    """d: P_{j+1} -> P_j, the cover of P_{j+1} followed by the inclusion of
    its image, the kernel of P_j's cover."""
    cov_j, cov_j1 = res.covers[j], res.covers[j + 1]
    return mk.kernel_functor(cov_j.cover)[1].compose(cov_j1.cover)


def reference_hom_complex_diff(res, N, j, tools):
    """The hom-complex differential built column by column from whole Yoneda
    morphisms: phi over every subgroup, composed with d, read at the
    identity class of each generator of P_{j+1}."""
    cov_j, cov_j1 = res.covers[j], res.covers[j + 1]
    d = reference_differential(res, j)
    cols = []
    for i, H in enumerate(cov_j.gen_subgroups):
        for t in range(N.dim(H)):
            xs = [[la.Q0] * N.dim(Hg) for Hg in cov_j.gen_subgroups]
            xs[i][t] = la.Q1
            phi = yoneda_morphism(cov_j.functor, N, cov_j.gen_subgroups, xs,
                                  cov_j.bases, tools)
            psi = phi.compose(d)
            col = []
            for i2, H2 in enumerate(cov_j1.gen_subgroups):
                idx = cov_j1.bases[H2].index((i2, identity_component(H2)))
                col += [psi.mats[H2][r][idx] for r in range(N.dim(H2))]
            cols.append(col)
    n_rows = sum(N.dim(H2) for H2 in cov_j1.gen_subgroups)
    return la.from_columns(cols, n_rows)


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3"])
def test_hom_complex_diff_matches_yoneda_composition(sel):
    G = gr.parse_group(sel)
    objs = battery(G)
    tools = mk._RepTools(G)
    resolutions = [mk.projective_resolution(M, 2, tools) for M in objs[:2]]
    assert all(len(res.covers) == 3 for res in resolutions)
    for res in resolutions:
        for N in objs:
            for j in (0, 1):
                got = mk._hom_complex_diff(res, N, j, tools)
                assert got == reference_hom_complex_diff(res, N, j, tools)


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_boundaries_are_the_differential_at_each_generators_identity_class(sel):
    G = gr.parse_group(sel)
    tools = mk._RepTools(G)
    stages = set()
    for M in battery(G):
        res = mk.projective_resolution(M, 2, tools)
        for j in range(len(res.covers) - 1):
            d = reference_differential(res, j)
            cov_j1 = res.covers[j + 1]
            assert len(res.boundaries[j]) == len(cov_j1.gen_subgroups)
            for i, (H, z) in enumerate(zip(cov_j1.gen_subgroups, res.boundaries[j])):
                idx = cov_j1.bases[H].index((i, identity_component(H)))
                assert z == [row[idx] for row in d.mats[H]], (M.name, j, i)
                stages.add(j)
    assert stages == {0, 1}


def test_projective_resolution_rejects_a_negative_length():
    G = gr.cyclic(2)
    with pytest.raises(ValueError, match="non-negative"):
        mk.projective_resolution(mk.burnside_mackey(G), -1)


def reference_generators(T, tools):
    """free_cover's greedy choice with every candidate tested by la.in_span:
    (H, e_j) for each unit vector e_j of T(H) outside the image so far, in
    free_cover's subgroup order, the image at every K then taking each
    dual-span image of e_j outside its span."""
    G = tools.G
    image = {K: [] for K in tools.subs}
    gens = []
    for H in sorted(tools.class_reps, key=lambda H: (G.order // H.order, H.key())):
        n = T.dim(H)
        for j in range(n):
            e = [la.Q1 if t == j else la.Q0 for t in range(n)]
            if la.in_span(image[H], e):
                continue
            gens.append((H, e))
            for K in tools.subs:
                for c in tools.basis(K, H):
                    v = la.matvec(tools.dual_action(T, K, H, c), e)
                    if any(v) and not la.in_span(image[K], v):
                        image[K].append(v)
    return gens


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_free_cover_is_the_yoneda_morphism_of_the_greedy_generators(sel):
    G = gr.parse_group(sel)
    tools = mk._RepTools(G)
    for M in battery(G):
        K, _ = mk.kernel_functor(mk.free_cover(M, tools).cover)
        for T in (M, K):
            cov = mk.free_cover(T, tools)
            gens = reference_generators(T, tools)
            assert cov.gen_subgroups == [H for H, _ in gens], T.name
            assert cov.gen_vectors == [e for _, e in gens], T.name
            phi = yoneda_morphism(cov.functor, T, cov.gen_subgroups,
                                  cov.gen_vectors, cov.bases, tools)
            for H in tools.subs:
                assert la.shape(cov.cover.mats[H]) == la.shape(phi.mats[H])
                assert cov.cover.mats[H] == phi.mats[H], (T.name, H)


# ---------------------------------------------------------------------------
# span-functor view and serialization


def test_span_functor_round_trip():
    for G in (gr.cyclic(2), gr.symmetric(3)):
        A = mk.burnside_mackey(G)
        F = to_span_functor(A)
        B = from_span_functor(F)
        assert B.dims == A.dims
        for name in ("res", "ind", "conj"):
            assert getattr(B, name).keys() == getattr(A, name).keys()
            for key, m in getattr(A, name).items():
                assert la.eq(getattr(B, name)[key], m), (name, key)


def class_action_functors():
    """The sym:3 and C2×C2 batteries, the representables of D8 and the first
    kernel of S3's standard fixed points."""
    objs = battery(gr.symmetric(3)) + battery(gr.parse_group("prod:cyclic:2,cyclic:2"))
    D8 = gr.dihedral(8)
    objs += [mk.representable(D8, gs.transitive_gset(D8, H)) for H in class_reps(D8)]
    std = objs[6]
    assert std.name == "FP(std)"
    kernel, _ = mk.kernel_functor(mk.free_cover(std, mk._RepTools(std.group)).cover)
    assert not kernel.is_zero()
    return objs + [kernel]


def test_class_action_equals_the_general_span_action():
    count = 0
    for M in class_action_functors():
        G = M.group
        orbit = {H: gs.transitive_gset(G, H) for H in M.subs}
        for src in M.subs:
            for dst in M.subs:
                for c in bs.hom_basis(orbit[src], orbit[dst]):
                    s = bs.component_span(G, orbit[src], orbit[dst], c)
                    assert la.eq(mk._class_action(M, src, dst, c),
                                 span_action_matrix(M, s)), (M.name, src, dst, c)
                    count += 1
    assert count == 4 * 87 + 3 * 87 + 9 * 53 + 8 * 306 + 87


def test_identity_component_is_the_class_of_the_identity_span():
    for G in (gr.symmetric(3), relabelled(gr.symmetric(3), 3), gr.dihedral(8)):
        for H in gr.all_subgroups(G):
            O = gs.transitive_gset(G, H)
            assert bs.decompose_span(identity_span(O)) == {identity_component(H): 1}


def test_ext_over_a_relabelled_group_equals_ext_over_the_original():
    """S3 with its identity at element 3: Ext^0..2 over the representables and
    the Burnside functor equal those over sym:3."""
    def ext_table(G):
        tools = mk._RepTools(G)
        objs = [tools.representable(H) for H in class_reps(G)] + [mk.burnside_mackey(G)]
        table = []
        for M in objs:
            res = mk.projective_resolution(M, 3, tools)
            table += [mk.ext_mackey(M, N, i, res=res, tools=tools)
                      for N in objs for i in range(3)]
        return table

    moved = relabelled(gr.symmetric(3), 3)
    assert moved.identity == 3
    expected = ext_table(gr.symmetric(3))
    assert len(expected) == 75 and any(expected)
    assert ext_table(moved) == expected


def test_kernel_of_map_through_zero_is_everything():
    G = gr.cyclic(2)
    M = mk.burnside_mackey(G)
    Z = mk.zero_mackey(G)
    phi = mk.zero_morphism(Z, M).compose(mk.zero_morphism(M, Z))
    K, incl = mk.kernel_functor(phi)
    assert K.dims == M.dims
    assert all(la.eq(incl.mats[H], la.identity(M.dim(H))) for H in M.subs)
    assert incl.check()
    assert mk.check_axioms(K) == []


def test_kernel_of_a_non_natural_map_is_no_subfunctor():
    """phi kills A(C2) but is injective on A(e): the restriction to e maps
    the kernel at C2 out of the kernel at e, which is 0."""
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    e, C2 = A.subs
    assert la.matvec(A.res[C2, e], [la.Q1, la.Q0]) != [la.Q0]
    phi = mk.MackeyMorphism(A, A, {e: la.identity(1), C2: la.zeros(2, 2)})
    assert not phi.check()
    with pytest.raises(mk.AxiomViolation, match="not in claimed subspace"):
        mk.kernel_functor(phi)


def test_subfunctor_rejects_a_basis_its_ambient_map_leaves():
    """Q^2 at both subgroups of C2, conj by the generator swapping the two
    coordinates and every other map the identity: every map keeps the line
    of (1, 1), the swap moves the line of (1, 0)."""
    G = gr.cyclic(2)
    swap = la.Matrix([[la.Q0, la.Q1], [la.Q1, la.Q0]], 2)

    def ambient(kind, key):
        return swap if kind == "conj" and key[0] != G.identity else la.identity(2)

    subs = gr.all_subgroups(G)
    dims = {H: 2 for H in subs}
    S, incl = mk._subfunctor(G, dims, {H: [[la.Q1, la.Q1]] for H in subs}, ambient, "S")
    assert S.dims == {H: 1 for H in subs}
    assert all(m == [[la.Q1]] for m in S.conj.values())
    assert all(incl[H] == [[la.Q1], [la.Q1]] for H in subs)
    with pytest.raises(mk.AxiomViolation, match="not in claimed subspace"):
        mk._subfunctor(G, dims, {H: [[la.Q1, la.Q0]] for H in subs}, ambient, "T")


def test_subfunctor_rejects_an_image_that_agrees_at_the_free_columns_only():
    """The line of (1, 1) in Q^2 at both subgroups of C2, its free column 1;
    conj by the generator sends (1, 1) to (0, 1), which agrees with (1, 1)
    at column 1 and not at row 0."""
    G = gr.cyclic(2)
    shear = la.Matrix([[la.Q1, -la.Q1], [la.Q0, la.Q1]], 2)

    def ambient(kind, key):
        return shear if kind == "conj" and key[0] != G.identity else la.identity(2)

    subs = gr.all_subgroups(G)
    line = [[la.Q1, la.Q1]]
    assert la.UnitColumnBasis(line, 2).coordinates([la.matvec(shear, line[0])]) is None
    with pytest.raises(mk.AxiomViolation, match="not in claimed subspace"):
        mk._subfunctor(G, {H: 2 for H in subs}, {H: line for H in subs}, ambient, "S")


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_unit_column_coordinates_match_solve_columns_on_the_batteries(sel, monkeypatch):
    """Every coordinate read of `_new_part`, of the battery's fixed-point
    functors and of the kernels at resolution stages 0 and 1 equals the
    augmented solve it replaces, one read per generating map."""
    G = gr.parse_group(sel)
    calls = []

    class Recording(la.UnitColumnBasis):
        def __init__(self, basis, n):
            super().__init__(basis, n)
            self.basis = basis

        def coordinates(self, ws):
            got = super().coordinates(ws)
            calls.append((self.basis, self.n, ws, got))
            return got

    def reads(build):
        calls.clear()
        out = build()
        for basis, n, ws, got in calls:
            assert got is not None
            assert got == solve_each(la.from_columns(basis, n), ws)
        return out, len(calls)

    monkeypatch.setattr(la, "UnitColumnBasis", Recording)
    generating = len(list(mk._generating_maps(G, gr.all_subgroups(G))))
    irrs, n_new = reads(lambda: mk.rational_irreducibles(G))
    assert n_new >= len(irrs)
    fps, n_fp = reads(lambda: [mk.fixed_point_functor(V) for V in irrs])
    assert n_fp == generating * len(fps)
    tools = mk._RepTools(G)
    reps = [mk.representable(G, gs.transitive_gset(G, H)) for H in class_reps(G)]
    for M in reps + fps:
        T = M
        for stage in (0, 1):
            phi = mk.free_cover(T, tools).cover
            (T, incl), n_ker = reads(lambda: mk.kernel_functor(phi))
            assert n_ker == generating
            for kind, key, src, dst in mk._generating_maps(G, T.subs):
                images = [la.matvec(phi.src.map(kind, key), v) for v in la.nullspace(phi.mats[src])]
                assert T.map(kind, key) == solve_each(incl.mats[dst], images)


def assert_shapes(M):
    """Every structure map of M is a (dim dst) x (dim src) Matrix."""
    for kind, key, src, dst in mk._structure_maps(M.group, M.subs):
        m = M.map(kind, key)
        assert type(m) is la.Matrix and la.shape(m) == (M.dim(dst), M.dim(src)), \
            (M.name, kind)


def assert_morphism_shapes(f):
    for H in f.src.subs:
        m = f.mats[H]
        assert type(m) is la.Matrix and la.shape(m) == (f.dst.dim(H), f.src.dim(H))


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_structure_and_morphism_matrices_carry_their_shape(sel):
    G = gr.parse_group(sel)
    objs = battery(G)
    tools = mk._RepTools(G)
    Z = mk.zero_mackey(G)
    functors = objs + [Z, mk.direct_sum_mackey(objs), mk.direct_sum_mackey([Z, objs[-1]])]
    morphisms = []
    for M in objs:
        cov = mk.free_cover(M, tools)
        K, incl = mk.kernel_functor(cov.cover)
        functors += [cov.functor, K]
        morphisms += [cov.cover, incl, mk.zero_morphism(M, Z), mk.zero_morphism(Z, M)]
    for M, N in [(objs[0], objs[-1]), (objs[-1], objs[0]), (objs[1], objs[1])]:
        morphisms += mk.hom_space(M, N)
    assert any(0 in M.dims.values() and any(M.dims.values()) for M in functors)
    for M in functors:
        assert_shapes(M)
    for f in morphisms:
        assert_morphism_shapes(f)


def test_direct_sum_and_zero():
    G = gr.cyclic(2)
    A = mk.burnside_mackey(G)
    Z = mk.zero_mackey(G)
    S = mk.direct_sum_mackey([A, A])
    assert all(S.dim(H) == 2 * A.dim(H) for H in A.subs)
    assert mk.check_axioms(S) == []
    assert Z.is_zero()
    assert mk.check_axioms(Z) == []


def block_diagonal(blocks):
    """The block-diagonal matrix of the given blocks, entry by entry."""
    rows = sum(la.shape(b)[0] for b in blocks)
    cols = sum(la.shape(b)[1] for b in blocks)
    out = la.zeros(rows, cols)
    r0 = c0 = 0
    for b in blocks:
        r, c = la.shape(b)
        for i in range(r):
            for j in range(c):
                out[r0 + i][c0 + j] = b[i][j]
        r0, c0 = r0 + r, c0 + c
    return out


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_direct_sum_maps_are_block_diagonals_of_the_summands(sel):
    G = gr.parse_group(sel)
    objs = battery(G)
    cases = [objs, [mk.zero_mackey(G), objs[-1], objs[0]], [objs[1]]]
    assert len({tuple(M.dims.values()) for M in objs}) > 1
    maps = list(mk._structure_maps(G, gr.all_subgroups(G)))
    for Ms in cases:
        S = mk.direct_sum_mackey(Ms)
        assert S.dims == {H: sum(M.dim(H) for M in Ms) for H in S.subs}
        for name in ("res", "ind", "conj"):
            assert list(getattr(S, name)) == [key for kind, key, _, _ in maps
                                              if kind == name]
        for kind, key, src, dst in maps:
            m = S.map(kind, key)
            assert type(m) is la.Matrix and la.shape(m) == (S.dim(dst), S.dim(src))
            assert m == block_diagonal([M.map(kind, key) for M in Ms]), (kind, key)
        assert mk.check_axioms(S) == []


# ---------------------------------------------------------------------------
# structure maps computed on their first read


def composed_keys(M):
    """(kind, key) of every structure map of M that is neither a generating
    map nor an identity, in `_structure_maps` order."""
    G = M.group
    generating = {(kind, key) for kind, key, _, _ in mk._generating_maps(G, M.subs)}
    return [(kind, key) for kind, key, _, _ in mk._structure_maps(G, M.subs)
            if (kind, key) not in generating
            and key[0] != (G.identity if kind == "conj" else key[1])]


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3"])
def test_composed_maps_are_built_on_their_first_read(sel, monkeypatch):
    G = gr.parse_group(sel)
    tools = mk._RepTools(G)
    cover = mk.free_cover(mk.burnside_mackey(G), tools)
    calls = []
    matmul = la.matmul
    monkeypatch.setattr(la, "matmul", lambda a, b: calls.append(1) or matmul(a, b))
    reps = [mk.representable(G, gs.transitive_gset(G, H)) for H in class_reps(G)]
    built = reps + [mk.kernel_functor(cover.cover)[0], mk.direct_sum_mackey(reps)]
    assert calls == []  # no composed map is built with its functor
    for M in built:
        keys = composed_keys(M)
        assert keys
        for kind, key in keys:
            first = M.map(kind, key)
            n = len(calls)
            assert M.map(kind, key) is first and len(calls) == n
    assert calls


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3"])
def test_maps_on_demand_behave_as_a_dict_of_every_map(sel):
    G = gr.parse_group(sel)
    tools = mk._RepTools(G)
    A = mk.burnside_mackey(G)
    built = [A, mk.kernel_functor(mk.free_cover(A, tools).cover)[0],
             mk.fixed_point_functor(mk.rational_irreducibles(G)[-1]),
             mk.direct_sum_mackey([A, A])]
    maps = list(mk._structure_maps(G, A.subs))
    for M in built:
        for name in ("res", "ind", "conj"):
            keys = [key for kind, key, _, _ in maps if kind == name]
            on_demand = getattr(M, name)
            assert list(on_demand) == keys and len(on_demand) == len(keys)
            every = dict(on_demand)
            assert list(every) == keys
            assert all(every[key] is M.map(name, key) for key in keys)
            assert on_demand == every and every == on_demand
    e, top = A.subs[0], A.subs[-1]
    assert (top, e) in A.res and (e, top) not in A.res
    for kind, key in (("res", (e, top)), ("ind", (e, top)), ("conj", (G.order, top)),
                      ("conj", (top, e))):
        with pytest.raises(KeyError):
            A.map(kind, key)


# ---------------------------------------------------------------------------
# functors built from generating maps, against every map computed directly


def check_every_build(monkeypatch):
    """Make every _build_mackey call assert that each map it returns equals
    make(...) called directly, and return the names of the functors built."""
    build = mk._build_mackey
    names = []

    def checked(G, dims, make, name):
        M = build(G, dims, make, name)
        for kind, key, src, dst in mk._structure_maps(G, M.subs):
            assert la.eq(M.map(kind, key), make(kind, key, src, dst)), (name, kind, key)
        names.append(name)
        return M

    monkeypatch.setattr(mk, "_build_mackey", checked)
    return names


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_battery_and_kernels_equal_their_maps_built_directly(sel, monkeypatch):
    names = check_every_build(monkeypatch)
    G = gr.parse_group(sel)
    tools = mk._RepTools(G)
    objs = battery(G)
    for M in objs:
        mk.kernel_functor(mk.free_cover(M, tools).cover)
    assert sum(name.startswith("ker(") for name in names) == len(objs)


@pytest.mark.parametrize("sel", ["dihedral:8", "prod:cyclic:2,cyclic:4", "cyclic:12"])
def test_representables_equal_their_maps_built_directly(sel, monkeypatch):
    names = check_every_build(monkeypatch)
    G = gr.parse_group(sel)
    for H in class_reps(G):
        mk.representable(G, gs.transitive_gset(G, H))
    assert len(names) == len(class_reps(G))


def maximal_in(H, K, subs):
    """K is a maximal subgroup of H among subs, coded from the definition."""
    inside = set(K.elements) < set(H.elements)
    return inside and not any(set(K.elements) < set(J.elements) < set(H.elements)
                              for J in subs)


@pytest.mark.parametrize("sel", ["sym:3", "dihedral:8", "prod:cyclic:2,cyclic:4"])
def test_generating_maps_are_the_structure_maps_they_name_in_order(sel):
    G = gr.parse_group(sel)
    subs = gr.all_subgroups(G)
    gens = set(gr.generators(G))
    expected = [m for m in mk._structure_maps(G, subs)
                if (m[1][0] in gens if m[0] == "conj" else maximal_in(*m[1], subs))]
    assert list(mk._generating_maps(G, subs)) == expected


def reference_hom_space(M, N):
    """hom_space with naturality written for every structure map."""
    subs = M.subs
    blocks, total = {}, 0
    for H in subs:
        blocks[H] = (total, N.dim(H), M.dim(H))
        total += N.dim(H) * M.dim(H)
    rows = la.Matrix([], total)
    for kind, key, src, dst in mk._structure_maps(M.group, subs):
        rows += la.equation_rows(total, blocks, [(None, dst, M.map(kind, key))],
                                 [(N.map(kind, key), src, None)])
    return [{H: la.read_block(v, blocks[H]) for H in subs} for v in la.nullspace(rows)]


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3", "prod:cyclic:2,cyclic:2"])
def test_hom_space_equals_the_all_maps_equation_basis(sel):
    objs = battery(gr.parse_group(sel))
    for M in objs:
        for N in objs:
            got = [f.mats for f in mk.hom_space(M, N)]
            assert got == reference_hom_space(M, N), (M.name, N.name)


@pytest.mark.parametrize("sel", ["cyclic:4", "sym:3"])
def test_one_corrupt_generator_conj_map_fails_the_axioms(sel, monkeypatch):
    G = gr.parse_group(sel)
    build = mk._build_mackey
    made = []
    monkeypatch.setattr(mk, "_build_mackey",
                        lambda G, dims, make, name: made.append((dims, make))
                        or build(G, dims, make, name))
    A = mk.burnside_mackey(G)
    dims, make = made[0]
    target = ("conj", (min(gr.generators(G)), gr.trivial_subgroup(G)))

    def corrupt(kind, key, src, dst):
        m = make(kind, key, src, dst)
        return la.scale(m, la.frac(2)) if (kind, key) == target else m

    assert mk.check_axioms(A) == []
    assert mk.check_axioms(build(G, dims, corrupt, "corrupt")) != []


def test_ext_one_vanishes_over_the_c3xc3_battery():
    """Rational Mackey functors are semisimple, so Ext^1 = 0 on all 121
    ordered pairs of the 6 representables and 5 fixed-point functors of
    C3×C3, a product whose factor orders share the divisor 3."""
    G = gr.parse_group("prod:cyclic:3,cyclic:3")
    objs = battery(G)
    assert len(objs) == 11
    tools = mk._RepTools(G)
    for M in objs:
        res = mk.projective_resolution(M, 2, tools)
        for N in objs:
            assert mk.ext_mackey(M, N, 1, res=res, tools=tools) == 0, (M.name, N.name)


def test_rep_tools_build_each_representable_once(monkeypatch):
    G = gr.symmetric(3)
    built = []
    representable = mk.representable
    monkeypatch.setattr(mk, "representable",
                        lambda G, A, name=None: built.append(A) or representable(G, A, name))
    tools = mk._RepTools(G)
    A = mk.burnside_mackey(G)
    for M in (A, A):
        mk.projective_resolution(M, 2, tools)
    covers = built[1:]  # built[0] is burnside_mackey itself
    assert covers and len(covers) == len({id(A) for A in covers})


def element_order(G, g):
    n, x = 1, g
    while x != G.identity:
        x, n = G.mul(x, g), n + 1
    return n


def character_product(V, W):
    """dim Hom_G(V, W) = (1/|G|) Σ_g χ_V(g)·χ_W(g): rational characters are
    real, so χ(g⁻¹) = χ(g)."""
    def trace(m):
        return sum(m[i][i] for i in range(len(m)))
    G = V.group
    return sum(trace(V.mats[g]) * trace(W.mats[g]) for g in G.elements()) / G.order


def check_irreducible_list(G, irrs, count):
    """One module per class of cyclic subgroups (Serre, Linear
    Representations of Finite Groups, §13.1), pairwise Hom = 0, unique
    names, and Wedderburn dimensions Σ dim(V)² / dim End_G(V) adding up to
    |G|; Hom dimensions are read off the characters."""
    cyclic = [H for H, _ in gr.subgroup_conjugacy_classes(G)
              if any(element_order(G, h) == H.order for h in H.elements)]
    assert len(irrs) == len(cyclic) == count
    assert len({V.name for V in irrs}) == len(irrs)
    for V, W in itertools.combinations(irrs, 2):
        assert character_product(V, W) == 0, (V.name, W.name)
    assert sum(Fraction(V.dim ** 2) / character_product(V, V) for V in irrs) == G.order


@pytest.mark.parametrize("sel,count", [("prod:cyclic:2,cyclic:2", 4),
                                       ("prod:cyclic:2,cyclic:4", 6),
                                       ("prod:cyclic:4,cyclic:6", 12),
                                       ("prod:cyclic:3,cyclic:3", 5),
                                       ("prod:cyclic:4,cyclic:4", 10),
                                       ("prod:cyclic:3,cyclic:6", 10)])
def test_one_irreducible_per_cyclic_subgroup_of_an_abelian_product(sel, count):
    """Including products whose factor orders share a divisor above 2
    (C3×C3, C4×C4, C3×C6), where the tensor products of the factors'
    irreducibles are reducible.  Q[G] holds each Q(zeta_d) once, so the
    dimensions add up to |G|; a module that is two copies of one
    irreducible would exceed it."""
    G = gr.parse_group(sel)
    irrs = mk.rational_irreducibles(G)
    check_irreducible_list(G, irrs, count)
    assert sum(V.dim for V in irrs) == G.order


@pytest.mark.parametrize("sel,dims", [("dihedral:8", [1, 1, 1, 1, 2]),
                                      ("sym:4", [1, 1, 2, 3, 3]),
                                      ("prod:cyclic:2,sym:3", [1, 1, 1, 1, 2, 2]),
                                      ("Q8", [1, 1, 1, 1, 4]),
                                      ("S3+3", [1, 1, 2])])
def test_one_irreducible_per_class_of_cyclic_subgroups_of_a_non_abelian_group(sel, dims):
    """The dimensions are those of the known Q-irreducibles, so no module is
    two copies of one irreducible."""
    G = (gr.group_from_json(quaternion_json()) if sel == "Q8"
         else relabelled(gr.symmetric(3), 3) if sel == "S3+3" else gr.parse_group(sel))
    irrs = mk.rational_irreducibles(G)
    check_irreducible_list(G, irrs, len(dims))
    assert sorted(V.dim for V in irrs) == dims


@pytest.mark.parametrize("sel,expected", [
    ("cyclic:12", [("Q(zeta_1)", [1, 1, 1, 1, 1, 1]), ("Q(zeta_2)", [1, 1, 1, 0, 1, 0]),
                   ("Q(zeta_3)", [2, 2, 0, 2, 0, 0]), ("Q(zeta_4)", [2, 0, 2, 0, 0, 0]),
                   ("Q(zeta_6)", [2, 2, 0, 0, 0, 0]), ("Q(zeta_12)", [4, 0, 0, 0, 0, 0])]),
    ("prod:cyclic:2,cyclic:4", [
        ("Q(zeta_1)xQ(zeta_1)", [1, 1, 1, 1, 1, 1, 1, 1]),
        ("Q(zeta_1)xQ(zeta_2)", [1, 1, 1, 1, 0, 1, 0, 0]),
        ("Q(zeta_1)xQ(zeta_4)", [2, 0, 2, 0, 0, 0, 0, 0]),
        ("Q(zeta_2)xQ(zeta_1)", [1, 1, 0, 0, 1, 0, 0, 0]),
        ("Q(zeta_2)xQ(zeta_2)", [1, 1, 0, 0, 0, 0, 1, 0]),
        ("Q(zeta_2)xQ(zeta_4)", [2, 0, 0, 2, 0, 0, 0, 0])]),
    ("sym:3", [("triv", [1, 1, 1, 1, 1, 1]), ("sign", [1, 0, 0, 0, 1, 0]),
               ("std", [2, 1, 1, 1, 0, 0])]),
    ("prod:cyclic:3,cyclic:3", [
        ("Q(zeta_1)xQ(zeta_1)", [1, 1, 1, 1, 1, 1]), ("Q(zeta_1)xQ(zeta_3)", [2, 0, 2, 0, 0, 0]),
        ("Q(zeta_3)xQ(zeta_1)", [2, 2, 0, 0, 0, 0]), ("Q(zeta_3)xQ(zeta_3)", [2, 0, 0, 2, 0, 0]),
        ("Q(zeta_3)xQ(zeta_3)#2", [2, 0, 0, 0, 2, 0])]),
])
def test_irreducible_names_order_and_fixed_point_dimensions_are_pinned(sel, expected):
    """Names, their order and dim V^H on every subgroup H.  The first three
    are the values of the cyclotomic, Kronecker and S3 tables that the
    new-part construction replaced; C3×C3 has a repeated name, suffixed #2."""
    G = gr.parse_group(sel)
    got = []
    for V in mk.rational_irreducibles(G):
        F = mk.fixed_point_functor(V)
        got.append((V.name, [F.dim(H) for H in F.subs]))
    assert got == expected


def test_group_rep_rejects_the_zero_map_and_wrong_shapes():
    G = gr.parse_group("sym:3")
    with pytest.raises(ValueError, match="identity"):
        mk.GroupRep(G, 2, [la.zeros(2, 2)] * 6)
    with pytest.raises(ValueError, match="one matrix per group element"):
        mk.GroupRep(G, 2, [la.identity(2)] * 5)
    with pytest.raises(ValueError, match="2 x 2"):
        mk.GroupRep(G, 2, [la.identity(2)] * 5 + [la.zeros(2, 3)])


def test_group_rep_checks_every_generator():
    """1 on the subgroup of the first generator, 2 off it: right for the first
    generator of D8 and wrong for the second."""
    G = gr.parse_group("dihedral:8")
    s1, s2 = gr.generators(G)[:2]
    first = set(gr.closure_set(G, [s1]))
    mats = [la.Matrix([[la.Q1 if g in first else la.frac(2)]], 1)
            for g in G.elements()]
    assert all(mats[G.mul(s1, h)] == la.matmul(mats[s1], mats[h]) for h in G.elements())
    assert any(mats[G.mul(s2, h)] != la.matmul(mats[s2], mats[h]) for h in G.elements())
    with pytest.raises(ValueError, match="not a representation"):
        mk.GroupRep(G, 1, mats)
