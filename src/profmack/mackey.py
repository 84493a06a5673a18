"""Rational Mackey functors for a finite level group.

A Mackey functor is stored as value spaces M(H) for *every* subgroup H
(not just conjugacy class representatives), together with restriction,
induction and conjugation matrices; this keeps span actions and the Weyl
sheaf construction index-free.

All arithmetic is exact over Q.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg as la
from .burnside import (
    Component,
    Span,
    component_span,
    decompose_span,
    hom_basis,
    span_compose,
)
from .groups import (
    CyclicGroup,
    FiniteGroup,
    ProductGroup,
    Subgroup,
    UnknownFamily,
    all_subgroups,
    conjugate_subgroup,
    generator_rows,
    generator_words,
    generators,
    inclusion_lattice,
    intersection,
    left_cosets,
    subgroup_conjugacy_classes,
)
from .gsets import FiniteGSet, coset_orbit, transitive_gset

Q0, Q1 = la.Q0, la.Q1


class AxiomViolation(Exception):
    pass


class ResolutionTooShort(Exception):
    pass


def _double_coset_reps(G: FiniteGroup, K: Subgroup, H: Subgroup, L: Subgroup):
    """Representatives (minimal elements) of K\\H/L inside H."""
    seen = set()
    reps = []
    for h in sorted(H.elements):
        if h in seen:
            continue
        coset = {G.mul(G.mul(k, h), l) for k in K.elements for l in L.elements}
        reps.append(min(coset))
        seen |= coset
    return reps


def _structure_maps(G: FiniteGroup, subs: list[Subgroup]):
    """(kind, key, src, dst) for every structure map M(src) -> M(dst).

    For each H: res and ind at (H, K) for every K ⊆ H, then conj at (g, H)
    for every g.  This order fixes the key order of res/ind/conj and,
    restricted to `_generating_maps`, the row order of the hom_space
    equations.
    """
    contained = inclusion_lattice(G)[0]
    for H in subs:
        for K in contained[H]:
            yield "res", (H, K), H, K
            yield "ind", (H, K), K, H
        for g in G.elements():
            yield "conj", (g, H), H, conjugate_subgroup(H, g)


def _generating_maps(G: FiniteGroup, subs: list[Subgroup]):
    """The generating maps among `_structure_maps(G, subs)`, in its order.

    res and ind at (H, K) for K maximal in H, and conj at (s, H) for s in
    `generators(G)`.  Every other structure map of a Mackey functor is an
    identity or a composite of these (Thévenaz–Webb, Trans. AMS 347, 1995).
    """
    maximal = inclusion_lattice(G)[1]
    gens = sorted(generators(G))
    for H in subs:
        for K in maximal[H]:
            yield "res", (H, K), H, K
            yield "ind", (H, K), K, H
        for s in gens:
            yield "conj", (s, H), H, conjugate_subgroup(H, s)


class _StructureMaps(Mapping):
    """The structure maps of one kind, read-only, keyed in `_structure_maps`
    order: the map at key is make(kind, key, src, dst), computed on its
    first read and kept.  Iteration, len, == and dict(...) behave as they
    do on a dict of every map; a key that names no structure map raises
    KeyError."""

    def __init__(self, kind: str, ends: dict, make):
        self._kind = kind
        self._ends = ends  # key -> (src, dst)
        self._make = make
        self._built: dict = {}

    def __getitem__(self, key) -> la.Matrix:
        m = self._built.get(key)
        if m is None:
            src, dst = self._ends[key]
            m = self._built[key] = self._make(self._kind, key, src, dst)
        return m

    def __contains__(self, key) -> bool:
        return key in self._ends

    def __iter__(self):
        return iter(self._ends)

    def __len__(self) -> int:
        return len(self._ends)


def _maps_on_demand(G: FiniteGroup, subs: list[Subgroup], make) -> dict[str, _StructureMaps]:
    """The res, ind and conj `_StructureMaps` of make, by kind."""
    ends: dict[str, dict] = {"res": {}, "ind": {}, "conj": {}}
    for kind, key, src, dst in _structure_maps(G, subs):
        ends[kind][key] = (src, dst)
    return {kind: _StructureMaps(kind, e, make) for kind, e in ends.items()}


def _build_mackey(G: FiniteGroup, dims: dict, make, name: str) -> MackeyFunctorQ:
    """The functor whose generating maps (kind, key): M(src) -> M(dst) are
    make(kind, key, src, dst).

    make is called here, only on `_generating_maps`.  Every other map is
    computed on its first read (`_StructureMaps`): res, ind and conj by the
    identity are `la.identity`, and the rest one matmul of maps of smaller
    subgroups or shorter words: res(H, K) = res(J, K)·res(H, J) and
    ind(H, K) = ind(H, J)·ind(J, K) through the first J maximal in H that
    contains K, and conj along the word of g in ``generator_words``,
    c_{s·h} on H = (c_s on hHh⁻¹)·(c_h on H).  When make describes a Mackey
    functor these are the maps make would give.  Direct sums do not come
    through here: their maps are read from the summands' blocks
    (`direct_sum_mackey`).
    """
    subs = all_subgroups(G)
    contained, maximal = inclusion_lattice(G)
    generating = {(kind, key): make(kind, key, src, dst)
                  for kind, key, src, dst in _generating_maps(G, subs)}
    word = {g: (s, h) for g, s, h in generator_words(G)}

    def derive(kind, key, src, dst) -> la.Matrix:
        if (kind, key) in generating:
            return generating[kind, key]
        if kind == "conj":
            g, H = key
            if g == G.identity:
                return la.identity(dims[H])
            s, h = word[g]
            return la.matmul(maps["conj"][s, conjugate_subgroup(H, h)],
                             maps["conj"][h, H])
        H, K = key
        if H == K:
            return la.identity(dims[H])
        J = next(J for J in maximal[H] if K in contained[J])
        if kind == "res":
            return la.matmul(maps["res"][J, K], maps["res"][H, J])
        return la.matmul(maps["ind"][H, J], maps["ind"][J, K])

    maps = _maps_on_demand(G, subs, derive)
    return MackeyFunctorQ(G, dims, **maps, name=name)


@dataclass
class MackeyFunctorQ:
    group: FiniteGroup
    dims: dict[Subgroup, int]
    res: Mapping[tuple[Subgroup, Subgroup], la.Matrix]  # (H, K ⊆ H): M(H) -> M(K)
    ind: Mapping[tuple[Subgroup, Subgroup], la.Matrix]  # (H, K ⊆ H): M(K) -> M(H)
    conj: Mapping[tuple[int, Subgroup], la.Matrix]  # (g, H): M(H) -> M(gHg^-1)
    name: str = "M"
    # span actions T(H) -> T(K) of dual components, filled by _RepTools
    _dual_action_cache: dict = field(default_factory=dict, init=False,
                                     repr=False, compare=False)

    @property
    def subs(self) -> list[Subgroup]:
        return all_subgroups(self.group)

    def dim(self, H: Subgroup) -> int:
        return self.dims[H]

    def map(self, kind: str, key: tuple) -> la.Matrix:
        """The structure map of `kind` ("res", "ind" or "conj") at `key`."""
        return getattr(self, kind)[key]

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.dims.values())


def check_axioms(M: MackeyFunctorQ) -> list[str]:
    """Verify all Mackey axioms exactly; returns the violations, [] when clean."""
    G = M.group
    subs = M.subs
    contained = inclusion_lattice(G)[0]
    bad: list[str] = []

    for H in subs:
        if not la.eq(M.res[H, H], la.identity(M.dim(H))):
            bad.append(f"res({H.order},{H.order}) not identity")
        if not la.eq(M.ind[H, H], la.identity(M.dim(H))):
            bad.append(f"ind({H.order},{H.order}) not identity")
        if not la.eq(M.conj[G.identity, H], la.identity(M.dim(H))):
            bad.append(f"conj(e,{H.order}) not identity")
    for H in subs:
        for K in contained[H]:
            for J in contained[K]:
                if not la.eq(la.matmul(M.res[K, J], M.res[H, K]), M.res[H, J]):
                    bad.append("res not transitive")
                if not la.eq(la.matmul(M.ind[H, K], M.ind[K, J]), M.ind[H, J]):
                    bad.append("ind not transitive")
    for H in subs:
        for g in G.elements():
            Hg = conjugate_subgroup(H, g)
            for h in G.elements():
                lhs = la.matmul(M.conj[h, Hg], M.conj[g, H])
                rhs = M.conj[G.mul(h, g), H]
                if not la.eq(lhs, rhs):
                    bad.append("conjugation not functorial")
            for K in contained[H]:
                Kg = conjugate_subgroup(K, g)
                if not la.eq(
                    la.matmul(M.conj[g, K], M.res[H, K]),
                    la.matmul(M.res[Hg, Kg], M.conj[g, H]),
                ):
                    bad.append("conjugation does not intertwine res")
                if not la.eq(
                    la.matmul(M.conj[g, H], M.ind[H, K]),
                    la.matmul(M.ind[Hg, Kg], M.conj[g, K]),
                ):
                    bad.append("conjugation does not intertwine ind")
    # double coset formula
    for H in subs:
        for K in contained[H]:
            for L in contained[H]:
                lhs = la.matmul(M.res[H, K], M.ind[H, L])
                total = la.zeros(M.dim(K), M.dim(L))
                for g in _double_coset_reps(G, K, H, L):
                    Lg = conjugate_subgroup(L, g)
                    A = intersection(K, Lg)  # K ∩ gLg^-1
                    Ag = conjugate_subgroup(A, G.inv(g))  # L ∩ g^-1 K g
                    term = la.matmul(M.ind[K, A],
                                     la.matmul(M.conj[g, Ag], M.res[L, Ag]))
                    total = la.add(total, term)
                if not la.eq(lhs, total):
                    bad.append(
                        f"Mackey formula fails at |H|={H.order},|K|={K.order},|L|={L.order}"
                    )
    return bad


# ---------------------------------------------------------------------------
# span actions


def _class_action(M: MackeyFunctorQ, src: Subgroup, dst: Subgroup,
                  c: Component) -> la.Matrix:
    """The matrix M(src) -> M(dst) of the transitive span G/src <- G/S -> G/dst
    whose basepoint has stabilizer S = c[0] and images c[1] in G/src and c[2]
    in G/dst.

    Point i of G/H is reps[i]·H (`coset_orbit`), and M(G/H) is read in the
    coordinates of M(H) at the point H.  With g and h the representatives of
    the two images, g⁻¹Sg ⊆ src and h⁻¹Sh ⊆ dst, and the span acts as
    ind(dst, h⁻¹Sh)·conj(h⁻¹, S)·conj(g, g⁻¹Sg)·res(src, g⁻¹Sg)
    (Thévenaz–Webb, Trans. AMS 347, 1995).
    """
    G = M.group
    S = Subgroup(G, c[0])
    g = coset_orbit(G, src)[0][c[1]]
    h = coset_orbit(G, dst)[0][c[2]]
    Sg = conjugate_subgroup(S, G.inv(g))
    Sh = conjugate_subgroup(S, G.inv(h))
    return la.matmul(M.ind[dst, Sh], la.matmul(
        M.conj[G.inv(h), S], la.matmul(M.conj[g, Sg], M.res[src, Sg])))


# ---------------------------------------------------------------------------
# representables


def _coset_map(G: FiniteGroup, K: Subgroup, H: Subgroup, g: int) -> tuple[int, ...]:
    """Table of the G-map O_K -> O_H, rK |-> rgH (needs g^-1 K g ⊆ H)."""
    reps_H, rep_of_H, _ = coset_orbit(G, H)
    index = {r: i for i, r in enumerate(reps_H)}
    return tuple(index[rep_of_H[G.mul(r, g)]] for r in coset_orbit(G, K)[0])


def _one_leg_span(G: FiniteGroup, K: Subgroup, H: Subgroup, g: int) -> Span:
    """The span O_K <-id- O_K -> O_H with right leg rK |-> rgH."""
    OK, OH = transitive_gset(G, K), transitive_gset(G, H)
    return Span(OK, OH, OK, tuple(range(OK.size)), _coset_map(G, K, H, g))


def _structure_span(G: FiniteGroup, kind: str, key: tuple, src: Subgroup,
                    dst: Subgroup) -> Span:
    """The span O_src -> O_dst through which the structure map acts.

    ind is the projection O_K -> O_H, res its dual, and conj at (g, H) the
    isomorphism xH |-> x g^-1 (gHg^-1).
    """
    if kind == "res":
        return _one_leg_span(G, dst, src, G.identity).dual()
    if kind == "ind":
        return _one_leg_span(G, src, dst, G.identity)
    return _one_leg_span(G, src, dst, G.inv(key[0]))


def representable(G: FiniteGroup, A: FiniteGSet, name: str | None = None) -> MackeyFunctorQ:
    """The Mackey functor Span(-, A) ⊗ Q."""
    subs = all_subgroups(G)
    orbit = {H: transitive_gset(G, H) for H in subs}
    basis = {H: hom_basis(orbit[H], A) for H in subs}
    spans = {H: [component_span(G, orbit[H], A, c) for c in basis[H]] for H in subs}
    dims = {H: len(basis[H]) for H in subs}

    def precompose(kind, key, src, dst) -> la.Matrix:
        """Matrix of c |-> c ∘ u^dual from Q basis[src] to Q basis[dst].

        c ∘ u^dual is built as (u ∘ c^dual)^dual: for ind and conj, u's apex
        is its left foot with the identity leg, so `span_compose` reuses the
        apex of c instead of building a pullback.
        """
        u = _structure_span(G, kind, key, src, dst)
        index = {c: i for i, c in enumerate(basis[dst])}
        rows = [[0] * dims[src] for _ in range(dims[dst])]
        for j, s_c in enumerate(spans[src]):
            for comp, mult in decompose_span(span_compose(s_c.dual(), u).dual()).items():
                rows[index[comp]][j] += mult
        return la.Matrix([[Fraction(x) if x else Q0 for x in r] for r in rows], dims[src])

    return _build_mackey(G, dims, precompose, name or f"rep({A.label})")


def burnside_mackey(G: FiniteGroup) -> MackeyFunctorQ:
    from .gsets import point_gset

    return representable(G, point_gset(G), name="A_Q")


# ---------------------------------------------------------------------------
# fixed-point functors of rational representations


@dataclass
class GroupRep:
    """A rational representation: mats[g] is the dim x dim matrix of g.

    Construction checks it exactly at |gens|·|G| products: one matrix per
    element, each dim x dim, the identity acting as I, and
    mats[s·h] == mats[s]·mats[h] for every generator s of ``generators(G)``
    and every h.  By induction on the length of g as a word in the
    generators this gives mats[g·h] == mats[g]·mats[h] for all g, h.
    """

    group: FiniteGroup
    dim: int
    mats: list[la.Matrix]  # one per element
    name: str = "V"

    def __post_init__(self):
        G, n, mats = self.group, self.dim, self.mats
        if len(mats) != G.order:
            raise ValueError("a representation needs one matrix per group element")
        if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
            raise ValueError(f"every matrix of a representation must be {n} x {n}")
        if mats[G.identity] != la.identity(n):
            raise ValueError("the identity must act as the identity matrix")
        for s, s_row in generator_rows(G):
            for h, sh in zip(G.elements(), s_row):
                if not la.eq(la.matmul(mats[s], mats[h]), mats[sh]):
                    raise ValueError("not a representation")


def _subfunctor(G: FiniteGroup, ambient_dims: dict, basis: dict, ambient,
                name: str) -> tuple[MackeyFunctorQ, dict]:
    """The sub-functor spanned by basis[H] inside A(H), for every subgroup H,
    and its inclusion matrices A(H) <- S(H).

    ambient(kind, key) is the structure map of A, and every basis[H] has
    unit columns, as `la.nullspace` and `la.fixed_space` bases do.  S's
    generating map at (kind, key) holds the coordinates in basis[dst] of the
    images of basis[src], read off by the `la.UnitColumnBasis` of basis[dst],
    made once per subgroup: an image's entries at the free columns, checked
    exactly at the other rows.  An image outside span(basis[dst]) means S is
    not a sub-functor: AxiomViolation.
    """
    incl = {H: la.from_columns(basis[H], ambient_dims[H]) for H in basis}
    reader = {H: la.UnitColumnBasis(basis[H], ambient_dims[H]) for H in basis}

    def restrict(kind, key, src, dst) -> la.Matrix:
        T = ambient(kind, key)
        coords = reader[dst].coordinates([la.matvec(T, v) for v in basis[src]])
        if coords is None:
            raise AxiomViolation("vector not in claimed subspace")
        return coords

    dims = {H: len(b) for H, b in basis.items()}
    return _build_mackey(G, dims, restrict, name), incl


def fixed_point_functor(rep: GroupRep, name: str | None = None) -> MackeyFunctorQ:
    """H |-> V^H with inclusion restrictions and transfer inductions."""
    G = rep.group
    subs = all_subgroups(G)
    basis = {H: la.fixed_space([rep.mats[h] for h in H.elements], rep.dim)
             for H in subs}

    def act(kind, key) -> la.Matrix:
        if kind == "res":
            return la.identity(rep.dim)
        if kind == "conj":
            return rep.mats[key[0]]
        H, K = key  # transfer: sum over coset reps of K in H
        reps, _ = left_cosets(G, K, elements=H.elements)
        return functools.reduce(la.add, (rep.mats[h] for h in reps))

    return _subfunctor(G, {H: rep.dim for H in subs}, basis, act,
                       name or f"FP({rep.name})")[0]


def _new_part(G: FiniteGroup, K: Subgroup, overs: list[Subgroup]) -> GroupRep | None:
    """G on the vectors of Q[G/K] that every projection Q[G/K] -> Q[G/L],
    L in overs, sends to 0; None if there are none.

    The vectors are one nullspace: a row per coset of each L, 1 on the points
    of G/K inside it.  Point i of G/K is e_i and g sends it to e_act[g][i],
    so (g·v)[j] = v[act[g⁻¹][j]]; the |G| matrices are the coordinates of
    all the moved basis vectors, read off the null basis's unit columns
    (`la.UnitColumnBasis`).  The projections are G-maps, so no moved vector
    leaves the span; one that did would raise AxiomViolation.
    """
    reps, _, orbit = coset_orbit(G, K)
    n = len(reps)
    rows = la.Matrix([], n)
    for L in overs:
        rep_of = coset_orbit(G, L)[1]
        labels = [rep_of[r] for r in reps]
        rows += [[Q1 if x == c else Q0 for x in labels] for c in set(labels)]
    basis = la.nullspace(rows)
    if not basis:
        return None
    moved = [[b[i] for i in orbit.act[G.inv(g)]] for g in G.elements() for b in basis]
    coords = la.UnitColumnBasis(basis, n).coordinates(moved)
    if coords is None:
        raise AxiomViolation(f"G moves a vector out of the new part of Q[G/K], |K| = {K.order}")
    d = len(basis)
    return GroupRep(G, d, [la.Matrix([r[g * d:(g + 1) * d] for r in coords], d)
                           for g in G.elements()])


def _hom_dim(V: GroupRep, W: GroupRep) -> int:
    """dim Hom_G(V, W): X with W(s)·X = X·V(s) for every generator s."""
    return len(la.intertwiners({0: (W.dim, V.dim)},
                               [([(W.mats[s], 0, None)], [(None, 0, V.mats[s])])
                                for s in generators(V.group)]))


def _order(x, mul, one) -> int:
    """The least k >= 1 with x^k == one, powers formed by mul."""
    k, y = 1, x
    while y != one:
        y, k = mul(y, x), k + 1
    return k


def _irreducible_names(G: FiniteGroup, found: list) -> list[str]:
    """Q(zeta_d) per factor of a cyclic group or a product of cyclic groups,
    d the order of the factor's generator on G/K (1 for a trivial factor);
    triv, sign or std otherwise.  A repeated name gets #2, #3, ..."""
    factors = ([G] if isinstance(G, CyclicGroup)
               else G.factors if isinstance(G, ProductGroup) else [])
    by_factor = factors and all(isinstance(f, CyclicGroup) for f in factors)
    names, seen = [], {}
    for orders, V, _ in found:
        if by_factor:
            it = iter(orders)
            name = "x".join(f"Q(zeta_{next(it) if f.order > 1 else 1})" for f in factors)
        elif V.dim > 1:
            name = "std"
        else:
            name = "sign" if any(V.mats[s] != la.identity(1) for s in generators(G)) else "triv"
        seen[name] = seen.get(name, 0) + 1
        names.append(name if seen[name] == 1 else f"{name}#{seen[name]}")
    return names


def rational_irreducibles(G: FiniteGroup) -> list[GroupRep]:
    """The irreducible rational representations of G, one per conjugacy class
    of cyclic subgroups (Serre, Linear Representations of Finite Groups,
    §13.1).

    For each class representative K, V_K (`_new_part`) is the part of Q[G/K]
    that no Q[G/L] with K maximal in L reaches.  V_K is kept unless it is 0
    or has a nonzero Hom to one kept before.  The list is sorted by the
    orders of ``generators(G)`` on G/K, then dim V_K, then K.key(), and
    named by `_irreducible_names`.  Raises UnknownFamily unless it has one
    module per class of cyclic subgroups and Σ dim(V)² / dim End_G(V) = |G|.
    """
    maximal = inclusion_lattice(G)[1]
    classes = subgroup_conjugacy_classes(G)
    found = []
    for K, _ in classes:
        V = _new_part(G, K, [L for L, below in maximal.items() if K in below])
        if V is not None and not any(_hom_dim(W, V) for _, W, _ in found):
            act = coset_orbit(G, K)[2].act
            orders = tuple(_order(act[s], lambda p, q: tuple(p[i] for i in q), act[G.identity])
                           for s in generators(G))
            found.append((orders, V, K.key()))
    found.sort(key=lambda f: (f[0], f[1].dim, f[2]))
    irrs = [V for _, V, _ in found]
    cyclic = sum(any(_order(h, G.mul, G.identity) == K.order for h in K.elements)
                 for K, _ in classes)
    if len(irrs) != cyclic:
        raise UnknownFamily(f"no irreducible list for {G.label}: found {len(irrs)} "
                            f"irreducibles, but it has {cyclic} classes of cyclic subgroups")
    if sum(Fraction(V.dim ** 2, _hom_dim(V, V)) for V in irrs) != G.order:
        raise UnknownFamily(f"no irreducible list for {G.label}: the Wedderburn "
                            f"dimensions of the irreducibles found do not add up to {G.order}")
    for V, name in zip(irrs, _irreducible_names(G, found)):
        V.name = name
    return irrs


# ---------------------------------------------------------------------------
# morphisms, homs, Yoneda


@dataclass
class MackeyMorphism:
    src: MackeyFunctorQ
    dst: MackeyFunctorQ
    mats: dict[Subgroup, la.Matrix]

    def __call__(self, H: Subgroup) -> la.Matrix:
        return self.mats[H]

    def compose(self, inner: "MackeyMorphism") -> "MackeyMorphism":
        return MackeyMorphism(
            inner.src,
            self.dst,
            {H: la.matmul(self.mats[H], inner.mats[H]) for H in self.mats},
        )

    def is_zero(self) -> bool:
        return all(la.is_zero(m) for m in self.mats.values())

    def check(self) -> bool:
        M, N = self.src, self.dst
        return all(
            la.eq(la.matmul(self.mats[dst], M.map(kind, key)),
                  la.matmul(N.map(kind, key), self.mats[src]))
            for kind, key, src, dst in _structure_maps(M.group, M.subs)
        )


def zero_morphism(M: MackeyFunctorQ, N: MackeyFunctorQ) -> MackeyMorphism:
    return MackeyMorphism(
        M, N, {H: la.zeros(N.dim(H), M.dim(H)) for H in M.subs}
    )


def hom_space(M: MackeyFunctorQ, N: MackeyFunctorQ) -> list[MackeyMorphism]:
    """Basis of natural transformations M -> N (exact naturality solve).

    Naturality is written only for the `_generating_maps`, grouped by
    subgroup.  In Mackey functors every other structure map is an identity
    or a composite of generating maps (exactly so for functors built by
    `_build_mackey`), so the equations have the solutions of the full set
    and row-reduce to the same basis.
    """
    subs = M.subs
    shapes = {H: (N.dim(H), M.dim(H)) for H in subs}  # f_H: M(H) -> N(H)
    # f_dst @ M(map) = N(map) @ f_src
    equations = (([(None, dst, M.map(kind, key))], [(N.map(kind, key), src, None)])
                 for kind, key, src, dst in _generating_maps(M.group, subs))
    return [MackeyMorphism(M, N, mats) for mats in la.intertwiners(shapes, equations)]


def direct_sum_mackey(Ms: list[MackeyFunctorQ], name: str | None = None) -> MackeyFunctorQ:
    """The direct sum of Ms: every structure map is the block-diagonal matrix
    of the summands' maps at the same key, computed on its first read
    (`_StructureMaps`), each row one list concatenation of zeros, a
    summand's row and zeros."""
    G = Ms[0].group
    subs = all_subgroups(G)
    dims = {H: sum(M.dim(H) for M in Ms) for H in subs}

    def block_diagonal(kind, key, src, dst) -> la.Matrix:
        rows = []
        co, rest = 0, dims[src]
        for M in Ms:
            n = M.dim(src)
            rest -= n
            rows += [[Q0] * co + row + [Q0] * rest for row in M.map(kind, key)]
            co += n
        return la.Matrix(rows, dims[src])

    return MackeyFunctorQ(G, dims, **_maps_on_demand(G, subs, block_diagonal),
                          name=name or "(" + "+".join(M.name for M in Ms) + ")")


def zero_mackey(G: FiniteGroup) -> MackeyFunctorQ:
    dims = {H: 0 for H in all_subgroups(G)}
    return _build_mackey(G, dims, lambda *_: la.zeros(0, 0), "0")


# ---------------------------------------------------------------------------
# free covers (sums of representables) and resolutions


@dataclass
class FreeCover:
    """P = ⊕_i rep(O_{H_i}) --cover--> T, with Yoneda bookkeeping."""

    gen_subgroups: list[Subgroup]  # class representatives
    gen_vectors: list[la.Vector]  # x_i in T(H_i)
    functor: MackeyFunctorQ  # P
    cover: MackeyMorphism  # P -> T
    bases: dict  # per subgroup K, list of (summand index, component)


class _RepTools:
    """Cached span data for representable summands over one group."""

    def __init__(self, G: FiniteGroup):
        self.G = G
        self.subs = all_subgroups(G)
        self.class_reps = [rep for rep, _ in subgroup_conjugacy_classes(G)]
        self._basis: dict = {}
        self._representables: dict[Subgroup, MackeyFunctorQ] = {}

    def basis(self, K: Subgroup, H: Subgroup) -> list[Component]:
        key = (K, H)
        if key not in self._basis:
            self._basis[key] = hom_basis(transitive_gset(self.G, K),
                                         transitive_gset(self.G, H))
        return self._basis[key]

    def representable(self, H: Subgroup) -> MackeyFunctorQ:
        """rep(O_H), built once per tools."""
        if H not in self._representables:
            self._representables[H] = representable(self.G, transitive_gset(self.G, H))
        return self._representables[H]

    def dual_action(self, T: MackeyFunctorQ, K: Subgroup, H: Subgroup,
                    c: Component) -> la.Matrix:
        """Matrix of T on the dual span of c: T(H) -> T(K)."""
        store = T._dual_action_cache
        key = (K, H, c)
        if key not in store:
            store[key] = _class_action(T, H, K, (c[0], c[2], c[1]))
        return store[key]


def free_cover(T: MackeyFunctorQ, tools: _RepTools) -> FreeCover:
    """Greedy Yoneda cover of T by a sum of representables.

    Generators are unit vectors e_j of T(H), chosen smallest-orbit-first
    (largest subgroup first) and only when they enlarge the image; the result
    is surjective because at each subgroup's own turn any missing value
    vector is adopted.  The image of e_j under the dual span of c is column j
    of `dual_action(T, K, H, c)`, so `add_generator` reads each such column
    once: it is both the candidate for image[K] and the column of
    cover.mats[K] at (i, c).  image[K] holds independent vectors only, so
    once it has T.dim(K) of them no further candidate at K, nor unit vector
    at H = K, is tested with `la.in_span`: each lies in its span.
    """
    G = tools.G
    order = sorted(tools.class_reps, key=lambda H: (G.order // H.order, H.key()))
    gen_subgroups: list[Subgroup] = []
    gen_vectors: list[la.Vector] = []
    image: dict[Subgroup, list[la.Vector]] = {K: [] for K in tools.subs}
    cols: dict[Subgroup, list[la.Vector]] = {K: [] for K in tools.subs}  # bases[K] order

    def add_generator(H, j, e):
        gen_subgroups.append(H)
        gen_vectors.append(e)
        for K in tools.subs:
            full = len(image[K]) == T.dim(K)
            for c in tools.basis(K, H):
                v = [row[j] for row in tools.dual_action(T, K, H, c)]
                cols[K].append(v)
                if not full and any(v) and not la.in_span(image[K], v):
                    image[K].append(v)
                    full = len(image[K]) == T.dim(K)

    for H in order:
        n = T.dim(H)
        for j in range(n):
            if len(image[H]) == n:
                break
            e = [Q1 if t == j else Q0 for t in range(n)]
            if not la.in_span(image[H], e):
                add_generator(H, j, e)
    summands = [tools.representable(H) for H in gen_subgroups]
    P = (
        direct_sum_mackey(summands)
        if summands
        else zero_mackey(G)
    )
    # bookkeeping: P(K) basis = concat over summands of hom_basis(O_K, O_Hi)
    bases = {
        K: [
            (i, c)
            for i, H in enumerate(gen_subgroups)
            for c in tools.basis(K, H)
        ]
        for K in tools.subs
    }
    cover = MackeyMorphism(P, T, {K: la.from_columns(cols[K], T.dim(K))
                                  for K in tools.subs})
    return FreeCover(gen_subgroups, gen_vectors, P, cover, bases)


def kernel_functor(phi: MackeyMorphism) -> tuple[MackeyFunctorQ, MackeyMorphism]:
    """The kernel of phi with its inclusion into the source."""
    M = phi.src
    basis = {H: la.nullspace(phi.mats[H]) for H in M.subs}
    Kf, incl = _subfunctor(M.group, M.dims, basis, M.map, f"ker({M.name})")
    return Kf, MackeyMorphism(Kf, M, incl)


@dataclass
class Resolution:
    covers: list[FreeCover]  # covers[j].functor = P_j
    # boundaries[j][i]: d(generator i of P_{j+1}) in the basis of P_j at its
    # subgroup, the only column of d: P_{j+1} -> P_j that Ext reads (Yoneda)
    boundaries: list[list[la.Vector]]
    exact_at: int | None  # stage at which the kernel vanished, if reached


def projective_resolution(M: MackeyFunctorQ, length: int,
                          tools: _RepTools | None = None) -> Resolution:
    """Covers P_0, ..., P_length of M, each after P_0 covering the kernel
    of the cover before it.  d = incl ∘ cover sends generator i of P_{j+1},
    the identity class at H_i, to incl(x_i), so that vector is all of d
    that is kept."""
    if length < 0:
        raise ValueError("length must be non-negative")
    tools = tools or _RepTools(M.group)
    covers: list[FreeCover] = []
    boundaries: list[list[la.Vector]] = []
    T = M
    incl: MackeyMorphism | None = None
    exact_at = None
    for j in range(length + 1):
        if T.is_zero():
            exact_at = j - 1
            break
        cov = free_cover(T, tools)
        covers.append(cov)
        if incl is not None:
            boundaries.append([la.matvec(incl.mats[H], x)
                               for H, x in zip(cov.gen_subgroups, cov.gen_vectors)])
        if j == length:  # the last kernel is never consumed
            break
        T, incl = kernel_functor(cov.cover)
    return Resolution(covers, boundaries, exact_at)


def _hom_complex_diff(res: Resolution, N: MackeyFunctorQ, j: int,
                      tools: _RepTools) -> la.Matrix:
    """Matrix of Hom(P_j, N) -> Hom(P_{j+1}, N) in Yoneda coordinates.

    Column (i, t) is the Yoneda morphism of e_t in N(H_i) composed with
    d: P_{j+1} -> P_j, read at the identity class of each generator H2 of
    P_{j+1}.  That is the Yoneda morphism applied to the boundary z of the
    generator, so block (H2, i) is the sum over the entries f of z at the
    classes (i, c) of f · dual_action(N, H2, H_i, c).
    """
    cov_j = res.covers[j]
    cov_j1 = res.covers[j + 1]
    col0 = list(itertools.accumulate((N.dim(H) for H in cov_j.gen_subgroups),
                                     initial=0))
    out = la.zeros(sum(N.dim(H2) for H2 in cov_j1.gen_subgroups), col0[-1])
    row0 = 0
    for H2, z in zip(cov_j1.gen_subgroups, res.boundaries[j]):
        for f, (i, c) in zip(z, cov_j.bases[H2]):
            if f:
                la.add_block(out, row0, col0[i],
                             tools.dual_action(N, H2, cov_j.gen_subgroups[i], c), f)
        row0 += N.dim(H2)
    return out


def ext_mackey(M: MackeyFunctorQ, N: MackeyFunctorQ, i: int,
               res: Resolution | None = None,
               tools: _RepTools | None = None) -> int:
    """dim_Q Ext^i(M, N), via a projective resolution by representables."""
    if i < 0:
        raise ValueError("degree must be non-negative")
    tools = tools or _RepTools(M.group)
    if res is None:
        res = projective_resolution(M, i + 1, tools)
    n_stages = len(res.covers)
    if i >= n_stages:
        if res.exact_at is not None:
            return 0
        raise ResolutionTooShort(f"resolution has {n_stages} stages, need {i + 1}")
    dims = [sum(N.dim(H) for H in cov.gen_subgroups) for cov in res.covers]
    # delta_j: Hom(P_j, N) -> Hom(P_{j+1}, N)
    if i + 1 < n_stages:
        delta_i = _hom_complex_diff(res, N, i, tools)
        ker_dim = dims[i] - la.rank(delta_i)
    else:
        ker_dim = dims[i]
    if i == 0:
        return ker_dim
    delta_prev = _hom_complex_diff(res, N, i - 1, tools)
    return ker_dim - la.rank(delta_prev)
