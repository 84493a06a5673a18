"""Equivariant sheaves of rational vector spaces.

Two base shapes are supported:

* finite discrete G-spaces (EqSheafFinite): a sheaf is its stalk data plus
  action maps over the point action;
* converging sequences (ConvSheaf): isolated points x_1, x_2, ... limiting
  onto a single fixed point omega.  Finitely many exceptional stalks are
  followed by a periodic family of period m.  Germs at omega live in
  PerTail = (eventually periodic sequences valued in the pattern stalks)
  modulo finitely supported ones; a periodic class is stored as one period
  of values, so all germ arithmetic is finite and exact.

The stalk at omega is E_omega = Q^fin_dim ⊕ PerTail^tail_mult, and the germ
map λ: E_omega -> PerTail is stored as one Tail per fin basis vector plus a
scalar per tail summand.  This class is closed under the Godement stages
used here; anything that would leave it raises NonPeriodicTail.

The acting group W moves stalks only (v1 bases have trivial point action,
as in S(Z_p)); per-position subgroups record which part of W must act
trivially for the Weyl condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

from . import linalg as la
from .groups import (CyclicGroup, FiniteGroup, Subgroup, generator_rows, generators,
                     trivial_subgroup)
from .gsets import FiniteGSet

Q0, Q1 = la.Q0, la.Q1


class NonPeriodicTail(Exception):
    """The construction left the periodic-tail representable class."""


class ResolutionUnavailable(Exception):
    """A resolution, or a stage of one, is out of reach."""


# ---------------------------------------------------------------------------
# finite discrete bases


@dataclass
class EqSheafFinite:
    """Sheaf over a finite discrete G-space: stalks and action maps."""

    base: FiniteGSet
    dims: list[int]
    act: dict[tuple[int, int], la.Matrix]  # (g, x): E_x -> E_{g.x}
    name: str = "E"

    def check_equivariance(self) -> bool:
        """act[(e, x)] = I and act[(s·h, x)] = act[(s, h·x)]·act[(h, x)] for
        every generator s, every h and every x: |gens|·|G|·n products, and
        exact for every pair g, h by induction on the length of g as a word
        in the generators, as in ``FiniteGSet``."""
        G, points = self.base.group, range(self.base.size)
        if any(not la.eq(self.act[(G.identity, x)], la.identity(self.dims[x]))
               for x in points):
            return False
        for s, s_row in generator_rows(G):
            for h, sh in zip(G.elements(), s_row):
                for x in points:
                    hx = self.base.act[h][x]
                    lhs = la.matmul(self.act[(s, hx)], self.act[(h, x)])
                    if not la.eq(lhs, self.act[(sh, x)]):
                        return False
        return True


def hom_fin(E: EqSheafFinite, F: EqSheafFinite) -> list[dict[int, la.Matrix]]:
    """Basis of equivariant sheaf maps E -> F (one matrix per point), with
    equivariance written for the generators of G only: for sheaves it then
    holds for every g by induction on word length (`check_equivariance`)."""
    if E.base.group is not F.base.group or E.base.act != F.base.act:
        raise ValueError("hom_fin needs sheaves over the same G-space")
    act, points = E.base.act, range(E.base.size)
    shapes = {x: (F.dims[x], E.dims[x]) for x in points}
    # phi_{gx} aE = aF phi_x
    equations = (([(None, act[g][x], E.act[(g, x)])], [(F.act[(g, x)], x, None)])
                 for g in generators(E.base.group) for x in points)
    return la.intertwiners(shapes, equations)


# ---------------------------------------------------------------------------
# converging bases and periodic tails


@dataclass(frozen=True)
class ConvergingBase:
    """Isolated points x_1, x_2, ... -> omega; W acts on stalks only."""

    r: int  # number of exceptional leading points
    m: int  # period of the tail family
    group: FiniteGroup = field(default_factory=lambda: CyclicGroup(1))
    label: str = "conv"

    def __post_init__(self):
        if self.m < 1 or self.r < 0:
            raise ValueError(f"a converging base needs m >= 1, r >= 0: m={self.m}, r={self.r}")


def spzp_base(p: int = 2) -> ConvergingBase:
    """The S(Z_p) shape: points p^0, p^1, ... converging to the zero group."""
    return ConvergingBase(r=0, m=1, group=CyclicGroup(1), label=f"spzp:{p}")


@dataclass(frozen=True)
class Tail:
    """A periodic representative of a PerTail class.

    values[j] is a vector in the pattern stalk of position j % m; the class
    is the germ of the sequence repeating with the given period.  Two tails
    are equal in PerTail iff their periodic continuations agree (finitely
    supported differences are impossible between purely periodic sequences
    unless they agree everywhere).
    """

    period: int
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.values) != self.period:
            raise ValueError(f"a tail of period {self.period} has {len(self.values)} values")

    def expand(self, period: int) -> "Tail":
        if period % self.period:
            raise ValueError(f"period {period} is not a multiple of {self.period}")
        vals = tuple(self.values[j % self.period] for j in range(period))
        return Tail(period, vals)

    def add(self, other: "Tail") -> "Tail":
        P = math.lcm(self.period, other.period)
        a, b = self.expand(P), other.expand(P)
        return Tail(P, tuple(
            tuple(x + y for x, y in zip(u, v)) for u, v in zip(a.values, b.values)
        ))

    def scale(self, c: Fraction) -> "Tail":
        return Tail(self.period, tuple(tuple(c * x for x in v) for v in self.values))

    def is_zero(self) -> bool:
        return all(not x for v in self.values for x in v)

    def eq(self, other: "Tail") -> bool:
        P = math.lcm(self.period, other.period)
        return self.expand(P).values == other.expand(P).values


def zero_tail(pattern_dims: list[int]) -> Tail:
    m = len(pattern_dims)
    return Tail(m, tuple(tuple([Q0] * pattern_dims[j % m]) for j in range(m)))


def constant_tail(pattern_dims: list[int], vec: list[Fraction]) -> Tail:
    """The tail repeating vec at every position (all pattern dims equal)."""
    m = len(pattern_dims)
    if any(d != len(vec) for d in pattern_dims):
        raise ValueError("a constant tail needs every pattern dim equal to its length")
    return Tail(m, tuple(tuple(vec) for _ in range(m)))


def tail_coords(t: Tail, period: int) -> list[Fraction]:
    """Flatten a tail to one vector over a common period (for solves)."""
    e = t.expand(period)
    out: list[Fraction] = []
    for v in e.values:
        out.extend(v)
    return out


# ---------------------------------------------------------------------------
# converging sheaves


@dataclass
class ConvSheaf:
    """Sheaf over a ConvergingBase within the periodic-tail class."""

    base: ConvergingBase
    exc_dims: list[int]  # stalks at x_1..x_r
    pattern_dims: list[int]  # stalks at the periodic family, length m
    fin_dim: int  # finite-dimensional part of E_omega
    lam: list[Tail]  # germ of each fin basis vector
    tail_mult: int = 0  # number of PerTail summands in E_omega
    lam_tail: tuple[Fraction, ...] = ()  # germ scalar of each tail summand
    # pattern dims of each tail summand (a summand may remember the pattern
    # of a sheaf it was built from, e.g. in cokernel skyscrapers)
    tail_patterns: list[list[int]] | None = None
    # stalk actions of base.group (defaults: trivial)
    act_exc: dict[tuple[int, int], la.Matrix] = field(default_factory=dict)
    act_pattern: dict[tuple[int, int], la.Matrix] = field(default_factory=dict)
    act_fin: dict[int, la.Matrix] = field(default_factory=dict)
    # Weyl requirement: these subgroups must act trivially per position
    weyl_exc: list[Subgroup] | None = None
    weyl_pattern: list[Subgroup] | None = None
    weyl_omega: Subgroup | None = None
    name: str = "E"

    def __post_init__(self):
        if self.tail_patterns is None:
            self.tail_patterns = [list(self.pattern_dims)] * self.tail_mult
        lengths = tuple(map(len, (self.exc_dims, self.pattern_dims, self.lam,
                                  self.lam_tail, self.tail_patterns)))
        want = (self.base.r, self.base.m, self.fin_dim, self.tail_mult, self.tail_mult)
        if lengths != want:
            raise ValueError(f"{self.name}: exc_dims, pattern_dims, lam, lam_tail and "
                             f"tail_patterns have lengths {lengths}, not {want}")
        W = self.base.group
        for g in W.elements():
            for i in range(self.base.r):
                self.act_exc.setdefault((g, i), la.identity(self.exc_dims[i]))
            for j in range(self.base.m):
                self.act_pattern.setdefault((g, j), la.identity(self.pattern_dims[j]))
            self.act_fin.setdefault(g, la.identity(self.fin_dim))

    def tail_effective_mult(self) -> int:
        """Tail summands whose pattern is nonzero (zero patterns give 0)."""
        return sum(1 for pat in (self.tail_patterns or []) if any(pat))

    def pattern_zero(self) -> bool:
        return all(d == 0 for d in self.pattern_dims)


def constant_sheaf(base: ConvergingBase, dim: int) -> ConvSheaf:
    dims = [dim] * base.m
    lam = [
        constant_tail(dims, [Q1 if t == j else Q0 for t in range(dim)])
        for j in range(dim)
    ]
    return ConvSheaf(
        base, [dim] * base.r, dims, dim, lam, name=f"const{dim}"
    )


def skyscraper_omega(base: ConvergingBase, dim: int) -> ConvSheaf:
    """Skyscraper at the limit point: zero isolated stalks, zero germ."""
    zero = zero_tail([0] * base.m)
    return ConvSheaf(
        base, [0] * base.r, [0] * base.m, dim, [zero] * dim, name=f"sky(omega,{dim})"
    )


def zero_conv_sheaf(base: ConvergingBase) -> ConvSheaf:
    return ConvSheaf(base, [0] * base.r, [0] * base.m, 0, [], name="0")


# ---------------------------------------------------------------------------
# Weyl condition


@dataclass
class WeylFlag:
    exc: list[bool]
    pattern: list[bool]
    omega: bool

    @property
    def ok(self) -> bool:
        return all(self.exc) and all(self.pattern) and self.omega


def weyl_check(E: ConvSheaf) -> WeylFlag:
    """Do the designated stabilizer subgroups act trivially on their stalks?"""
    W = E.base.group
    triv = trivial_subgroup(W)
    wexc = E.weyl_exc or [triv] * E.base.r
    wpat = E.weyl_pattern or [triv] * E.base.m
    womega = E.weyl_omega or triv
    exc_ok = [
        all(la.eq(E.act_exc[(g, i)], la.identity(E.exc_dims[i])) for g in wexc[i].elements)
        for i in range(E.base.r)
    ]
    pat_ok = [
        all(
            la.eq(E.act_pattern[(g, j)], la.identity(E.pattern_dims[j]))
            for g in wpat[j].elements
        )
        for j in range(E.base.m)
    ]
    omega_ok = all(
        la.eq(E.act_fin[g], la.identity(E.fin_dim)) for g in womega.elements
    )
    return WeylFlag(exc_ok, pat_ok, omega_ok)


# ---------------------------------------------------------------------------
# Godement stages


def godement_I0(E: ConvSheaf) -> ConvSheaf:
    """I0(E): same isolated stalks; omega-stalk E_omega ⊕ PerTail(pattern).

    The new tail summand is the germ space of the product of the isolated
    skyscrapers; the new germ map projects onto it.
    """
    if E.pattern_zero():
        # germ space of the isolated family is zero; only E_omega survives
        return replace(E, name=f"I0({E.name})")
    return replace(
        E,
        tail_mult=E.tail_mult + 1,
        lam=[zero_tail(E.pattern_dims)] * E.fin_dim,
        lam_tail=(Q0,) * E.tail_mult + (Q1,),
        tail_patterns=list(E.tail_patterns or []) + [list(E.pattern_dims)],
        name=f"I0({E.name})",
    )


@dataclass
class GodementResolution:
    sheaf: ConvSheaf
    stages: list[ConvSheaf]  # I0, I1, ...
    length: int  # last index with nonzero stage

    def stage_stalk_dims(self, i: int) -> dict:
        I = self.stages[i]
        return {
            "exc": list(I.exc_dims),
            "pattern": list(I.pattern_dims),
            "omega_fin": I.fin_dim,
            "omega_tail_mult": I.tail_effective_mult(),
            "tail_patterns": [list(p) for p in (I.tail_patterns or [])],
        }


def coker_delta(E: ConvSheaf) -> ConvSheaf:
    """Cokernel of delta: E -> I0(E), computed in the germ algebra.

    Isolated stalks cancel; at omega the map (e, t_new) -> t_new - lambda(e)
    identifies the cokernel with the skyscraper at omega on PerTail(pattern)
    (zero if the pattern is zero)."""
    if E.pattern_zero():
        return zero_conv_sheaf(E.base)
    return ConvSheaf(
        E.base, [0] * E.base.r, [0] * E.base.m, 0, [],
        tail_mult=1, lam_tail=(Q0,), tail_patterns=[list(E.pattern_dims)],
        name=f"coker(delta {E.name})",
    )


def godement_resolution(E: ConvSheaf, max_n: int = 4) -> GodementResolution:
    """0 -> E -> I0 -> I1 -> ...; always terminates within two stages here.
    Raises ResolutionUnavailable if the stages I0..I{max_n} do not end it."""
    def stage_zero(I: ConvSheaf) -> bool:
        return (
            I.fin_dim == 0 and I.tail_effective_mult() == 0
            and not any(I.exc_dims) and I.pattern_zero()
        )

    stages = []
    cur = E
    for _ in range(max_n + 1):
        stages.append(godement_I0(cur))
        cur = coker_delta(cur)
        if stage_zero(cur):
            break
    else:
        raise ResolutionUnavailable(
            f"the Godement resolution of {E.name} does not end within stages "
            f"I0..I{max_n}")
    # drop trailing zero stages
    while stages and stage_zero(stages[-1]):
        stages.pop()
    return GodementResolution(E, stages, len(stages) - 1)


def stalk_vanishing_check(res: GodementResolution, heights: dict) -> list[str]:
    """Stage-n stalks must vanish at points of height < n.

    heights maps "isolated" and "omega" to the heights of those point types
    (0 and 1 on a converging base).  Returns the list of violations.
    """
    bad = []
    for n, I in enumerate(res.stages):
        if heights.get("isolated", 0) < n:
            if any(I.exc_dims) or not I.pattern_zero():
                bad.append(f"stage {n} has a nonzero isolated stalk (height 0)")
        if heights.get("omega", 1) < n:
            if I.fin_dim or I.tail_effective_mult():
                bad.append(f"stage {n} has a nonzero omega stalk")
    return bad


# ---------------------------------------------------------------------------
# sheaf homs in the converging class


def common_period(E: ConvSheaf, F: ConvSheaf) -> int:
    """The period of the tails that compare E with F: the lcm of 2 (for the
    alternating witness), both base periods and every lambda period."""
    periods = [S.base.m for S in (E, F)] + [t.period for S in (E, F) for t in S.lam]
    return math.lcm(2, *periods)


def _matrix(rows: int, cols: int, entries: dict) -> la.Matrix:
    """The rows x cols matrix with the given {(i, j): x}, 0 elsewhere."""
    m = la.zeros(rows, cols)
    for (i, j), x in entries.items():
        m[i][j] = x
    return m


def hom_conv(E: ConvSheaf, F: ConvSheaf) -> list[dict]:
    """Basis of sheaf maps E -> F within the periodic class: one matrix per
    key, ("exc", i) and ("pat", j) on the isolated stalks, "fin" between the
    fin parts at omega, ("fintail", j) from E's fin vectors to F's tail
    coordinates at position j of P = common_period(E, F), and "tailscal"
    between tail summands, solving W-equivariance and the germ square
    lambda_F ∘ phi_omega = phi_tail ∘ lambda_E in one `la.intertwiners` call.
    """
    if E.base.r != F.base.r or E.base.m != F.base.m:
        raise ValueError("hom_conv needs sheaves over bases of the same r and m")
    if any(list(pat) != list(S.pattern_dims) for S in (E, F) for pat in S.tail_patterns):
        raise NonPeriodicTail("hom_conv needs tail summands over the sheaf's own pattern")
    r, m, P = E.base.r, E.base.m, common_period(E, F)
    tail_dims = [F.pattern_dims[j % m] for j in range(P)]  # per position of P
    shapes = {("exc", i): (F.exc_dims[i], E.exc_dims[i]) for i in range(r)}
    shapes.update({("pat", j): (F.pattern_dims[j], E.pattern_dims[j]) for j in range(m)})
    shapes["fin"] = (F.fin_dim, E.fin_dim)
    # the tail component of phi_omega on fin vectors exists only when F has one
    shapes.update({("fintail", j): (d if F.tail_mult else 0, E.fin_dim)
                   for j, d in enumerate(tail_dims)})
    shapes["tailscal"] = (F.tail_mult, E.tail_mult)

    equations = []  # W-equivariance: phi·a_E = a_F·phi on every stalk
    for g in E.base.group.elements():
        acts = [(("exc", i), E.act_exc[(g, i)], F.act_exc[(g, i)]) for i in range(r)]
        acts += [(("pat", j), E.act_pattern[(g, j)], F.act_pattern[(g, j)])
                 for j in range(m)]
        acts.append(("fin", E.act_fin[g], F.act_fin[g]))
        equations += [([(None, key, aE)], [(aF, key, None)]) for key, aE, aF in acts]

    # germ square on E's fin vectors at each position j of P:
    # phi_pat·lambda_E = lambda_F·phi_fin + (Σ lam_tail_F)·phi_fintail
    lamE = [t.expand(P).values for t in E.lam]
    lamF = [t.expand(P).values for t in F.lam]
    scalar = sum(F.lam_tail, Q0)
    for j, d in enumerate(tail_dims):
        lhs = [(None, ("pat", j % m),
                la.from_columns([v[j] for v in lamE], E.pattern_dims[j % m]))]
        rhs = [(la.from_columns([v[j] for v in lamF], d), "fin", None)]
        if F.tail_mult:
            rhs.append((la.scale(la.identity(d), scalar), ("fintail", j), None))
        equations.append((lhs, rhs))

    # each row a of phi_pat_j against tail summand u of E with lam_E_u != 0:
    # lam_E_u·phi_pat_j = (Σ_v lam_F_v·c_vu)·I if E and F have the same
    # pattern dim at j, else 0
    lam_F = la.Matrix([list(F.lam_tail)], F.tail_mult)
    for u, lu in enumerate(E.lam_tail):
        for j, (dF, dE) in enumerate(zip(F.pattern_dims, E.pattern_dims)):
            for a in range(dF if lu else 0):
                row_a = (_matrix(1, dF, {(0, a): lu}), ("pat", j), None)
                diag = [] if dE != dF else [
                    (lam_F, "tailscal", _matrix(E.tail_mult, dE, {(u, a): Q1}))]
                equations.append(([row_a], diag))
    return la.intertwiners(shapes, equations)


def hom_conv_dim(E: ConvSheaf, F: ConvSheaf) -> int:
    return len(hom_conv(E, F))
