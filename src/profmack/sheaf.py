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
from .groups import CyclicGroup, FiniteGroup, Subgroup, generator_rows, trivial_subgroup
from .gsets import FiniteGSet

Q0, Q1 = la.Q0, la.Q1


class NonPeriodicTail(Exception):
    """The construction left the periodic-tail representable class."""


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
    """Basis of equivariant sheaf maps E -> F (one matrix per point)."""
    assert E.base.group is F.base.group and E.base.act == F.base.act
    act, points = E.base.act, range(E.base.size)
    shapes = {x: (F.dims[x], E.dims[x]) for x in points}
    # phi_{gx} aE - aF phi_x = 0
    equations = ((act[g][x], E.act[(g, x)], x, F.act[(g, x)])
                 for g in E.base.group.elements() for x in points)
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
        assert self.m >= 1 and self.r >= 0


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
        assert len(self.values) == self.period

    def expand(self, period: int) -> "Tail":
        assert period % self.period == 0
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
    assert all(d == len(vec) for d in pattern_dims)
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
        assert len(self.exc_dims) == self.base.r
        assert len(self.pattern_dims) == self.base.m
        assert len(self.lam) == self.fin_dim
        assert len(self.lam_tail) == self.tail_mult
        if self.tail_patterns is None:
            self.tail_patterns = [list(self.pattern_dims)] * self.tail_mult
        assert len(self.tail_patterns) == self.tail_mult
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
    """0 -> E -> I0 -> I1 -> ...; always terminates within two stages here."""
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


def _common_period(*sheaves: ConvSheaf) -> int:
    P = 1
    for E in sheaves:
        P = math.lcm(P, E.base.m)
        for t in E.lam:
            P = math.lcm(P, t.period)
    return P


def hom_conv(E: ConvSheaf, F: ConvSheaf) -> list[dict]:
    """Basis of sheaf maps E -> F within the periodic class.

    A map consists of exceptional matrices, pattern matrices (periodic with
    the base period), a fin-to-fin matrix, one tail of period P per E-fin
    basis vector, and scalars between tail summands; the germ square
    lambda_F ∘ phi_omega = phi_tail ∘ lambda_E and W-equivariance are the
    constraints.  P is the lcm of the base period and all lambda periods.
    """
    assert E.base.r == F.base.r and E.base.m == F.base.m
    for S in (E, F):
        for pat in S.tail_patterns or []:
            if list(pat) != list(S.pattern_dims):
                raise NonPeriodicTail(
                    "hom_conv needs tail summands over the sheaf's own pattern"
                )
    base = E.base
    W = base.group
    P = math.lcm(_common_period(E), _common_period(F), 2)
    blocks = sum(F.pattern_dims[j % base.m] for j in range(P))  # tail coords

    blk = {}  # unknown matrices: key -> (offset, rows, cols)
    total = 0

    def alloc(key, rows, cols):
        nonlocal total
        blk[key] = (total, rows, cols)
        total += rows * cols

    for i in range(base.r):
        alloc(("exc", i), F.exc_dims[i], E.exc_dims[i])
    for j in range(base.m):
        alloc(("pat", j), F.pattern_dims[j], E.pattern_dims[j])
    alloc("fin", F.fin_dim, E.fin_dim)
    # tail component of phi_omega on fin vectors exists only when F has one
    alloc("fintail", E.fin_dim if F.tail_mult else 0, blocks)
    alloc("tailscal", F.tail_mult, E.tail_mult)
    if total == 0:
        return []
    offs = {key: b[0] for key, b in blk.items()}

    rows = la.Matrix([], total)

    def zrow():
        return [Q0] * total

    def equivariant(key, aE, aF):
        """phi aE - aF phi = 0 for the unknown block at key."""
        return la.intertwiner_rows(total, blk[key], aE, blk[key], aF)

    # equivariance
    for g in W.elements():
        for i in range(base.r):
            rows += equivariant(("exc", i), E.act_exc[(g, i)], F.act_exc[(g, i)])
        for j in range(base.m):
            rows += equivariant(("pat", j), E.act_pattern[(g, j)],
                                F.act_pattern[(g, j)])
        rows += equivariant("fin", E.act_fin[g], F.act_fin[g])

    # germ square on fin basis vectors of E:
    # lambda_F(phi_fin e_b) (+ scalars·0) = phi_tail(lambda_E e_b) + fintail_b?
    # The germ of phi at omega sends e_b to lambda-image of its fin image; the
    # pattern maps push lambda_E(e_b) forward.  Constraint rows over the
    # common period P:
    lamF = [tail_coords(t, P) for t in F.lam]
    for b in range(E.fin_dim):
        lamE_b = E.lam[b].expand(P)
        # coordinates of pushforward: position j (0..P-1): pattern map at
        # j % m applied to lamE_b.values[j]
        pos_off = 0
        for j in range(P):
            jm = j % base.m
            for a in range(F.pattern_dims[jm]):
                row = zrow()
                # phi_tail(lam_E e_b) coordinate a at position j:
                for t in range(E.pattern_dims[jm]):
                    row[offs[("pat", jm)] + a * E.pattern_dims[jm] + t] += lamE_b.values[j][t]
                # minus lambda_F(phi_fin(e_b)) coordinate:
                for t in range(F.fin_dim):
                    row[offs["fin"] + t * E.fin_dim + b] -= lamF[t][pos_off + a]
                # minus the free tail attached to e_b when F has tail summands
                for s in range(F.tail_mult):
                    if F.lam_tail[s]:
                        row[offs["fintail"] + b * blocks + pos_off + a] -= F.lam_tail[s]
                rows.append(row)
            pos_off += F.pattern_dims[jm]
    # tail summands of E map to tail summands of F by scalars; germ square:
    # lam_F_tail(scalar) must equal pushforward scalar lam_E_tail; pattern
    # pushforward on tails is positionwise by the pattern matrices, which for
    # scalar bookkeeping requires the pattern maps to intertwine; enforced by
    # requiring: for each E tail summand u and F tail summand v:
    #   lamF_v * c_{vu} = lamE_u * (pattern maps act as the scalar on tails)
    # Within this class tails map by (pattern map applied positionwise), so
    # the germ square for tail summands reads: for each u:
    #   sum_v lamF_v c_{vu} = lamE_u  (as operators PerTail -> PerTail given
    # by the pattern matrices); we conservatively require pattern maps to be
    # scalar multiples mu of a fixed map when E.tail_mult > 0.
    if E.tail_mult:
        for u in range(E.tail_mult):
            if not E.lam_tail[u]:
                continue
            # lamE_u nonzero: need sum_v lamF_v c_{vu} = lamE_u * pattern-push.
            # We encode only the scalar part: pattern maps must be identity
            # multiples for this constraint; otherwise leave unconstrained
            # solutions out by requiring equality coordinatewise on a basis
            # tail (delta at position 0).
            for j in range(base.m):
                dE, dF = E.pattern_dims[j], F.pattern_dims[j]
                for a in range(dF):
                    for t in range(dE):
                        row = zrow()
                        row[offs[("pat", j)] + a * dE + t] += E.lam_tail[u]
                        for v in range(F.tail_mult):
                            if F.lam_tail[v] and a < dF and t < dE and dE == dF and a == t:
                                row[offs["tailscal"] + v * E.tail_mult + u] -= F.lam_tail[v]
                        rows.append(row)
    null = la.nullspace(rows)
    return [{
        "exc": [la.read_block(vec, blk[("exc", i)]) for i in range(base.r)],
        "pat": [la.read_block(vec, blk[("pat", j)]) for j in range(base.m)],
        "fin": la.read_block(vec, blk["fin"]),
        "fintail": (la.read_block(vec, blk["fintail"]) if F.tail_mult
                    else la.zeros(E.fin_dim, blocks)),
        "tailscal": la.read_block(vec, blk["tailscal"]),
        "period": P,
    } for vec in null]


def hom_conv_dim(E: ConvSheaf, F: ConvSheaf) -> int:
    return len(hom_conv(E, F))
