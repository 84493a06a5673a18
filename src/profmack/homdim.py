"""Homological-dimension certificates, the Ext^1 decision over converging
bases, and the Mackey/Weyl-sheaf comparison.

Ext^1 over a converging base is decided by nonsplit_extension alone: a
degree-1 lower bound is an explicit non-split extension rather than an
ambient dimension count, since Ext^1 at the limit point is
infinite-dimensional as a Q-space, and certificates carry its re-verifiable
witness.  The witness is the first tail outside im(lambda_F) that
_tail_outside finds; its parity candidates come first, so over S(Z_p) it is
the alternating section (1, 0, 1, 0, ...).

The finite-group comparison functor Phi kills images of proper inductions:
stalk of Phi(M) at a subgroup K is coker(⊕_{L<K} ind^K_L), with conjugation
inducing the action over the conjugation G-set of subgroups.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from . import linalg as la
from .cbrank import RankCertificate, cb_rank
from .groups import (Subgroup, UnknownFamily, conjugation_perms, element_rows,
                     inclusion_lattice)
from .gsets import FiniteGSet
from .mackey import MackeyFunctorQ
from .sheaf import (
    ConvSheaf,
    EqSheafFinite,
    Tail,
    WeylFlag,
    common_period,
    constant_sheaf,
    godement_resolution,
    skyscraper_omega,
    spzp_base,
    tail_coords,
)
from .tower import builtin_tower, parse_prime, subgroup_space_tower

Q0, Q1 = la.Q0, la.Q1


# ---------------------------------------------------------------------------
# non-split extensions


def _tail_outside(span: list[list[Fraction]], F: ConvSheaf, P: int) -> Tail | None:
    """Some period-P (or 2P) tail not in the span, parity candidates first."""
    m = F.base.m

    def candidates(period):
        outs = []
        # alternating candidates per pattern basis vector and parity
        for j in range(m):
            for t in range(F.pattern_dims[j]):
                for parity in (0, 1):
                    vals = []
                    for pos in range(period):
                        d = F.pattern_dims[pos % m]
                        vec = [Q0] * d
                        if pos % m == j and (pos // m) % 2 == parity:
                            vec[t] = Q1
                        vals.append(tuple(vec))
                    outs.append(Tail(period, tuple(vals)))
        # plain basis tails as fallback
        for pos0 in range(period):
            d = F.pattern_dims[pos0 % m]
            for t in range(d):
                vals = []
                for pos in range(period):
                    vec = [Q0] * F.pattern_dims[pos % m]
                    if pos == pos0:
                        vec[t] = Q1
                    vals.append(tuple(vec))
                outs.append(Tail(period, tuple(vals)))
        return outs

    for period in (P, 2 * P):
        span_P = [v * (period // P) for v in span]
        for cand in candidates(period):
            if not la.in_span(span_P, tail_coords(cand, period)):
                return cand
    return None


@dataclass
class ExtensionDatum:
    middle: ConvSheaf
    witness: Tail
    trace: list[str] = field(default_factory=list)


def nonsplit_extension(E: ConvSheaf, F: ConvSheaf) -> ExtensionDatum | None:
    """0 -> F -> M -> E -> 0 certified non-split (so Ext^1(E, F) != 0), or None.

    E must be a skyscraper-type sheaf at omega (zero isolated stalks).  The
    middle object extends lambda_F by a witness tail on the E summand; a
    splitting would force the witness into im(lambda_F), which the exact
    solve refutes.
    """
    if any(E.exc_dims) or not E.pattern_zero() or E.tail_mult or E.fin_dim == 0:
        return None
    if F.pattern_zero() or any(F.lam_tail):
        return None  # injective target within the class
    P = common_period(E, F)
    # lambda_E = 0, so Hom(E, I0(F)) reaches I1(F) only within im lambda_F
    w = _tail_outside([tail_coords(t, P) for t in F.lam], F, P)
    if w is None:
        return None
    # splitting sigma(e_b) = (f_b, e_b) needs lambda_F(f_b) + w = 0
    Pw = math.lcm(P, w.period)
    spanP = [tail_coords(t, Pw) for t in F.lam]
    if la.in_span(spanP, [-x for x in tail_coords(w, Pw)]):
        return None
    M = ConvSheaf(
        F.base, list(F.exc_dims), list(F.pattern_dims),
        F.fin_dim + E.fin_dim, list(F.lam) + [w] * E.fin_dim,
        tail_mult=F.tail_mult, lam_tail=F.lam_tail,
        act_exc=dict(F.act_exc), act_pattern=dict(F.act_pattern),
        name=f"ext({E.name},{F.name})",
    )
    return ExtensionDatum(
        M, w, trace=["splitting system lambda_F(f) = -w is infeasible (exact solve)"])


# ---------------------------------------------------------------------------
# homological dimension certificates


@dataclass
class HomDimCertificate:
    setup: str
    verdict: str  # "Exact" | "Interval" | "PerfectHull"
    value: int | None
    lower: int | None
    upper: int | None
    rank_certificate: RankCertificate | None
    godement_length: int | None
    witness: Tail | None
    trace: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        """The certificate's JSON: its fields, with the witness values as
        Fractions, the rank certificate's own ``as_dict`` and "schema": 1."""
        rc = self.rank_certificate
        return {"schema": 1, **asdict(self),
                "rank_certificate": rc.as_dict() if rc else None}


def combine_certificate(setup: str, rank_cert: RankCertificate,
                        godement_length: int | None,
                        nonsplit_degree: int,
                        witness: Tail | None,
                        trace: list[str]) -> HomDimCertificate:
    if rank_cert.verdict == "PerfectHullDetected":
        return HomDimCertificate(
            setup, "PerfectHull", None, None, None, rank_cert, None, None,
            trace + ["perfect hull detected: no finite certificate emitted"],
        )
    if rank_cert.verdict != "Exact":
        lo = nonsplit_degree
        hi = (rank_cert.hi - 1) if rank_cert.hi is not None else None
        return HomDimCertificate(
            setup, "Interval", None, lo, hi, rank_cert, godement_length,
            witness, trace + ["rank not exact: interval certificate"],
        )
    upper = rank_cert.rank - 1
    if godement_length is not None and godement_length != upper:
        trace = trace + [
            f"resolution-length audit: length {godement_length} != rank-1 {upper}"
        ]
    lower = nonsplit_degree
    if lower == upper:
        return HomDimCertificate(
            setup, "Exact", upper, lower, upper, rank_cert, godement_length,
            witness, trace + [f"bounds meet at {upper}"],
        )
    return HomDimCertificate(
        setup, "Interval", None, lower, upper, rank_cert, godement_length,
        witness, trace,
    )


def homdim_certificate(setup: str, depth: int = 6) -> HomDimCertificate:
    """Built-in setups: "finite[:<selector>]", "spzp[:p]", "spzp-weyl[:p]",
    with p prime (default 2)."""
    trace: list[str] = []
    family, sep, arg = setup.partition(":")
    if family == "finite":
        sel = arg if sep else "cyclic:2"
        T = builtin_tower(f"finite:{sel}", max(depth, 1))
        cert = cb_rank(subgroup_space_tower(T))
        trace.append(f"finite group {sel}: discrete subgroup space")
        trace.append("finite discrete base: sheaves injective, length-0 resolutions")
        return combine_certificate(setup, cert, 0, 0, None, trace)
    if family in ("spzp", "spzp-weyl"):
        p = parse_prime(arg) if sep else 2
        T = builtin_tower(f"pro_p:{p}", depth)
        cert = cb_rank(subgroup_space_tower(T))
        base = spzp_base(p)
        cQ = constant_sheaf(base, 1)
        res = godement_resolution(cQ)
        sky = skyscraper_omega(base, 1)
        datum = nonsplit_extension(sky, cQ)
        trace.append(f"S(Z_{p}) at depth {depth}: rank {cert.verdict}({cert.rank})")
        trace.append(f"constQ Godement length {res.length}")
        nonsplit_degree, witness = 0, None
        if datum is not None:
            nonsplit_degree, witness = 1, datum.witness
            trace.extend(datum.trace)
        return combine_certificate(
            setup, cert, res.length, nonsplit_degree, witness, trace
        )
    raise UnknownFamily(f"unknown setup {setup!r}")


# ---------------------------------------------------------------------------
# the comparison functor Phi (finite groups)


def _stalk_data(M: MackeyFunctorQ, K: Subgroup):
    """(complement coordinates, projection) presenting coker of inductions."""
    cols: list[list[Fraction]] = []
    for L in inclusion_lattice(M.group)[0][K][:-1]:  # K itself comes last
        mat = M.ind[(K, L)]
        for j in range(M.dim(L)):
            cols.append([mat[i][j] for i in range(M.dim(K))])
    return la.quotient_basis(cols, M.dim(K))


def _phi_stalks(M: MackeyFunctorQ) -> dict:
    """_stalk_data of M at every subgroup."""
    return {H: _stalk_data(M, H) for H in M.subs}


def _section(comp: list[int], dim: int) -> la.Matrix:
    """Right inverse of the quotient projection: class coords -> rep vector."""
    s = la.zeros(dim, len(comp))
    for c, j in enumerate(comp):
        s[j][c] = Q1
    return s


def mackey_to_weylsheaf(M: MackeyFunctorQ) -> tuple[EqSheafFinite, WeylFlag]:
    """Phi(M): stalk at K = coker(⊕_{L<K} ind^K_L) over the conjugation G-set.

    The Weyl flag records whether each K acts trivially on its own stalk,
    i.e. whether the action genuinely factors through W_G(K)."""
    G = M.group
    subs = M.subs
    # Sub(G) under conjugation: `conjugation_perms` along the generator words
    base = FiniteGSet(G, tuple(element_rows(G, conjugation_perms(G), len(subs))),
                      label="subconj")
    data = _phi_stalks(M)
    dims = [len(data[H][0]) for H in subs]
    act = {}
    for g, row in zip(G.elements(), base.act):
        for x, H in enumerate(subs):
            Hg = subs[row[x]]
            compH, projH = data[H]
            compHg, projHg = data[Hg]
            mat = la.matmul(projHg, la.matmul(M.conj[(g, H)],
                                              _section(compH, M.dim(H))))
            act[(g, x)] = mat
    sheaf = EqSheafFinite(base, dims, act, name=f"Phi({M.name})")
    weyl = WeylFlag(
        exc=[
            all(
                la.eq(act[(g, x)], la.identity(dims[x]))
                for g in H.elements
            )
            for x, H in enumerate(subs)
        ],
        pattern=[],
        omega=True,
    )
    return sheaf, weyl


def weylsheaf_morphism(f, data_src: dict, data_dst: dict) -> dict[int, la.Matrix]:
    """Stalk maps Phi(f), given the _phi_stalks of f's source and target:
    well defined because f commutes with inductions, so it carries images of
    proper inductions into images of proper inductions."""
    out = {}
    for x, H in enumerate(f.src.subs):
        compM, _ = data_src[H]
        _, projN = data_dst[H]
        out[x] = la.matmul(projN, la.matmul(f(H), _section(compM, f.src.dim(H))))
    return out


def phi_exact_on_ses(inc, proj) -> bool:
    """Audit: Phi sends the SES (inc, proj) to stalkwise short exact maps."""
    dA, dM, dB = (_phi_stalks(F) for F in (inc.src, inc.dst, proj.dst))
    fi = weylsheaf_morphism(inc, dA, dM)
    fp = weylsheaf_morphism(proj, dM, dB)
    for x, H in enumerate(inc.src.subs):
        if not la.is_zero(la.matmul(fp[x], fi[x])):
            return False
        ri, rp = la.rank(fi[x]), la.rank(fp[x])
        if ri != len(dA[H][0]):  # injective on stalks
            return False
        if rp != len(dB[H][0]):  # surjective on stalks
            return False
        if ri + rp != len(dM[H][0]):  # exact in the middle
            return False
    return True
