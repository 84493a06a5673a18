"""Sheaves that only the tests build: the constant sheaf over a finite
discrete G-set and the skyscraper at an exceptional isolated point; and the
hand-packed Hom solve over a converging base that hom_conv is checked against."""

import math

from profmack import linalg as la
from profmack.gsets import FiniteGSet
from profmack.sheaf import (ConvergingBase, ConvSheaf, EqSheafFinite, NonPeriodicTail,
                            tail_coords)

Q0 = la.Q0


def constant_sheaf_finite(base: FiniteGSet, dim: int) -> EqSheafFinite:
    G = base.group
    act = {
        (g, x): la.identity(dim) for g in G.elements() for x in range(base.size)
    }
    return EqSheafFinite(base, [dim] * base.size, act, name=f"const{dim}")


def skyscraper_isolated(base: ConvergingBase, n: int, dim: int) -> ConvSheaf:
    """Skyscraper at an exceptional isolated point x_n (n <= r)."""
    if n > base.r:
        raise NonPeriodicTail(
            "skyscrapers inside the periodic family break the period; "
            "model the point as exceptional instead"
        )
    exc = [dim if i == n - 1 else 0 for i in range(base.r)]
    return ConvSheaf(base, exc, [0] * base.m, 0, [], name=f"sky(x{n},{dim})")


def _reference_period(*sheaves: ConvSheaf) -> int:
    P = 1
    for E in sheaves:
        P = math.lcm(P, E.base.m)
        for t in E.lam:
            P = math.lcm(P, t.period)
    return P


def reference_hom_conv(E: ConvSheaf, F: ConvSheaf) -> list[dict]:
    """The hom_conv that packed its own unknowns and wrote its germ-square
    rows by hand, kept to check the one-solve hom_conv against; only its
    equivariance rows go through ``la.equation_rows``.

    Basis of sheaf maps E -> F within the periodic class.

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
    P = math.lcm(_reference_period(E), _reference_period(F), 2)
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
        return la.equation_rows(total, blk, [(None, key, aE)], [(aF, key, None)])

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
