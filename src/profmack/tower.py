"""Profinite groups as towers of finite quotients; the subgroup-space tower.

Built-in families:

  * ``trivial``                        — all levels trivial.
  * ``pro_p:<p>``                      — levels Z/p^k, bonds reduction mod p^k.
  * ``prod:pro_p:<p1>,pro_p:<p2>,...`` — products of cyclic pro-p towers for
    pairwise distinct primes.
  * ``finite:<group selector>``        — a constant finite group above the
    trivial level (the tower of a finite group).

The first three are one family: the product of the cyclic pro-p towers of
zero, one or several primes.  `builtin_tower` parses a selector once into the
levels, the bond tables and the family's thread lemma, which it binds to the
tower it returns (`GroupTower.lemma`).  A tower built by hand or read from
JSON has no lemma, whatever its ``family`` label says, and each of its threads
is certified unknown.

The subgroup-space tower S(G) has two paths.  When every level is cyclic by
construction (a CyclicGroup, or a ProductGroup of such groups with pairwise
coprime orders), as in the first three families and ``finite:`` of a cyclic
group, it is read off the level orders: Sub(G_k) is the divisor lattice of
|G_k| and a bond's image of a subgroup depends only on its order, so no
subgroup is built.  Every other tower enumerates the subgroups of each level
and maps their elements through the bond tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .cbrank import SpaceTree, ThreadCert
from .groups import (
    CyclicGroup,
    FiniteGroup,
    GroupHom,
    ProductGroup,
    Subgroup,
    UnknownFamily,
    all_subgroups,
    conjugation_perms,
    divisors,
    generators,
    group_from_json,
    group_to_json,
    identity_hom,
    parse_group,
    selector_number,
    subgroup,
)


@dataclass
class GroupTower:
    levels: list[FiniteGroup]
    bonds: list[GroupHom]  # bonds[k]: levels[k+1] -> levels[k]
    family: str | None = None  # a label, for the chain name and the JSON
    # the family's thread lemma: the certificate of the thread of a top-level
    # subgroup of the given order.  Only `builtin_tower` binds one.
    lemma: Callable[[int], ThreadCert] | None = None

    def __post_init__(self):
        if self.levels[0].order != 1:
            raise ValueError("level 0 must be the trivial group")
        if len(self.bonds) != len(self.levels) - 1:
            raise ValueError("need one bond per consecutive level pair")
        for k, q in enumerate(self.bonds):
            if q.domain is not self.levels[k + 1] or q.codomain is not self.levels[k]:
                raise ValueError(f"bond {k} connects the wrong levels")
            if not q.is_surjective():
                raise ValueError(f"bond {k} is not surjective")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def bond_to(self, m: int, k: int) -> GroupHom:
        """Composite bond levels[m] -> levels[k] for k <= m."""
        if not 0 <= k <= m <= self.depth:
            raise ValueError(f"no bond from level {m} to level {k} in depth {self.depth}")
        q = identity_hom(self.levels[m])
        for j in range(m - 1, k - 1, -1):
            q = self.bonds[j].compose(q)
        return q


def parse_prime(text: str) -> int:
    """The prime that a selector writes as text (see ``selector_number``);
    UnknownFamily otherwise."""
    p = selector_number(text)
    if p is None:
        raise UnknownFamily(f"expected a prime, got {text!r}")
    if divisors(p) != [1, p]:
        raise UnknownFamily(f"{p} is not prime")
    return p


def _family_primes(family: str) -> list[int]:
    """The pairwise distinct primes of ``trivial`` (none), ``pro_p:<p>`` or
    ``prod:pro_p:<p1>,...``; UnknownFamily for any other family."""
    if family == "trivial":
        return []
    if family.startswith("prod:"):
        tags = family[5:].split(",")
    elif family.startswith("pro_p:"):
        tags = [family]
    else:
        raise UnknownFamily(f"unknown tower family {family!r}")
    primes = []
    for tag in tags:
        if not tag.startswith("pro_p:"):
            raise UnknownFamily(f"expected pro_p:<prime>, got {tag!r}")
        primes.append(parse_prime(tag[6:]))
    if len(set(primes)) != len(primes):
        raise UnknownFamily("product families need pairwise distinct primes")
    return primes


def builtin_tower(family: str, depth: int) -> GroupTower:
    """The tower that a family selector names, cut at the given depth, with
    the family's thread lemma bound to it."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if family.startswith("finite:"):
        G = parse_group(family[7:])
        primes, levels = [], [CyclicGroup(1)] + [G] * depth
        tables = [tuple(range(G.order)) if k else (0,) * G.order for k in range(depth)]
    else:
        primes = _family_primes(family)
        # level k is the product of the Z/p^k; with at most one prime it stays a
        # CyclicGroup, whose products are several times cheaper than a product's
        levels = [CyclicGroup(math.prod(p**k for p in primes)) if len(primes) < 2
                  else ProductGroup([CyclicGroup(p**k) for p in primes])
                  for k in range(depth + 1)]
        tables = []
        for k in range(depth):
            # reduce each mixed-radix digit mod p^k, one factor at a time
            table = [0]
            for p in primes:
                m = p**k
                table = [t * m + x % m for t in table for x in range(m * p)]
            tables.append(table)
    top = levels[-1].order

    def lemma(order: int) -> ThreadCert:
        # scattered(m), m the number of primes p whose index in the subgroup
        # is p^depth: the index divides the product of the p^depth, so that
        # is when p^depth divides it.  A finite group has no prime, and its
        # limit space is discrete.
        m = sum(top // order % p**depth == 0 for p in primes)
        return ThreadCert("scattered", m, f"{m} prime(s) at maximal index")

    bonds = [GroupHom(levels[k + 1], levels[k], t) for k, t in enumerate(tables)]
    # a tower of primes at depth 0 has no level to read an index at
    return GroupTower(levels, bonds, family, None if primes and depth == 0 else lemma)


def tower_to_json(T: GroupTower) -> dict:
    return {
        "schema": 1,
        "levels": [group_to_json(G) for G in T.levels],
        "bonds": [list(q.mapping) for q in T.bonds],
        "family": T.family,
    }


def tower_from_json(data: dict) -> GroupTower:
    levels = [group_from_json(g) for g in data["levels"]]
    bonds = [
        GroupHom(levels[k + 1], levels[k], tuple(t))
        for k, t in enumerate(data["bonds"])
    ]
    return GroupTower(levels, bonds, data.get("family"))


# ---------------------------------------------------------------------------
# the subgroup space S(G) through the tower


def _thread_cert(T: GroupTower, order: int) -> ThreadCert:
    """The certificate that T's thread lemma gives the thread of a top-level
    subgroup of the given order; unknown for a tower without a lemma."""
    if T.lemma is None:
        return ThreadCert("unknown", reason="no family lemma")
    return T.lemma(order)


def _cyclic_by_construction(G: FiniteGroup) -> bool:
    """A CyclicGroup, or a ProductGroup of such groups with pairwise coprime
    orders (their lcm is then their product)."""
    if isinstance(G, CyclicGroup):
        return True
    if not isinstance(G, ProductGroup):
        return False
    return (all(map(_cyclic_by_construction, G.factors))
            and math.lcm(*(f.order for f in G.factors)) == G.order)


def _cyclic_space_tower(T: GroupTower, chain: str) -> SpaceTree:
    """S(G) of a tower whose levels are cyclic by construction, from the level
    orders N_k alone.  Level k lists the divisors of N_k ascending, which is
    the order of ``all_subgroups``, one subgroup per order.  A bond
    G_{k+1} -> G_k is surjective (GroupTower checks it), so its kernel is the
    subgroup of order m = N_{k+1}/N_k, and it sends the subgroup of order d
    onto the one of order d / gcd(d, m).  Conjugation fixes every subgroup:
    each generator of ``generators(G_k)`` acts as the identity."""
    orders = [divisors(G.order) for G in T.levels]
    index = [{d: i for i, d in enumerate(divs)} for divs in orders]
    bonds = []
    for k in range(T.depth):
        m = T.levels[k + 1].order // T.levels[k].order
        bonds.append([index[k][d // math.gcd(d, m)] for d in orders[k + 1]])
    levels = [[f"ord{d}" for d in divs] for divs in orders]
    actions = [[tuple(range(len(divs)))] * len(generators(G))
               for G, divs in zip(T.levels, orders)]
    certs = [_thread_cert(T, d) for d in orders[-1]]
    return SpaceTree(levels, bonds, certs, actions, chain=chain)


def subgroup_space_tower(T: GroupTower) -> SpaceTree:
    chain = f"{T.family or 'user'}@depth{T.depth}"
    if all(map(_cyclic_by_construction, T.levels)):
        return _cyclic_space_tower(T, chain)
    levels: list[list[str]] = []
    subs_per_level: list[list[Subgroup]] = []
    index_per_level: list[dict] = []
    for k, G in enumerate(T.levels):
        subs = all_subgroups(G)
        subs_per_level.append(subs)
        index_per_level.append({H: i for i, H in enumerate(subs)})
        count = Counter(H.order for H in subs)
        levels.append([f"ord{H.order}" + (f"#{i}" if count[H.order] > 1 else "")
                       for i, H in enumerate(subs)])
    bonds = []
    for k in range(T.depth):
        q = T.bonds[k].mapping
        Gk = T.levels[k]
        row = []
        for H in subs_per_level[k + 1]:
            img = subgroup(Gk, {q[h] for h in H.elements})
            row.append(index_per_level[k][img])
        bonds.append(row)
    actions = [conjugation_perms(G) for G in T.levels]
    certs = [_thread_cert(T, H.order) for H in subs_per_level[-1]]
    return SpaceTree(levels, bonds, certs, actions, chain=chain)
