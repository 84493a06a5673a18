"""Finite discrete G-sets, inflation along group maps and orbit decompositions."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernels
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    class_rep_of,
    element_rows,
    generator_rows,
    generators,
    is_action,
    left_cosets,
)


@dataclass
class FiniteGSet:
    """A finite G-set: act[g][x] is the image of point x under g.

    Construction checks the action exactly at |G|·n + |gens|·|G|·n cost:
    every row maps range(n) into itself, the identity acts trivially, and
    ``groups.is_action`` holds, so act[g·h] == act[g]∘act[h] for all g, h
    and every row is a bijection.
    """

    group: FiniteGroup
    act: tuple[tuple[int, ...], ...]
    label: str = ""
    # the orbit_scan result, built on its first call
    _scan: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # fixed_points by subgroup, each built on its first call
    _fixed: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.act = act = tuple(tuple(row) for row in self.act)
        G = self.group
        if len(act) != G.order:
            raise ValueError("action table must have one row per group element")
        n = self.size
        if any(len(row) != n or (row and (min(row) < 0 or max(row) >= n))
               for row in act):
            raise ValueError(f"every action row must map range({n}) into itself")
        if act[G.identity] != tuple(range(n)):
            raise ValueError("identity must act trivially")
        if not is_action(G, act):
            raise ValueError("action table is not a group action")

    @property
    def size(self) -> int:
        return len(self.act[0]) if self.act else 0

    def fixed_points(self, H: Subgroup) -> list[int]:
        """The points fixed by every element of H, ascending.  The list is made
        on the first call for H and kept on the G-set, so every caller shares
        it, and none may modify it."""
        if self._fixed is None:
            self._fixed = {}
        fixed = self._fixed.get(H)
        if fixed is None:
            fixed = self._fixed[H] = [
                x
                for x in range(self.size)
                if all(self.act[g][x] == x for g in H.elements)
            ]
        return fixed

    def orbits(self) -> list[list[int]]:
        # components under the generators are the G-orbits
        labels = _kernels.orbit_labels([self.act[s] for s in generators(self.group)],
                                       self.size)
        out: dict[int, list[int]] = {}
        for x, l in enumerate(labels):
            out.setdefault(l, []).append(x)
        return list(out.values())  # labels follow each orbit's least point

    def orbit_scan(self) -> tuple[tuple[list[int], Subgroup, dict[int, int]], ...]:
        """Per orbit, in ``orbits()`` order: its points, the stabilizer of its
        least point x0, and t with t[x] the least g such that g·x0 = x.

        G is scanned once per orbit; the stabilizer of x is t[x]·Stab(x0)·t[x]⁻¹.
        The scan is made on the first call and kept on the G-set, so every
        caller shares its lists and dicts, and none may modify them.
        """
        if self._scan is None:
            G = self.group
            scan = []
            for orbit in self.orbits():
                x0 = orbit[0]
                stab = []
                t: dict[int, int] = {}
                for g, row in zip(G.elements(), self.act):
                    y = row[x0]
                    if y == x0:
                        stab.append(g)
                    if y not in t:
                        t[y] = g
                scan.append((orbit, Subgroup(G, tuple(stab)), t))
            self._scan = tuple(scan)
        return self._scan


def point_gset(G: FiniteGroup) -> FiniteGSet:
    return FiniteGSet(G, tuple((0,) for _ in range(G.order)), label="*")


def coset_orbit(G: FiniteGroup, H: Subgroup):
    """(reps, rep_of, G/H) for a subgroup H of G, built once and kept on G.

    reps is the ascending tuple of least coset representatives and rep_of
    maps each element to its coset's; point i of G/H is the coset reps[i]·H.
    The rows of G/H are the generators' rows on the cosets, read off
    ``generator_rows`` and composed along ``generator_words`` by
    ``element_rows``: one lookup per entry, no product.
    Every caller shares these objects, so none may modify them.
    """
    if G._coset_orbits is None:
        G._coset_orbits = {}
    if H not in G._coset_orbits:
        reps, rep_of = left_cosets(G, H)
        index = {r: i for i, r in enumerate(reps)}
        gen_rows = [tuple(index[rep_of[s_row[r]]] for r in reps)
                    for _, s_row in generator_rows(G)]
        orbit = FiniteGSet(G, tuple(element_rows(G, gen_rows, len(reps))),
                           label=f"{G.label}/{H.order}")
        G._coset_orbits[H] = (tuple(reps), rep_of, orbit)
    return G._coset_orbits[H]


def transitive_gset(G: FiniteGroup, H: Subgroup) -> FiniteGSet:
    """G/H, the same object on every call (see ``coset_orbit``)."""
    return coset_orbit(G, H)[2]


def product_gset(a: FiniteGSet, b: FiniteGSet) -> FiniteGSet:
    G = a.group
    if b.group is not G:
        raise ValueError("G-sets over different groups")
    nb = b.size

    def enc(x, y):
        return x * nb + y

    act = tuple(
        tuple(
            enc(a.act[g][x], b.act[g][y])
            for x in range(a.size)
            for y in range(b.size)
        )
        for g in G.elements()
    )
    return FiniteGSet(G, act, label=f"({a.label})x({b.label})")


def orbit_decompose(X: FiniteGSet):
    """X as a disjoint union of G/H with canonical class representatives.

    Returns a list of (class representative Subgroup, orbit point list),
    one entry per orbit, in ``orbits()`` order.
    """
    rep_of = class_rep_of(X.group)
    return [(rep_of[stab], orbit) for orbit, stab, _ in X.orbit_scan()]


def inflate_gset(A: FiniteGSet, q: GroupHom) -> FiniteGSet:
    """A G_k-set pulled back to a G_m-set along the surjection q: G_m -> G_k."""
    if q.codomain is not A.group:
        raise ValueError("G-set is not over the codomain of the hom")
    Gm = q.domain
    act = tuple(tuple(A.act[q(g)][x] for x in range(A.size)) for g in Gm.elements())
    return FiniteGSet(Gm, act, label=A.label)
