"""Finite groups, their subgroups, and Sub(G) under conjugation.

Groups are element-indexed: elements are 0..order-1 and all structure is
given by tables or closed-form arithmetic.  TableGroup carries an explicit
multiplication table; CyclicGroup and ProductGroup compute products on the
fly so that deep cyclic tower levels (order up to ~10^5) stay cheap.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import operator
import random
import re
from dataclasses import dataclass, field

from . import _kernels

TABLE_LIMIT = 1024  # largest order for which a dense table may be built
# a hom is checked exactly when its domain's generator rows hold at most this
# many entries, one lookup each; above it, on 2000 seeded random pairs.  At
# 8192 entries an exact check built from Python products costs about what the
# 2000 sampled pairs and their 4000 draws cost, so no group is checked slower
HOM_ROW_LIMIT = 8192
SUBGROUP_LIMIT = 10_000


class CapacityError(Exception):
    """A configured enumeration bound was exceeded."""


class UnknownFamily(Exception):
    """Unrecognised group or tower family selector."""


class FiniteGroup:
    """Base class: a finite group on element indices 0..order-1."""

    order: int
    label: str
    identity: int
    abelian = False  # known commutative: CyclicGroup and products of them
    # built on first use: the dense table, the subgroup list and its index by
    # element tuple, the inclusion lattice, the generators, their rows and
    # words, G/H (gsets.coset_orbit), gHg^-1 by (H, g), the generators'
    # permutations of the subgroup list and subgroup classes
    _table: tuple[tuple[int, ...], ...] | None = None
    _subgroup_cache: list[Subgroup] | None = None
    _subgroup_index: dict[tuple[int, ...], Subgroup] | None = None
    _lattice: tuple[dict, dict] | None = None
    _coset_orbits: dict | None = None
    _conjugates: dict | None = None
    _conjugation_perms: list[tuple[int, ...]] | None = None
    _classes: tuple[list, dict] | None = None
    _generators: list[int] | None = None
    _generator_rows: list[tuple[int, tuple[int, ...]]] | None = None
    _words: list[tuple[int, int, int]] | None = None

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def table(self) -> tuple[tuple[int, ...], ...]:
        """Dense multiplication table, built once; guarded by TABLE_LIMIT."""
        if self.order > TABLE_LIMIT:
            raise CapacityError(
                f"dense table of order {self.order} exceeds limit {TABLE_LIMIT}"
            )
        if self._table is None:
            self._table = self._dense_table()
        return self._table

    def _dense_table(self) -> tuple[tuple[int, ...], ...]:
        # G acting on itself by left multiplication: list lookups, no `mul`
        return tuple(element_rows(self, [row for _, row in generator_rows(self)],
                                  self.order))

    def __repr__(self):
        return f"<{self.__class__.__name__} {self.label} order={self.order}>"


class TableGroup(FiniteGroup):
    def __init__(self, mult, label: str = "G"):
        self._mult = tuple(tuple(int(x) for x in row) for row in mult)
        n = len(self._mult)
        if any(len(row) != n for row in self._mult):
            raise ValueError("multiplication table must be square")
        self.order = n
        self.label = label
        self.identity = self._find_identity()
        self._inv = self._build_inv()
        self._validate()

    def _find_identity(self) -> int:
        m = self._mult
        ident = tuple(range(self.order))
        for e in ident:
            if m[e] == ident and all(row[e] == x for x, row in enumerate(m)):
                return e
        raise ValueError("table has no two-sided identity")

    def _build_inv(self) -> tuple[int, ...]:
        m, e = self._mult, self.identity
        inv = []
        for a, row in enumerate(m):
            hits = [b for b, x in enumerate(row) if x == e]
            if len(hits) != 1 or m[hits[0]][a] != e:
                raise ValueError(f"element {a} lacks a two-sided inverse")
            inv.append(hits[0])
        return tuple(inv)

    def _validate(self):
        n, m = self.order, self._mult
        if any(not 0 <= x < n for row in m for x in row):
            raise ValueError("table entries out of range")
        # (xy)z == x(yz) for all x, y, z says that the rows act on G, and
        # _find_identity made the identity's row the identity
        if not is_action(self, m):
            raise ValueError("multiplication table is not associative")

    def mul(self, a, b):
        return self._mult[a][b]

    def inv(self, a):
        return self._inv[a]

    def _dense_table(self):
        return self._mult


class CyclicGroup(FiniteGroup):
    abelian = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("cyclic group order must be >= 1")
        self.order = n
        self.label = f"C{n}"
        self.identity = 0

    def mul(self, a, b):
        return (a + b) % self.order

    def inv(self, a):
        return (-a) % self.order


class ProductGroup(FiniteGroup):
    """Direct product on mixed-radix indices: element i has digit
    i // w % n in factor f of order n, whose place weight w is the product of
    the orders of the factors after f (the first factor is most
    significant)."""

    def __init__(self, factors: list[FiniteGroup]):
        if not factors:
            raise ValueError("product needs at least one factor")
        self.factors = list(factors)
        places = []
        self.order = 1
        for f in reversed(self.factors):
            places.append((f, f.order, self.order))
            self.order *= f.order
        self._places = places[::-1]  # (factor, order, weight) in factor order
        self.label = "x".join(f.label for f in factors)
        self.abelian = all(f.abelian for f in factors)
        self.identity = self.encode(tuple(f.identity for f in factors))

    def decode(self, i: int) -> tuple[int, ...]:
        return tuple(i // w % n for _, n, w in self._places)

    def encode(self, parts: tuple[int, ...]) -> int:
        return sum(x * w for (_, _, w), x in zip(self._places, parts))

    def mul(self, a, b):
        out = 0
        for f, n, w in self._places:
            out += f.mul(a // w % n, b // w % n) * w
        return out

    def inv(self, a):
        out = 0
        for f, n, w in self._places:
            out += f.inv(a // w % n) * w
        return out


@dataclass(frozen=True)
class Subgroup:
    """Canonical form: strictly sorted element-index tuple."""

    parent: FiniteGroup = field(compare=False)
    elements: tuple[int, ...] = ()

    # hashed once: subgroups key most dicts of the Mackey layer
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = self.elements
        if not isinstance(e, tuple) or not all(map(operator.lt, e, e[1:])):
            raise ValueError("subgroup elements must be strictly sorted")
        i = bisect.bisect_left(e, self.parent.identity)
        if i == len(e) or e[i] != self.parent.identity:
            raise ValueError("subgroup must contain the identity")
        object.__setattr__(self, "_hash", hash((id(self.parent), self.elements)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def key(self):
        return (len(self.elements), self.elements)


def closure_set(G: FiniteGroup, seed) -> tuple[int, ...]:
    """Subgroup generated by `seed`, as a sorted element tuple.

    Works on the dense table, so G.order is bounded by TABLE_LIMIT.
    """
    return tuple(_kernels.closure(G.table(), list(seed) or [G.identity]))


def greedy_generators(G: FiniteGroup, elements) -> list[int]:
    """Greedy generators of ``elements``, a set holding the identity.

    Each element not yet reached becomes a generator, and every reached
    element is right-multiplied by every generator once: |S|·|gens| products,
    with at most log2|S| generators in a group.  Raises ValueError if a
    product leaves ``elements``.
    """
    members = set(elements)
    reached = {G.identity}
    gens: list[int] = []
    for a in elements:
        if a in reached:
            continue
        gens.append(a)
        # reached is closed under the earlier generators: only a is new
        todo = [G.mul(x, a) for x in reached]
        while todo:
            y = todo.pop()
            if y in reached:
                continue
            if y not in members:
                raise ValueError("not closed under multiplication")
            reached.add(y)
            todo.extend(G.mul(y, b) for b in gens)
    return gens


def generators(G: FiniteGroup) -> list[int]:
    """A generating set of G, built once per group (callers must not change
    it): 1 in a cyclic group, the factors' generators placed in their
    coordinates (in factor order) in a product, and the greedy set
    otherwise."""
    if G._generators is None:
        if isinstance(G, CyclicGroup):
            gens = [1] if G.order > 1 else []
        elif isinstance(G, ProductGroup):
            gens = []
            for i, f in enumerate(G.factors):
                for g in generators(f):
                    parts = [h.identity for h in G.factors]
                    parts[i] = g
                    gens.append(G.encode(tuple(parts)))
        else:
            gens = greedy_generators(G, G.elements())
        G._generators = gens
    return G._generators


def generator_rows(G: FiniteGroup) -> list[tuple[int, tuple[int, ...]]]:
    """Each generator s of ``generators(G)`` with the row (s·h for h in G),
    built once per group.  Cyclic groups and products build their rows by
    index arithmetic, with no product; other groups make |gens|·|G| products."""
    if G._generator_rows is None:
        if isinstance(G, CyclicGroup):
            rows = [(1, tuple(range(1, G.order)) + (0,))] if G.order > 1 else []
        elif isinstance(G, ProductGroup):
            # a factor's generator at place (n, w) moves, in each aligned
            # block of n·w elements, the w elements of digit d to those of
            # digit frow[d]
            chain = itertools.chain.from_iterable
            lifted = []
            for f, n, w in G._places:
                for _, frow in generator_rows(f):
                    block = tuple(chain(range(t * w, t * w + w) for t in frow))
                    lifted.append(tuple(chain([b + x for x in block]
                                              for b in range(0, G.order, n * w))))
            rows = list(zip(generators(G), lifted))
        else:
            rows = [(s, tuple(G.mul(s, h) for h in G.elements()))
                    for s in generators(G)]
        G._generator_rows = rows
    return G._generator_rows


def generator_words(G: FiniteGroup) -> list[tuple[int, int, int]]:
    """(g, s, h) with g = s·h and s in ``generators(G)``, one for every g but
    the identity, in breadth-first order from the identity: h always comes
    earlier.  Read off ``generator_rows`` with no product, built once per
    group and shared (callers must not change it)."""
    if G._words is None:
        seen = [False] * G.order
        seen[G.identity] = True
        reached = [G.identity]
        words = []
        gen_rows = generator_rows(G)
        for h in reached:
            for s, s_row in gen_rows:
                g = s_row[h]
                if not seen[g]:
                    seen[g] = True
                    reached.append(g)
                    words.append((g, s, h))
        G._words = words
    return G._words


def is_action(G: FiniteGroup, rows) -> bool:
    """Whether act[s·h] == act[s]∘act[h] for every generator s of
    ``generators(G)`` and every h, where act[g] = rows[g] is a row of points:
    |gens|·|G| row compositions.  The caller checks that the identity's row
    is the identity.

    This is the whole action law, act[g·h] == act[g]∘act[h] for all g, h.
    The g for which it holds at every h include the identity and the
    generators, and are closed under products: act[(a·b)·h] = act[a·(b·h)] =
    act[a]∘act[b]∘act[h] = act[a·b]∘act[h].  The first step is associativity
    in G or, when the rows are G's own multiplication table, act[a·b] =
    act[a]∘act[b] read at the point h.  Every element is a product of
    generators."""
    for s, s_row in generator_rows(G):
        act_s = rows[s]
        for sh, act_h in zip(s_row, rows):
            if rows[sh] != tuple(map(act_s.__getitem__, act_h)):
                return False
    return True


def element_rows(G: FiniteGroup, gen_rows, n: int) -> list[tuple[int, ...]]:
    """The row (g·x for x in range(n)) of every element g of G, for an action
    of G on range(n) given by the rows of ``generators(G)``, in that order.

    Row g is row s read through row h along the word (g, s, h) of
    ``generator_words``: one list lookup per entry."""
    rows: list = [None] * G.order
    rows[G.identity] = tuple(range(n))
    row_of = dict(zip(generators(G), gen_rows))
    for g, s, h in generator_words(G):
        rows[g] = tuple(map(row_of[s].__getitem__, rows[h]))
    return rows


def subgroup(G: FiniteGroup, elements) -> Subgroup:
    """Validated subgroup from an element collection.

    Once ``all_subgroups(G)`` is cached, a set equal to an enumerated
    subgroup's elements is that subgroup, returned by one dict lookup.
    Otherwise it is checked exactly at |S|·|gens| products: a finite set
    holding e and closed under right multiplication by its greedy generators
    is the subgroup they generate."""
    elems = tuple(sorted(set(elements)))
    if G._subgroup_cache is not None:
        if G._subgroup_index is None:
            G._subgroup_index = {H.elements: H for H in G._subgroup_cache}
        found = G._subgroup_index.get(elems)
        if found is not None:
            return found
    sg = Subgroup(G, elems)
    greedy_generators(G, elems)
    return sg


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, (G.identity,))


def divisors(n: int) -> list[int]:
    """The divisors of n >= 1 in ascending order, built from the prime powers
    of n.  Trial division stops once p·p exceeds what is left of n: at most
    √n trials, and four for 30^12."""
    divs = [1]
    p = 2
    while p * p <= n:
        if n % p == 0:
            powers = [1]
            while n % p == 0:
                n //= p
                powers.append(powers[-1] * p)
            divs = [d * q for d in divs for q in powers]
        p += 1
    if n > 1:
        divs += [d * n for d in divs]
    return sorted(divs)


def all_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Complete duplicate-free sorted list of subgroups of G (cached on G)."""
    if G._subgroup_cache is None:
        G._subgroup_cache = [Subgroup(G, t) for t in _all_subgroup_tuples(G)]
    return G._subgroup_cache


def inclusion_lattice(G: FiniteGroup) -> tuple[dict, dict]:
    """Sub(G) ordered by inclusion: for each subgroup H, the subgroups K ⊆ H,
    and the subgroups maximal in H, both lists in ``all_subgroups`` order.
    H is the last subgroup it contains, since the list ascends by order.
    Built once per group and shared (callers must not change it)."""
    if G._lattice is None:
        subs = all_subgroups(G)
        elems = [frozenset(H.elements) for H in subs]
        below: list[list[int]] = []  # indices of the subgroups of subs[i]
        contained, maximal = {}, {}
        for i, H in enumerate(subs):
            inside = [j for j in range(i + 1) if elems[j] <= elems[i]]
            below.append(inside)
            # a proper subgroup is maximal unless it lies in another one
            covered = {k for j in inside[:-1] for k in below[j][:-1]}
            contained[H] = [subs[j] for j in inside]
            maximal[H] = [subs[j] for j in inside[:-1] if j not in covered]
        G._lattice = (contained, maximal)
    return G._lattice


def _all_subgroup_tuples(G: FiniteGroup) -> list[tuple[int, ...]]:
    if isinstance(G, CyclicGroup):
        n = G.order
        return sorted(
            (tuple(range(0, n, d)) for d in divisors(n)),  # index d
            key=lambda t: (len(t), t),
        )
    if isinstance(G, ProductGroup) and all(
            math.gcd(a.order, b.order) == 1 for a, b in itertools.combinations(G.factors, 2)):
        # Goursat: with coprime factor orders every subgroup is a product of
        # factor subgroups, encoded through the mixed-radix element indexing
        # one factor at a time; ascending factor tuples give an ascending tuple
        parts = [_all_subgroup_tuples(f) for f in G.factors]
        out = []
        for combo in itertools.product(*parts):
            elems = [0]
            for f, part in zip(G.factors, combo):
                n = f.order
                elems = [e * n + x for e in elems for x in part]
            if len(out) >= SUBGROUP_LIMIT:
                raise CapacityError(f"subgroup count exceeds bound {SUBGROUP_LIMIT}")
            out.append(tuple(elems))
        return sorted(out, key=lambda t: (len(t), t))
    # generic enumeration over the dense table by cyclic extension: every
    # subgroup is <H, g> for a smaller subgroup H and one generator g per
    # cyclic subgroup, and each subgroup keeps the generators it was reached with
    if G.order > TABLE_LIMIT:
        raise CapacityError(
            f"generic subgroup enumeration needs order <= {TABLE_LIMIT}"
        )
    cyclic = {}  # <g> -> its least generator
    for g in G.elements():
        cyclic.setdefault(closure_set(G, [g]), g)
    found = {(G.identity,)}
    frontier = [((G.identity,), ())]  # (subgroup, the generators it was reached with)
    while frontier:
        nxt = []
        for base, gens in frontier:
            bset = set(base)
            for g in cyclic.values():
                if g in bset:
                    continue
                t = closure_set(G, gens + (g,))
                if t not in found:
                    if len(found) >= SUBGROUP_LIMIT:
                        raise CapacityError(f"subgroup count exceeds bound {SUBGROUP_LIMIT}")
                    found.add(t)
                    nxt.append((t, gens + (g,)))
        frontier = nxt
    return sorted(found, key=lambda t: (len(t), t))


def left_cosets(G: FiniteGroup, H: Subgroup, elements=None):
    """Left cosets gH for g in ``elements`` (default: all of G).

    ``elements`` must be a union of cosets gH, for example the elements of a
    subgroup containing H.  Returns the ascending list of representatives,
    each the least element of its coset, and the map from every element to
    its coset's representative.
    """
    rep_of: dict[int, int] = {}
    reps = []
    for g in G.elements() if elements is None else elements:
        if g in rep_of:
            continue
        coset = [G.mul(g, h) for h in H.elements]
        r = min(coset)
        reps.append(r)
        for x in coset:
            rep_of[x] = r
    reps.sort()
    return reps, rep_of


def conjugate_subgroup(H: Subgroup, g: int) -> Subgroup:
    """gHg^-1: H itself in an abelian group, otherwise built once per
    (H, g) and kept on the group."""
    G = H.parent
    if G.abelian:
        return H
    if G._conjugates is None:
        G._conjugates = {}
    Hg = G._conjugates.get((H, g))
    if Hg is None:
        Hg = Subgroup(G, tuple(sorted(G.conj(g, x) for x in H.elements)))
        G._conjugates[H, g] = Hg
    return Hg


def intersection(H1: Subgroup, H2: Subgroup) -> Subgroup:
    if H1.parent is not H2.parent:
        raise ValueError("subgroups of different groups")
    return Subgroup(H1.parent, tuple(sorted(set(H1.elements) & set(H2.elements))))


def conjugation_perms(G: FiniteGroup) -> list[tuple[int, ...]]:
    """For each s in ``generators(G)``, the permutation H -> sHs^-1 of the
    indices of ``all_subgroups(G)``: Sub(G) as a G-set, built once per group
    at |gens|·|Sub(G)| conjugations and shared (callers must not change it)."""
    if G._conjugation_perms is None:
        subs = all_subgroups(G)
        index = {H: i for i, H in enumerate(subs)}
        G._conjugation_perms = [tuple(index[conjugate_subgroup(H, s)] for H in subs)
                                for s in generators(G)]
    return G._conjugation_perms


def subgroup_conjugacy_classes(G: FiniteGroup):
    """Partition of all_subgroups(G) into conjugation orbits.

    Returns a list of (representative, sorted members); the representative is
    the canonically least member.  Classes are sorted by representative key.
    The list is built once per group and shared: callers must not modify it
    or its member lists.
    """
    if G._classes is None:
        subs = all_subgroups(G)
        # the orbits of conjugation_perms, labelled in the order of their
        # least index; subs ascends, so each member list does and starts
        # with its representative
        labels = _kernels.orbit_labels(conjugation_perms(G), len(subs))
        members = [[] for _ in range(max(labels) + 1)]
        for H, c in zip(subs, labels):
            members[c].append(H)
        G._classes = ([(m[0], m) for m in members],
                      {H: m[0] for m in members for H in m})
    return G._classes[0]


def class_rep_of(G: FiniteGroup) -> dict[Subgroup, Subgroup]:
    """Map from every subgroup of G to its conjugacy class representative,
    built with ``subgroup_conjugacy_classes`` and shared like it."""
    subgroup_conjugacy_classes(G)
    return G._classes[1]


@dataclass
class GroupHom:
    """Group homomorphism given by an element-index table, checked on
    construction.  When the domain's generator rows hold at most
    HOM_ROW_LIMIT entries, f(s·h) == f(s)·f(h) is checked for every generator
    s and every h, which is exact; above that, on 2000 seeded random pairs."""

    domain: FiniteGroup
    codomain: FiniteGroup
    mapping: tuple[int, ...]

    def __post_init__(self):
        self.mapping = tuple(self.mapping)
        if len(self.mapping) != self.domain.order:
            raise ValueError("hom table has wrong length")
        # checked on every entry: the products below would hide a stray one,
        # reduced modulo a cyclic codomain's order or read from the end of a
        # table row when negative
        if min(self.mapping) < 0 or max(self.mapping) >= self.codomain.order:
            raise ValueError("hom table leaves its codomain")
        if self.mapping[self.domain.identity] != self.codomain.identity:
            raise ValueError("hom does not preserve the identity")
        D, C, f = self.domain, self.codomain, self.mapping
        n = D.order
        if len(generators(D)) * n <= HOM_ROW_LIMIT:
            # f(sh) == f(s)f(h) for every generator s and every h gives
            # f(wh) == f(w)f(h) for every word w in the generators, by
            # induction; f(s)·f(h) is read from the codomain's row of f(s)
            # when f(s) is a codomain generator
            c_rows = (dict(generator_rows(C)) if C.order <= HOM_ROW_LIMIT
                      and len(generators(C)) * C.order <= HOM_ROW_LIMIT else {})
            for s, s_row in generator_rows(D):
                c = f[s]
                c_row = c_rows.get(c)
                fs_fh = ([c_row[y] for y in f] if c_row is not None
                         else [C.mul(c, y) for y in f])
                if [f[x] for x in s_row] != fs_fh:
                    raise ValueError("hom table is not multiplicative")
        else:
            draws = iter(random.Random(1).choices(range(n), k=4000))
            for a, b in zip(draws, draws):
                if f[D.mul(a, b)] != C.mul(f[a], f[b]):
                    raise ValueError("hom table is not multiplicative")

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.codomain.order

    def kernel(self) -> Subgroup:
        e = self.codomain.identity
        return Subgroup(
            self.domain,
            tuple(sorted(x for x in self.domain.elements() if self.mapping[x] == e)),
        )

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.codomain is not self.domain:
            raise ValueError("inner hom's codomain is not this hom's domain")
        return GroupHom(
            inner.domain,
            self.codomain,
            tuple(self.mapping[inner.mapping[x]] for x in inner.domain.elements()),
        )


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(range(G.order)))


# ---------------------------------------------------------------------------
# built-in families and selectors


def cyclic(n: int) -> FiniteGroup:
    return CyclicGroup(n)


def dihedral(order: int) -> TableGroup:
    """Dihedral group of the given (even) order 2m: r^i and s r^i."""
    if order < 2 or order % 2:
        raise ValueError("dihedral order must be even and >= 2")
    m = order // 2

    def mul(a, b):
        fa, ia = divmod(a, m)
        fb, ib = divmod(b, m)
        # (s^fa r^ia)(s^fb r^ib); s r^i s = r^-i
        f = (fa + fb) % 2
        i = (ib + (ia if fb == 0 else -ia)) % m
        return f * m + i

    table = [[mul(a, b) for b in range(order)] for a in range(order)]
    return TableGroup(table, label=f"D{order}")


def symmetric(n: int) -> TableGroup:
    if n > 5:
        raise CapacityError("symmetric groups supported up to S5")
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    return TableGroup(table, label=f"S{n}")


def direct_product(*groups: FiniteGroup) -> ProductGroup:
    return ProductGroup(list(groups))


def selector_number(text: str) -> int | None:
    """The number that a selector writes as ``text``: ASCII digits with no
    sign, space, underscore or leading zero.  None for anything else, and for
    more digits than ``int`` converts."""
    try:
        return int(text) if re.fullmatch("0|[1-9][0-9]*", text) else None
    except ValueError:
        return None


def parse_group(selector: str) -> FiniteGroup:
    """Selectors: cyclic:4, dihedral:8, sym:3, prod:cyclic:2,cyclic:2,
    or json:<path> for a table file."""
    if selector.startswith("prod:"):
        parts = selector[len("prod:"):].split(",")
        if any(p.startswith("prod:") for p in parts):
            raise UnknownFamily("nested prod selectors are not supported")
        return direct_product(*(parse_group(p) for p in parts))
    if selector.startswith("json:"):
        return read_json_file(selector[len("json:"):], "group", group_from_json)
    head, _, arg = selector.partition(":")
    n = selector_number(arg)
    if n is None:
        raise UnknownFamily(f"bad group selector {selector!r}")
    if head == "cyclic":
        if n < 1:
            raise UnknownFamily(f"bad group selector {selector!r}: order must be >= 1")
        return cyclic(n)
    if head == "dihedral":
        if n < 2 or n % 2:
            raise UnknownFamily(
                f"bad group selector {selector!r}: order must be even and >= 2")
        return dihedral(n)
    if head == "sym":
        return symmetric(n)
    raise UnknownFamily(f"unknown group family {head!r}")


def read_json_file(path: str, what: str, read, error: type = UnknownFamily):
    """read(data) of the JSON object in the file at path.  A path that is no
    readable file, a file that is not JSON or holds no object, and an entry
    that read finds missing, of the wrong type or failing validation raise
    `error` with one line that names the file as a `what` file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise error(f"{what} file must hold a JSON object")
        return read(data)
    except (OSError, ValueError) as e:
        raise error(str(e)) from None
    except (AttributeError, TypeError) as e:
        raise error(f"{what} file has an entry of the wrong type ({e})") from None
    except KeyError as e:
        raise error(f"{what} file has no entry {e}") from None


def group_to_json(G: FiniteGroup) -> dict:
    return {"schema": 1, "order": G.order, "mult": [list(r) for r in G.table()],
            "label": G.label}


def group_from_json(data: dict) -> TableGroup:
    return TableGroup(data["mult"], label=data.get("label", "G"))
