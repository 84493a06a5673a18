"""Group helpers that only the tests use: the quaternion group Q8 as a JSON
table, and the frontier enumeration of subgroups with the all-pairs worklist
closure, kept as the reference for ``groups.all_subgroups`` on tables."""

from profmack import groups as gr


def _qmul(a, b):
    a1, a2, a3, a4 = a
    b1, b2, b3, b4 = b
    return (a1 * b1 - a2 * b2 - a3 * b3 - a4 * b4,
            a1 * b2 + a2 * b1 + a3 * b4 - a4 * b3,
            a1 * b3 - a2 * b4 + a3 * b1 + a4 * b2,
            a1 * b4 + a2 * b3 - a3 * b2 + a4 * b1)


def quaternion_json() -> dict:
    """Q8 = {±1, ±i, ±j, ±k} in the schema of ``groups.group_to_json``."""
    units = [tuple(s if k == i else 0 for k in range(4))
             for i in range(4) for s in (1, -1)]
    index = {u: n for n, u in enumerate(units)}
    mult = [[index[_qmul(a, b)] for b in units] for a in units]
    return {"schema": 1, "order": 8, "mult": mult, "label": "Q8"}


def worklist_closure(mult, seed) -> list[int]:
    """Close ``seed`` under products of every pair of members."""
    members = set(seed)
    stack = list(members)
    elems = []
    while stack:
        a = stack.pop()
        elems.append(a)
        for b in elems:
            for c in (mult[a][b], mult[b][a]):
                if c not in members:
                    members.add(c)
                    stack.append(c)
    return sorted(members)


def frontier_subgroup_tuples(G: gr.FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup of G as a sorted tuple, in (order, elements) order:
    each subgroup found is closed with every element outside it."""
    mult = G.table()
    found = {(G.identity,)}
    frontier = [(G.identity,)]
    while frontier:
        nxt = []
        for base in frontier:
            for g in G.elements():
                if g in base:
                    continue
                t = tuple(worklist_closure(mult, base + (g,)))
                if t not in found:
                    found.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(found, key=lambda t: (len(t), t))
