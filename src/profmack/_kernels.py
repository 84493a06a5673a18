"""Integer table kernels: subgroup closure and orbit partitioning."""

# There is no compiled variant of these kernels; the constant stays for
# readers that record which kernels ran.
HAVE_NUMBA = False


def closure(mult, seed) -> list[int]:
    """Smallest subset of {0..n-1} containing ``seed`` closed under the table.

    ``mult`` must be the full multiplication table of a group, indexed
    ``mult[a][b]``, so closure under products alone also yields closure under
    inverses.  Returns a sorted list.
    """
    seed = [int(s) for s in seed]
    if not seed:
        raise ValueError("closure needs a non-empty seed")
    members = set(seed)
    stack = list(members)
    # worklist: close under multiplication against all current members
    elems: list[int] = []
    while stack:
        a = stack.pop()
        elems.append(a)
        for b in elems:
            for c in (mult[a][b], mult[b][a]):
                if c not in members:
                    members.add(c)
                    stack.append(c)
    return sorted(members)


def orbit_labels(perms, n_pts: int) -> list[int]:
    """Connected-component labels of points under a list of permutations.

    Labels count up from 0 in the order of each component's least point.
    """
    label = [-1] * n_pts
    current = 0
    for start in range(n_pts):
        if label[start] >= 0:
            continue
        label[start] = current
        stack = [start]
        while stack:
            x = stack.pop()
            for row in perms:
                y = row[x]
                if label[y] < 0:
                    label[y] = current
                    stack.append(y)
        current += 1
    return label
