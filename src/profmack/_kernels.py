"""Integer table kernels: subgroup closure and orbit partitioning."""

# There is no compiled variant of these kernels; the constant stays for
# readers that record which kernels ran.
HAVE_NUMBA = False


def closure(mult, seed) -> list[int]:
    """Subgroup generated by ``seed`` in the group with the full
    multiplication table ``mult`` (indexed ``mult[a][b]``), as a sorted list.

    A walk x -> x·s over the seed elements s, starting at seed[0]: in a
    finite group the products of seed elements are all of <seed>, so the walk
    reaches it at |<seed>|·|seed| products.
    """
    seed = list(dict.fromkeys(int(s) for s in seed))
    if not seed:
        raise ValueError("closure needs a non-empty seed")
    members = {seed[0]}
    stack = [seed[0]]
    while stack:
        row = mult[stack.pop()]
        for s in seed:
            y = row[s]
            if y not in members:
                members.add(y)
                stack.append(y)
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
