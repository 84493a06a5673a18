import random

from profmack import _kernels as K
from profmack import groups as gr


def brute_closure(mult, seed):
    members = set(seed)
    changed = True
    while changed:
        changed = False
        for a in list(members):
            for b in list(members):
                for c in (mult[a][b], mult[b][a]):
                    if c not in members:
                        members.add(c)
                        changed = True
    return sorted(members)


def cyclic_table(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def test_closure_cyclic():
    mult = cyclic_table(12)
    out = K.closure(mult, [4])
    assert list(out) == [0, 4, 8]
    out = K.closure(mult, [3, 4])
    assert list(out) == list(range(12))


def test_closure_matches_brute_force():
    rng = random.Random(5)
    for n in (6, 8, 15):
        mult = cyclic_table(n)
        for _ in range(5):
            seed = [rng.randrange(n), rng.randrange(n)]
            assert list(K.closure(mult, seed)) == brute_closure(mult, seed)


def test_closure_matches_brute_force_in_a_non_abelian_table():
    """S4: the walk x -> x·s from seed[0] reaches the subgroup the seed
    generates, for seeds of one to three elements."""
    mult = gr.symmetric(4).table()
    rng = random.Random(7)
    for _ in range(40):
        seed = [rng.randrange(24) for _ in range(rng.randint(1, 3))]
        assert list(K.closure(mult, seed)) == brute_closure(mult, seed)


def test_orbit_labels():
    # two 3-cycles on 6 points
    perm = [1, 2, 0, 4, 5, 3]
    lab = K.orbit_labels([perm], 6)
    assert lab[0] == lab[1] == lab[2]
    assert lab[3] == lab[4] == lab[5]
    assert lab[0] != lab[3]


def test_orbit_labels_no_perms():
    lab = K.orbit_labels([], 4)
    assert list(lab) == [0, 1, 2, 3]


def brute_orbit_labels(perms, n):
    """Union of points joined by some permutation, labelled by least point."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in perms:
        for x in range(n):
            a, b = find(x), find(p[x])
            parent[max(a, b)] = min(a, b)
    roots = sorted({find(x) for x in range(n)})
    return [roots.index(find(x)) for x in range(n)]


def test_orbit_labels_matches_union_of_points():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(0, 12)
        perms = []
        for _ in range(rng.randint(0, 3)):
            p = list(range(n))
            if rng.random() < 0.3:
                rng.shuffle(p)
            else:
                # a cycle on a few points, so that several orbits remain
                moved = rng.sample(range(n), min(n, rng.randint(0, 4)))
                for a, b in zip(moved, moved[1:] + moved[:1]):
                    p[a] = b
            perms.append(tuple(p))
        assert K.orbit_labels(perms, n) == brute_orbit_labels(perms, n)
