import itertools
import json
import random

import pytest

from profmack import cli
from profmack import groups as gr
from group_helpers import frontier_subgroup_tuples, quaternion_json
from span_helpers import relabelled


def test_cyclic_basics():
    G = gr.cyclic(6)
    assert G.order == 6
    assert G.identity == 0
    for a in G.elements():
        assert G.mul(a, G.inv(a)) == G.identity
    # subgroups of C6 <-> divisors of 6
    subs = gr.all_subgroups(G)
    assert sorted(H.order for H in subs) == [1, 2, 3, 6]


def test_symmetric_3():
    G = gr.symmetric(3)
    assert G.order == 6
    subs = gr.all_subgroups(G)
    assert len(subs) == 6
    assert sorted(H.order for H in subs) == [1, 2, 2, 2, 3, 6]
    classes = gr.subgroup_conjugacy_classes(G)
    assert [len(m) for _, m in classes] == [1, 3, 1, 1]


def test_dihedral_8():
    G = gr.dihedral(8)
    assert G.order == 8
    subs = gr.all_subgroups(G)
    assert len(subs) == 10
    assert len(gr.subgroup_conjugacy_classes(G)) == 8


def _group_info_rows(G, tmp_path, capsys):
    """The subgroup rows of `group info --json` on G, passed as a table file."""
    path = tmp_path / f"{G.label}.json"
    path.write_text(json.dumps(gr.group_to_json(G)))
    assert cli.main(["group", "info", "--group", f"json:{path}", "--json"]) == 0
    return json.loads(capsys.readouterr().out)["subgroups"]


def test_core_normalizer_weyl_s3(tmp_path, capsys):
    G = gr.symmetric(3)
    rows = {(r["order"], r["index"]): r for r in _group_info_rows(G, tmp_path, capsys)}
    by_order = {}
    for (order, _), r in sorted(rows.items()):
        by_order.setdefault(order, []).append(r)
    C2, C3, E = by_order[2][0], by_order[3][0], by_order[1][0]
    assert (C2["core_order"], C2["normalizer_order"], C2["weyl_order"]) == (1, 2, 1)
    assert (C3["core_order"], C3["normalizer_order"], C3["weyl_order"]) == (3, 6, 2)
    assert E["weyl_order"] == 6


ORACLE_GROUPS = ("sym:3", "sym:4", "dihedral:8", "dihedral:12", "prod:cyclic:2,sym:3",
                 "Q8", "relabelled S3")


def _oracle_group(sel):
    if sel == "Q8":
        return gr.group_from_json(quaternion_json())
    if sel == "relabelled S3":
        return relabelled(gr.symmetric(3), 3)
    return gr.parse_group(sel)


def _conjugates_by_every_element(G, H):
    """{g: gHg^-1 as a set} for every g in G, by the group law alone."""
    return {g: {G.mul(G.mul(g, h), G.inv(g)) for h in H.elements} for g in G.elements()}


@pytest.mark.parametrize("sel", ORACLE_GROUPS)
def test_group_info_rows_match_the_brute_force_oracle(sel, tmp_path, capsys):
    """N_G(H) and core_G(H) by scanning every g, and W_G(H) = |N|/|H|."""
    G = _oracle_group(sel)
    rows = _group_info_rows(G, tmp_path, capsys)
    assert [tuple(r["elements"]) for r in rows] == [H.elements for H in gr.all_subgroups(G)]
    for r in rows:
        H = set(r["elements"])
        conj = _conjugates_by_every_element(G, gr.subgroup(G, H))
        normalizer = [g for g, Hg in conj.items() if Hg == H]
        core = H.intersection(*conj.values())
        assert (r["core_order"], r["normalizer_order"], r["weyl_order"]) == \
            (len(core), len(normalizer), len(normalizer) // len(H))


@pytest.mark.parametrize("sel", ORACLE_GROUPS + ("cyclic:1", "cyclic:12"))
def test_subgroup_conjugacy_classes_match_the_all_elements_reference(sel):
    """The orbits of the generators' permutations are the classes found by
    conjugating each representative by every element of G."""
    G = _oracle_group(sel)
    subs = gr.all_subgroups(G)
    index = {H.elements: i for i, H in enumerate(subs)}
    for s, perm in zip(gr.generators(G), gr.conjugation_perms(G)):
        assert list(perm) == [index[tuple(sorted(_conjugates_by_every_element(G, H)[s]))]
                              for H in subs]
    reference, seen = [], set()
    for H in subs:
        if H.elements not in seen:
            members = sorted({tuple(sorted(Hg)) for Hg in
                              _conjugates_by_every_element(G, H).values()},
                             key=lambda t: (len(t), t))
            seen.update(members)
            reference.append((H.elements, members))
    classes = gr.subgroup_conjugacy_classes(G)
    assert [(rep.elements, [K.elements for K in members]) for rep, members in classes] \
        == reference
    assert all(gr.class_rep_of(G)[K] is rep for rep, members in classes for K in members)


def test_conjugation_closure():
    G = gr.symmetric(3)
    for H in gr.all_subgroups(G):
        for g in G.elements():
            Hg = gr.conjugate_subgroup(H, g)
            assert Hg.order == H.order
            back = gr.conjugate_subgroup(Hg, G.inv(g))
            assert back == H


def test_group_hom():
    G = gr.cyclic(4)
    K = gr.cyclic(2)
    q = gr.GroupHom(G, K, tuple(x % 2 for x in range(4)))
    assert q.is_surjective()
    assert q.kernel().order == 2
    comp = q.compose(gr.identity_hom(G))
    assert comp.mapping == q.mapping


def test_parse_group_and_json_roundtrip():
    for sel in ("cyclic:4", "sym:3", "dihedral:8", "prod:cyclic:2,cyclic:2"):
        G = gr.parse_group(sel)
        data = gr.group_to_json(G)
        H = gr.group_from_json(data)
        assert H.order == G.order
        for a in range(min(G.order, 6)):
            for b in range(min(G.order, 6)):
                assert G.mul(a, b) == H.mul(a, b)


def test_parse_group_bad_selector():
    with pytest.raises(gr.UnknownFamily):
        gr.parse_group("frobnicate:5")


def test_all_subgroups_cached():
    G = gr.symmetric(3)
    assert gr.all_subgroups(G) is gr.all_subgroups(G)


@pytest.mark.parametrize("sel", ["sym:3", "sym:4", "dihedral:8", "dihedral:12",
                                 "prod:cyclic:4,cyclic:4", "Q8"])
def test_cyclic_extension_enumeration_matches_the_frontier_reference(sel):
    """The generic enumeration extends each subgroup by one generator per
    cyclic subgroup; the reference closes it with every element outside it."""
    G = gr.group_from_json(quaternion_json()) if sel == "Q8" else gr.parse_group(sel)
    assert [H.elements for H in gr.all_subgroups(G)] == frontier_subgroup_tuples(G)


COSET_GROUPS = ("cyclic:6", "dihedral:8", "sym:3", "prod:cyclic:2,cyclic:2")


def _check_cosets(G, H, elements):
    reps, rep_of = gr.left_cosets(G, H, elements=elements)
    assert set(rep_of) == set(elements)
    assert reps == sorted(set(rep_of.values()))
    cosets = {r: [x for x in elements if rep_of[x] == r] for r in reps}
    for r, coset in cosets.items():
        assert len(coset) == H.order
        assert min(coset) == r
        assert sorted(coset) == sorted(G.mul(r, h) for h in H.elements)
    assert sum(len(c) for c in cosets.values()) == len(elements)


@pytest.mark.parametrize("sel", COSET_GROUPS)
def test_left_cosets_partition_group(sel):
    G = gr.parse_group(sel)
    for H in gr.all_subgroups(G):
        reps, _ = gr.left_cosets(G, H)
        assert len(reps) == G.order // H.order
        _check_cosets(G, H, list(G.elements()))


@pytest.mark.parametrize("sel", COSET_GROUPS)
def test_left_cosets_inside_subgroup(sel):
    G = gr.parse_group(sel)
    subs = gr.all_subgroups(G)
    for H in subs:
        for K in subs:
            if set(K.elements) <= set(H.elements):
                _check_cosets(G, K, list(H.elements))


def test_subgroup_membership():
    C6 = gr.cyclic(6)
    H = next(H for H in gr.all_subgroups(C6) if H.order == 3)
    assert [x for x in C6.elements() if x in H] == [0, 2, 4]
    assert 1 not in H and 5 not in H and 6 not in H
    G = gr.dihedral(8)
    for H in gr.all_subgroups(G):
        members = [x for x in G.elements() if x in H]
        assert len(members) == H.order
        assert all(G.mul(a, b) in H for a in members for b in members)


def test_dense_table_built_once():
    G = gr.parse_group("prod:cyclic:4,cyclic:8")
    calls = [0]
    mul = G.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    G.mul = counted
    # the generic enumeration closes about 500 seeds over the dense table;
    # each table build costs order^2 products
    assert len(gr.all_subgroups(G)) == 22
    assert calls[0] <= G.order ** 2
    assert G.table() is G.table()
    assert calls[0] <= G.order ** 2


def test_dense_table_equals_the_table_of_products():
    """The table built from generator rows, with no `mul`, is the table of
    one product per entry; the last group is the order-900 level of
    prod:pro_p:2,pro_p:3,pro_p:5 at depth 2."""
    from profmack import tower as tw

    top = tw.builtin_tower("prod:pro_p:2,pro_p:3,pro_p:5", 2).levels[2]
    assert top.order == 900
    for G in (gr.cyclic(1), gr.cyclic(12), gr.parse_group("prod:cyclic:2,cyclic:4"), top):
        G.mul = None  # the build makes no product
        table = G.table()
        del G.mul
        assert table == tuple(tuple(G.mul(a, b) for b in G.elements()) for a in G.elements())


def test_table_group_rejects_a_non_square_table():
    with pytest.raises(ValueError, match="square"):
        gr.TableGroup([[0, 1], [1]])


def test_table_group_rejects_an_entry_that_is_not_an_int():
    # int() would read each of these as 1 and pass the table as C2
    for entry in (True, 1.0, 1.9, "1"):
        with pytest.raises(ValueError, match="integers"):
            gr.TableGroup([[0, 1], [entry, 0]])


def test_table_group_rejects_an_out_of_range_entry():
    # identity 0 and inverses 1 <-> 2 hold, so only the range check fires
    with pytest.raises(ValueError, match="out of range"):
        gr.TableGroup([[0, 1, 2], [1, 2, 0], [2, 0, 5]])


def test_table_group_rejects_a_table_without_identity():
    with pytest.raises(ValueError, match="identity"):
        gr.TableGroup([[0, 0], [0, 0]])


def test_table_group_rejects_an_element_without_inverse():
    with pytest.raises(ValueError, match="inverse"):
        gr.TableGroup([[0, 1, 2], [1, 1, 1], [2, 1, 0]])


def test_table_group_rejects_a_non_associative_table():
    table = [list(row) for row in gr.dihedral(8).table()]
    # the products r^3·s and r^3·sr swapped; identity and inverses still hold
    table[3][4], table[3][5] = table[3][5], table[3][4]
    with pytest.raises(ValueError, match="associative"):
        gr.TableGroup(table)


@pytest.mark.parametrize("G", (
    gr.cyclic(1), gr.cyclic(2), gr.cyclic(7),
    gr.direct_product(gr.cyclic(4), gr.cyclic(3), gr.cyclic(5)),
    gr.parse_group("prod:sym:3,cyclic:4"),
    gr.direct_product(gr.cyclic(1), gr.dihedral(8)),
    gr.parse_group("prod:cyclic:2,cyclic:2"),
), ids=lambda G: G.label)
def test_generator_rows_equal_the_generic_definition(G):
    assert gr.generator_rows(G) == [(s, tuple(G.mul(s, h) for h in G.elements()))
                                    for s in gr.generators(G)]


def test_group_hom_rejects_a_non_multiplicative_map():
    # exact check of every (generator, element) pair: the domain's rows hold
    # at most HOM_ROW_LIMIT entries
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(gr.cyclic(4), gr.cyclic(2), (0, 1, 1, 1))
    C512, C2 = gr.cyclic(512), gr.cyclic(2)
    gr.GroupHom(C512, C2, tuple(x % 2 for x in range(512)))
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(C512, C2, tuple(int(x >= 256) for x in range(512)))
    # the same on a product domain, where the C256 digit's top bit is no hom
    G = gr.parse_group("prod:cyclic:2,cyclic:256")
    gr.GroupHom(G, C2, tuple(G.decode(x)[1] % 2 for x in G.elements()))
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(G, C2, tuple(int(G.decode(x)[1] >= 128) for x in G.elements()))
    # sampled pairs above the bound: each map is wrong on about half of all pairs
    C16384 = gr.cyclic(16384)
    assert C16384.order > gr.HOM_ROW_LIMIT
    gr.GroupHom(C16384, C2, tuple(x % 2 for x in range(16384)))
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(C16384, C2, tuple(int(x >= 8192) for x in range(16384)))
    P = gr.parse_group("prod:cyclic:2,cyclic:8192")
    assert len(gr.generators(P)) * P.order > gr.HOM_ROW_LIMIT
    gr.GroupHom(P, C2, tuple(P.decode(x)[1] % 2 for x in P.elements()))
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(P, C2, tuple(int(P.decode(x)[1] >= 4096) for x in P.elements()))


def test_group_hom_rejects_the_identity_table_with_two_entries_swapped():
    # wrong on 24558 of 4096² pairs (0.15%), none of them among the 2000
    # seeded pairs that a sampled check draws
    C4096 = gr.cyclic(4096)
    table = list(range(4096))
    table[4], table[9] = table[9], table[4]
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(C4096, C4096, table)


@pytest.mark.parametrize("sel", ("cyclic:2048", "prod:cyclic:8,cyclic:3,cyclic:5",
                                 "dihedral:8"))
def test_group_hom_rejects_a_single_wrong_entry_below_the_bound(sel):
    G = gr.parse_group(sel)
    assert len(gr.generators(G)) * G.order <= gr.HOM_ROW_LIMIT
    positions = set(random.Random(3).sample(range(G.order), min(G.order, 12)))
    for pos in sorted(positions - {G.identity}):
        for other in (pos - 1, (pos + 1) % G.order):
            table = list(range(G.order))
            table[pos] = other
            with pytest.raises(ValueError, match="multiplicative"):
                gr.GroupHom(G, G, table)


class CountingCyclic(gr.CyclicGroup):
    products = 0

    def mul(self, a, b):
        self.products += 1
        return super().mul(a, b)


def test_sampled_checks_make_2000_products():
    G = CountingCyclic(16384)
    assert G.order > gr.HOM_ROW_LIMIT
    gr.GroupHom(G, gr.cyclic(2), tuple(x % 2 for x in range(16384)))
    assert G.products == 2000


def test_exact_hom_check_makes_no_products_on_a_cyclic_domain():
    G = CountingCyclic(8192)
    gr.GroupHom(G, gr.cyclic(2), tuple(x % 2 for x in range(8192)))
    gr.GroupHom(G, G, tuple(range(8192)))
    assert G.products == 0


def test_group_hom_rejects_a_table_that_leaves_its_codomain():
    C512, C2 = gr.cyclic(512), gr.cyclic(2)
    table = [x % 2 for x in range(512)]
    # the range is checked on every entry before any product: C2's products
    # reduce 3 and -1 modulo 2, and a row lookup reads -1 from the row's end
    for pos, value in ((33, 3), (27, 3), (1, -1), (5, 2)):
        bad = list(table)
        bad[pos] = value
        with pytest.raises(ValueError, match="leaves its codomain"):
            gr.GroupHom(C512, C2, bad)
    with pytest.raises(ValueError, match="leaves its codomain"):
        gr.GroupHom(gr.cyclic(4), gr.symmetric(3), (0, 1, 6, 1))


@pytest.mark.parametrize("elements, message", (
    ((0, 2, 2), "strictly sorted"),
    ((2, 0), "strictly sorted"),
    ((1, 2), "identity"),
    ((), "identity"),
))
def test_subgroup_rejects_unsorted_or_identity_free_tuples(elements, message):
    with pytest.raises(ValueError, match=message):
        gr.Subgroup(gr.cyclic(4), elements)


SUBGROUP_GROUPS = ("cyclic:12", "dihedral:8", "sym:3", "prod:cyclic:2,cyclic:4",
                   "prod:cyclic:2,sym:3")


def _closed_all_pairs(G, S):
    return all(G.mul(a, b) in S for a in S for b in S)


@pytest.mark.parametrize("sel", SUBGROUP_GROUPS)
def test_subgroup_accepts_every_subgroup(sel):
    G = gr.parse_group(sel)
    for H in gr.all_subgroups(G):
        assert gr.subgroup(G, reversed(H.elements)) == H


def test_subgroup_rejects_exactly_the_sets_all_pairs_rejects():
    rng = random.Random(5)
    outcomes = set()
    for i in range(200):
        G = gr.parse_group(SUBGROUP_GROUPS[i % len(SUBGROUP_GROUPS)])
        # a subgroup with up to two non-identity elements toggled
        S = set(rng.choice(gr.all_subgroups(G)).elements)
        for _ in range(rng.randrange(3)):
            S ^= {rng.randrange(G.order)} - {G.identity}
        closed = _closed_all_pairs(G, S)
        outcomes.add(closed)
        if closed:
            assert gr.subgroup(G, S).elements == tuple(sorted(S))
        else:
            with pytest.raises(ValueError, match="not closed"):
                gr.subgroup(G, S)
    assert outcomes == {True, False}


def test_subgroup_rejects_a_set_closed_under_its_first_generator_only():
    C12 = gr.cyclic(12)
    # greedy generators 4 then 6: {0, 4, 8} is closed, 4 + 6 = 10 is not in S
    assert gr.subgroup(C12, [0, 4, 8]).order == 3
    with pytest.raises(ValueError, match="not closed"):
        gr.subgroup(C12, [0, 4, 6, 8])
    # in C2 x C8, S = <a> u b<a> with a = (0, 4), b = (1, 1): every product
    # with a stays in S, and only b·b = (0, 2) leaves it
    G = gr.parse_group("prod:cyclic:2,cyclic:8")
    a, b = G.encode((0, 4)), G.encode((1, 1))
    S = [0, a, b, G.mul(b, a)]
    assert all(G.mul(x, a) in S for x in S)
    with pytest.raises(ValueError, match="not closed"):
        gr.subgroup(G, S)


def test_subgroup_costs_at_most_two_products_per_element():
    G = CountingCyclic(4096)
    H = gr.subgroup(G, range(0, 4096, 2))
    assert H.order == 2048
    assert G.products <= 2 * H.order


def test_subgroup_is_a_lookup_once_the_lattice_is_enumerated():
    G = CountingCyclic(4096)
    lattice = gr.all_subgroups(G)
    G.products = 0
    for H in lattice:
        assert gr.subgroup(G, reversed(H.elements)) is H
    assert G.products == 0


@pytest.mark.parametrize("enumerated", (False, True))
def test_subgroup_rejects_a_non_subgroup_with_or_without_the_lattice(enumerated):
    G = gr.cyclic(12)
    if enumerated:
        gr.all_subgroups(G)
    with pytest.raises(ValueError, match="not closed"):
        gr.subgroup(G, [0, 4, 6, 8])
    with pytest.raises(ValueError, match="identity"):
        gr.subgroup(G, [4, 8])
    assert (G._subgroup_index is not None) == enumerated


@pytest.mark.parametrize("sel", ("cyclic:12", "prod:cyclic:2,cyclic:4"))
def test_abelian_conjugation_is_the_identity(sel):
    G = gr.parse_group(sel)
    assert G.abelian
    for H in gr.all_subgroups(G):
        for g in G.elements():
            generic = gr.Subgroup(G, tuple(sorted(G.conj(g, x) for x in H.elements)))
            assert gr.conjugate_subgroup(H, g) == generic


def test_non_abelian_groups_still_conjugate():
    for sel in ("sym:3", "dihedral:8", "prod:cyclic:2,sym:3"):
        assert not gr.parse_group(sel).abelian
    D8 = gr.dihedral(8)
    H = gr.subgroup(D8, [0, 4])  # {e, s}, not normal
    moved = gr.conjugate_subgroup(H, 1)  # r s r^-1 = s r^-2
    assert moved != H
    assert moved.elements == tuple(sorted(D8.conj(1, x) for x in H.elements))


@pytest.mark.parametrize("sel", ("cyclic:1", "cyclic:12", "dihedral:8", "sym:3",
                                 "sym:4", "prod:cyclic:2,cyclic:4",
                                 "prod:cyclic:3,cyclic:4", "prod:cyclic:2,sym:3"))
def test_generators_generate_the_group(sel):
    G = gr.parse_group(sel)
    assert gr.closure_set(G, gr.generators(G)) == tuple(G.elements())


def test_generators_of_a_cyclic_product_follow_the_factor_order():
    G = gr.parse_group("prod:cyclic:2,cyclic:1,cyclic:4")
    assert gr.generators(G) == [G.encode((1, 0, 0)), G.encode((0, 0, 1))]


def test_group_hom_rejects_a_map_multiplicative_on_rotations_only():
    D8, C2 = gr.dihedral(8), gr.cyclic(2)
    gr.GroupHom(D8, C2, (0, 0, 0, 0, 1, 1, 1, 1))  # the sign of a reflection
    # trivial on the rotations r^i, but s r^i goes to i+1 mod 2
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(D8, C2, (0, 0, 0, 0, 1, 0, 1, 0))
    # r^i and s r^i both go to i in C4: f(xr) == f(x)f(r) for every x, so
    # only the second generator s exposes f(rs) = f(s r^3) = 3 != f(r)f(s) = 1
    with pytest.raises(ValueError, match="multiplicative"):
        gr.GroupHom(D8, gr.cyclic(4), (0, 1, 2, 3, 0, 1, 2, 3))


def test_light_associativity_test_checks_every_generator():
    # identity 0, two-sided inverses 1 <-> 2, and (1·1)·2 = 0 != 1·(1·2) = 1
    magma = [[0, 1, 2], [1, 1, 0], [2, 0, 2]]
    # magma x C2, element 2m + c: the first greedy generator (0, 1) lies in
    # the associative C2 factor, so only the second, (1, 0), exposes the magma
    table = [[2 * magma[x // 2][y // 2] + (x + y) % 2 for y in range(6)]
             for x in range(6)]
    with pytest.raises(ValueError, match="associative"):
        gr.TableGroup(table)


def test_light_associativity_test_rejects_seeded_corrupted_tables():
    rng = random.Random(3)
    # 20 corruptions of each small table, 3 of each table above order 256
    for sel, count in (("dihedral:8", 20), ("sym:3", 20), ("prod:cyclic:2,cyclic:4", 20),
                       ("dihedral:300", 3), ("prod:cyclic:16,cyclic:20", 3),
                       ("dihedral:512", 3)):
        G = gr.parse_group(sel)
        n, e = G.order, G.identity
        for _ in range(count):
            table = [list(row) for row in G.table()]
            # swap two entries of a row x != e, outside column e and away from
            # the entry e, so that the identity and the inverses still hold
            x = rng.choice([x for x in range(n) if x != e])
            y1, y2 = rng.sample([y for y in range(n) if e not in (y, table[x][y])], 2)
            table[x][y1], table[x][y2] = table[x][y2], table[x][y1]
            if n <= 8:
                # all-triples reference
                assert not all(table[table[a][b]][c] == table[a][table[b][c]]
                               for a in range(n) for b in range(n) for c in range(n))
            else:
                # a column now repeats an entry, so the rows are no action on G
                assert any(len(set(column)) < n for column in zip(*table))
            with pytest.raises(ValueError, match="associative"):
                gr.TableGroup(table)


def test_selector_number_reads_ascii_digits_only():
    for text, n in (("0", 0), ("7", 7), ("12", 12), ("1024", 1024)):
        assert gr.selector_number(text) == n
    for text in ("", "+3", "-3", " 3", "3 ", "3\n", "1_1", "03", "00", "\u0663", "3.0", "x"):
        assert gr.selector_number(text) is None


@pytest.mark.parametrize("sel", ("cyclic:-4", "cyclic:+4", "dihedral:08", "sym:\u0663",
                                 "sym:-1", "cyclic:1_2", "cyclic: 4", "cyclic:"))
def test_parse_group_rejects_a_malformed_number(sel):
    with pytest.raises(gr.UnknownFamily) as info:
        gr.parse_group(sel)
    assert str(info.value) == f"bad group selector {sel!r}"


@pytest.mark.parametrize("sel", ("cyclic:1", "cyclic:12", "dihedral:8", "sym:3",
                                 "sym:4", "prod:cyclic:2,cyclic:4",
                                 "prod:cyclic:3,cyclic:4", "prod:cyclic:2,sym:3"))
def test_generators_are_built_once(sel):
    G = gr.parse_group(sel)
    gens = gr.generators(G)
    assert gr.generators(G) is gens
    assert gr.closure_set(G, gr.generators(G)) == tuple(G.elements())


def _tuple_decode(G, i):
    """Reference: the per-factor tuple decoding of a product index."""
    out = []
    for f in reversed(G.factors):
        out.append(i % f.order)
        i //= f.order
    return tuple(reversed(out))


def _tuple_encode(G, parts):
    i = 0
    for f, x in zip(G.factors, parts):
        i = i * f.order + x
    return i


@pytest.mark.parametrize("sel", ("prod:cyclic:2,cyclic:4", "prod:cyclic:3,cyclic:4",
                                 "prod:cyclic:2,sym:3", "prod:cyclic:2,cyclic:1,cyclic:4"))
def test_product_digit_arithmetic_matches_the_tuple_formula(sel):
    G = gr.parse_group(sel)
    fs = G.factors
    codes = [_tuple_decode(G, i) for i in G.elements()]
    assert set(codes) == set(itertools.product(*(f.elements() for f in fs)))
    assert G.identity == _tuple_encode(G, [f.identity for f in fs])
    for i, t in enumerate(codes):
        assert G.decode(i) == t
        assert G.encode(t) == i
        assert G.inv(i) == _tuple_encode(G, [f.inv(x) for f, x in zip(fs, t)])
        for j, u in enumerate(codes):
            assert G.mul(i, j) == _tuple_encode(
                G, [f.mul(x, y) for f, x, y in zip(fs, t, u)])


def _mismatched_inputs():
    """One call per input check, each given parts from different groups or
    levels: run under ``python -O`` too, where an ``assert`` would pass them."""
    from profmack import gsets as gs
    from profmack import tower as tw

    C4, C2 = gr.cyclic(4), gr.cyclic(2)
    q = gr.GroupHom(C4, C2, tuple(x % 2 for x in C4.elements()))
    return {
        "bond_to": lambda: tw.builtin_tower("pro_p:2", 3).bond_to(1, 2),
        "intersection": lambda: gr.intersection(gr.all_subgroups(C4)[1],
                                                gr.all_subgroups(C2)[1]),
        "compose": lambda: q.compose(q),
        "product_gset": lambda: gs.product_gset(gs.point_gset(C4), gs.point_gset(C2)),
        "inflate_gset": lambda: gs.inflate_gset(gs.point_gset(C4), q),
    }


@pytest.mark.parametrize("check", list(_mismatched_inputs()))
def test_mismatched_input_raises_value_error(check):
    with pytest.raises(ValueError):
        _mismatched_inputs()[check]()


def test_divisors_ascend_and_match_the_scan():
    for n in range(1, 400):
        assert gr.divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    # the top level of prod:pro_p:2,pro_p:3,pro_p:5 at depth 12: 13^3 divisors
    divs = gr.divisors(30**12)
    assert len(divs) == 13**3 and divs == sorted(divs)
    assert all(30**12 % d == 0 for d in divs)
    assert gr.divisors(1_000_003) == [1, 1_000_003]  # prime


# the groups the per-group tables are checked on; "json:S3+3" is S3 as a
# group file, relabelled so that its identity is element 3
TABLE_GROUPS = ["sym:3", "sym:4", "dihedral:8", "cyclic:12", "prod:cyclic:2,cyclic:4",
                "json:S3+3"]


def table_group(sel, tmp_path):
    if sel.startswith("json:"):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(gr.group_to_json(relabelled(gr.symmetric(3), 3))))
        G = gr.parse_group(f"json:{path}")
        assert G.identity == 3
        return G
    return gr.parse_group(sel)


def maximal_by_definition(subs):
    """For each H of subs, the K of subs maximal in H, in subs order: the
    quadratic scan the inclusion lattice replaced."""
    elems = {H: frozenset(H.elements) for H in subs}
    out = {}
    for H in subs:
        below = [K for K in subs if elems[K] < elems[H]]
        out[H] = [K for K in below if not any(elems[K] < elems[J] for J in below)]
    return out


@pytest.mark.parametrize("sel", TABLE_GROUPS)
def test_inclusion_lattice_matches_set_inclusion(sel, tmp_path):
    G = table_group(sel, tmp_path)
    subs = gr.all_subgroups(G)
    lattice = gr.inclusion_lattice(G)
    assert gr.inclusion_lattice(G) is lattice
    contained, maximal = lattice
    assert list(contained) == subs == list(maximal)
    for H in subs:
        assert contained[H] == [K for K in subs if set(K.elements) <= set(H.elements)]
        assert contained[H][-1] is H
    assert maximal == maximal_by_definition(subs)


@pytest.mark.parametrize("sel", TABLE_GROUPS)
def test_generator_words_reach_every_element_once(sel, tmp_path):
    G = table_group(sel, tmp_path)
    gr.generator_rows(G)
    G.mul = None  # the words are read off the rows, with no product
    words = gr.generator_words(G)
    del G.mul
    assert gr.generator_words(G) is words
    gens = gr.generators(G)
    reached = [G.identity]
    for g, s, h in words:
        assert s in gens and h in reached
        assert g == G.mul(s, h)
        reached.append(g)
    assert sorted(reached) == list(G.elements())


@pytest.mark.parametrize("sel", TABLE_GROUPS)
def test_element_rows_match_the_per_element_formulas(sel, tmp_path):
    """The rows composed along the words are those of the multiplication
    table, of every G/H and of Sub(G) under conjugation."""
    from profmack import gsets as gs

    G = table_group(sel, tmp_path)
    rows = gr.element_rows(G, [row for _, row in gr.generator_rows(G)], G.order)
    assert rows == [tuple(G.mul(g, x) for x in G.elements()) for g in G.elements()]
    assert G.table() == tuple(rows)
    subs = gr.all_subgroups(G)
    for H in subs:
        reps, rep_of, X = gs.coset_orbit(G, H)
        assert gs.coset_orbit(G, H)[2] is X
        index = {r: i for i, r in enumerate(reps)}
        assert X.act == tuple(tuple(index[rep_of[G.mul(g, r)]] for r in reps)
                              for g in G.elements())
    index = {H.elements: i for i, H in enumerate(subs)}
    conj = [tuple(index[tuple(sorted(G.conj(g, x) for x in H.elements))] for H in subs)
            for g in G.elements()]
    assert gr.element_rows(G, gr.conjugation_perms(G), len(subs)) == conj


class Rejected(Exception):
    pass


@pytest.mark.parametrize("what", ["group", "span", "certificate"])
def test_read_json_file_rejects_a_malformed_file_naming_its_kind(what, tmp_path):
    """Every way a file can fail raises the given error with one line, and a
    valid file is read by `read`."""
    def read(data):
        return data["entry"] + 1

    cases = {"a directory": None, "not json": "{not json", "a JSON list": "[1]",
             "an entry of the wrong type": {"entry": "x"}, "no entry": {}}
    messages = {}
    for case, content in cases.items():
        path = tmp_path / case.replace(" ", "_")
        if content is None:
            path.mkdir()
        else:
            path.write_text(content if isinstance(content, str) else json.dumps(content))
        with pytest.raises(Rejected) as info:
            gr.read_json_file(str(path), what, read, Rejected)
        messages[case] = str(info.value)
        assert len(messages[case].splitlines()) == 1
    assert messages["a JSON list"] == f"{what} file must hold a JSON object"
    assert messages["an entry of the wrong type"].startswith(
        f"{what} file has an entry of the wrong type (")
    assert messages["no entry"] == f"{what} file has no entry 'entry'"
    good = tmp_path / "good.json"
    good.write_text('{"entry": 1}')
    assert gr.read_json_file(str(good), what, read, Rejected) == 2
    with pytest.raises(gr.UnknownFamily):  # group selectors raise UnknownFamily
        gr.read_json_file(str(tmp_path / "no_entry"), what, read)
