"""Acceptance gate: the nine headline criteria, one printed verdict each.

Verdict lines bypass capture (capsys.disabled) so they always appear in the
pytest stream.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from profmack import burnside as bs
from profmack import cbrank as cb
from profmack import groups as gr
from profmack import gsets as gs
from profmack import homdim as hd
from profmack import linalg as la
from profmack import mackey as mk
from profmack import sheaf as sh
from profmack import tower as tw
from tree_helpers import empty_tree

SEED = 20260823


def report(capsys, num, ok, text):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def class_reps(G):
    return [rep for rep, _ in gr.subgroup_conjugacy_classes(G)]


def battery_objects(G):
    objs = [mk.representable(G, gs.transitive_gset(G, H),
                             name=f"rep[{G.order // H.order}]")
            for H in class_reps(G)]
    objs += [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]
    return objs


def test_acceptance_1_cb_rank_reproduction(capsys):
    ok = True
    times = []
    for p in (2, 3, 5):
        t0 = time.time()
        cert = cb.cb_rank(tw.subgroup_space_tower(tw.builtin_tower(f"pro_p:{p}", 6)))
        dt = time.time() - t0
        times.append(dt)
        ok &= cert.verdict == "Exact" and cert.rank == 2 and dt < 5.0
    triv = cb.cb_rank(tw.subgroup_space_tower(tw.builtin_tower("trivial", 6)))
    ok &= triv.verdict == "Exact" and triv.rank == 1
    emp = cb.cb_rank(empty_tree())
    ok &= emp.verdict == "Exact" and emp.rank == 0
    report(capsys, 1, ok, f"cb rank: pro-p Exact(2) p=2,3,5; trivial Exact(1); "
                  f"empty Exact(0); max {max(times):.2f}s")


def test_acceptance_2_heights(capsys):
    X = tw.subgroup_space_tower(tw.builtin_tower("pro_p:2", 6))
    rep = cb.heights(X)
    proper = {lbl: h for lbl, h in rep.heights.items() if lbl != "ord1"}
    ok = (all(h == 0 for h in proper.values())
          and rep.heights.get("ord1") == 1
          and not rep.hull and not rep.lower_bounds)
    report(capsys, 2, ok, "S(Z_2) heights: proper threads 0, zero thread 1")


def test_acceptance_3_finite_group_dimension_zero(capsys):
    t0 = time.time()
    ok = True
    pairs = 0
    for sel in ("cyclic:2", "cyclic:3", "cyclic:4",
                "prod:cyclic:2,cyclic:2", "sym:3"):
        G = gr.parse_group(sel)
        objs = battery_objects(G)
        tools = mk._RepTools(G)
        for M in objs:
            res = mk.projective_resolution(M, 2, tools)
            for N in objs:
                d = mk.ext_mackey(M, N, 1, res=res, tools=tools)
                ok &= d == 0
                pairs += 1
        cert = hd.homdim_certificate(f"finite:{sel}", depth=3)
        ok &= cert.verdict == "Exact" and cert.value == 0
    dt = time.time() - t0
    ok &= dt < 60.0
    report(capsys, 3, ok, f"Ext^1 = 0 on {pairs} ordered pairs over 5 groups and "
                  f"certificates Exact(0); {dt:.1f}s")


def test_acceptance_4_zp_dimension_one(capsys):
    t0 = time.time()
    cert = hd.homdim_certificate("spzp-weyl", depth=6)
    B = sh.spzp_base(2)
    res = sh.godement_resolution(sh.constant_sheaf(B, 1))
    datum = hd.nonsplit_extension(sh.skyscraper_omega(B, 1),
                                  sh.constant_sheaf(B, 1))
    dt = time.time() - t0
    ok = (cert.verdict == "Exact" and cert.value == 1
          and res.length == 1
          and datum is not None and datum.verified_nonsplit
          and dt < 10.0)
    report(capsys, 4, ok, f"S(Z_p) Weyl sheaves: Exact(1), Godement length 1, "
                  f"parity extension non-split; {dt:.1f}s")


def _random_conv_sheaf(rng):
    r = rng.randint(0, 2)
    m = rng.randint(1, 2)
    base = sh.ConvergingBase(r=r, m=m)
    pattern = [rng.randint(0, 2) for _ in range(m)]
    fin = rng.randint(0, 2)
    lam = []
    for _ in range(fin):
        period = m * rng.choice([1, 2])
        vals = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(pattern[j % m]))
            for j in range(period)
        )
        lam.append(sh.Tail(period, vals))
    exc = [rng.randint(0, 2) for _ in range(r)]
    return sh.ConvSheaf(base, exc, pattern, fin, lam)


def test_acceptance_5_stalk_vanishing_suite(capsys):
    rng = random.Random(SEED)
    heights = {"isolated": 0, "omega": 1}
    violations = 0
    n = 24
    for _ in range(n):
        E = _random_conv_sheaf(rng)
        res = sh.godement_resolution(E)
        violations += len(sh.stalk_vanishing_check(res, heights))
    ok = violations == 0
    report(capsys, 5, ok, f"stalk vanishing: {n} seeded periodic-class sheaves over "
                  f"rank <= 2 bases, {violations} violations")


def test_acceptance_6_burnside_algebra(capsys):
    rng = random.Random(SEED)
    ok = True
    for sel in ("cyclic:2", "cyclic:3", "sym:3"):
        G = gr.parse_group(sel)
        sets = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
        done = 0
        while done < 200:
            A, B, C, D = (rng.choice(sets) for _ in range(4))
            h1 = bs.hom_basis(A, B)
            h2 = bs.hom_basis(B, C)
            h3 = bs.hom_basis(C, D)
            if not (h1 and h2 and h3):
                continue
            s1 = bs.component_span(G, A, B, rng.choice(h1))
            s2 = bs.component_span(G, B, C, rng.choice(h2))
            s3 = bs.component_span(G, C, D, rng.choice(h3))
            left = bs.span_compose(bs.span_compose(s1, s2), s3)
            right = bs.span_compose(s1, bs.span_compose(s2, s3))
            ok &= left.canonical() == right.canonical()
            done += 1
        R = bs.burnside_ring(G)
        marks = [[Fraction(x) for x in row] for row in R.marks]
        ok &= la.rank(marks) == len(R.basis)  # invertible over Q
    R2 = bs.burnside_ring(gr.cyclic(2))
    ok &= R2.structure[0][0] == [2, 0]  # [C2/e]^2 = 2 [C2/e]
    report(capsys, 6, ok, "600 associativity triples across C2/C3/S3, invertible "
                  "mark matrices, A(C2) relation")


def test_acceptance_7_colimit_lemma(capsys):
    T = tw.builtin_tower("pro_p:2", 3)
    ok = True
    classes = 0
    for k in (1, 2, 3):
        G = T.levels[k]
        sets = [gs.transitive_gset(G, H) for H in gr.all_subgroups(G)]
        for A in sets:
            for B in sets:
                for comp in bs.hom_basis(A, B):
                    s = bs.component_span(G, A, B, comp)
                    lvl = bs.colimit_witness(s, T, k)  # asserts the round-trip
                    ok &= 0 <= lvl <= k
                    classes += 1
    report(capsys, 7, ok, f"colimit witness + inflation round-trip on {classes} span "
                  f"classes at pro-2 levels <= 3")


def test_acceptance_8_yoneda_and_equivalence_audit(capsys):
    G = gr.symmetric(3)
    reps = class_reps(G)
    ok = True
    # Yoneda: dim Hom(rep A, rep B) = |hom_basis(A, B)|
    RM = {H: mk.representable(G, gs.transitive_gset(G, H)) for H in reps}
    sheaves = {H: hd.mackey_to_weylsheaf(RM[H])[0] for H in reps}
    for H in reps:
        for K in reps:
            A, B = gs.transitive_gset(G, H), gs.transitive_gset(G, K)
            lhs = len(mk.hom_space(RM[H], RM[K]))
            ok &= lhs == len(bs.hom_basis(A, B))
            ok &= lhs == len(sh.hom_fin(sheaves[H], sheaves[K]))
    # exactness of Phi on seeded short exact sequences
    rng = random.Random(SEED)
    from test_homdim import twisted_ses  # same construction

    for Gx in (gr.cyclic(2), G):
        pool = battery_objects(Gx)
        done = 0
        while done < 10:
            A, B = rng.choice(pool), rng.choice(pool)
            homs = mk.hom_space(A, B)
            h = rng.choice(homs) if homs else mk.zero_morphism(A, B)
            inc, proj = twisted_ses(A, B, h)
            ok &= hd.phi_exact_on_ses(inc, proj)
            done += 1
    report(capsys, 8, ok, "Yoneda dimensions and Phi hom/exactness audit: "
                  "zero mismatches on the S3 battery and 20 seeded SES")


def test_acceptance_9_determinism(capsys):
    cmds = [
        ["cb", "rank", "--tower", "pro_p:2", "--depth", "6", "--json"],
        ["cb", "heights", "--tower", "pro_p:3", "--depth", "5", "--json"],
        ["burnside", "marks", "--group", "sym:3", "--json"],
        ["burnside", "ring", "--group", "cyclic:4", "--json"],
        ["mackey", "ext", "--group", "cyclic:2", "--M", "burnside",
         "--N", "fixedpoint:Q(zeta_2)", "--degree", "1", "--json"],
        ["sheaf", "godement", "--base", "spzp:2", "--sheaf", "const:Q",
         "--json"],
        ["homdim", "certify", "--setup", "spzp-weyl", "--depth", "5", "--json"],
    ]
    ok = True
    for argv in cmds:
        outs = []
        for threads in ("1", "8"):
            r = subprocess.run(
                [sys.executable, "-m", "profmack.cli", *argv,
                 "--seed", "7", "--threads", threads],
                capture_output=True,
            )
            ok &= r.returncode == 0
            outs.append(r.stdout)
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
    report(capsys, 9, ok, f"byte-identical JSON across thread counts for "
                  f"{len(cmds)} commands")
