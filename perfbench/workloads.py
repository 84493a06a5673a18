"""The four benchmark workloads, as lists of checked operations.

Building a workload's op list does no library work: it only fixes the op
names, their arguments and their references, so that the process's set-up
time is interpreter start, ``import profmack`` and this list.  Every op
computes its answer and compares it with the reference; library objects an
op needs from an earlier op (a group, a battery of Mackey functors, a
certificate file) live in a per-workload context dict.

An op returns the list of problems it found, empty when the answer is right.
An op that raises, or returns a problem, has failed.  The three tower_cli
commands that fail today (ROADMAP item 3) raise ``KnownDefect`` when they
fail in the documented way, with both its exit code and its stderr message:
they count against ``ok_frac`` but not as unexpected failures.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

from profmack import burnside as bs
from profmack import cli
from profmack import groups as gr
from profmack import gsets as gs
from profmack import homdim as hd
from profmack import linalg as la
from profmack import mackey as mk
from profmack import sheaf as sh

# Battery of a group: representable(G, G/H) per class representative H, then
# fixed_point_functor of each rational irreducible.  Sizes are references.
BATTERY_SIZE = {"cyclic:4": 6, "sym:3": 7, "prod:cyclic:2,cyclic:2": 9}

# dim Hom(M, N) over each battery, rows M, columns N, in battery order.
# Representable pairs are also checked against hom_basis and the Weyl-sheaf
# hom (acceptance 8); all 130 values agree with
# sum over (H) of dim Hom_{W_G H}(Phi M(H), Phi N(H)).
HOM_DIMS = {
    "sym:3": [
        [6, 3, 2, 1, 1, 1, 2],
        [3, 3, 1, 2, 1, 0, 1],
        [2, 1, 4, 2, 1, 1, 0],
        [1, 2, 2, 4, 1, 0, 0],
        [1, 1, 1, 1, 1, 0, 0],
        [1, 0, 1, 0, 0, 1, 0],
        [2, 1, 0, 0, 0, 0, 1],
    ],
    "prod:cyclic:2,cyclic:2": [
        [4, 2, 2, 2, 1, 1, 1, 1, 1],
        [2, 4, 1, 1, 2, 1, 0, 1, 0],
        [2, 1, 4, 1, 2, 1, 1, 0, 0],
        [2, 1, 1, 4, 2, 1, 0, 0, 1],
        [1, 2, 2, 2, 5, 1, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0, 0],
        [1, 0, 1, 0, 0, 0, 1, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 1, 0],
        [1, 0, 0, 1, 0, 0, 0, 0, 1],
    ],
}

# span_algebra: number of conjugacy classes of subgroups (one representable
# op each) and associativity triples per group.
SPAN_GROUPS = {"dihedral:8": 8, "prod:cyclic:2,cyclic:4": 8, "cyclic:12": 6}
TRIPLES = 20


class KnownDefect(Exception):
    """A known-defect command failed with its documented exit code and message."""


@dataclass
class Op:
    name: str
    run: Callable[[], list[str]]


def build(name: str, seed: int, workdir: str) -> list[Op]:
    """Op list of workload ``name``; ``workdir`` holds files ops write."""
    if name == "ext_battery":
        return _ext_battery()
    if name == "hom_audit":
        return _hom_audit()
    if name == "span_algebra":
        return _span_algebra(seed)
    if name == "tower_cli":
        return _tower_cli(workdir)
    raise ValueError(f"unknown workload {name!r}")


def _build_battery(sel: str, ctx: dict) -> list[str]:
    G = gr.parse_group(sel)
    reps = [rep for rep, _ in gr.subgroup_conjugacy_classes(G)]
    orbits = [gs.transitive_gset(G, H) for H in reps]
    objs = [mk.representable(G, A, name=f"rep[{G.order // H.order}]")
            for A, H in zip(orbits, reps)]
    objs += [mk.fixed_point_functor(V) for V in mk.rational_irreducibles(G)]
    ctx.update(G=G, orbits=orbits, objs=objs, tools=mk._RepTools(G), phi={})
    if len(objs) != BATTERY_SIZE[sel]:
        return [f"battery of {sel} has {len(objs)} objects"]
    return []


def _ext_battery() -> list[Op]:
    """Ext^1 over the battery of C4 and S3 (acceptance 3 without C2, C3, C2xC2)."""
    ops = []
    for sel in ("cyclic:4", "sym:3"):
        ctx: dict = {}
        ops.append(Op(f"battery:{sel}", lambda sel=sel, ctx=ctx: _build_battery(sel, ctx)))
        for i in range(BATTERY_SIZE[sel]):
            ops.append(Op(f"ext1:{sel}:{i}", lambda i=i, ctx=ctx: _ext_row(ctx, i)))
    return ops


def _ext_row(ctx: dict, i: int) -> list[str]:
    objs, tools = ctx["objs"], ctx["tools"]
    M = objs[i]
    res = mk.projective_resolution(M, 2, tools)
    return [f"Ext^1({M.name}, {N.name}) = {d}"
            for N in objs
            if (d := mk.ext_mackey(M, N, 1, res=res, tools=tools)) != 0]


def _hom_audit() -> list[Op]:
    """hom_space on every ordered battery pair over S3 and C2xC2."""
    ops = []
    for sel, table in HOM_DIMS.items():
        ctx: dict = {}
        ops.append(Op(f"battery:{sel}", lambda sel=sel, ctx=ctx: _build_battery(sel, ctx)))
        for i, row in enumerate(table):
            for j, ref in enumerate(row):
                ops.append(Op(f"hom:{sel}:{i}:{j}",
                              lambda i=i, j=j, ref=ref, ctx=ctx: _hom_pair(ctx, i, j, ref)))
    return ops


def _phi(ctx: dict, i: int):
    if i not in ctx["phi"]:
        ctx["phi"][i] = hd.mackey_to_weylsheaf(ctx["objs"][i])[0]
    return ctx["phi"][i]


def _hom_pair(ctx: dict, i: int, j: int, ref: int) -> list[str]:
    objs, orbits = ctx["objs"], ctx["orbits"]
    dims = {"hom_space": len(mk.hom_space(objs[i], objs[j]))}
    if i < len(orbits) and j < len(orbits):
        dims["hom_basis"] = len(bs.hom_basis(orbits[i], orbits[j]))
        dims["hom_fin"] = len(sh.hom_fin(_phi(ctx, i), _phi(ctx, j)))
    return [f"{k} = {v}, expected {ref}" for k, v in dims.items() if v != ref]


def _span_algebra(seed: int) -> list[Op]:
    """Representables, seeded associativity triples and Burnside rings."""
    ops = []
    for sel, n_classes in SPAN_GROUPS.items():
        ctx: dict = {}
        for k in range(n_classes):
            ops.append(Op(f"rep:{sel}:{k}",
                          lambda k=k, sel=sel, ctx=ctx: _rep_dims(_group(sel, ctx), k)))
        rng = random.Random(f"{seed}:{sel}")
        ops.append(Op(f"assoc:{sel}",
                      lambda rng=rng, sel=sel, ctx=ctx: _assoc(_group(sel, ctx), rng)))
        ops.append(Op(f"ring:{sel}",
                      lambda sel=sel, ctx=ctx, n=n_classes: _ring(_group(sel, ctx), n)))
    return ops


def _group(sel: str, ctx: dict) -> dict:
    if not ctx:
        G = gr.parse_group(sel)
        subs = gr.all_subgroups(G)
        ctx.update(G=G, subs=subs,
                   reps=[rep for rep, _ in gr.subgroup_conjugacy_classes(G)],
                   orbit={H: gs.transitive_gset(G, H) for H in subs})
    return ctx


def _rep_dims(ctx: dict, k: int) -> list[str]:
    """dim rep(G/H)(K) = number of span classes G/K -> G/H, for every K."""
    G, H, orbit = ctx["G"], ctx["reps"][k], ctx["orbit"]
    M = mk.representable(G, orbit[H])
    return [f"dim at {K.elements} is {M.dim(K)}, expected {ref}"
            for K in ctx["subs"]
            if M.dim(K) != (ref := len(bs.hom_basis(orbit[K], orbit[H])))]


def _assoc(ctx: dict, rng: random.Random) -> list[str]:
    """Both bracketings of seeded span triples agree (as in acceptance 6)."""
    G, sets = ctx["G"], list(ctx["orbit"].values())
    problems = []
    done = 0
    while done < TRIPLES:
        A, B, C, D = (rng.choice(sets) for _ in range(4))
        bases = [bs.hom_basis(X, Y) for X, Y in ((A, B), (B, C), (C, D))]
        if not all(bases):
            continue
        s1, s2, s3 = (bs.component_span(G, X, Y, rng.choice(h))
                      for (X, Y), h in zip(((A, B), (B, C), (C, D)), bases))
        left = bs.span_compose(bs.span_compose(s1, s2), s3)
        right = bs.span_compose(s1, bs.span_compose(s2, s3))
        if left.canonical() != right.canonical():
            problems.append(f"triple {done} is not associative")
        done += 1
    return problems


def _ring(ctx: dict, n_classes: int) -> list[str]:
    R = bs.burnside_ring(ctx["G"])
    r = la.rank([[la.frac(x) for x in row] for row in R.marks])
    if len(R.basis) != n_classes or r != n_classes:
        return [f"{len(R.basis)} classes, mark matrix rank {r}, expected {n_classes}"]
    return []


# tower_cli: (argv, check of the parsed --json output, certificate file or
# None, (exit code, stderr) of a known defect or None).  Checks read verdict
# and value fields only, so certificates may gain fields without failing.
def _rank(r):
    return lambda d: d.get("verdict") == "Exact" and d.get("rank") == r


def _value(v):
    return lambda d: d.get("verdict") == "Exact" and d.get("value") == v


def _heights(d):
    h = d.get("heights", {})
    return (h.get("ord1") == 1 and len(h) > 1
            and all(v == 0 for k, v in h.items() if k != "ord1"))


def _verified(d):
    return d.get("verified") is True


DEPTH_DEFECT = (3, "error: derivative process exceeded tree depth")

TOWER_COMMANDS = [
    ("cb rank --tower pro_p:2 --depth 12", _rank(2), "rank_p2", None),
    ("cb heights --tower pro_p:3 --depth 8", _heights, None, None),
    ("cb rank --tower prod:pro_p:2,pro_p:3 --depth 4", _rank(3), "rank_p23", None),
    ("cb rank --tower prod:pro_p:2,pro_p:3,pro_p:5 --depth 3", _rank(4), "rank_p235", None),
    ("homdim certify --setup spzp-weyl --depth 12", _value(1), "homdim_weyl", None),
    ("homdim certify --setup spzp:3 --depth 7", _value(1), "homdim_spzp3", None),
    ("homdim certify --setup finite:sym:3 --depth 3", _value(0), "homdim_s3", None),
    ("cb rank --verify {rank_p2}", _verified, None, None),
    ("cb rank --verify {rank_p23}", _verified, None, None),
    ("cb rank --verify {rank_p235}", _verified, None, None),
    ("homdim certify --verify {homdim_weyl}", _verified, None, None),
    ("homdim certify --verify {homdim_spzp3}", _verified, None, None),
    ("homdim certify --verify {homdim_s3}", _verified, None, None),
    ("sheaf godement --base spzp:3 --sheaf const:2", lambda d: d.get("length") == 1, None, None),
    ("cb rank --tower prod:pro_p:2,pro_p:3 --depth 1", _rank(3), None, DEPTH_DEFECT),
    ("cb rank --tower prod:pro_p:2,pro_p:3,pro_p:5 --depth 2", _rank(4), None, DEPTH_DEFECT),
    ("homdim certify --setup finite", _value(0), None,
     (2, "error: unknown group family 'cyc'")),
]


def _tower_cli(workdir: str) -> list[Op]:
    files = {c[2]: os.path.join(workdir, f"{c[2]}.json") for c in TOWER_COMMANDS if c[2]}
    return [Op(cmd,
               lambda cmd=cmd, check=check, out=files.get(out), defect=defect:
               _cli_op(cmd.format(**files).split() + ["--json"], check, out, defect))
            for cmd, check, out, defect in TOWER_COMMANDS]


def _cli_op(argv: list[str], check, out_file: str | None,
            defect: tuple[int, str] | None) -> list[str]:
    """cli.main in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    text = out.getvalue()
    if code != 0:
        found = (code, err.getvalue().strip())
        if found == defect:
            raise KnownDefect(f"exit {code}: {found[1]}")
        return [f"exit {code}: {found[1]}"]
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(text)
    return [] if check(json.loads(text)) else [f"unexpected output {text[:200]!r}"]
