"""Command-line surface for profmack.

Commands: group, tower, cb, burnside, span, mackey, sheaf, homdim.  Output is
pretty text by default, canonical JSON with --json (sorted keys, rationals as
"p/q" strings, "schema": 1), TSV for tables with --tsv.  --threads is
accepted for configuration symmetry but evaluation is serial: results are
assembled in canonical order, so outputs are byte-identical for any count.

Exit codes: 0 success, 2 usage error, 3 capacity/depth exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import burnside as bs
from . import cbrank as cb
from . import homdim as hd
from . import mackey as mk
from . import sheaf as sh
from . import tower as tw
from .groups import (
    CapacityError,
    UnknownFamily,
    all_subgroups,
    group_from_json,
    parse_group,
    read_json_file,
    selector_number,
    subgroup_conjugacy_classes,
)
from .gsets import FiniteGSet, transitive_gset

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3

class UsageError(Exception):
    pass


def _json_default(x) -> str:
    """json.dumps' hook for what it cannot write itself: a Fraction as "p/q"."""
    if isinstance(x, Fraction):
        return str(x)
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def emit(obj, args, pretty_lines=None):
    if getattr(args, "json", False):
        print(json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1,
                         default=_json_default))
    elif getattr(args, "tsv", False):
        for row in pretty_lines or _flatten_rows(obj):
            print(row if isinstance(row, str) else "\t".join(str(c) for c in row))
    else:
        for line in pretty_lines or [json.dumps(obj, sort_keys=True,
                                                default=_json_default)]:
            if isinstance(line, (list, tuple)):
                print("  ".join(str(c) for c in line))
            else:
                print(line)


def _flatten_rows(obj):
    if isinstance(obj, dict):
        return [[k, json.dumps(v, sort_keys=True, default=_json_default)]
                for k, v in sorted(obj.items())]
    if isinstance(obj, list):
        return [row if isinstance(row, (list, tuple)) else [row] for row in obj]
    return [[obj]]


# ---------------------------------------------------------------------------
# group


def cmd_group_info(args):
    G = parse_group(args.group)
    subs = all_subgroups(G)
    classes = subgroup_conjugacy_classes(G)
    # read off the class of H: N_G(H) is its stabilizer under conjugation,
    # of index the class size, and core_G(H) the intersection of the class
    of_class = {}
    for ci, (_, members) in enumerate(classes):
        core = set(members[0].elements).intersection(*(K.elements for K in members))
        of_class.update(dict.fromkeys(members, (ci, len(core), G.order // len(members))))
    rows = []
    for i, H in enumerate(subs):
        ci, core_order, normalizer_order = of_class[H]
        rows.append({
            "index": i,
            "order": H.order,
            "elements": list(H.elements),
            "class": ci,
            "core_order": core_order,
            "normalizer_order": normalizer_order,
            "weyl_order": normalizer_order // H.order,
        })
    report = {
        "schema": 1,
        "group": args.group,
        "order": G.order,
        "num_subgroups": len(subs),
        "num_classes": len(classes),
        "subgroups": rows,
    }
    lines = [f"group {args.group}: order {G.order}, {len(subs)} subgroups, "
             f"{len(classes)} classes"]
    for r in rows:
        lines.append(
            f"  #{r['index']} order {r['order']} class {r['class']} "
            f"core {r['core_order']} N {r['normalizer_order']} W {r['weyl_order']}"
        )
    emit(report, args, lines)


# ---------------------------------------------------------------------------
# tower


def cmd_tower_show(args):
    T = tw.builtin_tower(args.tower, args.depth)
    lines = [f"tower {args.tower} depth {T.depth}"] + [
        f"  level {k}: order {G.order}" for k, G in enumerate(T.levels)
    ]
    # only the JSON holds the dense tables, which are bounded by TABLE_LIMIT
    emit(tw.tower_to_json(T) if args.json else None, args, lines)


# ---------------------------------------------------------------------------
# cb


def _space_tree(args) -> cb.SpaceTree:
    T = tw.builtin_tower(args.tower, args.depth)
    return tw.subgroup_space_tower(T)


def verify_rank_json(data: dict) -> list[str]:
    """Re-verify a rank certificate from its JSON alone (no recomputation)."""
    bad = []
    if data.get("schema") != 1:
        bad.append("missing schema")
    verdict = data.get("verdict")
    trace = data.get("trace", [])
    removed = [label for t in trace for label in t.get("removed", [])]
    if len(set(removed)) != len(removed):
        bad.append("a thread is removed more than once")
    if verdict == "Exact":
        if data.get("rank") != len(trace):
            bad.append("Exact rank does not match trace length")
        if any(not t.get("removed") and "note" not in t for t in trace[:-1]):
            bad.append("a derivative stage removed nothing")
    elif verdict == "Interval":
        if data.get("lo") is None or (data.get("hi") is not None
                                      and data["lo"] > data["hi"]):
            bad.append("interval bounds incoherent")
        if not any("undecided" in t for t in trace):
            bad.append("interval verdict without undecided threads")
    elif verdict == "PerfectHullDetected":
        if not trace or trace[-1].get("note") != "stage equals its derivative":
            bad.append("perfect hull verdict without fixed-point stage")
    else:
        bad.append(f"unknown verdict {verdict!r}")
    if "convention" not in data:
        bad.append("missing convention string")
    return bad


def _verify_file(args, verifier) -> None:
    """Emit the verdict of `verifier` on the JSON certificate --verify names."""
    problems = read_json_file(args.verify, "certificate", verifier, UsageError)
    emit({"schema": 1, "verified": not problems, "problems": problems},
         args, [f"verify: {'OK' if not problems else problems}"])
    if problems:
        raise UsageError("certificate failed verification")


def cmd_cb_rank(args):
    if args.verify:
        return _verify_file(args, verify_rank_json)
    cert = cb.cb_rank(_space_tree(args)).as_dict()
    lines = [f"cb rank [{cert['chain']}]: {cert['verdict']}"
             + (f"({cert['rank']})" if cert["rank"] is not None else
                f" lo={cert['lo']} hi={cert['hi']}")]
    emit(cert, args, lines)


def cmd_cb_heights(args):
    rep = cb.heights(_space_tree(args))
    data = {
        "schema": 1,
        "heights": dict(sorted(rep.heights.items())),
        "lower_bounds": dict(sorted(rep.lower_bounds.items())),
        "hull": sorted(rep.hull),
    }
    lines = [f"  {k}: {v}" for k, v in sorted(rep.heights.items())]
    emit(data, args, lines)


# ---------------------------------------------------------------------------
# burnside / span


def cmd_marks(args):
    R = bs.burnside_ring(parse_group(args.group))
    data = {
        "schema": 1,
        "group": args.group,
        "basis": [f"G/H(order {H.order})" for H in R.basis],
        "marks": R.marks,
        "unit_index": R.unit_index,
    }
    emit(data, args, [list(row) for row in R.marks])


def cmd_burnside_ring(args):
    R = bs.burnside_ring(parse_group(args.group))
    data = {
        "schema": 1,
        "group": args.group,
        "basis_orders": [H.order for H in R.basis],
        "structure": R.structure,
        "marks": R.marks,
        "unit_index": R.unit_index,
    }
    emit(data, args)


def _gset_from_json(G, data) -> FiniteGSet:
    return FiniteGSet(G, tuple(tuple(r) for r in data["act"]),
                      label=data.get("label", ""))


def _span_from_json(G, feet, data) -> bs.Span:
    apex = _gset_from_json(G, data["apex"])
    return bs.Span(feet[0], feet[1], apex, tuple(data["left"]),
                   tuple(data["right"]))


def _spans_from_json(data) -> tuple[bs.Span, bs.Span]:
    """The two spans of a span file; a foot not in "gsets" is a missing entry."""
    if data.get("schema") != 1:
        raise UsageError("span file needs schema 1")
    G = group_from_json(data["group"])
    s1d, s2d = data["spans"]
    sets = {k: _gset_from_json(G, v) for k, v in data["gsets"].items()}
    return tuple(_span_from_json(G, (sets[d["left_foot"]], sets[d["right_foot"]]), d)
                 for d in (s1d, s2d))


def cmd_span_compose(args):
    s1, s2 = read_json_file(args.file, "span", _spans_from_json, UsageError)
    try:
        comp = bs.span_compose(s1, s2)
    except bs.MiddleMismatch as e:
        raise UsageError(str(e)) from None
    canon = comp.canonical()
    out = {
        "schema": 1,
        "canonical": [[list(stab), a, b] for (stab, a, b) in canon],
        "apex_size": comp.apex.size,
    }
    emit(out, args, [f"composite apex size {comp.apex.size}",
                     f"canonical class {out['canonical']}"])


# ---------------------------------------------------------------------------
# mackey


def _parse_mackey(G, sel: str) -> mk.MackeyFunctorQ:
    if sel == "burnside":
        return mk.burnside_mackey(G)
    if sel.startswith("rep:"):
        idx = selector_number(sel[len("rep:"):])
        classes = [rep for rep, _ in mk.subgroup_conjugacy_classes(G)]
        if idx is None or idx >= len(classes):
            raise UsageError(f"rep index out of range 0..{len(classes) - 1}")
        H = classes[idx]
        return mk.representable(G, transitive_gset(G, H), name=f"rep:{idx}")
    if sel.startswith("fixedpoint:"):
        arg = sel.split(":", 1)[1]
        irrs = mk.rational_irreducibles(G)
        for V in irrs:
            if V.name == arg:
                return mk.fixed_point_functor(V)
        idx = selector_number(arg)
        if idx is not None and idx < len(irrs):
            return mk.fixed_point_functor(irrs[idx])
        raise UsageError(
            f"unknown irreducible {arg!r}; have {[V.name for V in irrs]}"
        )
    raise UsageError(f"unknown mackey selector {sel!r}")


def cmd_mackey_ext(args):
    G = parse_group(args.group)
    M = _parse_mackey(G, args.M)
    N = _parse_mackey(G, args.N)
    dim = mk.ext_mackey(M, N, args.degree)
    out = {
        "schema": 1,
        "group": args.group,
        "M": args.M,
        "N": args.N,
        "degree": args.degree,
        "dimension": dim,
    }
    emit(out, args, [f"Ext^{args.degree}({args.M},{args.N}) = {dim}"])


def cmd_mackey_hom(args):
    G = parse_group(args.group)
    M = _parse_mackey(G, args.M)
    N = _parse_mackey(G, args.N)
    dim = len(mk.hom_space(M, N))
    out = {"schema": 1, "group": args.group, "M": args.M, "N": args.N,
           "dimension": dim}
    emit(out, args, [f"dim Hom({args.M},{args.N}) = {dim}"])


# ---------------------------------------------------------------------------
# sheaf


def _parse_base(sel: str) -> sh.ConvergingBase:
    family, sep, arg = sel.partition(":")
    if family == "spzp":
        return sh.spzp_base(tw.parse_prime(arg) if sep else 2)
    raise UsageError(f"unknown base selector {sel!r}")


def _parse_sheaf(base, sel: str) -> sh.ConvSheaf:
    if sel == "const:Q":
        return sh.constant_sheaf(base, 1)
    for prefix, make in (("const:", sh.constant_sheaf), ("sky:omega:", sh.skyscraper_omega)):
        if sel.startswith(prefix):
            text = sel[len(prefix):]
            dim = selector_number(text)
            if dim is None:
                raise UsageError(f"bad dimension {text!r} in sheaf selector {sel!r}")
            return make(base, dim)
    raise UsageError(f"unknown sheaf selector {sel!r}")


def cmd_sheaf_godement(args):
    base = _parse_base(args.base)
    E = _parse_sheaf(base, args.sheaf)
    res = sh.godement_resolution(E, max_n=args.stages)
    stages = [res.stage_stalk_dims(i) for i in range(len(res.stages))]
    violations = sh.stalk_vanishing_check(res, {"isolated": 0, "omega": 1})
    out = {
        "schema": 1,
        "base": args.base,
        "sheaf": args.sheaf,
        "length": res.length,
        "stages": stages,
        "stalk_vanishing_violations": violations,
    }
    lines = [f"Godement resolution of {args.sheaf} over {args.base}: "
             f"length {res.length}"]
    for i, s in enumerate(stages):
        lines.append(f"  I{i}: {s}")
    emit(out, args, lines)


# ---------------------------------------------------------------------------
# homdim


def verify_homdim_json(data: dict) -> list[str]:
    bad = []
    if data.get("schema") != 1:
        bad.append("missing schema")
    verdict = data.get("verdict")
    lo, hi, val = data.get("lower"), data.get("upper"), data.get("value")
    if verdict == "Exact":
        if lo != hi or val != lo:
            bad.append("Exact verdict with unequal bounds")
        rc = data.get("rank_certificate") or {}
        if rc.get("verdict") != "Exact":
            bad.append("Exact verdict without an Exact rank certificate")
        elif not isinstance(rc.get("rank"), int) or hi != rc["rank"] - 1:
            bad.append("upper bound does not equal rank - 1")
        gl = data.get("godement_length")
        if gl is not None and gl != hi:
            bad.append("resolution length does not witness the upper bound")
        if (lo or 0) >= 1 and not data.get("witness"):
            bad.append("positive lower bound without extension witness")
        w = data.get("witness")
        if w is not None:
            vals = w.get("values", [])
            if all(all(x in ("0", 0) for x in v) for v in vals):
                bad.append("witness tail is zero")
        if rc:
            bad.extend(verify_rank_json(rc))
    elif verdict == "PerfectHull":
        if val is not None:
            bad.append("perfect hull certificates carry no value")
    elif verdict == "Interval":
        if lo is not None and hi is not None and lo > hi:
            bad.append("interval bounds incoherent")
    else:
        bad.append(f"unknown verdict {verdict!r}")
    return bad


def cmd_homdim_certify(args):
    if args.verify:
        return _verify_file(args, verify_homdim_json)
    cert = hd.homdim_certificate(args.setup, depth=args.depth).as_dict()
    lines = [f"homdim [{args.setup}]: {cert['verdict']}"
             + (f"({cert['value']})" if cert["value"] is not None else "")]
    lines += [f"  {t}" for t in cert["trace"]]
    emit(cert, args, lines)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true")
    common.add_argument("--tsv", action="store_true")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1)
    # argparse converts a string default with `type`, so a malformed
    # PROFMACK_DEPTH is a usage error like a malformed --depth
    common.add_argument("--depth", type=int,
                        default=os.environ.get("PROFMACK_DEPTH", "6"))

    p = argparse.ArgumentParser(prog="profmack", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}  # command name -> its subcommand table

    def leaf(command: str, name: str, func, *required: str) -> argparse.ArgumentParser:
        """The parser of `profmack command name`, which alone takes the
        common options, so that none is read before the subcommand."""
        if command not in commands:
            commands[command] = sub.add_parser(command).add_subparsers(
                dest="sub", required=True)
        lp = commands[command].add_parser(name, parents=[common])
        lp.set_defaults(func=func)
        for opt in required:
            lp.add_argument(opt, required=True)
        return lp

    leaf("group", "info", cmd_group_info, "--group")
    leaf("tower", "show", cmd_tower_show, "--tower")
    cr = leaf("cb", "rank", cmd_cb_rank)
    cr.add_argument("--tower", default="pro_p:2")
    cr.add_argument("--verify", metavar="FILE")
    leaf("cb", "heights", cmd_cb_heights).add_argument("--tower", default="pro_p:2")
    leaf("burnside", "marks", cmd_marks, "--group")
    leaf("burnside", "ring", cmd_burnside_ring, "--group")
    leaf("span", "compose", cmd_span_compose, "--file")
    leaf("mackey", "ext", cmd_mackey_ext, "--group", "--M", "--N").add_argument(
        "--degree", type=int, default=1)
    leaf("mackey", "hom", cmd_mackey_hom, "--group", "--M", "--N")
    fg = leaf("sheaf", "godement", cmd_sheaf_godement)
    fg.add_argument("--base", default="spzp:2")
    fg.add_argument("--sheaf", default="const:Q")
    fg.add_argument("--stages", type=int, default=3)
    hc = leaf("homdim", "certify", cmd_homdim_certify)
    hc.add_argument("--setup", default="spzp-weyl")
    hc.add_argument("--verify", metavar="FILE")
    return p


@functools.lru_cache(maxsize=1)
def _parser(depth_default: str | None) -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and then once per
    value of PROFMACK_DEPTH, the one input it reads besides its arguments."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser(os.environ.get("PROFMACK_DEPTH"))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        for count in ("depth", "degree", "stages"):
            if getattr(args, count, 0) < 0:
                raise UsageError(f"--{count} must be non-negative")
        args.func(args)
    except (UsageError, UnknownFamily) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (cb.DepthExhausted, CapacityError, hd.ResolutionUnavailable,
            sh.NonPeriodicTail) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
