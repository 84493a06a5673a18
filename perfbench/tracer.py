"""Per-layer tracing of profmack from outside the library.

``Tracer.install()`` replaces each function in ``TARGETS`` under every
profmack module name bound to it (``span_compose`` is bound in burnside and
mackey, ``cb_rank`` in cbrank and homdim, ...), and methods on their class,
with a wrapper that records calls, self time and exceptions leaving the layer.
A function's layer is the module that defines it, whatever module calls it.

Self time is a span's duration minus the part of it that child spans cover
and minus the time spent in speed probes (speed.py) that fired inside it.
Work counts are computed outside a span's timed interval, and the parent
span treats that counting time as covered by the child, so counting is
charged to no layer: it shows only as tracing overhead in the traced wall
time.
"""

from __future__ import annotations

import functools
import io
import sys
import time

# layer -> wrapped functions: an attribute of the defining module, or
# (metric name, attribute path) where the two differ
TARGETS = {
    "linalg": ["matvec", "matmul", "rref", "nullspace", "solve", "in_span"],
    "mackey": ["representable", "fixed_point_functor", "free_cover",
               "kernel_functor", ("hom_complex_diff", "_hom_complex_diff"),
               "projective_resolution", "ext_mackey", "hom_space"],
    "burnside": ["span_compose", "decompose_span", ("canonical", "Span.canonical"),
                 "hom_basis", "component_span", "burnside_ring"],
    "gsets": [("gset_init", "FiniteGSet.__init__"), "transitive_gset",
              ("orbits", "FiniteGSet.orbits")],
    "groups": ["all_subgroups", "subgroup", "subgroup_conjugacy_classes",
               "conjugate_subgroup", "closure_set"],
    "tower": ["builtin_tower", "subgroup_space_tower"],
    "cbrank": ["cb_rank", "heights"],
    "sheaf": ["godement_resolution", "hom_fin", "hom_conv"],
    "homdim": ["homdim_certificate", "nonsplit_extension", "mackey_to_weylsheaf",
               "phi_exact_on_ses"],
    "cli": ["main", "verify_rank_json", "verify_homdim_json"],
    "kernels": ["closure", "orbit_labels"],
}

# Metric names must start with a letter, so layer "kernels" is profmack._kernels.
MODULE_OF = {layer: f"profmack.{'_kernels' if layer == 'kernels' else layer}"
             for layer in TARGETS}


def _nnz(a) -> int:
    return sum(1 for row in a for x in row if x)


def _cells(a) -> int:
    return len(a) * (len(a[0]) if a else 0)


def _resolution_dims(res) -> dict:
    out = {}
    for j, cov in enumerate(res.covers[:3]):
        P = cov.functor
        out[f"mackey.resolution.p{j}_dim"] = sum(P.dim(H) for H in P.subs)
    return out


def _hom_unknowns(M, N) -> int:
    return sum(N.dim(H) * M.dim(H) for H in M.subs)


def _stdout_bytes() -> int:
    out = sys.stdout
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


# Work counts, keyed by wrapped function.  A "pre" counter reads the
# arguments before the call, a "post" counter reads the result after it.
PRE = {
    "linalg.matvec": lambda a, k: {"linalg.matvec.cells": _cells(a[0]),
                                   "linalg.matvec.nnz": _nnz(a[0])},
    "linalg.rref": lambda a, k: {"linalg.rref.cells": _cells(a[0]),
                                 "linalg.rref.nnz": _nnz(a[0])},
    "mackey.hom_space": lambda a, k: {"mackey.hom_space.unknowns": _hom_unknowns(*a[:2])},
}
POST = {
    "mackey.projective_resolution": lambda out: _resolution_dims(out),
    "burnside.span_compose": lambda out: {"burnside.span_compose.apex_size": out.apex.size},
    "groups.subgroup": lambda out: {"groups.subgroup.pairs": out.order ** 2},
    "tower.subgroup_space_tower": lambda out: {"tower.threads": out.top_size},
    "cli.main": lambda out: {"cli.stdout_bytes": _stdout_bytes()},
}
COUNTS = ["linalg.matvec.cells", "linalg.matvec.nnz", "linalg.rref.cells",
          "linalg.rref.nnz", "mackey.resolution.p0_dim", "mackey.resolution.p1_dim",
          "mackey.resolution.p2_dim", "mackey.hom_space.unknowns",
          "burnside.span_compose.apex_size", "groups.subgroup.pairs",
          "tower.threads", "cli.stdout_bytes"]


def functions() -> list[tuple[str, str, str]]:
    """(layer, metric key, attribute path) of every wrapped function."""
    out = []
    for layer, names in TARGETS.items():
        for entry in names:
            name, attr = entry if isinstance(entry, tuple) else (entry, entry)
            out.append((layer, f"{layer}.{name}", attr))
    return out


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for _, key, _ in functions():
        names += [f"{key}.calls", f"{key}.self_s"]
    names += [f"{layer}.errors" for layer in TARGETS]
    return names + COUNTS + ["trace.wall_s"]


class Tracer:
    def __init__(self, probe):
        self.probe = probe
        self.calls = {key: 0 for _, key, _ in functions()}
        self.self_s = {key: 0.0 for _, key, _ in functions()}
        self.errors = {layer: 0 for layer in TARGETS}
        self.counts = {name: 0 for name in COUNTS}
        # one [covered time, layer] entry per open span; the bottom entry
        # stands for the benchmark code that calls into the library
        self._stack: list[list] = [[0.0, None]]

    def install(self) -> None:
        """Wrap every target under each name bound to it in profmack."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "profmack" or name.startswith("profmack.")]
        for layer, key, attr in functions():
            home = sys.modules[MODULE_OF[layer]]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(cls.__dict__[meth], layer, key))
                continue
            fn = getattr(home, attr)
            wrapper = self._wrap(fn, layer, key)
            for mod in modules:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, name, wrapper)

    def _wrap(self, fn, layer: str, key: str):
        clock = time.monotonic
        stack = self._stack
        probe = self.probe
        calls, self_s, errors, counts = self.calls, self.self_s, self.errors, self.counts
        pre, post = PRE.get(key), POST.get(key)

        def add(found: dict) -> None:
            for name, v in found.items():
                counts[name] += v

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in, p_in = clock(), probe.total
            caller = stack[-1]
            try:
                if pre:
                    add(pre(args, kwargs))
                frame = [0.0, layer]
                stack.append(frame)
                t0, p0 = clock(), probe.total
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    if caller[1] != layer:
                        errors[layer] += 1
                    raise
                finally:
                    t1 = clock()
                    stack.pop()
                    self_s[key] += t1 - t0 - (probe.total - p0) - frame[0]
                    calls[key] += 1
                if post:
                    add(post(out))
                return out
            finally:
                caller[0] += clock() - t_in - (probe.total - p_in)

        return wrapper

    def layer_self_s(self, layers) -> float:
        return sum(v for key, v in self.self_s.items() if key.split(".")[0] in layers)

    def metrics(self, wall_s: float) -> dict:
        values = {}
        for key in self.calls:
            values[f"{key}.calls"] = self.calls[key]
            values[f"{key}.self_s"] = self.self_s[key]
        values.update({f"{layer}.errors": n for layer, n in self.errors.items()})
        values.update(self.counts)
        values["trace.wall_s"] = wall_s
        return values
