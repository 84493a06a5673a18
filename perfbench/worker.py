"""One pass of one workload, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1 --src DIR --t0 T [--setup-only]

``--src`` holds the copy of the profmack package to import; run.py makes a
fresh one without bytecode for every pass.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so ``setup_s`` covers interpreter start, ``import profmack``
(compiled from source) and building the op list.  Times are rescaled to the
reference CPU speed (speed.py); the raw ones are kept beside them.  The pass
result is one JSON object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layers that must carry at least half of a workload's traced wall time.
DESIGNATED = {
    "ext_battery": ("linalg",),
    "hom_audit": ("linalg",),
    "span_algebra": ("burnside", "gsets"),
    "tower_cli": ("groups", "tower"),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    probe = SpeedProbe()
    probe.start()

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import profmack._kernels
    import workloads
    from tracer import Tracer

    if not os.path.abspath(profmack.__file__).startswith(src + os.sep):
        print(f"profmack imported from {profmack.__file__}, not {src}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = workloads.build(args.workload, args.seed, workdir)
        tracer = Tracer(probe) if args.trace else None
        if tracer:
            tracer.install()
        start = time.monotonic()
        setup = probe.scaled(args.t0, start)
        if args.setup_only:
            probe.stop()
            print(json.dumps({"setup_s": setup[1], "setup_raw_s": setup[0]}))
            return 0

        status, problems, op_s = {}, {}, {}
        for op in ops:
            t = time.monotonic()
            try:
                found = op.run()
                status[op.name] = "failed" if found else "ok"
                if found:
                    problems[op.name] = found
            except workloads.KnownDefect as e:
                status[op.name] = "defect"
                problems[op.name] = [str(e)]
            except Exception:
                status[op.name] = "failed"
                problems[op.name] = [traceback.format_exc(limit=3)]
            end = time.monotonic()
            op_s[op.name] = probe.scaled(t, end)
        probe.stop()

    result = {
        "setup_s": setup[1],
        "setup_raw_s": setup[0],
        "wall_s": sum(v[1] for v in op_s.values()),
        "wall_raw_s": sum(v[0] for v in op_s.values()),
        "op_max_s": max(v[1] for v in op_s.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "status": status,
        "op_s": op_s,
        "problems": problems,
        "numba_enabled": profmack._kernels.HAVE_NUMBA,
        "probe_median_s": statistics.median(probe.durations),
    }
    if tracer:
        layers = DESIGNATED[args.workload]
        result["layers"] = layers
        result["layer_share"] = tracer.layer_self_s(layers) / result["wall_raw_s"]
        # raw, like the self times it is compared with
        result["per_layer"] = tracer.metrics(result["wall_raw_s"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
