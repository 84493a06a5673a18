"""Record the traced baseline that run.py's self-check compares against.

    python3 perfbench/make_baseline.py

For each workload this runs ``PASSES`` pairs of one untraced and one traced
pass on seed ``SEED`` and writes baseline.json: the per-layer metrics of the
median traced pass (raw times, as the tracer measures them), the share of
raw wall time in the workload's designated layers, and the tracing overhead:
the median over pairs of traced minus untraced wall_s, both rescaled to the
reference CPU speed.  An overhead that is not above zero is lost in noise
and is recorded as null.  Regenerating the file is a change to the
benchmark, made on its own.
"""

from __future__ import annotations

import json
import platform
import statistics
import time

from run import BASELINE, WORKLOADS, environment, run_worker

SEED = 1
PASSES = 3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> None:
    out = {"workloads": {}}
    for w in WORKLOADS:
        deadline = time.monotonic() + 900
        plain, traced = [], []
        for _ in range(PASSES):
            plain.append(run_worker(w, SEED, 0, deadline))
            traced.append(run_worker(w, SEED, 1, deadline))
        overhead = statistics.median(t["wall_s"] - p["wall_s"]
                                     for p, t in zip(plain, traced))
        tr = sorted(traced, key=lambda p: p["wall_s"])[PASSES // 2]
        out["workloads"][w] = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "traced_wall_s": statistics.median(p["wall_s"] for p in traced),
            "overhead_s": overhead if overhead > 0 else None,
            "layers": tr["layers"],
            "layer_share": tr["layer_share"],
            "per_layer": tr["per_layer"],
        }
        print(f"{w}: traced {tr['wall_s']:.2f} s, overhead {overhead:+.2f} s, "
              f"{'+'.join(tr['layers'])} {tr['layer_share']:.0%}", flush=True)
    out["environment"] = dict(environment(SEED, plain), cpu=cpu_model())
    del out["environment"]["passes"]
    with open(BASELINE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
