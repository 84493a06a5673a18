"""profmack benchmark: named workloads timed end to end, or split by layer.

    python3 perfbench/run.py --workload ext_battery --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one single-threaded process issues its ops
back to back, with no queue and no concurrency.  Every pass of a workload
runs in a fresh process (worker.py), so no cache carries over between passes.

With ``--trace 0`` the run first times ``SETUP_SAMPLES`` processes that only
set up, then runs whole passes while the next one still fits in
``--seconds`` (always at least one), and reports the end-to-end metrics as
medians over passes, with times rescaled to a reference CPU speed
(speed.py).  With ``--trace 1`` it runs one pass with every layer
wrapped (tracer.py) and reports the per-layer metrics; the run fails its
check if the workload's designated layers carry less than half of the wall
time, or if a function called in baseline.json is no longer called.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "profmack")
BASELINE = os.path.join(HERE, "baseline.json")
sys.path.insert(0, HERE)

from tracer import metric_names  # noqa: E402

WORKLOADS = ("ext_battery", "hom_audit", "span_algebra", "tower_cli")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def child_env() -> dict:
    """Single-threaded, deterministic environment for a worker process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "PROFMACK_DEPTH"}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NUMBA_NUM_THREADS="1")
    return env


def run_worker(workload: str, seed: int, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a pass")
    try:
        # A copy of the package without bytecode: every worker compiles
        # profmack from source, whatever __pycache__ the tree holds.
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as src:
            shutil.copytree(PACKAGE, os.path.join(src, "profmack"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            t0 = time.monotonic()
            cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
                   "--trace", str(trace), "--src", src, "--t0", repr(t0)]
            if setup_only:
                cmd.append("--setup-only")
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass did not end within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def environment(seed: int, passes: list[dict]) -> dict:
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numba_enabled": passes[0]["numba_enabled"],
        "PROFMACK_NO_NUMBA": os.environ.get("PROFMACK_NO_NUMBA"),
        "nproc": os.cpu_count(),
        "seed": seed,
        "passes": len(passes),
    }


def tally(passes: list[dict]) -> tuple[int, int, int]:
    """(attempted, answered correctly, failed unexpectedly) over all passes."""
    statuses = [s for p in passes for s in p["status"].values()]
    return len(statuses), statuses.count("ok"), statuses.count("failed")


def measure(workload: str, seed: int, seconds: int, deadline: float):
    start = time.monotonic()
    setups = [run_worker(workload, seed, 0, deadline, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    passes = [run_worker(workload, seed, 0, deadline)]
    while time.monotonic() - start + passes[-1]["elapsed_s"] <= seconds:
        passes.append(run_worker(workload, seed, 0, deadline))
    setups += [p["setup_s"] for p in passes]
    attempted, ok, _ = tally(passes)

    def median(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "wall_s": (median("wall_s"), "s"),
        "op_max_s": (median("op_max_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "ok_frac": (ok / attempted, "ratio"),
    }
    for key in ("wall_raw_s", "setup_raw_s", "probe_median_s"):
        print(f"{workload}: {key} = {median(key):.6g} s (not rescaled)", file=sys.stderr)
    return passes, metrics, []


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def traced(workload: str, seed: int, deadline: float):
    p = run_worker(workload, seed, 1, deadline)
    problems = []
    if p["layer_share"] < 0.5:
        problems.append(f"layers {'+'.join(p['layers'])} carry {p['layer_share']:.0%} "
                        "of the traced wall time, under half")
    with open(BASELINE) as fh:
        base = json.load(fh)["workloads"].get(workload, {}).get("per_layer", {})
    problems += [f"{name} is 0, baseline {base[name]}" for name in base
                 if name.endswith(".calls") and base[name] and not p["per_layer"][name]]
    metrics = {name: (p["per_layer"][name], unit(name)) for name in metric_names()}
    return [p], metrics, problems


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    if trace:
        passes, metrics, problems = traced(workload, seed, deadline)
    else:
        passes, metrics, problems = measure(workload, seed, seconds, deadline)
    attempted, _, failed = tally(passes)
    for line in problems:
        print(f"{workload}: self-check: {line}", file=sys.stderr)
    for p in passes:
        for op, found in p["problems"].items():
            for line in found:
                print(f"{workload}: {op} [{p['status'][op]}]: {line}", file=sys.stderr)
    for name, (value, u) in metrics.items():
        print(f"{workload}: {name} = {value:.6g} {u}", file=sys.stderr)
    print(json.dumps({"environment": environment(seed, passes)}))
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not os.path.isdir(PACKAGE):
        print(f"error: no profmack package at {PACKAGE}", file=sys.stderr)
        return 1
    try:
        for name in names:
            print(json.dumps(run(name, args.seed, args.seconds, args.trace)), flush=True)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
