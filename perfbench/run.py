"""eulerflags benchmark: four seeded exact-arithmetic workloads.

    python3 perfbench/run.py --workload cochains --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up is timed SETUPS times, each in a
fresh interpreter (worker.py --setup-only) and once more in the worker that
then runs the timed passes; setup_s is the median.  --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced pass.  The
last line of standard output is one JSON object; the lines before it are
the run's record (environment, input digest, calibration probe, per-kind
latency), which is also written to perfbench/out/.  Exits 1 if any output
fails its check, 2 if the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 2
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Failed(Exception):
    pass


def spawn(args, env, deadline):
    """Start a worker, return (seconds until its "ready" line, last line)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    # killing the worker closes its stdout, which ends the read loop
    watchdog = threading.Timer(max(0.0, deadline - t0), proc.kill)
    watchdog.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if time.perf_counter() >= deadline:
        raise Failed("worker did not finish before the deadline")
    if proc.returncode != 0 or ready is None:
        raise Failed(f"worker exited with code {proc.returncode}")
    return ready, last


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(env):
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_sha": git_sha(),
            "machine": platform.machine(),
            "threads": {k: env[k] for k in THREAD_VARS}}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cochains", "deflation", "realize", "pipelines"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if sys.flags.optimize:
        print("refusing to run with assertions disabled (-O): the library's "
              "invariants are assert statements", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    env.pop("PYTHONOPTIMIZE", None)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    OUT.mkdir(exist_ok=True)
    try:
        setups = [spawn(common + ["--setup-only"], env, deadline)[0]
                  for _ in range(SETUPS)]
        ready, last = spawn(common + ["--trace", str(args.trace),
                                      "--out", str(OUT)], env, deadline)
        setups.append(ready)
        result = json.loads(last)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(env), "setup_samples_s": setups}
    except (Failed, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    metrics = result.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record.update(result)
    name = f"{args.workload}-{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record | {"metrics": metrics}, indent=1))
    print("record: " + json.dumps(record))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
