"""One benchmark process: set up a workload, time it, check it.

Started by run.py in a fresh interpreter.  It prints "ready" as soon as the
package is imported and the inputs are generated (run.py times set-up from
process start to that line), then, unless --setup-only, runs the timed
passes, checks every output outside the timed region and prints one JSON
line with its results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import eulerflags  # noqa: E402

if Path(eulerflags.__file__).resolve().parent != ROOT / "src" / "eulerflags":
    sys.exit(f"eulerflags imported from {eulerflags.__file__}, not from {ROOT / 'src'}")

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def run_passes(items, seconds, force_passes=None):
    """Whole passes over items in a closed loop: at least one, then more
    while the next is predicted to end within `seconds`.  Returns the
    per-pass outputs and per-item latencies in ns."""
    outputs, lat = [], []
    t0 = perf_counter()
    while True:
        outs = []
        for it in items:
            a = perf_counter_ns()
            try:
                out = it.run(it.arg)
            except Exception as exc:        # a raising item counts as failed
                out = exc
            lat.append(perf_counter_ns() - a)
            outs.append(out)
        outputs.append(outs)
        done = perf_counter() - t0
        if force_passes is not None:
            if len(outputs) >= force_passes:
                return outputs, lat, done
        elif done * (len(outputs) + 1) / len(outputs) > seconds:
            return outputs, lat, done


def check(work, outputs):
    """Failure messages per item index of the first pass; later passes must
    repeat the first exactly."""
    first = outputs[0]
    errors = {}
    for i, (it, out) in enumerate(zip(work.items, first)):
        if isinstance(out, Exception):
            errors[i] = f"raised {out!r}"
            continue
        try:
            msg = it.check(out)
        except Exception as exc:
            msg = f"check raised {exc!r}"
        if msg:
            errors[i] = msg
    for idx, fn in work.pooled_checks:
        try:
            msg = fn([first[i] for i in idx])
        except Exception as exc:
            msg = f"pooled check raised {exc!r}"
        if msg:
            for i in idx:
                errors.setdefault(i, msg)
    failed = len(errors) * len(outputs)
    for later in outputs[1:]:
        failed += sum(1 for i, (a, b) in enumerate(zip(first, later))
                      if i not in errors and (isinstance(b, Exception) or a != b))
    return errors, failed


def calibrate():
    """Median seconds of five runs of a fixed Fraction loop, the kind of
    arithmetic the workloads spend their time in."""
    times = []
    for _ in range(5):
        t = perf_counter()
        for _ in range(40):
            x = Fraction(1)
            for i in range(1, 200):
                x = x * Fraction(i, i + 7) + Fraction(1, i)
        times.append(perf_counter() - t)
    return statistics.median(times)


def digest(work):
    blob = json.dumps(work.digest_parts, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def latency_stats(items, lat_ns):
    ms = [x / 1e6 for x in lat_ns]
    by_kind = {}
    for k, x in zip((it.kind for it in items * (len(ms) // len(items))), ms):
        c = by_kind.setdefault(k, [0, 0.0])
        c[0] += 1
        c[1] += x / 1e3
    return ms, {k: {"items": c, "seconds": round(s, 6)}
                for k, (c, s) in sorted(by_kind.items())}


def end_to_end(work, outputs, lat_ns, rss_mb, errors, failed):
    ms, by_kind = latency_stats(work.items, lat_ns)
    per_item = [b for b in map(workloads.exact_bits, outputs[0]) if b is not None]
    attempted = len(ms)
    metrics = {
        "items_per_s": (attempted / (sum(ms) / 1e3), "1/s"),
        "item_p50_ms": (statistics.median(ms), "ms"),
        "item_p90_ms": (statistics.quantiles(ms, n=10)[8], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "pass_ratio": (1 - failed / attempted, "1"),
        "out_bits_max": (statistics.median(per_item), "bits"),
    }
    record = {"attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "passes": len(outputs),
              "items_per_pass": len(work.items),
              "out_bits_max_overall": max(per_item),
              "by_kind": by_kind,
              "errors": {str(i): m for i, m in sorted(errors.items())[:20]}}
    return metrics, record


def per_layer(tracer, work, outputs, spans, untraced_s, traced_s):
    summ = tracer.summary()
    calls = lambda k: summ.get(k, (0, 0.0))[0]
    self_s = lambda k: summ.get(k, (0, 0.0))[1]
    layer_self = {l: sum(s for k, (_, s) in summ.items() if k.startswith(l + "."))
                  for l in LAYERS}
    retries = sum(out[3] for it, out in zip(work.items, outputs[0])
                  if it.kind.endswith((".smillie", ".sullivan", ".section"))
                  and isinstance(out, tuple))
    ests = [out for it, out in zip(work.items, outputs[0])
            if it.kind.startswith("itu.") and not isinstance(out, Exception)]
    metrics = {}
    for name in ("linalg.det_sign_int", "linalg.det", "linalg.mat_inv",
                 "flags.bracket_selections", "cocycles.smi"):
        metrics[name + ".calls"] = (calls(name), "count")
    for name in ("linalg.det_sign_int", "linalg.det", "linalg.mat_inv",
                 "linalg.mat_mul", "flags.realize_points", "cocycles.smi",
                 "cocycles.coc", "simplicial.validate",
                 "simplicial.euler_number", "surfaces.genus_surface_bundle",
                 "circle.euler_number_oracle", "montecarlo.itu_estimate",
                 "serialize.load_bundle", "cli.main"):
        metrics[name + ".self_s"] = (self_s(name), "s")
    for l in LAYERS:
        metrics[l + ".self_s"] = (layer_self[l], "s")
    metrics["simplicial.nongeneric_retries"] = (retries, "count")
    metrics["montecarlo.resampled_ratio"] = (
        sum(e.resampled for e in ests) / sum(e.samples for e in ests) if ests else 0.0, "1")
    metrics["trace_overhead_ratio"] = (traced_s / untraced_s - 1, "1")

    # det_sign_int calls inside each n = 4 naive deflation item
    det_id = tracer.names.index("linalg.det_sign_int")
    ids = tracer.name_id
    naive4 = [sum(1 for k in range(lo, hi) if ids[k] == det_id)
              for it, (lo, hi) in zip(work.items, spans) if it.kind == "n4"
              and work.name == "deflation"]
    record = {"calls": {k: c for k, (c, _) in sorted(summ.items())},
              "self_s": {k: round(s, 6) for k, (_, s) in sorted(summ.items())},
              "det_sign_int_per_naive_n4": naive4, "spans": len(tracer)}
    errors = [f"n = 4 naive coc made {c} det_sign_int calls, not 327680"
              for c in naive4 if c != 327_680]
    return metrics, record, errors


def traced_pass(work, tracer):
    """One traced pass; returns outputs, span ranges per item and wall."""
    outs, spans = [], []
    tracer.install()
    try:
        t0 = perf_counter()
        for it in work.items:
            lo = len(tracer)
            try:
                out = it.run(it.arg)
            except Exception as exc:
                out = exc
            outs.append(out)
            spans.append((lo, len(tracer)))
        wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    return outs, spans, wall


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out", help="directory for the span file")
    args = p.parse_args()
    if sys.flags.optimize:
        sys.exit("assertions are disabled (-O); the library's invariants "
                 "would not run")

    work = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy

    result = {"digest": digest(work), "numpy": numpy.__version__,
              "calibration_before_s": calibrate()}
    if args.trace:
        # untraced, traced, untraced: the mean of the two untraced walls
        # cancels a first-pass warm-up from the overhead ratio
        outputs, _, before_s = run_passes(work.items, args.seconds, force_passes=1)
        tracer = Tracer()
        traced_outs, spans, traced_s = traced_pass(work, tracer)
        after, _, after_s = run_passes(work.items, args.seconds, force_passes=1)
        outputs += [traced_outs] + after
        untraced_s = (before_s + after_s) / 2
        result["calibration_after_s"] = calibrate()
        errors, failed = check(work, outputs)
        metrics, record, trace_errors = per_layer(tracer, work, outputs, spans,
                                                  untraced_s, traced_s)
        if args.out:
            tracer.save(os.path.join(args.out, f"spans-{args.workload}-{args.seed}.npz"))
        failed += len(trace_errors)
        record["errors"] = trace_errors + [f"item {i}: {m}" for i, m
                                           in sorted(errors.items())[:20]]
        attempted = len(outputs) * len(work.items)
    else:
        outputs, lat, wall = run_passes(work.items, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["calibration_after_s"] = calibrate()
        result["timed_wall_s"] = wall
        errors, failed = check(work, outputs)
        metrics, record = end_to_end(work, outputs, lat, rss_mb, errors, failed)
        attempted = record["attempted"]
    result.update(record)
    result.update(attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
