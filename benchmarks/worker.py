"""One benchmark process: set a workload up, run it, gate its outputs.

run.py starts this script in a fresh interpreter with the checkout's src/
on PYTHONPATH, so process-level caches start cold, as they do for a CLI
user.  Modes:

  setup    set up, print the time set-up ended, exit
  measure  set up, run items for --seconds of item time, gate the outputs
  trace    set up, run one pass untraced and one traced, gate both and
           compare them

The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

import hostspeed

WINDOW_S = 0.2  # item time between two host-speed probes


def monotonic():
    # CLOCK_MONOTONIC is system-wide on Linux, so run.py can compare it
    # with the time it started this process.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--limit", type=int, default=0, help="items per pass; 0 for all")
    ap.add_argument("--spans", help="gzip JSON file for the traced spans")
    return ap.parse_args(argv)


class Run:
    """Inputs and gate of one workload at one seed."""

    def __init__(self, workload, seed, limit):
        from workloads import DEFAULT_SEED, Bounds

        self.w = workload
        self.seed = seed
        self.limit = limit
        self.field = workload.field
        self.pass_seeds = []
        self.bounds = Bounds()
        self.pinned = seed == DEFAULT_SEED
        self._reference = None

    def pass_items(self, k):
        from workloads import pass_seed

        self.pass_seeds.append(pass_seed(self.seed, k))
        items = self.w.pass_items(self.field, self.seed, k)
        return items[: self.limit] if self.limit else items

    def run_item(self, item):
        """(seconds, summary) for one item; the summary is an error string
        when the item raised.  Only `w.run` is timed."""
        t0 = time.perf_counter()
        try:
            result = self.w.run(item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            return time.perf_counter() - t0, f"raised {exc!r}"
        dt = time.perf_counter() - t0
        return dt, self.w.summarize(item, result)

    def check(self, k, key, s):
        """The gate: failure messages for the summary `s` of item `key` in
        pass `k`, compared with reference.json for pass 0 of the default seed."""
        if isinstance(s, str):
            return [f"{key}: {s}"]
        entry = None
        if self.pinned and k == 0:
            if self._reference is None:
                from workloads import load_reference

                self._reference = load_reference(self.w.name)
            entry = self._reference.get(key)
            if entry is None:
                return [f"{key}: no reference entry"]
        return [f"{key} (pass {k}): {e}" for e in self.w.check(s, entry, self.bounds)]


class HostClock:
    """Item times and their host-speed factors.  The probe runs after every
    WINDOW_S of item time; each item's factor comes from the probes just
    before and just after its window."""

    def __init__(self, first_probe):
        self.raw, self.factor = array("d"), array("d")
        self._last = first_probe
        self._window = 0.0
        self._pending = 0

    def add(self, dt):
        self.raw.append(dt)
        self._window += dt
        self._pending += 1
        if self._window >= WINDOW_S:
            self.flush()

    def flush(self):
        if self._pending:
            p = hostspeed.probe()
            self.factor.extend([hostspeed.factor(self._last, p)] * self._pending)
            self._last, self._window, self._pending = p, 0.0, 0

    def scaled(self):
        return [t * f for t, f in zip(self.raw, self.factor)]


def measure(run, items, seconds, first_probe):
    """Items in order, pass after pass, until `seconds` of item time.  Each
    summary is gated and dropped at once, so the harness holds no memory
    that grows with the item count."""
    clock = HostClock(first_probe)
    failures = []
    failed = certified = levels = 0
    busy, k = 0.0, 0
    while busy < seconds:
        for item in items:
            dt, s = run.run_item(item)
            clock.add(dt)
            busy += dt
            errors = run.check(k, run.w.key(item), s)
            failed += bool(errors)
            failures += errors[: 20 - len(failures)]
            if not isinstance(s, str):
                c, n = run.w.certified_counts(s)
                certified, levels = certified + c, levels + n
            if busy >= seconds:
                break
        else:
            k += 1
            items = run.pass_items(k)
    clock.flush()
    scaled, raw = clock.scaled(), clock.raw
    return {
        "attempted": len(raw),
        "failed": failed,
        "failures": failures,
        "passes": k + 1,
        "items_per_s": len(scaled) / sum(scaled),
        "item_p50_ms": statistics.median(scaled) * 1e3,
        "item_p95_ms": statistics.quantiles(scaled, n=20)[18] * 1e3,
        "raw_items_per_s": len(raw) / busy,
        "raw_item_p50_ms": statistics.median(raw) * 1e3,
        "raw_item_p95_ms": statistics.quantiles(raw, n=20)[18] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified": certified,
        "levels": levels,
        "durations_s": list(raw),
        "host_factors": list(clock.factor),
    }


def trace(run, items, tracer, setup_rec, spans_path, first_probe):
    """One pass untraced, then the same pass traced; the traced spans give
    the per-layer metrics, with self times scaled by host speed per item."""
    from tracer import ITEM, Recorder, layer_metrics

    untraced, plain = [], HostClock(first_probe)
    for item in items:
        dt, s = run.run_item(item)
        untraced.append(s)
        plain.add(dt)
    plain.flush()

    rec = Recorder()
    tracer.install()
    stale = tracer.stale_bindings()
    traced, clock = [], HostClock(hostspeed.probe())
    for item in items:
        tracer.rec = rec
        t0 = time.perf_counter()
        try:
            result = rec.span(ITEM, run.w.run, item)
        except Exception as exc:
            result = None
            traced.append(f"raised {exc!r}")
        dt = time.perf_counter() - t0
        tracer.rec = None  # summaries compute bounds and probes time the host: untraced
        clock.add(dt)
        if result is not None:
            traced.append(run.w.summarize(item, result))
    clock.flush()
    tracer.uninstall()
    if spans_path:
        rec.write(spans_path)

    keys = [run.w.key(item) for item in items]
    failures = []
    for key, a, b in zip(keys, untraced, traced):
        errors = run.check(0, key, b)
        if json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True):
            errors.append(f"{key}: traced output differs from untraced output")
        failures.append(errors)

    metrics = layer_metrics(rec, setup_rec, clock.factor)
    problems = [f"not rebound: {name}" for name in stale]
    per_item = rec.calls_per_item()
    for key, s, counts in zip(keys, traced, per_item):
        expected = None if isinstance(s, str) else run.w.expected_calls(s)
        for metric, n in (expected or {}).items():
            if counts[metric] != n:
                problems.append(f"{key}: {metric} called {counts[metric]} times, expected {n}")
    full_pass = not run.limit
    for metric in run.w.required_layers if full_pass else ():
        if metrics[f"{metric}.calls"] == 0:
            problems.append(f"no {metric} spans: a wrapper is not on the call path")
    traced_s, untraced_s = sum(clock.scaled()), sum(plain.scaled())
    metrics.update({
        "trace.items": len(items),
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return {
        "attempted": len(items),
        "failed": sum(1 for errors in failures if errors),
        "failures": [e for errors in failures for e in errors][:20],
        "self_check": problems[:20],
        "self_check_ok": not problems,
        "metrics": metrics,
        "raw_traced_s": sum(clock.raw),
        "raw_untraced_s": sum(plain.raw),
        "absent": {
            name: "no call on this workload's path"
            for name, value in metrics.items() if name.endswith(".calls") and value == 0
        },
    }


def main(argv=None):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import taurank

    src = os.path.join(root, "src", "taurank")
    if os.path.dirname(os.path.abspath(taurank.__file__)) != src:
        print(f"error: taurank imported from {taurank.__file__}, not {src}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    run = Run(WORKLOADS[args.workload], args.seed, args.limit)
    tracer = setup_rec = None
    if args.mode == "trace":
        from tracer import Recorder, Tracer

        tracer = Tracer()
        tracer.rec = setup_rec = Recorder()
        tracer.install()
    items = run.pass_items(0)
    if tracer is not None:
        tracer.rec = None
        tracer.uninstall()
    ready = monotonic()
    ready_probe = hostspeed.probe()

    if args.mode == "setup":
        out = {}
    elif args.mode == "measure":
        out = measure(run, items, args.seconds, ready_probe)
    else:
        out = trace(run, items, tracer, setup_rec, args.spans, ready_probe)
    out.update({
        "ready": ready,
        "ready_probe": ready_probe,
        "python": sys.version.split()[0],
        "field": run.field.name,
        "pass_seeds": run.pass_seeds,
        "items_per_pass": len(items),
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
