"""taurank benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload hereditary-scan --seed 42 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The same result, with
the environment it was measured in, goes to .bench_out/BENCH_<workload>.json
(.trace.json for --trace 1).  --smoke runs every workload on a few items
in both modes and checks the result format and the correctness gate.

Each measurement runs in fresh worker processes (worker.py), one at a
time, with the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUPS = 5  # setup_s is the median of this many cold set-ups
TIME_LIMIT_S = 170.0
SMOKE_LIMIT = 4
DEFAULT_SEED = 42  # workloads.DEFAULT_SEED: the seed whose pass-0 outputs reference.json pins


class BenchError(RuntimeError):
    pass


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, deadline):
    """Run worker.py with `args`; (start time, its JSON result)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    return t0, json.loads(lines[-1])


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 of the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "taurank")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared(trace):
    return spec()["per_layer" if trace else "end_to_end"]


def run_benchmark(workload, seed, seconds, trace, limit=0, setups=SETUPS):
    """One benchmark run; (printed result, detail record)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "taurank", "__init__.py")):
        raise BenchError("no taurank sources under src/")
    deadline = monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--limit", str(limit)]
    os.makedirs(OUT_DIR, exist_ok=True)
    if trace:
        spans = os.path.join(OUT_DIR, f"spans-{workload}.json.gz")
        _, out = spawn(common + ["--mode", "trace", "--spans", spans], deadline)
        values = out["metrics"]
        correct = out["failed"] == 0 and out["self_check_ok"]
    else:
        raw_setup, setup = [], []
        for i in range(setups):
            mode = ["--mode", "measure", "--seconds", str(seconds)] if i == setups - 1 \
                else ["--mode", "setup"]
            before = hostspeed.probe()
            t0, out = spawn(common + mode, deadline)
            raw_setup.append(out["ready"] - t0)
            setup.append(raw_setup[-1] * hostspeed.factor(before, out["ready_probe"]))
        out["raw_setup_s"] = raw_setup
        values = {
            "items_per_s": out["items_per_s"],
            "item_p50_ms": out["item_p50_ms"],
            "item_p95_ms": out["item_p95_ms"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": out["peak_rss_mb"],
            "passed_share": (out["attempted"] - out["failed"]) / out["attempted"],
            "certified_share": out["certified"] / out["levels"],
        }
        correct = out["failed"] == 0
    try:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared(trace)}
    except KeyError as exc:
        raise BenchError(f"the worker reported no value for metric {exc}") from exc
    result = {"correct": correct, "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    detail = {
        "result": result,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "limit": limit,
        "environment": {
            "python": out["python"],
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
        },
        "worker": {k: v for k, v in out.items() if k != "metrics"},
        "all_values": values,
    }
    suffix = ".trace.json" if trace else ".json"
    with open(os.path.join(OUT_DIR, f"BENCH_{workload}{suffix}"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return result, detail


def smoke():
    """Every workload on a few items, in both modes: the result has exactly
    the declared metrics with their units, and the gate passes."""
    for name in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            result, detail = run_benchmark(name, DEFAULT_SEED, 0.2, trace,
                                           limit=SMOKE_LIMIT, setups=2)
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]]
            if bad:
                problems.append(f"metrics without a numeric value: {bad}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"gate: {detail['worker'].get('failures')} "
                                f"{detail['worker'].get('self_check')}")
            print(f"smoke {name} trace={trace}: {'ok' if not problems else problems}",
                  file=sys.stderr)
            if problems:
                raise BenchError(f"smoke {name} trace={trace} failed")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            smoke()
            print("smoke ok")
            return 0
        if not args.workload:
            ap.error("--workload is required")
        result, _ = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
