#!/usr/bin/env python3
"""partlab benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload exact-oracles --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; partlab is imported from its
``src/`` directory, never from an installed copy.  The run

1. starts SETUP_SAMPLES fresh interpreters, one after another, that each
   import partlab and prepare the workload, and takes the median time
   from start to ready as ``setup_s``;
2. imports and prepares the workload itself;
3. runs whole rounds of the workload's operation list until the next
   round would end after ``--seconds`` (and at least enough rounds for
   MIN_OPS operations), timing each operation alone and checking every
   output after the round;
4. prints one JSON object as its last line: the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--selftest`` runs perfbench/selftest.py instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("exact-oracles", "sampling-mc", "walks-gp")

#: Fresh interpreters timed per run for setup_s.
SETUP_SAMPLES = 3
#: op_tail_ms is this percentile of operation latency ...
TAIL_PERCENTILE = 95
#: ... and every run times at least this many operations, so that at
#: least ten lie beyond it.
MIN_OPS = 200
#: A setup child that is not ready within this many seconds is an error.
SETUP_TIMEOUT = 60


def import_partlab():
    """Import partlab from the checkout's src/ and return its modules."""
    if not (SRC / "partlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no partlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import partlab
    from partlab import cli, counting, gaussian, partitions, sampling, stats, walks
    from partlab.rng import RandomStream

    if Path(partlab.__file__).resolve().parent != SRC / "partlab":
        raise SystemExit(f"error: partlab imported from {partlab.__file__}, not {SRC}")
    return types.SimpleNamespace(
        partlab=partlab, cli=cli, counting=counting, gaussian=gaussian,
        partitions=partitions, sampling=sampling, stats=stats, walks=walks,
        RandomStream=RandomStream)


def setup_child(workload, seed):
    """Import and prepare as a run would, report the stage times, exit."""
    t0 = time.perf_counter()
    pl = import_partlab()
    t1 = time.perf_counter()
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workloads.prepare(workload, seed, pl, Path(tmp))
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "prepare_s": t2 - t1}), flush=True)


def measure_setup(workload, seed):
    """Median start-to-ready time and median import time of fresh
    interpreters that import partlab and prepare the workload."""
    totals = []
    imports = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                ready = time.perf_counter() - t0
                child.wait(timeout=SETUP_TIMEOUT)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if child.returncode != 0 or not line:
            raise SystemExit(f"error: setup child exited with {child.returncode}")
        totals.append(ready)
        imports.append(json.loads(line)["import_s"])
    return statistics.median(totals), statistics.median(imports)


def digest(value):
    return hashlib.sha256(pickle.dumps(value, protocol=4)).hexdigest()


def run_round(ops, latencies, failures, digests):
    """Time every operation once, then check every output.  Returns the
    round's summed operation time, its number of failed operations and
    how many of those failed other than on a known program fault."""
    results = {}
    errors = {}
    spent = 0.0
    for op in ops:
        t0 = time.perf_counter()
        try:
            value = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            value = None
            errors[op.name] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        spent += dt
        latencies.append(dt)
        if op.name not in errors:
            results[op.name] = value
    failed = unexpected = 0
    for op in ops:
        reason = errors.get(op.name)
        if reason is None:
            value = results[op.name]
            reason = op.check(value, results)
            if reason is None:
                # same inputs every round, so the output must repeat
                d = digest(value)
                if digests.setdefault(op.name, d) != d:
                    reason = "output differs from the first round on the same inputs"
        if reason is not None:
            failed += 1
            unexpected += not op.known_fault
            if len(failures) < 20:
                failures[f"{op.name}: {reason}"] = None
    return spent, failed, unexpected


def nearest_rank(values, percentile):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100 * len(ordered)) - 1)]


def main(argv=None):
    ap = argparse.ArgumentParser(description="partlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true",
                    help="show that every check rejects a wrong value")
    args = ap.parse_args(argv)

    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    setup_s, import_s = measure_setup(args.workload, args.seed)
    pl = import_partlab()
    import layers
    import workloads

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ops = workloads.prepare(args.workload, args.seed, pl, Path(tmp))
        min_rounds = math.ceil(MIN_OPS / len(ops))
        tracer = layers.Tracer(pl) if args.trace else None
        latencies, failures, digests = [], {}, {}
        round_times, layer_rounds = [], []
        failed = unexpected = rounds = 0
        start = time.perf_counter()
        try:
            while True:
                before = tracer.snapshot() if tracer else None
                r0 = time.perf_counter()
                spent, bad, unknown = run_round(ops, latencies, failures, digests)
                wall = time.perf_counter() - r0
                if tracer:
                    layer_rounds.append(layers.round_metrics(before, tracer.snapshot()))
                round_times.append(spent)
                failed += bad
                unexpected += unknown
                rounds += 1
                elapsed = time.perf_counter() - start
                if rounds >= min_rounds and elapsed + wall > args.seconds:
                    break
        finally:
            if tracer:
                tracer.uninstall()

    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace:
        values = layers.per_layer(layer_rounds, import_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.PER_LAYER}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": nearest_rank(latencies, TAIL_PERCENTILE) * 1e3,
                           "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"{args.workload}: {rounds} rounds of {len(ops)} operations, "
          f"{len(latencies)} timed, {failed} failed, "
          f"median round {statistics.median(round_times):.4f} s", file=sys.stderr)
    print(json.dumps({"correct": unexpected == 0, "attempted": len(latencies),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
