"""Per-layer timers and counters for the traced benchmark run.

The tracer wraps public partlab functions from outside: each wrapper is
bound under every name that refers to the original in any partlab module
(so ``sampling.unrank`` is traced as well as ``counting.unrank``), and
methods are wrapped on their class.  Times are inclusive.  Random-stream
calls are counted at the outermost call only, so ``exponential`` drawing
through ``uniform_open`` counts once.  The program itself carries no
tracing; ``uninstall`` restores every original.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import Counter

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("partitions.eg_calls", "count"),
    ("partitions.eg_s", "s"),
    ("partitions.hh_calls", "count"),
    ("partitions.hh_s", "s"),
    ("partitions.dominates_calls", "count"),
    ("partitions.dominates_s", "s"),
    ("counting.partitions_enumerated", "count"),
    ("counting.graphical_count_s", "s"),
    ("counting.comparable_count_s", "s"),
    ("counting.table_build_s", "s"),
    ("counting.table_cells", "count"),
    ("counting.unrank_us", "us/call"),
    ("rng.calls", "count"),
    ("rng.variates", "count"),
    ("rng.s", "s"),
    ("sampling.attempts_per_sample", "attempts/sample"),
    ("sampling.attempt_us", "us/attempt"),
    ("sampling.boltzmann_s", "s"),
    ("walks.event_path_us", "us/path"),
    ("walks.containment_path_us", "us/path"),
    ("walks.gen_walk_calls", "count"),
    ("walks.ratio_tail_path_us", "us/path"),
    ("gaussian.persistence_path_us", "us/path"),
    ("stats.kahan_calls", "count"),
    ("stats.kahan_s", "s"),
    ("cli.overhead_ms", "ms/op"),
    ("setup.import_s", "s"),
)

RNG_METHODS = ("uniform", "uniform_open", "exponential", "standard_normal",
               "gamma", "integer_below")


def _argument(fn, name):
    """Extractor of argument ``name`` from a call of ``fn``."""
    signature = inspect.signature(fn)
    return lambda args, kwargs: signature.bind(*args, **kwargs).arguments[name]


class Tracer:
    """Counters and inclusive timers keyed by layer event."""

    def __init__(self, pl):
        self.calls = Counter()
        self.secs = Counter()
        self.items = Counter()
        self._patches = []
        self._modules = [m for name, m in sorted(sys.modules.items())
                         if name == "partlab" or name.startswith("partlab.")]
        self._rng_depth = 0
        self._in_cli = False
        self._install(pl)

    def _rebind(self, original, wrapper):
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _wrap(self, module, name, key, on_result=None):
        original = getattr(module, name)
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer.secs[key] += dt
                tracer.calls[key] += 1
                if key == "estimate" and tracer._in_cli:
                    tracer.secs["cli_library"] += dt
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        self._rebind(original, wrapper)

    def _wrap_trials(self, module, name, key):
        trials = _argument(getattr(module, name), "trials")

        def on_result(args, kwargs, _):
            self.items[key + "_paths"] += trials(args, kwargs)

        self._wrap(module, name, key, on_result)

    def _wrap_method(self, cls, name, fn):
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, fn)

    def _install(self, pl):
        self._wrap(pl.partitions, "is_graphical_eg", "eg")
        self._wrap(pl.partitions, "is_graphical_hh", "hh")
        self._wrap(pl.partitions, "dominates", "dominates")

        def enumerated(args, kwargs, result):
            self.items["enumerated"] += result[1]

        self._wrap(pl.counting, "graphical_count", "graphical_count", enumerated)
        self._wrap(pl.counting, "comparable_count", "comparable_count", enumerated)
        self._wrap(pl.counting, "unrank", "unrank")

        def sampled(args, kwargs, result):
            self.items["accepted"] += len(result[0])
            self.items["attempts"] += result[1]

        self._wrap(pl.sampling, "sample_fristedt_batch", "boltzmann", sampled)
        self._wrap(pl.sampling, "estimate_p_mc", "estimate")
        self._wrap(pl.sampling, "estimate_r_mc", "estimate")
        self._wrap_trials(pl.walks, "estimate_event", "event")
        self._wrap_trials(pl.walks, "check_containment", "containment")
        self._wrap_trials(pl.walks, "ratio_tail_diagnostic", "ratio_tail")
        self._wrap_trials(pl.gaussian, "persistence_prob", "persistence")
        self._wrap(pl.walks, "gen_walk", "gen_walk")
        for name in ("kahan_sum", "kahan_cumsum", "kahan_cumsum_rows"):
            self._wrap(pl.stats, name, "kahan")

        tracer = self
        table_init = pl.counting.PartitionTable.__init__

        def init(table, max_n):
            t0 = time.perf_counter()
            try:
                table_init(table, max_n)
            finally:
                tracer.secs["table"] += time.perf_counter() - t0
            tracer.items["table_cells"] += (int(max_n) + 1) ** 2

        self._wrap_method(pl.counting.PartitionTable, "__init__", init)

        for name in RNG_METHODS:
            self._wrap_method(pl.RandomStream, name, self._rng_wrapper(
                pl.RandomStream.__dict__[name]))

        cli_main = pl.cli.main

        def main(*args, **kwargs):
            tracer._in_cli = True
            t0 = time.perf_counter()
            try:
                return cli_main(*args, **kwargs)
            finally:
                tracer.secs["cli"] += time.perf_counter() - t0
                tracer.calls["cli"] += 1
                tracer._in_cli = False

        self._patches.append((pl.cli, "main", cli_main))
        pl.cli.main = main

    def _rng_wrapper(self, method):
        tracer = self

        def wrapper(stream, *args, **kwargs):
            if tracer._rng_depth:
                return method(stream, *args, **kwargs)
            tracer._rng_depth += 1
            t0 = time.perf_counter()
            try:
                out = method(stream, *args, **kwargs)
            finally:
                tracer._rng_depth -= 1
                tracer.secs["rng"] += time.perf_counter() - t0
            tracer.calls["rng"] += 1
            tracer.items["variates"] += getattr(out, "size", 1)
            return out

        return wrapper

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def snapshot(self):
        return {"calls": Counter(self.calls), "secs": Counter(self.secs),
                "items": Counter(self.items)}


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def round_metrics(before, after):
    """Per-layer values for one round from two tracer snapshots."""
    c = after["calls"] - before["calls"]
    s = Counter({k: after["secs"][k] - before["secs"][k] for k in after["secs"]})
    i = after["items"] - before["items"]
    return {
        "partitions.eg_calls": c["eg"],
        "partitions.eg_s": s["eg"],
        "partitions.hh_calls": c["hh"],
        "partitions.hh_s": s["hh"],
        "partitions.dominates_calls": c["dominates"],
        "partitions.dominates_s": s["dominates"],
        "counting.partitions_enumerated": i["enumerated"],
        "counting.graphical_count_s": s["graphical_count"],
        "counting.comparable_count_s": s["comparable_count"],
        "counting.table_build_s": s["table"],
        "counting.table_cells": i["table_cells"],
        "counting.unrank_us": _ratio(s["unrank"], c["unrank"], 1e6),
        "rng.calls": c["rng"],
        "rng.variates": i["variates"],
        "rng.s": s["rng"],
        "sampling.attempts_per_sample": _ratio(i["attempts"], i["accepted"]),
        "sampling.attempt_us": _ratio(s["boltzmann"], i["attempts"], 1e6),
        "sampling.boltzmann_s": s["boltzmann"],
        "walks.event_path_us": _ratio(s["event"], i["event_paths"], 1e6),
        "walks.containment_path_us": _ratio(s["containment"], i["containment_paths"], 1e6),
        "walks.gen_walk_calls": c["gen_walk"],
        "walks.ratio_tail_path_us": _ratio(s["ratio_tail"], i["ratio_tail_paths"], 1e6),
        "gaussian.persistence_path_us": _ratio(s["persistence"], i["persistence_paths"], 1e6),
        "stats.kahan_calls": c["kahan"],
        "stats.kahan_s": s["kahan"],
        "cli.overhead_ms": _ratio(s["cli"] - s["cli_library"], c["cli"], 1e3),
    }


def per_layer(rounds, import_s):
    """Median over rounds of each per-layer value (the lower median, so
    that it is one round's value).  Counts repeat exactly from round to
    round, so their median is the count of any round."""
    out = {name: statistics.median_low(r[name] for r in rounds)
           for name, _ in PER_LAYER if name != "setup.import_s"}
    out["setup.import_s"] = import_s
    return out
