"""Self-test: every check accepts a right value and rejects a wrong one.

    python3 perfbench/run.py --selftest

Part 1 feeds each check function in checks.py a right and a wrong value
built by hand (an off-by-one count, a partition of n - 1, an estimate
moved by 5 standard errors, ...).  Part 2 runs one round of every
workload against the checkout's partlab, shows that all outputs pass,
then hands each operation's check a corrupted copy of its own output
and shows that the check rejects it.  Exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import math
import tempfile
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np

import checks


def _estimate(hits, trials, n=40, event="p-graphical"):
    z = 1.959963984540054
    p = hits / trials
    half = z * math.sqrt(p * (1 - p) / trials) + 1e-9
    return NS(event=event, n=n, trials=trials, hits=hits, estimate=p,
              ci_lo=p - half, ci_hi=p + half)


def _diag(total, se, count, per_j_scale=1.0):
    per_j = np.full(count, total / count) * per_j_scale
    return NS(indices=count, per_j=per_j, total=float(total),
              ci_halfwidth=se * 1.959963984540054)


def unit_cases():
    """(check name, right-value result, wrong-value result) triples."""
    p, T = 0.3, 1000
    se = math.sqrt(p * (1 - p) / T)
    good_est = _estimate(round(p * T), T)
    shifted = _estimate(round((p + 5 * se) * T), T)
    count, exact, chernoff = checks.ratio_tail_targets(10**4, 0.006594420627)
    rt_se = 0.5
    ones_heavy = [(2, 1, 1)] * 50 + [(2, 2)] * 50   # mean m_1 = 1, sd ~ 1
    return [
        ("equal", checks.equal(7, 7, "count"), checks.equal(8, 7, "count")),
        ("at_least", checks.at_least(Fraction(1, 2), Fraction(1, 3), "p"),
         checks.at_least(Fraction(1, 4), Fraction(1, 3), "p")),
        ("partitions_of: weight", checks.partitions_of([(3, 1), (2, 2)], 4),
         checks.partitions_of([(3, 1), (2, 1)], 4)),
        ("partitions_of: order", checks.partitions_of([(2, 1, 1)], 4),
         checks.partitions_of([(1, 2, 1)], 4)),
        ("partitions_of: positive", checks.partitions_of([(4,)], 4),
         checks.partitions_of([(5, -1)], 4)),
        ("attempts: rejection", checks.attempts(10, 31, False),
         checks.attempts(10, 9, False)),
        ("attempts: table sampler", checks.attempts(10, 10, True),
         checks.attempts(10, 11, True)),
        ("within_se", checks.within_se(3.9, 0.0, 1.0, "z"),
         checks.within_se(5.0, 0.0, 1.0, "z")),
        ("multiplicity_mean", checks.multiplicity_mean(ones_heavy, 1, 1.0, 1.0, "m_1"),
         checks.multiplicity_mean(ones_heavy, 1, 1.5, 1.0, "m_1")),
        ("estimate_consistent: hits", checks.estimate_consistent(good_est, T, 40, "p-graphical"),
         checks.estimate_consistent(NS(**dict(vars(good_est), hits=good_est.hits + 1)),
                                    T, 40, "p-graphical")),
        ("estimate_consistent: CI", checks.estimate_consistent(good_est, T, 40, "p-graphical"),
         checks.estimate_consistent(NS(**dict(vars(good_est), ci_hi=good_est.estimate - 1e-16)),
                                    T, 40, "p-graphical")),
        ("estimate_consistent: label", checks.estimate_consistent(good_est, T, 40, "p-graphical"),
         checks.estimate_consistent(good_est, T, 41, "p-graphical")),
        ("proportion", checks.proportion(good_est, p, "p(40)"),
         checks.proportion(shifted, p, "p(40)")),
        ("same_proportion", checks.same_proportion(300, 1000, 31, 100, "p"),
         checks.same_proportion(300, 1000, 54, 100, "p")),
        ("ordered", checks.ordered([3, 3, 5], "chain"), checks.ordered([3, 2, 5], "chain")),
        ("not_above", checks.not_above(_estimate(250, 1000), _estimate(300, 1000), "N"),
         checks.not_above(_estimate(400, 1000), _estimate(300, 1000), "N")),
        ("ratio_tail: mean", checks.ratio_tail(_diag(exact, rt_se, count), count, exact, chernoff),
         checks.ratio_tail(_diag(exact + 5 * rt_se, rt_se, count), count, exact, chernoff)),
        ("ratio_tail: Chernoff", checks.ratio_tail(_diag(exact, rt_se, count), count, exact, chernoff),
         checks.ratio_tail(_diag(chernoff + 10, 1.0, count), count, exact, chernoff)),
        ("ratio_tail: indices", checks.ratio_tail(_diag(exact, rt_se, count), count, exact, chernoff),
         checks.ratio_tail(_diag(exact, rt_se, count - 1), count, exact, chernoff)),
        ("ratio_tail: per-index sum", checks.ratio_tail(_diag(exact, rt_se, count), count, exact, chernoff),
         checks.ratio_tail(_diag(exact, rt_se, count, 1.01), count, exact, chernoff)),
        ("exact_p_bounds: odd", checks.exact_p_bounds(Fraction(0), 25, 1958, 1575),
         checks.exact_p_bounds(Fraction(1, 1958), 25, 1958, 1575)),
        ("exact_p_bounds: even", checks.exact_p_bounds(Fraction(14048, 37338), 40, 37338, 31185),
         checks.exact_p_bounds(Fraction(6000, 37338), 40, 37338, 31185)),
        ("phi", checks.within_se(checks.phi(1.0), 0.8413447460685429, 1e-15, "Phi(1)"),
         checks.within_se(checks.phi(1.0), 0.8413447460685429 + 1e-13, 1e-15, "Phi(1)")),
    ]


def op_cases(workload, seed, pl):
    """Run one round; return (op name, verdict on right output, verdict
    on corrupted output, known fault) for each operation."""
    import workloads

    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent,
                                     prefix=".perfbench-") as tmp:
        ops = workloads.prepare(workload, seed, pl, Path(tmp))
        results = {op.name: op.call() for op in ops}
        rows = []
        for op in ops:
            right = op.check(results[op.name], results)
            bad = op.corrupt(results[op.name], results)
            wrong = op.check(bad, dict(results, **{op.name: bad}))
            rows.append((op.name, right, wrong, op.known_fault))
    return rows


def main(seed=1):
    import run

    broken = 0
    print("checks.py, hand-made values:")
    for name, right, wrong in unit_cases():
        ok = right is None and wrong is not None
        broken += not ok
        print(f"  {'ok ' if ok else 'BAD'} {name:32s} right: {right or 'accepted'}; "
              f"wrong: {wrong or 'ACCEPTED'}")
    pl = run.import_partlab()
    for workload in run.WORKLOADS:
        print(f"{workload} (seed {seed}), each operation's own output and a corrupted copy:")
        for name, right, wrong, known in op_cases(workload, seed, pl):
            ok = (right is None or known) and wrong is not None
            broken += not ok
            note = f" (known fault: {known})" if known else ""
            print(f"  {'ok ' if ok else 'BAD'} {name:48s} right: {right or 'accepted'}{note}; "
                  f"wrong: {wrong or 'ACCEPTED'}")
    print(f"self-test: {broken} case(s) went the wrong way")
    return 1 if broken else 0
