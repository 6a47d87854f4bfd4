"""The three benchmark workloads as fixed, seeded lists of operations.

An operation is one call into a public partlab function, as a researcher
would issue it.  The seed fixes the Monte Carlo streams, the rank/unrank
indices and the interleaving order; it never changes sizes, so every
seed asks for the same amount of work.  A round runs the whole list in
one order; every round of a run repeats it with the same inputs.

Each operation carries its check, run on the round's results after
timing, and a corruption: a wrong value of the same shape that the
self-test feeds the check to show that it is rejected.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import checks
import reference

# exact-oracles
EXACT_P_EVEN = tuple(range(20, 45, 2))
EXACT_P_ODD = (25, 35)
EXACT_R = (18, 20, 22, 24)
ROUNDTRIPS = 6
ROUNDTRIP_WEIGHTS = (12, 20)

# walks-gp
DELTA = 0.006594420627
GAMMA = 0.24
SHORT_N, SHORT_TRIALS = 10**4, 2 * 10**5
LONG_N, LONG_TRIALS = 10**12, 2000
CONTAINMENT_TRIALS = 4000
RATIO_TAIL_N, RATIO_TAIL_TRIALS = 10**4, 3000
PERSISTENCE = ((1, 10**4), (100, 5000), (400, 5000), (1600, 2500))
#: Fixed stream of the one operation kept although it always fails.
FAULT_SEED = 20260816


@dataclass
class Op:
    """One timed call, its output check and its self-test corruption.

    ``check(result, results)`` and ``corrupt(result, results)`` receive
    the round's results by op name, for checks that relate two outputs.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any, dict], str | None]
    corrupt: Callable[[Any, dict], Any]
    seed: int | None = None
    #: Set on an operation that fails on every round because of a
    #: program fault; its failures count but leave ``correct`` true.
    known_fault: str = ""


@dataclass
class Context:
    """What a workload's preparation leaves for its operations."""

    pl: Any           # namespace of partlab modules
    ref: dict         # reference.json
    rnd: random.Random
    tmpdir: Any = None
    table: Any = None
    enumerations: dict = dataclasses.field(default_factory=dict)
    ratio_tail: tuple = ()

    def pi(self, n):
        return self.ref["pi"][str(n)]

    def seed(self):
        return self.rnd.randrange(2**32)


def first_failure(*results):
    return next((r for r in results if r), None)


# -- exact-oracles ---------------------------------------------------------

def exact_p_op(ctx, n):
    counting = ctx.pl.counting
    pi_n = ctx.pi(n)
    want = Fraction(ctx.ref["graphical"][str(n)], pi_n)
    return Op(
        f"exact_p({n})",
        lambda: counting.exact_p(n),
        lambda v, _: first_failure(
            checks.equal(v, want, f"p({n})"),
            checks.exact_p_bounds(v, n, pi_n, ctx.pi(n - 1)),
        ),
        lambda v, _: v + Fraction(1, pi_n),
    )


def exact_r_op(ctx, n):
    counting = ctx.pl.counting
    pi_n = ctx.pi(n)
    want = Fraction(ctx.ref["comparable_one_sided"][str(n)], pi_n * pi_n)
    return Op(
        f"exact_r({n})",
        lambda: counting.exact_r(n),
        lambda v, _: checks.equal(v, want, f"r({n})"),
        lambda v, _: v + Fraction(1, pi_n * pi_n),
    )


def two_sided_op(ctx, n):
    counting = ctx.pl.counting
    pi_n = ctx.pi(n)
    want = 2 * ctx.ref["comparable_one_sided"][str(n)] - pi_n

    def check(v, results):
        one = results.get(f"exact_r({n})")
        from_one = None if one is None else 2 * one * pi_n * pi_n - pi_n
        return first_failure(
            checks.equal(v, (want, pi_n), f"two-sided comparable count at {n}"),
            checks.equal(v[0], from_one, f"two-sided vs 2*one-sided - pi({n})"),
        )

    return Op(
        f"comparable_count({n},two_sided)",
        lambda: counting.comparable_count(n, two_sided=True),
        check,
        lambda v, _: (v[0] + 1, v[1]),
    )


def roundtrip_op(ctx, n, idx, tag):
    counting = ctx.pl.counting
    table = ctx.table
    want = ctx.enumerations[n][idx]

    def call():
        lam = counting.unrank(table, n, idx)
        return lam.parts, counting.rank(table, lam)

    return Op(
        f"rank(unrank({n},{idx})){tag}",
        call,
        lambda v, _: first_failure(
            checks.equal(v[0], want, f"unrank({n}, {idx}) vs reference order"),
            checks.equal(v[1], idx, f"rank(unrank({n}, {idx}))"),
        ),
        lambda v, _: (v[0], v[1] + 1),
    )


def prepare_exact_oracles(ctx):
    lo, hi = ROUNDTRIP_WEIGHTS
    ctx.table = ctx.pl.counting.build_table(hi)
    ctx.enumerations = {n: list(reference.partitions_of(n)) for n in range(lo, hi + 1)}
    ops = [exact_p_op(ctx, n) for n in EXACT_P_EVEN + EXACT_P_ODD]
    for n in EXACT_R:
        ops += [exact_r_op(ctx, n), two_sided_op(ctx, n)]
    for k in range(ROUNDTRIPS):
        n = ctx.rnd.randint(lo, hi)
        ops.append(roundtrip_op(ctx, n, ctx.rnd.randrange(ctx.pi(n)), f"#{k + 1}"))
    return ops


# -- sampling-mc -----------------------------------------------------------

def shifted_estimate(ctx, est, target):
    """A self-consistent estimate 5 standard errors above ``target``."""
    se = math.sqrt(target * (1 - target) / est.trials)
    hits = min(est.trials, math.ceil((target + 5 * se) * est.trials))
    return ctx.pl.stats.make_estimate(est.event, hits, est.trials, n=est.n,
                                      gamma=est.gamma, delta=est.delta)


def moved_estimate(est, se_units):
    """The same estimate with only its point value moved: inconsistent."""
    se = math.sqrt(max(est.estimate * (1 - est.estimate), 0.25 / est.trials) / est.trials)
    return dataclasses.replace(est, estimate=est.estimate + se_units * se)


def exact_probability(ctx, which, n):
    """Reference p(n) or r(n) as a float, or None when not tabulated."""
    if which == "p" and str(n) in ctx.ref["graphical"]:
        return ctx.ref["graphical"][str(n)] / ctx.pi(n)
    if which == "r" and str(n) in ctx.ref["comparable_one_sided"]:
        return ctx.ref["comparable_one_sided"][str(n)] / ctx.pi(n) ** 2
    return None


def estimate_op(ctx, which, n, trials, method, tag=""):
    sampling = ctx.pl.sampling
    RandomStream = ctx.pl.RandomStream
    seed = ctx.seed()
    fn_name = "estimate_p_mc" if which == "p" else "estimate_r_mc"
    event = "p-graphical" if which == "p" else "r-dominance"
    exact = exact_probability(ctx, which, n)

    def check(est, _):
        return first_failure(
            checks.estimate_consistent(est, trials, n, event),
            None if exact is None else checks.proportion(est, exact, f"{which}({n}) via {method}"),
        )

    def corrupt(est, _):
        return shifted_estimate(ctx, est, exact) if exact is not None else moved_estimate(est, 5)

    return Op(
        f"{fn_name}({n},{trials},{method}){tag}",
        lambda: getattr(sampling, fn_name)(n, trials, RandomStream(seed, 0), method=method),
        check,
        corrupt,
        seed,
    )


def sampler_agreement(op, pdc_names):
    """Extend ``op``, a plain-fristedt p estimate, with a two-sample test
    against the fristedt-pdc estimates of the same probability."""
    base_check = op.check

    def check(est, results):
        pdc = [results.get(name) for name in pdc_names]
        if None in pdc:
            return "sampler agreement: a fristedt-pdc estimate is missing"
        return first_failure(
            base_check(est, results),
            checks.same_proportion(
                sum(e.hits for e in pdc), sum(e.trials for e in pdc), est.hits, est.trials,
                f"p({est.n}): fristedt-pdc vs plain fristedt"),
        )

    op.check = check
    return op


def sample_op(ctx, n, count, method, tag=""):
    sampling = ctx.pl.sampling
    RandomStream = ctx.pl.RandomStream
    seed = ctx.seed()
    # m_1 is skewed; the 4-se rule leans on the normal approximation,
    # which its sample mean reaches at about 1000 samples
    moments = ctx.ref["multiplicity"].get(str(n)) if count >= 1000 else None

    def check(v, _):
        parts, attempted = v
        return first_failure(
            checks.equal(len(parts), count, f"samples at n={n}"),
            checks.partitions_of(parts, n),
            checks.attempts(count, attempted, method == "exact"),
            None if moments is None else checks.multiplicity_mean(
                parts, 1, moments["1"]["mean"], moments["1"]["var"],
                f"mean m_1 at n={n} via {method}"),
        )

    def corrupt(v, _):
        parts, attempted = v
        first = list(getattr(parts[0], "parts", parts[0]))
        first[-1] -= 1
        if not first[-1]:
            first.pop()
        return [tuple(first)] + list(parts[1:]), attempted

    return Op(
        f"sample_uniform_batch({n},{count},{method}){tag}",
        lambda: sampling.sample_uniform_batch(n, count, RandomStream(seed, 0), method=method),
        check,
        corrupt,
    )


def cli_op(ctx, command, library_op, n, trials, method):
    """``partlab <command>`` in-process with --out; must exit 0 and
    report the hits of the library call on the same seed."""
    cli = ctx.pl.cli
    out = ctx.tmpdir / f"{command}-{n}.json"
    args = [command, "--n", str(n), "--trials", str(trials), "--seed",
            str(library_op.seed), "--method", method, "--output", "json",
            "--out", str(out)]

    def call():
        out.unlink(missing_ok=True)
        try:
            cli.main(args, prog_name="partlab")
            code = 0
        except SystemExit as exc:
            code = exc.code
        row = json.loads(out.read_text(encoding="utf-8"))["results"][0] if out.exists() else None
        return code, row

    def check(v, results):
        code, row = v
        lib = results.get(library_op.name)
        return first_failure(
            checks.equal(code, 0, f"partlab {command} exit code"),
            checks.equal(row is None, False, f"partlab {command} wrote no payload"),
            checks.equal(row and row["hits"], lib and lib.hits,
                         f"partlab {command} hits vs library call"),
        )

    return Op(
        f"cli {command} --n {n}",
        call,
        check,
        lambda v, _: (v[0], dict(v[1], hits=v[1]["hits"] + 1)),
    )


def prepare_sampling_mc(ctx):
    pl = ctx.pl
    for n in (24, 40, 1000, 10**4):
        # fills the per-n Boltzmann plan cache, as a first call would
        pl.sampling.sample_fristedt_batch(n, 1, pl.RandomStream(0, 0), pdc=True)
    ops = [estimate_op(ctx, "p", 1000, 600, "fristedt-pdc", f"#{i}") for i in (1, 2)]
    ops.append(sampler_agreement(estimate_op(ctx, "p", 1000, 100, "fristedt"),
                                 [op.name for op in ops]))
    ops += [estimate_op(ctx, "r", 1000, 300, "fristedt-pdc", f"#{i}") for i in (1, 2)]
    # the two heaviest operations of the round are this pair, so that the
    # 95th latency percentile falls inside one cluster of like operations
    ops += [estimate_op(ctx, "p", 10**4, 500, "fristedt-pdc", f"#{i}") for i in (1, 2)]
    ops.append(estimate_op(ctx, "r", 10**4, 125, "fristedt-pdc"))
    ops += [sample_op(ctx, 1000, 1000, "fristedt-pdc", f"#{i}") for i in (1, 2)]
    ops.append(sample_op(ctx, 10**4, 200, "fristedt-pdc"))
    ops += [sample_op(ctx, n, 200, "exact") for n in (200, 250, 300, 350)]
    p40 = estimate_op(ctx, "p", 40, 2000, "exact")
    r24 = estimate_op(ctx, "r", 24, 2000, "fristedt-pdc")
    ops += [p40, r24,
            estimate_op(ctx, "p", 40, 2000, "fristedt-pdc"),
            estimate_op(ctx, "r", 24, 2000, "exact"),
            cli_op(ctx, "estimate-p", p40, 40, 2000, "exact"),
            cli_op(ctx, "estimate-r", r24, 24, 2000, "fristedt-pdc")]
    return ops


# -- walks-gp --------------------------------------------------------------

CHAIN = (("eg", -1.0), ("log", 0.0), ("log", -1.0))


def event_name(kind, threshold, n, tag):
    label = f"log{threshold:+g}" if kind == "log" else kind
    return f"estimate_event({label},{n}){tag}"


def event_op(ctx, kind, threshold, n, trials, seed, tag, chain=(), known_fault=""):
    """One estimate_event call.  Ops listed in ``chain`` ran on the same
    stream; since eg => log(0) => log(-1) on every path, their hits and
    this op's must be non-decreasing along the chain."""
    walks = ctx.pl.walks
    RandomStream = ctx.pl.RandomStream

    def check(est, results):
        failure = checks.estimate_consistent(est, trials, n, kind)
        if failure or not chain:
            return failure
        lower = [results.get(name) for name in chain]
        if None in lower:
            return "event chain: a partner estimate is missing"
        return checks.ordered([e.hits for e in lower] + [est.hits],
                              f"eg <= log(0) <= log(-1) at n={n}")

    def corrupt(est, results):
        if not chain:
            return moved_estimate(est, 5)
        below = results[chain[-1]].hits
        return ctx.pl.stats.make_estimate(est.event, below - 1, est.trials, n=est.n,
                                          gamma=est.gamma, delta=est.delta)

    return Op(
        event_name(kind, threshold, n, tag),
        lambda: walks.estimate_event(kind, n, GAMMA, DELTA, trials, RandomStream(seed, 0),
                                     threshold=threshold),
        check,
        corrupt,
        seed,
        known_fault,
    )


def chain_ops(ctx, n, trials, tag):
    """eg, log(0) and log(-1) on one shared stream."""
    seed = ctx.seed()
    ops = []
    for kind, threshold in CHAIN:
        ops.append(event_op(ctx, kind, threshold, n, trials, seed, tag,
                            chain=[op.name for op in ops]))
    return ops


def containment_op(ctx, tag):
    walks = ctx.pl.walks
    RandomStream = ctx.pl.RandomStream
    seed = ctx.seed()
    n, trials = SHORT_N, CONTAINMENT_TRIALS

    def check(rep, _):
        return first_failure(
            checks.equal(rep.trials, trials, "containment trials"),
            checks.equal(rep.violations, 0, "containment violations"),
            checks.ordered([rep.eg_hits, rep.log0_hits, rep.logneg1_hits],
                           "containment hits eg <= log(0) <= log(-1)"),
        )

    return Op(
        f"check_containment({n}){tag}",
        lambda: walks.check_containment(n, GAMMA, trials, RandomStream(seed, 0)),
        check,
        lambda rep, _: dataclasses.replace(rep, eg_without_log0=rep.eg_without_log0 + 1),
    )


def ratio_tail_op(ctx, tag):
    walks = ctx.pl.walks
    RandomStream = ctx.pl.RandomStream
    seed = ctx.seed()
    count, exact, chernoff = ctx.ratio_tail

    def corrupt(diag, _):
        se = diag.ci_halfwidth / 1.959963984540054
        per_j = diag.per_j * ((exact + 5 * se) / diag.total)
        return dataclasses.replace(diag, per_j=per_j, total=float(per_j.sum()))

    return Op(
        f"ratio_tail_diagnostic({RATIO_TAIL_N}){tag}",
        lambda: walks.ratio_tail_diagnostic(RATIO_TAIL_N, DELTA, RATIO_TAIL_TRIALS,
                                            RandomStream(seed, 0)),
        lambda diag, _: checks.ratio_tail(diag, count, exact, chernoff),
        corrupt,
    )


def persistence_ops(ctx):
    gaussian = ctx.pl.gaussian
    RandomStream = ctx.pl.RandomStream
    names = [f"persistence_prob({N})" for N, _ in PERSISTENCE]
    ops = []
    for i, (N, trials) in enumerate(PERSISTENCE):
        seed = ctx.seed()

        def check(est, results, i=i, N=N, trials=trials):
            failure = checks.estimate_consistent(est, trials, N, "gp-persistence")
            if failure:
                return failure
            if i == 0:
                return checks.proportion(est, checks.phi(1.0), "P(Z_1 <= 1) vs Phi(1)")
            prev = results.get(names[i - 1])
            if prev is None:
                return "persistence: the smaller-N estimate is missing"
            return checks.not_above(est, prev, f"persistence at N={N} vs smaller N")

        def corrupt(est, _, i=i):
            if i == 0:
                return shifted_estimate(ctx, est, checks.phi(1.0))
            return ctx.pl.stats.make_estimate(est.event, est.trials, est.trials, n=est.n)

        ops.append(Op(
            names[i],
            lambda N=N, trials=trials, seed=seed: gaussian.persistence_prob(
                N, 0.0, trials, RandomStream(seed, 0)),
            check,
            corrupt,
        ))
    return ops


def prepare_walks_gp(ctx):
    ctx.ratio_tail = checks.ratio_tail_targets(RATIO_TAIL_N, DELTA)
    ops = []
    for tag in ("#1", "#2"):
        ops += chain_ops(ctx, SHORT_N, SHORT_TRIALS, tag)
        ops.append(event_op(ctx, "headline", -1.0, SHORT_N, SHORT_TRIALS, ctx.seed(), tag))
        ops += chain_ops(ctx, LONG_N, LONG_TRIALS, tag)
        # the containment pair is the heaviest of the round, so that the
        # 95th latency percentile falls inside one cluster of like operations
        ops += [containment_op(ctx, tag), ratio_tail_op(ctx, tag)]
    # Every path of this length meets the headline event, and
    # stats.wilson_interval(2000, 2000) puts the upper CI end one ulp
    # below the estimate 1.0, so this operation fails on every round.
    # Its stream is fixed, not seeded, so the failure is the same in
    # every run.
    ops.append(event_op(ctx, "headline", -1.0, LONG_N, LONG_TRIALS, FAULT_SEED, "",
                        known_fault="wilson_interval(T, T) upper end below 1.0"))
    return ops + persistence_ops(ctx)


PREPARE = {
    "exact-oracles": prepare_exact_oracles,
    "sampling-mc": prepare_sampling_mc,
    "walks-gp": prepare_walks_gp,
}


def prepare(workload, seed, pl, tmpdir=None):
    """Build the workload's operation list for ``seed``, interleaved in a
    seeded order so that drift during a run hits every kind alike."""
    ctx = Context(pl=pl, ref=reference.load(),
                  rnd=random.Random(f"partlab-bench:{workload}:{seed}"), tmpdir=tmpdir)
    ops = PREPARE[workload](ctx)
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise RuntimeError(f"duplicate operation names in {workload}")
    ctx.rnd.shuffle(ops)
    return ops
