"""Command line interface.

One binary, subcommand style.  Every randomized subcommand requires
--seed, and identical invocations produce byte-identical result
payloads; the volatile fields (wall-clock timestamp, duration) live in
a ``<out>.manifest.json`` sidecar so the result files themselves stay
reproducible.  Floats render with 17 significant digits and exact
rationals as ``num/den``, so nothing is lost in transit.  Every
emitted number comes straight from a library call, with one exception:
``exact`` divides the counts it gets from ``counting`` into the
rational p(n) or r(n) itself, and its provenance names those counting
functions.

Errors are one line on stderr, ``error: <reason>``, with a nonzero
exit code.
"""

from __future__ import annotations

import json
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import click

from . import __version__, counting, gaussian, sampling, selfcheck, walks
from .rng import RandomStream

EVENT_COLUMNS = (
    "event", "n", "gamma", "delta", "trials",
    "hits", "estimate", "ci_lo", "ci_hi", "seed",
)


def _fmt(value):
    """Render one CSV cell: 17 significant digits for floats, num/den
    for rationals, empty for missing."""
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _json_value(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


class OneLineErrors(click.Group):
    """Group whose entry point reports every failure as a single
    ``error: ...`` line on stderr with a nonzero exit code."""

    def main(self, *args, **kwargs):
        kwargs["standalone_mode"] = False
        try:
            rv = super().main(*args, **kwargs)
        except click.exceptions.Abort:
            click.echo("error: aborted", err=True)
            sys.exit(130)
        except click.ClickException as exc:
            click.echo(f"error: {exc.format_message()}", err=True)
            sys.exit(exc.exit_code or 2)
        except (ValueError, RuntimeError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        sys.exit(rv if isinstance(rv, int) else 0)


def _leaves(group, prefix=()):
    """Name path and command of every subcommand under a click group."""
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaves(command, prefix + (name,))
        else:
            yield prefix + (name,), command


def _load_config(path, group):
    """Parse a key=value file into a click default map for ``group``.

    Plain keys apply to every subcommand; dotted keys (``surrogate.trials``,
    ``gp.persist.alpha``) target one subcommand.  Flags always override.
    A key that names no subcommand or no parameter of one is a UsageError.
    """
    params = {leaf: {p.name for p in command.params}
              for leaf, command in _leaves(group)}
    root: dict = {}

    def node_at(parts):
        node = root
        for part in parts:
            node = node.setdefault(part, {})
        return node

    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"bad config line (want key=value): {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        *prefix, name = key.split(".")
        leaf = tuple(prefix)
        if leaf and leaf not in params:
            names = ", ".join(".".join(p) for p in params)
            raise click.UsageError(f"config key {key!r}: no subcommand "
                                   f"{'.'.join(leaf)!r}; subcommands: {names}")
        accepted = params[leaf] if leaf else set().union(*params.values())
        if name not in accepted:
            raise click.UsageError(f"config key {key!r} matches no parameter; "
                                   f"accepted: {', '.join(sorted(accepted))}")
        if leaf:
            node_at(leaf)[name] = value
        else:
            for target in params:
                node_at(target).setdefault(key, value)
    return root


def _emit(*, subcommand, parameters, columns, rows, output_format, out,
          seed=None, provenance=None, started=None, text_lines=None):
    """Write one run's results as CSV (default), JSON, or raw lines.

    The embedded manifest is fully deterministic; timestamp and duration
    go to the ``<out>.manifest.json`` sidecar only.
    """
    manifest = {
        "artifact": "partlab",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": {k: _json_value(v) for k, v in sorted(parameters.items())},
        "seed": seed,
        "provenance": dict(sorted((provenance or {}).items())),
    }
    if text_lines is not None and output_format == "csv":
        payload = "\n".join(text_lines) + "\n" if text_lines else ""
    elif output_format == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        if text_lines is not None:
            results = [{"parts": line} for line in text_lines]
        else:
            results = [
                {col: _json_value(v) for col, v in zip(columns, row)}
                for row in rows
            ]
        payload = json.dumps(
            {"manifest": manifest, "results": results},
            indent=2, sort_keys=True,
        ) + "\n"
    if out:
        target = Path(out)
        target.write_text(payload, encoding="utf-8", newline="\n")
        sidecar = dict(manifest)
        sidecar["created_utc"] = datetime.now(timezone.utc).isoformat()
        if started is not None:
            sidecar["duration_s"] = round(time.perf_counter() - started, 6)
        Path(str(out) + ".manifest.json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n",
        )
    else:
        click.echo(payload, nl=False)


def output_options(default_format="csv"):
    def wrap(fn):
        fn = click.option(
            "--out", type=click.Path(dir_okay=False, writable=True), default=None,
            help="Write results here (plus a .manifest.json sidecar) instead of stdout.",
        )(fn)
        fn = click.option(
            "--output", "output_format", type=click.Choice(["csv", "json"]),
            default=default_format, show_default=True, help="Result encoding.",
        )(fn)
        return fn
    return wrap


@click.group(cls=OneLineErrors)
@click.version_option(__version__, prog_name="partlab")
@click.option(
    "--config", "config_path",
    type=click.Path(exists=True, dir_okay=False), default=None,
    help="key=value defaults for subcommand flags; flags override.",
)
@click.pass_context
def main(ctx, config_path):
    """Exact and Monte Carlo laboratory for partition statistics."""
    if config_path:
        ctx.default_map = _load_config(config_path, ctx.command)


@main.command("exact")
@click.option("--p", "want_p", is_flag=True, help="Graphical fraction per weight.")
@click.option("--r", "want_r", is_flag=True, help="Dominance-comparable pair fraction per weight.")
@click.option("--n", "weights", type=click.IntRange(min=0), multiple=True,
              required=True, help="Weight(s); repeatable.")
@click.option("--two-sided", is_flag=True,
              help="With --r: count comparability in either direction.")
@output_options()
def exact_cmd(want_p, want_r, weights, two_sided, output_format, out):
    """Exact probabilities over whole weight classes: p(n) by a
    Durfee-square count, r(n) by a pair DP."""
    started = time.perf_counter()
    if want_p == want_r:
        raise click.UsageError("exactly one of --p or --r is required")
    if two_sided and want_p:
        raise click.UsageError("--two-sided applies to --r only")
    params = {"mode": "p" if want_p else "r", "n": list(weights),
              "two_sided": two_sided}
    if want_p:
        name, kwargs = "graphical_count", {}
        columns = ("n", "pi_n", "graphical_count", "p_exact")
    else:
        name, kwargs = "comparable_count", {"two_sided": two_sided}
        columns = ("n", "comparable_pairs", "r_exact")
    count = getattr(counting, name)
    # largest weight first, so one above the library's limit is refused
    # before any other weight is counted
    counts = {n: count(n, **kwargs) for n in sorted(set(weights), reverse=True)}
    rows = []
    for n in weights:
        hits, total = counts[n]
        rows.append((n, total, hits, Fraction(hits, total)) if want_p
                    else (n, hits, Fraction(hits, total * total)))
    provenance = dict.fromkeys(columns[1:], f"counting.{name}")
    _emit(subcommand="exact", parameters=params, columns=columns, rows=rows,
          output_format=output_format, out=out, provenance=provenance,
          started=started)


@main.command("sample")
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--method", type=click.Choice(["exact", "fristedt", "fristedt-pdc"]),
              default="exact", show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--max-rejections", type=click.IntRange(min=0), default=10**7,
              show_default=True)
@click.option("--dump", is_flag=True,
              help="Emit one partition per line instead of the summary row.")
@output_options()
def sample_cmd(n, trials, method, seed, max_rejections, dump, output_format, out):
    """Draw uniform random partitions of a given weight."""
    started = time.perf_counter()
    rng = RandomStream(seed, 0)
    batch, attempts = sampling.sample_uniform_batch(
        n, trials, rng, method=method, max_rejections=max_rejections
    )
    params = {"n": n, "trials": trials, "method": method,
              "max_rejections": max_rejections, "dump": dump}
    if dump:
        _emit(subcommand="sample", parameters=params, columns=("parts",),
              rows=(), output_format=output_format, out=out, seed=seed,
              provenance={"parts": "sampling.sample_uniform_batch"},
              started=started, text_lines=[lam.to_text() for lam in batch])
    else:
        _emit(subcommand="sample", parameters=params,
              columns=("n", "method", "trials", "attempts", "seed"),
              rows=[(n, method, trials, attempts, seed)],
              output_format=output_format, out=out, seed=seed,
              provenance={"attempts": "sampling.sample_uniform_batch"},
              started=started)


def _emit_estimate(subcommand, est, seed, params, output_format, out,
                   provenance, started):
    row = (est.event, est.n, est.gamma, est.delta, est.trials,
           est.hits, est.estimate, est.ci_lo, est.ci_hi, seed)
    _emit(subcommand=subcommand, parameters=params, columns=EVENT_COLUMNS,
          rows=[row], output_format=output_format, out=out, seed=seed,
          provenance=provenance, started=started)


def _estimate_command(name, estimator, help_text):
    """The estimate-p / estimate-r command around ``sampling.<estimator>``.

    The estimator is looked up on the module at call time, so a function
    rebound there (by a profiler, say) is the one that runs.
    """
    @main.command(name, help=help_text)
    @click.option("--n", type=click.IntRange(min=0), required=True)
    @click.option("--trials", type=click.IntRange(min=1), required=True)
    @click.option("--seed", type=int, required=True)
    @click.option("--method", type=click.Choice(["exact", "fristedt", "fristedt-pdc"]),
                  default="exact", show_default=True)
    @click.option("--max-rejections", type=click.IntRange(min=0), default=10**7,
                  show_default=True)
    @output_options()
    def command(n, trials, seed, method, max_rejections, output_format, out):
        started = time.perf_counter()
        est = getattr(sampling, estimator)(
            n, trials, RandomStream(seed, 0), method=method,
            max_rejections=max_rejections,
        )
        params = {"n": n, "trials": trials, "method": method,
                  "max_rejections": max_rejections}
        _emit_estimate(name, est, seed, params, output_format, out,
                       {"estimate": f"sampling.{estimator}",
                        "ci": "stats.wilson_interval"}, started)


_estimate_command("estimate-p", "estimate_p_mc",
                  "Monte Carlo estimate of the graphical fraction at weight n.")
_estimate_command("estimate-r", "estimate_r_mc",
                  "Monte Carlo estimate of the dominance-comparable pair fraction.")


@main.command("surrogate")
@click.option("--event", "kind", type=click.Choice(["eg", "log", "headline"]),
              required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--gamma", type=float, required=True)
@click.option("--delta", type=float, default=None,
              help="Required for --event headline.")
@click.option("--threshold", type=float, default=-1.0, show_default=True,
              help="Level for --event log.")
@click.option("--multiplier", type=float, default=5.0, show_default=True,
              help="Drop-size multiplier for --event headline.")
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, required=True)
@output_options()
def surrogate_cmd(kind, n, gamma, delta, threshold, multiplier, trials, seed,
                  output_format, out):
    """Monte Carlo event frequencies on the exponential surrogate walk."""
    started = time.perf_counter()
    est = walks.estimate_event(
        kind, n, gamma, delta, trials, RandomStream(seed, 0),
        threshold=threshold, multiplier=multiplier,
    )
    params = {"event": kind, "n": n, "gamma": gamma, "delta": delta,
              "threshold": threshold, "multiplier": multiplier,
              "trials": trials}
    _emit_estimate("surrogate", est, seed, params, output_format, out,
                   {"estimate": "walks.estimate_event",
                    "ci": "stats.wilson_interval"}, started)


@main.group("gp")
def gp_group():
    """Gaussian comparison process: covariance and persistence."""


@gp_group.command("cov")
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@output_options()
def gp_cov_cmd(m, n, output_format, out):
    """Closed-form covariance Cov(Z_m, Z_n)."""
    started = time.perf_counter()
    value = gaussian.gp_cov(m, n)
    _emit(subcommand="gp cov", parameters={"m": m, "n": n},
          columns=("m", "n", "cov"), rows=[(m, n, value)],
          output_format=output_format, out=out,
          provenance={"cov": "gaussian.gp_cov"}, started=started)


@gp_group.command("persist")
@click.option("--N", "big_n", type=click.IntRange(min=1), required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, required=True)
@output_options()
def gp_persist_cmd(big_n, alpha, trials, seed, output_format, out):
    """Monte Carlo persistence probability P(max_(k<=N) Z_k <= N^alpha)."""
    started = time.perf_counter()
    est = gaussian.persistence_prob(big_n, alpha, trials, RandomStream(seed, 0))
    row = (big_n, alpha, trials, est.hits, est.estimate, est.ci_lo,
           est.ci_hi, seed)
    _emit(subcommand="gp persist",
          parameters={"N": big_n, "alpha": alpha, "trials": trials},
          columns=("N", "alpha", "trials", "hits", "estimate", "ci_lo",
                   "ci_hi", "seed"),
          rows=[row], output_format=output_format, out=out, seed=seed,
          provenance={"estimate": "gaussian.persistence_prob",
                      "ci": "stats.wilson_interval"}, started=started)


@main.group("exponents")
def exponents_group():
    """Decay-exponent pipeline: scale equation, rate, minimax split."""


@exponents_group.command("solve")
@click.option("--tolerance", type=float, default=1e-12, show_default=True)
@click.option("--beta-override", type=float, default=None,
              help="Skip the scale equation and use this rate directly.")
@output_options(default_format="json")
def exponents_solve_cmd(tolerance, beta_override, output_format, out):
    """Solve the full pipeline and report all five constants."""
    started = time.perf_counter()
    sol = gaussian.solve_exponent_pipeline(
        tolerance=tolerance, beta_override=beta_override
    )
    columns = ("rho_star", "beta", "delta", "gamma", "exponent")
    rows = [(sol.rho_star, sol.beta, sol.delta, sol.gamma, sol.exponent)]
    _emit(subcommand="exponents solve",
          parameters={"tolerance": tolerance, "beta_override": beta_override},
          columns=columns, rows=rows, output_format=output_format, out=out,
          provenance={col: "gaussian.solve_exponent_pipeline"
                      for col in columns},
          started=started)


@main.command("selfcheck")
@click.option("--only", multiple=True,
              help="Run only the named check(s); repeatable.")
@click.option("--seed", type=int, default=selfcheck.DEFAULT_SEED,
              show_default=True)
@click.option("--list", "list_checks", is_flag=True,
              help="List check names and exit.")
def selfcheck_cmd(only, seed, list_checks):
    """Run the built-in verification battery; nonzero exit on failure."""
    if list_checks:
        for name in selfcheck.CHECK_NAMES:
            click.echo(name)
        return
    unknown = [name for name in only if name not in selfcheck.CHECK_NAMES]
    if unknown:
        raise click.UsageError(
            f"unknown check(s) {', '.join(unknown)}; see selfcheck --list"
        )
    names = list(only) if only else selfcheck.CHECK_NAMES
    failures = 0
    for name in names:
        result = selfcheck.run_check(name, seed)
        click.echo(selfcheck.format_result(result))
        failures += not result.passed
    click.echo(f"{len(names) - failures}/{len(names)} checks passed")
    if failures:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
