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

Each parameter is named by its flag, with ``-`` turned into ``_``
(``--N`` is ``N``): that one name is the command's keyword, the
``--config`` key and the manifest key.

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
from .rng import GENERATOR, RandomStream

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
    The value of a repeatable option is split on commas
    (``exact.n = 12, 20``).
    """
    params = {leaf: {p.name: p for p in command.params}
              for leaf, command in _leaves(group)}

    def parsed(param, value):
        # click takes a repeatable option's default only as a sequence
        return [v.strip() for v in value.split(",")] if param.multiple else value

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
            node_at(leaf)[name] = parsed(params[leaf][name], value)
        else:
            for target, accepts in params.items():
                if name in accepts:
                    node_at(target).setdefault(name, parsed(accepts[name], value))
    return root


def _emit(subcommand, columns, rows, provenance, *, seed=None,
          parameters=None, text_lines=None):
    """Write one run's results as CSV (default), JSON, or raw lines.

    Encoding, target and manifest parameters are the running command's
    options, unless ``parameters`` names the last.  A seeded run's
    manifest names the generator its seed keys.  The embedded manifest
    is fully deterministic; timestamp and duration go to the
    ``<out>.manifest.json`` sidecar only.
    """
    ctx = click.get_current_context()
    options = ctx.params
    if parameters is None:
        parameters = {k: v for k, v in options.items()
                      if k not in ("seed", "out", "output")}
    manifest = {
        "artifact": "partlab",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": {k: _json_value(v) for k, v in sorted(parameters.items())},
        "seed": seed,
        "provenance": dict(sorted(provenance.items())),
    }
    if seed is not None:
        manifest["rng"] = GENERATOR
    if text_lines is not None:
        rows = [(line,) for line in text_lines]
    if options["output"] == "csv":
        # raw lines go out without a header
        lines = [",".join(columns)] if text_lines is None else []
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        payload = "\n".join(lines) + "\n"
    else:
        results = [{col: _json_value(v) for col, v in zip(columns, row)}
                   for row in rows]
        payload = json.dumps(
            {"manifest": manifest, "results": results},
            indent=2, sort_keys=True,
        ) + "\n"
    out = options["out"]
    if out:
        target = Path(out)
        target.write_text(payload, encoding="utf-8", newline="\n")
        sidecar = dict(manifest)
        sidecar["created_utc"] = datetime.now(timezone.utc).isoformat()
        sidecar["duration_s"] = round(time.perf_counter() - ctx.meta["partlab.started"], 6)
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
            "--output", type=click.Choice(["csv", "json"]),
            default=default_format, show_default=True, help="Result encoding.",
        )(fn)
        return fn
    return wrap


@click.group(cls=OneLineErrors)
@click.version_option(__version__, prog_name="partlab")
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False), default=None,
    help="key=value defaults for subcommand flags; flags override.",
)
@click.pass_context
def main(ctx, config):
    """Exact and Monte Carlo laboratory for partition statistics."""
    ctx.meta["partlab.started"] = time.perf_counter()
    if config:
        ctx.default_map = _load_config(config, ctx.command)


@main.command("exact")
@click.option("--p", is_flag=True, help="Graphical fraction per weight.")
@click.option("--r", is_flag=True, help="Dominance-comparable pair fraction per weight.")
@click.option("--n", type=click.IntRange(min=0), multiple=True,
              required=True, help="Weight(s); repeatable.")
@click.option("--two-sided", is_flag=True,
              help="With --r: count comparability in either direction.")
@output_options()
def exact_cmd(p, r, n, two_sided, output, out):
    """Exact probabilities over whole weight classes: p(n) by a
    Durfee-square count, r(n) by a pair DP."""
    if p == r:
        raise click.UsageError("exactly one of --p or --r is required")
    if two_sided and p:
        raise click.UsageError("--two-sided applies to --r only")
    if p:
        name, kwargs = "graphical_count", {}
        columns = ("n", "pi_n", "graphical_count", "p_exact")
    else:
        name, kwargs = "comparable_count", {"two_sided": two_sided}
        columns = ("n", "comparable_pairs", "r_exact")
    count = getattr(counting, name)
    # largest weight first, so one above the library's limit is refused
    # before any other weight is counted
    counts = {w: count(w, **kwargs) for w in sorted(set(n), reverse=True)}
    rows = []
    for w in n:
        hits, total = counts[w]
        rows.append((w, total, hits, Fraction(hits, total)) if p
                    else (w, hits, Fraction(hits, total * total)))
    _emit("exact", columns, rows, dict.fromkeys(columns[1:], f"counting.{name}"),
          parameters={"mode": "p" if p else "r", "n": list(n),
                      "two_sided": two_sided})


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
def sample_cmd(n, trials, method, seed, max_rejections, dump, output, out):
    """Draw uniform random partitions of a given weight."""
    rng = RandomStream(seed, 0)
    batch, attempts = sampling.sample_uniform_batch(
        n, trials, rng, method=method, max_rejections=max_rejections
    )
    if dump:
        _emit("sample", ("parts",), (),
              {"parts": "sampling.sample_uniform_batch"}, seed=seed,
              text_lines=[lam.to_text() for lam in batch])
    else:
        _emit("sample", ("n", "method", "trials", "attempts", "seed"),
              [(n, method, trials, attempts, seed)],
              {"attempts": "sampling.sample_uniform_batch"}, seed=seed)


def _emit_estimate(subcommand, est, seed, estimator):
    row = (est.event, est.n, est.gamma, est.delta, est.trials,
           est.hits, est.estimate, est.ci_lo, est.ci_hi, seed)
    _emit(subcommand, EVENT_COLUMNS, [row],
          {"estimate": estimator, "ci": "stats.wilson_interval"}, seed=seed)


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
    def command(n, trials, seed, method, max_rejections, output, out):
        est = getattr(sampling, estimator)(
            n, trials, RandomStream(seed, 0), method=method,
            max_rejections=max_rejections,
        )
        _emit_estimate(name, est, seed, f"sampling.{estimator}")


_estimate_command("estimate-p", "estimate_p_mc",
                  "Monte Carlo estimate of the graphical fraction at weight n.")
_estimate_command("estimate-r", "estimate_r_mc",
                  "Monte Carlo estimate of the dominance-comparable pair fraction.")


@main.command("surrogate")
@click.option("--event", type=click.Choice(["eg", "log", "headline"]),
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
def surrogate_cmd(event, n, gamma, delta, threshold, multiplier, trials, seed,
                  output, out):
    """Monte Carlo event frequencies on the exponential surrogate walk."""
    est = walks.estimate_event(
        event, n, gamma, delta, trials, RandomStream(seed, 0),
        threshold=threshold, multiplier=multiplier,
    )
    _emit_estimate("surrogate", est, seed, "walks.estimate_event")


@main.group("gp")
def gp_group():
    """Gaussian comparison process: covariance and persistence."""


@gp_group.command("cov")
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@output_options()
def gp_cov_cmd(m, n, output, out):
    """Closed-form covariance Cov(Z_m, Z_n)."""
    _emit("gp cov", ("m", "n", "cov"), [(m, n, gaussian.gp_cov(m, n))],
          {"cov": "gaussian.gp_cov"})


@gp_group.command("persist")
@click.option("--N", "N", type=click.IntRange(min=1), required=True)
@click.option("--alpha", type=float, default=0.0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=int, required=True)
@output_options()
def gp_persist_cmd(N, alpha, trials, seed, output, out):
    """Monte Carlo persistence probability P(max_(k<=N) Z_k <= N^alpha)."""
    est = gaussian.persistence_prob(N, alpha, trials, RandomStream(seed, 0))
    row = (N, alpha, trials, est.hits, est.estimate, est.ci_lo, est.ci_hi, seed)
    _emit("gp persist",
          ("N", "alpha", "trials", "hits", "estimate", "ci_lo", "ci_hi", "seed"),
          [row], {"estimate": "gaussian.persistence_prob",
                  "ci": "stats.wilson_interval"}, seed=seed)


@main.group("exponents")
def exponents_group():
    """Decay-exponent pipeline: scale equation, rate, minimax split."""


@exponents_group.command("solve")
@click.option("--tolerance", type=float, default=1e-12, show_default=True)
@click.option("--beta-override", type=float, default=None,
              help="Skip the scale equation and use this rate directly.")
@output_options(default_format="json")
def exponents_solve_cmd(tolerance, beta_override, output, out):
    """Solve the full pipeline and report all five constants."""
    sol = gaussian.solve_exponent_pipeline(
        tolerance=tolerance, beta_override=beta_override
    )
    columns = ("rho_star", "beta", "delta", "gamma", "exponent")
    rows = [(sol.rho_star, sol.beta, sol.delta, sol.gamma, sol.exponent)]
    _emit("exponents solve", columns, rows,
          dict.fromkeys(columns, "gaussian.solve_exponent_pipeline"))


@main.command("selfcheck")
@click.option("--only", multiple=True,
              help="Run only the named check(s); repeatable.")
@click.option("--seed", type=int, default=selfcheck.DEFAULT_SEED,
              show_default=True)
@click.option("--list", is_flag=True, help="List check names and exit.")
def selfcheck_cmd(only, seed, list):  # noqa: A002 (named by its flag)
    """Run the built-in verification battery; nonzero exit on failure."""
    if list:
        for name in selfcheck.CHECK_NAMES:
            click.echo(name)
        return
    unknown = [name for name in only if name not in selfcheck.CHECK_NAMES]
    if unknown:
        raise click.UsageError(
            f"unknown check(s) {', '.join(unknown)}; see selfcheck --list"
        )
    names = only or selfcheck.CHECK_NAMES
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
