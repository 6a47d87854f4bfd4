"""Acceptance battery: one test per shipped verification criterion.

Each test runs the corresponding selfcheck once (results are cached at
module scope so the battery is executed a single time per session) and
reports a [PASS]/[FAIL] line through the terminal summary hook in
conftest.py. The assertion carries the check's own detail string, so a
red test explains itself.

The ratio-tail-envelope check holds a Monte Carlo tail sum at n = 10^4
against the finite-n Chernoff envelope and the exact Beta-law mean; the
asymptotic envelope 8 n^(-delta/2) is printed for reference only, since
the exact sum stays above it until log n ~ 600-650. See the README.

The last two tests pin rules that run_check applies to every check:
the time budget and the error for an unknown name.
"""

import itertools

import pytest

from partlab import selfcheck

_results = {}

# the unseeded checks are exact, so their detail text is pinned
_UNSEEDED_DETAILS = {
    "constants-pipeline": "rho*=1528.691213176 beta=0.01363853235 "
    "delta=0.006594420628 gamma=0.2483513948 exponent=0.003297210314",
    "graphicality-oracles": "11732 partitions over n<=26, 0 mismatches",
    "exact-small-values": "p(1)=0, p(2)=1/2, p(4)=2/5, r(1)=1, r(2)=3/4, r(3)=2/3",
    "probability-envelope": "29 even weights checked; p(60)=357635/966467 ~ 0.3700",
    "counting-oracle": "pi agreement n<=500: 501/501; pi(100)=190569292",
}


def _run(name):
    if name not in _results:
        _results[name] = selfcheck.run_check(name, seed=selfcheck.DEFAULT_SEED)
    return _results[name]


@pytest.mark.parametrize("name", selfcheck.CHECK_NAMES)
def test_criterion(name, acceptance_report):
    result = _run(name)
    acceptance_report.append(selfcheck.format_result(result))
    assert result.name == name
    if name in _UNSEEDED_DETAILS:
        assert result.seed is None
        assert result.detail.split("; time")[0] == _UNSEEDED_DETAILS[name]
    else:
        assert result.seed == selfcheck.DEFAULT_SEED
    assert result.passed, result.detail


def test_budget_overrun_fails(monkeypatch):
    clock = itertools.count(0.0, 5.0)  # each reading is 5 s after the last
    monkeypatch.setattr(selfcheck.time, "perf_counter", lambda: next(clock))
    result = selfcheck.run_check("constants-pipeline")
    assert not result.passed
    assert result.detail.endswith("; time 5.0s (budget 1s)")
    assert result.seed is None


def test_run_check_unknown_name():
    with pytest.raises(ValueError, match="'no-such-check'") as err:
        selfcheck.run_check("no-such-check")
    assert all(name in str(err.value) for name in selfcheck.CHECK_NAMES)
