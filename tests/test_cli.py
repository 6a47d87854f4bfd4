"""End-to-end tests for the command line interface.

Everything here goes through click's CliRunner, so stdout/stderr are
captured in-process and the console-script wiring itself is covered by
the packaging metadata rather than these tests.
"""

import json
import time

import pytest
from click.testing import CliRunner

from partlab import gaussian, selfcheck
from partlab.cli import main
from partlab.partitions import Partition


@pytest.fixture()
def runner():
    return CliRunner()


def lines(result):
    return result.output.splitlines()


class TestExact:
    def test_p_row_for_four(self, runner):
        res = runner.invoke(main, ["exact", "--p", "--n", "4"])
        assert res.exit_code == 0
        assert lines(res) == ["n,pi_n,graphical_count,p_exact", "4,5,2,2/5"]

    def test_p_multiple_n(self, runner):
        res = runner.invoke(main, ["exact", "--p", "--n", "0", "--n", "8"])
        assert res.exit_code == 0
        assert lines(res)[1] == "0,1,1,1/1"
        assert lines(res)[2].startswith("8,22,")

    def test_r_rows(self, runner):
        res = runner.invoke(main, ["exact", "--r", "--n", "2", "--n", "3"])
        assert res.exit_code == 0
        assert lines(res) == ["n,comparable_pairs,r_exact", "2,3,3/4", "3,6,2/3"]

    def test_r_two_sided(self, runner):
        res = runner.invoke(main, ["exact", "--r", "--n", "2", "--two-sided"])
        assert res.exit_code == 0
        # at n=2 every ordered pair compares, so the two-sided rate is 1
        assert lines(res)[1] == "2,4,1/1"

    def test_requires_exactly_one_mode(self, runner):
        for args in (["exact", "--n", "4"], ["exact", "--p", "--r", "--n", "4"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2
            assert res.output == "error: exactly one of --p or --r is required\n"

    def test_two_sided_rejected_for_p(self, runner):
        res = runner.invoke(main, ["exact", "--p", "--n", "4", "--two-sided"])
        assert res.exit_code == 2
        assert res.output.startswith("error: --two-sided")

    def test_cap_violation_is_one_line(self, runner):
        # the library refuses the largest weight before counting any
        started = time.perf_counter()
        res = runner.invoke(main, ["exact", "--p", "--n", "138", "--n", "139"])
        assert time.perf_counter() - started < 1.0
        assert res.exit_code == 2
        assert res.output == (
            "error: n = 139 above 138, the largest n whose Durfee-square "
            "count finishes within a minute\n")

    def test_former_caps_need_no_flag(self, runner):
        res = runner.invoke(main, ["exact", "--p", "--n", "62"])
        assert res.exit_code == 0
        assert lines(res)[1] == "62,1300156,480408,120102/325039"
        res = runner.invoke(main, ["exact", "--r", "--n", "40"])
        assert res.exit_code == 0
        assert lines(res)[1] == "40,470267954,235133977/697063122"
        res = runner.invoke(main, ["exact", "--help"])
        assert "--cap" not in res.output
        res = runner.invoke(main, ["exact", "--r", "--n", "31", "--cap", "31"])
        assert res.exit_code == 2
        assert res.output.startswith("error: No such option")
        assert res.output.count("\n") == 1

    def test_r_json_payload_at_cap(self, runner):
        # the payload pair exhaustion wrote at n = 30, byte for byte,
        # with the counting function that runs as provenance
        res = runner.invoke(main, ["exact", "--r", "--n", "30", "--output", "json"])
        assert res.exit_code == 0
        assert res.output == """\
{
  "manifest": {
    "artifact": "partlab",
    "parameters": {
      "mode": "r",
      "n": [
        30
      ],
      "two_sided": false
    },
    "provenance": {
      "comparable_pairs": "counting.comparable_count",
      "r_exact": "counting.comparable_count"
    },
    "seed": null,
    "subcommand": "exact",
    "version": "0.1.0"
  },
  "results": [
    {
      "comparable_pairs": 11253557,
      "n": 30,
      "r_exact": "11253557/31404816"
    }
  ]
}
"""

    def test_r_int64_limit_is_one_line(self, runner):
        started = time.perf_counter()
        res = runner.invoke(main, ["exact", "--r", "--n", "125"])
        assert time.perf_counter() - started < 1.0
        assert res.exit_code == 2
        assert res.output == (
            "error: n = 125 above 124, the largest n whose pi(n)^2 pairs fit "
            "the pair DP's int64 counts\n")


class TestSample:
    def test_dump_emits_partitions(self, runner):
        args = ["sample", "--n", "10", "--trials", "5", "--method", "exact",
                "--seed", "9", "--dump"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0
        rows = lines(res)
        assert len(rows) == 5
        for row in rows:
            parts = [int(tok) for tok in row.split(",")]
            assert sum(parts) == 10
            assert parts == sorted(parts, reverse=True)
        again = runner.invoke(main, args)
        assert again.output == res.output

    def test_summary_row(self, runner):
        res = runner.invoke(main, ["sample", "--n", "10", "--trials", "5",
                                   "--method", "fristedt", "--seed", "9"])
        assert res.exit_code == 0
        header, row = lines(res)
        assert header == "n,method,trials,attempts,seed"
        n, method, trials, attempts, seed = row.split(",")
        assert (n, method, trials, seed) == ("10", "fristedt", "5", "9")
        assert int(attempts) >= 5

    def test_summary_builds_no_partition(self, runner, monkeypatch):
        # without --dump the batch is never unpacked into Partition objects
        def refuse(*args, **kwargs):
            raise AssertionError("Partition built")

        monkeypatch.setattr(Partition, "__init__", refuse)
        monkeypatch.setattr(Partition, "from_sorted", classmethod(refuse))
        res = runner.invoke(main, ["sample", "--n", "1000", "--trials", "50",
                                   "--method", "fristedt-pdc", "--seed", "4"])
        assert res.exit_code == 0, res.output
        assert lines(res)[1].startswith("1000,fristedt-pdc,50,")
        with pytest.raises(AssertionError, match="Partition built"):
            runner.invoke(main, ["sample", "--n", "1000", "--trials", "50",
                                 "--method", "fristedt-pdc", "--seed", "4", "--dump"],
                          catch_exceptions=False)

    def test_pdc_method_accepted(self, runner):
        res = runner.invoke(main, ["sample", "--n", "30", "--trials", "3",
                                   "--method", "fristedt-pdc", "--seed", "4"])
        assert res.exit_code == 0

    def test_seed_is_mandatory(self, runner):
        res = runner.invoke(main, ["sample", "--n", "10", "--trials", "5"])
        assert res.exit_code == 2
        assert "--seed" in res.output
        assert res.output.startswith("error:")


class TestEstimators:
    def test_estimate_p_deterministic(self, runner):
        args = ["estimate-p", "--n", "12", "--trials", "400", "--seed", "5"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    def test_estimate_p_row_coherent(self, runner):
        res = runner.invoke(main, ["estimate-p", "--n", "12", "--trials", "400",
                                   "--seed", "5"])
        header, row = lines(res)
        assert header == "event,n,gamma,delta,trials,hits,estimate,ci_lo,ci_hi,seed"
        fields = row.split(",")
        assert fields[0] == "p-graphical"
        hits, trials = int(fields[5]), int(fields[4])
        assert float(fields[6]) == hits / trials
        assert float(fields[7]) <= float(fields[6]) <= float(fields[8])

    def test_estimate_r_runs(self, runner):
        res = runner.invoke(main, ["estimate-r", "--n", "10", "--trials", "200",
                                   "--seed", "6"])
        assert res.exit_code == 0
        assert lines(res)[1].startswith("r-dominance,10,")

    def test_exact_table_cap_is_one_line(self, runner):
        res = runner.invoke(main, ["estimate-p", "--n", "10000", "--trials", "5",
                                   "--seed", "5"])
        assert res.exit_code == 2
        assert res.output == (
            "error: n = 10000 above the exact sampler's table cap 2000; "
            "use method 'fristedt-pdc'\n")

    @pytest.mark.parametrize("command", ["estimate-p", "sample"])
    def test_boltzmann_size_limit_is_one_line(self, runner, command):
        res = runner.invoke(main, [command, "--n", "1000000000", "--trials", "5",
                                   "--seed", "5", "--method", "fristedt-pdc"])
        assert res.exit_code == 2
        assert res.output == (
            "error: n = 1000000000 above the Boltzmann sampler limit 10000000\n")

    def test_json_document_shape(self, runner):
        res = runner.invoke(main, ["estimate-p", "--n", "12", "--trials", "400",
                                   "--seed", "5", "--output", "json"])
        doc = json.loads(res.output)
        assert sorted(doc) == ["manifest", "results"]
        assert doc["manifest"]["subcommand"] == "estimate-p"
        assert doc["manifest"]["seed"] == 5
        assert doc["results"][0]["n"] == 12
        assert 0.0 <= doc["results"][0]["estimate"] <= 1.0


class TestPinnedExactOutput:
    """Seeded exact-method output, pinned byte for byte.  The exact
    sampler takes one index per partition from the stream, in order, so
    drawing and unranking them as one batch must not change a byte."""

    def test_estimate_p_json(self, runner):
        res = runner.invoke(main, ["estimate-p", "--n", "40", "--trials", "2000",
                                   "--method", "exact", "--seed", "5",
                                   "--output", "json"])
        assert res.exit_code == 0, res.output
        assert res.output == ESTIMATE_P_40_SEED_5

    def test_sample_dump(self, runner):
        res = runner.invoke(main, ["sample", "--n", "30", "--trials", "5",
                                   "--method", "exact", "--seed", "9", "--dump"])
        assert res.exit_code == 0, res.output
        assert res.output == SAMPLE_30_SEED_9


ESTIMATE_P_40_SEED_5 = """\
{
  "manifest": {
    "artifact": "partlab",
    "parameters": {
      "max_rejections": 10000000,
      "method": "exact",
      "n": 40,
      "trials": 2000
    },
    "provenance": {
      "ci": "stats.wilson_interval",
      "estimate": "sampling.estimate_p_mc"
    },
    "seed": 5,
    "subcommand": "estimate-p",
    "version": "0.1.0"
  },
  "results": [
    {
      "ci_hi": 0.4040054157716889,
      "ci_lo": 0.3614450903394054,
      "delta": null,
      "estimate": 0.3825,
      "event": "p-graphical",
      "gamma": null,
      "hits": 765,
      "n": 40,
      "seed": 5,
      "trials": 2000
    }
  ]
}
"""

SAMPLE_30_SEED_9 = """\
7,6,2,2,2,1,1,1,1,1,1,1,1,1,1,1
4,2,2,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1
11,4,2,2,1,1,1,1,1,1,1,1,1,1,1
7,5,5,3,1,1,1,1,1,1,1,1,1,1
14,4,4,4,4
"""


SURROGATE_HEADLINE_SEED_11 = """\
{
  "manifest": {
    "artifact": "partlab",
    "parameters": {
      "delta": 0.006594420627,
      "event": "headline",
      "gamma": 0.24,
      "multiplier": 0.1,
      "n": 1000000000000,
      "threshold": -1.0,
      "trials": 3000
    },
    "provenance": {
      "ci": "stats.wilson_interval",
      "estimate": "walks.estimate_event"
    },
    "seed": 11,
    "subcommand": "surrogate",
    "version": "0.1.0"
  },
  "results": [
    {
      "ci_hi": 0.5786690933927542,
      "ci_lo": 0.5431748870627561,
      "delta": 0.006594420627,
      "estimate": 0.561,
      "event": "headline",
      "gamma": 0.24,
      "hits": 1683,
      "n": 1000000000000,
      "seed": 11,
      "trials": 3000
    }
  ]
}
"""


class TestSurrogate:
    def test_json_output_pinned(self, runner):
        # stdout of the path-major evaluation that preceded step-major
        # blocks; its 3000 paths of 758 steps fill one block of each layout
        res = runner.invoke(main, ["surrogate", "--event", "headline",
                                   "--n", "1000000000000", "--gamma", "0.24",
                                   "--delta", "0.006594420627", "--multiplier", "0.1",
                                   "--trials", "3000", "--seed", "11", "--output", "json"])
        assert res.exit_code == 0, res.output
        assert res.output == SURROGATE_HEADLINE_SEED_11

    def test_eg_event_row(self, runner):
        res = runner.invoke(main, ["surrogate", "--event", "eg", "--n", "500",
                                   "--gamma", "0.2", "--trials", "50", "--seed", "2"])
        assert res.exit_code == 0
        fields = lines(res)[1].split(",")
        assert fields[0] == "eg"
        assert fields[3] == ""  # no delta for this event
        assert float(fields[6]) == int(fields[5]) / 50

    def test_log_event_runs(self, runner):
        res = runner.invoke(main, ["surrogate", "--event", "log", "--n", "500",
                                   "--gamma", "0.2", "--threshold", "0.0",
                                   "--trials", "50", "--seed", "2"])
        assert res.exit_code == 0

    def test_headline_requires_delta(self, runner):
        res = runner.invoke(main, ["surrogate", "--event", "headline", "--n", "1000",
                                   "--gamma", "0.2", "--trials", "10", "--seed", "1"])
        assert res.exit_code == 2
        assert res.output == "error: headline event needs delta > 0\n"

    @pytest.mark.parametrize("n", [10**30, 10**400])
    def test_overlong_paths_rejected_in_one_line(self, runner, n):
        res = runner.invoke(main, ["surrogate", "--event", "eg", "--n", str(n),
                                   "--gamma", "0.24", "--trials", "10", "--seed", "1"])
        assert res.exit_code == 2
        assert res.output.startswith("error: floor(n**gamma) = ")
        assert res.output.endswith(" steps, above the limit of 100000\n")
        assert res.output.count("\n") == 1

    def test_headline_with_delta(self, runner):
        res = runner.invoke(main, ["surrogate", "--event", "headline", "--n", "1000",
                                   "--gamma", "0.2", "--delta", "0.0066",
                                   "--trials", "50", "--seed", "1"])
        assert res.exit_code == 0
        fields = lines(res)[1].split(",")
        assert 0.0 <= float(fields[6]) <= 1.0


@pytest.mark.parametrize("args", [
    ["exponents", "solve", "--tolerance", "inf"],
    ["exponents", "solve", "--tolerance", "nan"],
    ["exponents", "solve", "--beta-override", "nan"],
    ["exponents", "solve", "--beta-override", "inf"],
    ["surrogate", "--event", "headline", "--delta", "nan"],
    ["surrogate", "--event", "headline", "--delta", "inf"],
    ["surrogate", "--event", "log", "--threshold", "nan"],
    ["surrogate", "--event", "headline", "--delta", "0.01", "--multiplier", "nan"],
    ["surrogate", "--event", "eg", "--delta", "-5"],
])
def test_non_finite_inputs_are_one_line(runner, args):
    if args[0] == "surrogate":
        args = args + ["--n", "1000", "--gamma", "0.2", "--trials", "10", "--seed", "1"]
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith("error: ")
    assert res.stderr.count("\n") == 1


class TestGaussianCommands:
    def test_cov_small_values(self, runner):
        res = runner.invoke(main, ["gp", "cov", "--m", "1", "--n", "2"])
        assert lines(res) == ["m,n,cov", "1,2,1.5"]

    def test_cov_matches_library(self, runner):
        res = runner.invoke(main, ["gp", "cov", "--m", "5", "--n", "10"])
        assert float(lines(res)[1].split(",")[2]) == gaussian.gp_cov(5, 10)

    @pytest.mark.parametrize("index, args", [
        ("1000000000000", ["cov", "--m", "1", "--n", "1000000000000"]),
        ("1000000000", ["persist", "--N", "1000000000", "--trials", "1",
                        "--seed", "1"]),
    ])
    def test_index_limit_is_one_line(self, runner, index, args):
        started = time.perf_counter()
        res = runner.invoke(main, ["gp"] + args)
        assert time.perf_counter() - started < 1.0
        assert res.exit_code == 2
        assert res.output == (
            f"error: index {index} above 4000000, the largest "
            "Gaussian-process index (one path per Monte Carlo block)\n")

    def test_persist_deterministic(self, runner):
        args = ["gp", "persist", "--N", "50", "--alpha", "0.1",
                "--trials", "300", "--seed", "3"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output
        header, row = lines(first)
        assert header == "N,alpha,trials,hits,estimate,ci_lo,ci_hi,seed"
        assert row.split(",")[0] == "50"


class TestExponents:
    def test_solve_default_json(self, runner):
        res = runner.invoke(main, ["exponents", "solve"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        row = doc["results"][0]
        assert abs(row["exponent"] - 0.003297210314) < 1e-9
        assert abs(row["rho_star"] - 1528.69121) < 1e-2
        assert abs(row["gamma"] + row["delta"] / 4 - 0.25) < 1e-12

    def test_beta_override_clears_rho(self, runner):
        res = runner.invoke(main, ["exponents", "solve", "--beta-override", "0.02"])
        doc = json.loads(res.output)
        assert doc["results"][0]["rho_star"] is None
        assert doc["results"][0]["beta"] == 0.02

    def test_csv_output_mode(self, runner):
        res = runner.invoke(main, ["exponents", "solve", "--output", "csv"])
        assert lines(res)[0] == "rho_star,beta,delta,gamma,exponent"
        assert len(lines(res)) == 2


class TestConfigFile:
    def test_plain_key_supplies_default(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials=500\ngp.persist.alpha=0.25\n# a comment\n")
        res = runner.invoke(main, ["--config", str(cfg), "gp", "persist",
                                   "--N", "50", "--seed", "3"])
        assert res.exit_code == 0
        fields = lines(res)[1].split(",")
        assert fields[1] == "0.25"
        assert fields[2] == "500"

    @pytest.mark.parametrize("args, want", [
        (["gp", "persist", "--N", "50", "--seed", "3"], {1: "0.25", 2: "500"}),
        (["estimate-r", "--n", "10", "--seed", "3"], {4: "500"}),
        (["exponents", "solve", "--output", "csv"], {0: "", 1: "2"}),
    ], ids=["gp-persist", "estimate-r", "exponents-solve"])
    def test_plain_key_supplies_default_per_command(self, runner, tmp_path,
                                                    args, want):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials=500\nbeta_override=2\ngp.persist.alpha=0.25\n"
                       "# a comment\n")
        res = runner.invoke(main, ["--config", str(cfg)] + args)
        assert res.exit_code == 0
        fields = lines(res)[1].split(",")
        for column, value in want.items():
            assert fields[column] == value

    def test_flag_overrides_config(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("trials=500\n")
        res = runner.invoke(main, ["--config", str(cfg), "gp", "persist",
                                   "--N", "50", "--seed", "3", "--trials", "200"])
        assert lines(res)[1].split(",")[2] == "200"

    def test_malformed_line_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("this is not a key value pair\n")
        res = runner.invoke(main, ["--config", str(cfg), "exact", "--p", "--n", "4"])
        assert res.exit_code == 2
        assert res.output.startswith("error:")

    @pytest.mark.parametrize("line, named", [
        ("trails = 7", "accepted: alpha, beta_override, big_n,"),
        ("surogate.trials = 5", "subcommands: exact, sample,"),
        ("gp.trials = 5", "gp.cov, gp.persist,"),
        ("gp.persist.N = 50", "accepted: alpha, big_n, out, output_format, seed, trials"),
    ], ids=["plain-typo", "subcommand-typo", "group-not-subcommand", "parameter-typo"])
    def test_key_matching_nothing_rejected(self, runner, tmp_path, line, named):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(line + "\n")
        res = runner.invoke(main, ["--config", str(cfg), "gp", "persist",
                                   "--N", "50", "--seed", "3"])
        assert res.exit_code == 2
        assert len(lines(res)) == 1
        assert res.output.startswith(f"error: config key {line.split(' =')[0]!r}")
        assert named in res.output


class TestOutputFiles:
    def test_out_writes_payload_and_sidecar(self, runner, tmp_path):
        target = tmp_path / "p4.csv"
        res = runner.invoke(main, ["exact", "--p", "--n", "4",
                                   "--out", str(target)])
        assert res.exit_code == 0
        assert res.output == ""
        assert target.read_text() == "n,pi_n,graphical_count,p_exact\n4,5,2,2/5\n"
        side = json.loads((tmp_path / "p4.csv.manifest.json").read_text())
        assert side["subcommand"] == "exact"
        assert "created_utc" in side
        assert "duration_s" in side

    def test_payload_ignores_environment(self, runner, monkeypatch):
        args = ["estimate-p", "--n", "12", "--trials", "300", "--seed", "7",
                "--output", "json"]
        monkeypatch.delenv("PARTLAB_THREADS", raising=False)
        plain = runner.invoke(main, args)
        monkeypatch.setenv("PARTLAB_THREADS", "2")
        threaded = runner.invoke(main, args)
        assert plain.exit_code == 0
        assert threaded.output_bytes == plain.output_bytes

    def test_payload_identical_across_reruns(self, runner, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["estimate-p", "--n", "12", "--trials", "300", "--seed", "7", "--out"]
        runner.invoke(main, base + [str(a)])
        runner.invoke(main, base + [str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSelfcheckCommand:
    def test_list_names_all_checks(self, runner):
        res = runner.invoke(main, ["selfcheck", "--list"])
        assert res.exit_code == 0
        assert lines(res) == list(selfcheck.CHECK_NAMES)

    def test_single_check_passes(self, runner):
        res = runner.invoke(main, ["selfcheck", "--only", "constants-pipeline"])
        assert res.exit_code == 0
        assert lines(res)[0].startswith("[PASS] constants-pipeline")
        assert lines(res)[-1] == "1/1 checks passed"

    def test_unknown_check_rejected(self, runner):
        res = runner.invoke(main, ["selfcheck", "--only", "bogus"])
        assert res.exit_code == 2
        assert res.output == "error: unknown check(s) bogus; see selfcheck --list\n"


def test_version_flag(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert res.output.startswith("partlab, version")
