import itertools
import json
import math
import re
import threading
import time
import tracemalloc

import pytest

from polybh import cli, torusnorm
from polybh.bhverify import BleiReport, InequalityReport, verify_bh
from polybh.polyalgebra import from_json_dict as poly_from_json, majorant_sum, random_homogeneous
from polybh.torusnorm import SupNormEstimate, sup_certified
import numpy as np


def run(args):
    return cli.main(args)


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag(self, capsys):
        assert run(["verify-bh", "--m", "2"]) == 1

    def test_unknown_flag(self, capsys):
        assert run(["constants-table", "--m-max", "5", "--frob"]) == 1

    def test_missing_input_file(self, capsys, tmp_path):
        assert run(["lift", "--input", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize(
        "command, data, key",
        [
            (["lift"], {"terms": [{"n": 2, "re": 1.0}]}, "N"),
            (["lift"], {"N": 4, "terms": [{"re": 1.0}]}, "n"),
            (["bcq-sum", "--c", "0.5"], {"N": 4, "terms": [{"n": 4, "im": 1.0}]}, "re"),
            # wrong JSON types
            (["lift"], {"N": 4, "terms": [{"n": 2, "re": "1"}]}, "re"),
            (["lift"], {"N": 4, "terms": 5}, "terms"),
            (["lift"], {"N": [1], "terms": []}, "N"),
            (["bcq-sum", "--c", "0.5"], {"N": 4, "terms": [{"n": 4, "re": None}]}, "re"),
        ],
    )
    def test_malformed_json_is_an_error_line(self, command, data, key, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps(data))
        assert run(command + ["--input", str(q)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and repr(key) in err

    @pytest.mark.parametrize("c, fmt, message", [("700", "json", "n = 6 at c = 700.0"),
                                                 ("nan", "json", "c must be finite"),
                                                 ("nan", "csv", "c must be finite")],
                             ids=["overflow-json", "nan-json", "nan-csv"])
    def test_bcq_sum_c_out_of_range_is_an_error_line(self, c, fmt, message, tmp_path, capsys):
        # These used to end in "math range error" or a report writer's non-finite
        # value error, lines that name no option.
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"N": 6, "terms": [{"n": 6, "re": 1.0}]}))
        out = tmp_path / "bcq.out"
        assert run(["bcq-sum", "--input", str(q), "--c", c, "--format", fmt, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_nan_coefficient_is_an_error_line(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"N": 4, "terms": [{"n": 4, "re": math.nan}]}))
        out = tmp_path / "bcq.json"
        assert run(["bcq-sum", "--input", str(q), "--c", "0.5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bohr-small", "--r-step", "0"], "must be positive"),
            (["bohr-small", "--a-step", "0"], "must be positive"),
            (["bohr-small", "--a-step", "-1"], "must be positive"),
            (["verify-bh-multilinear", "--m", "2", "--n", "2", "--count", "2", "--starts", "0"],
             "starts must be >= 1"),
            (["check-wiener", "--count", "2", "--degree-max", "0"], "degree_max must be >= 1"),
            (["constants-table", "--m-max", "300"], "range"),  # OverflowError
            (["sidon-mn", "--m", "1", "--n", "2", "--budget", "3", "--format", "csv"],
             "needs m >= 2 and n >= 2"),  # the hypercontractive bound is undefined at m = 1
            (["sidon-N", "--N", "4", "--phase-points", "0"], "phase_points >= 1"),
            (["sidon-N", "--N", "4", "--mag-points", "1"], "mag_points >= 2"),
            (["verify-bh-multilinear", "--m", "2", "--n", "2", "--count", "2", "--iters", "0"],
             "iterations must be >= 1"),
            (["verify-bh", "--m", "2", "--n", "2", "--count", "2", "--iters", "-5"],
             "iterations must be >= 0"),
            (["random-campaign", "--m-set", "2", "--n-set", "2", "--count", "1", "--starts", "0"],
             "starts must be >= 1"),
            (["check-blei", "--m", "2", "--n", "0"], "axis of length 0"),  # was a vacuous pass
            (["verify-bh-multilinear", "--m", "2", "--n", "0"], "axis of length 0"),
            (["verify-bh-multilinear", "--m", "0", "--n", "2"], "at least one axis"),  # was a traceback
            # NaN used to reach math.ceil, whose message named no option.
            (["verify-bh", "--m", "2", "--n", "2", "--count", "2", "--grid-step", "nan"],
             "grid_step must be positive"),
            # 2 pi / 1e-320 is inf, and math.ceil(inf) used to be the message.
            (["verify-bh", "--m", "2", "--n", "2", "--count", "1", "--grid-step", "1e-320"],
             "needs inf nodes per axis; cap is 10000000"),
            (["check-blei", "--m", "9", "--n", "10", "--count", "1"],
             "a (10,)*9 table needs 1000000000 entries; cap is 10000000"),
            (["verify-bh-multilinear", "--m", "9", "--n", "10", "--count", "1"],
             "a (10,)*9 table needs 1000000000 entries; cap is 10000000"),
            # Past 64 axes only 2^64 entries are counted, a lower bound.
            (["check-blei", "--m", "65", "--n", "2", "--count", "1"],
             "needs at least 18446744073709551616 entries; cap is"),
            # One entry passes the cap; NumPy's own error for 100 axes named no option.
            (["check-blei", "--m", "100", "--n", "1", "--count", "1"],
             "--m 100: a dense table has at most 64 axes"),
            (["verify-bh-multilinear", "--m", "100", "--n", "1", "--count", "1"],
             "--m 100: a dense table has at most 64 axes"),
            # These two used to exit 2, the bracket missing 1/3.
            (["bohr-small", "--degree", "5"], "--degree"),
            (["bohr-small", "--r-step", "1e-7"], "--r-step"),
            (["bohr-small", "--a-step", "1e-7"], "cap is"),
            # Only the report writer used to refuse it, with a message that named no option.
            (["bohr-small", "--a-step", "inf"], "--a-step"),
            # These two used to allocate tens of GB: C(37, 8) index tuples, and
            # 200000 exponent vectors over 17984 primes.
            (["verify-bh", "--m", "8", "--n", "30", "--count", "1"], "cap is"),
            (["sidon-N", "--N", "200000", "--budget", "1"], "cap is"),
            # The polarization formula's 2^26 x 26 sign table used to end in a MemoryError traceback.
            (["check-harris", "--m", "26", "--n", "2", "--count", "1"], "cap is"),
            # These used to end in MemoryError tracebacks: 10^9 ascent starts (14.9 GiB),
            # parts of degree 1 to 10^5 whose sum the per-part cap missed, and a
            # list of 10^12 case blocks.  10^9 parts are refused as soon as the sum passes the cap.
            (["verify-bh", "--m", "2", "--n", "2", "--count", "1", "--starts", "1000000000"], "cap is"),
            (["random-campaign", "--m-set", "2", "--n-set", "2", "--count", "1", "--starts", "1000000000"],
             "cap is"),
            (["check-wiener", "--n", "2", "--count", "1", "--degree-max", "100000"], "cap is"),
            (["check-wiener", "--n", "2", "--count", "1", "--degree-max", "1000000000"], "cap is"),
            (["check-blei", "--m", "2", "--n", "2", "--count", "1000000000000"], "cap is"),
            # These two used to build budget-long seed and ratio lists, 15.7 us a seed.
            (["sidon-mn", "--m", "2", "--n", "2", "--budget", "1000000000"],
             "needs 1000000000 scored candidates; cap is"),
            (["sidon-N", "--N", "20", "--budget", "1000000000"], "needs 1000000000 scored patterns; cap is"),
            # 6.1e6 batches, about 4 hours: the spawn list used to run out of memory after a minute.
            (["check-bayart", "--m", "2", "--n", "2", "--count", "1", "--samples", "100000000000"],
             "needs 300000000000 term evaluations; cap is 10000000000"),
        ],
        ids=["r-step-0", "a-step-0", "a-step-negative", "multilinear-starts-0", "degree-max-0",
             "constants-overflow", "sidon-mn-m-1", "sidon-N-phase-points-0",
             "sidon-N-mag-points-1", "multilinear-iters-0", "iters-negative",
             "random-campaign-starts-0", "blei-n-0", "multilinear-n-0", "multilinear-m-0",
             "grid-step-nan", "grid-step-tiny", "blei-over-cap", "multilinear-over-cap",
             "bohr-small-degree-5", "bohr-small-r-step-1e-7", "bohr-small-table-cap",
             "bohr-small-a-step-inf", "random-polynomial-over-cap", "lift-over-cap",
             "harris-over-cap", "verify-bh-starts-over-cap", "random-campaign-starts-over-cap",
             "degree-max-over-cap", "degree-max-far-over-cap", "case-count-over-cap",
             "blei-over-64-axes", "blei-100-axes-n-1", "multilinear-100-axes-n-1",
             "sidon-mn-budget-over-cap", "sidon-N-budget-over-cap",
             "bayart-samples-over-cap"],
    )
    def test_out_of_range_value_is_an_error_line(self, argv, message, tmp_path, capsys):
        out = tmp_path / "r.json"
        # A first call imports modules (numpy.random, gettext); they load untraced.
        run(argv + ["--out", str(out)])
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = run(argv + ["--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        if "cap" in err:  # every refusal by an entry cap has one shape
            assert re.fullmatch(r"error: .* needs .*; cap is \d+\n", err)
        assert peak < 1 << 20  # refused before anything sized from the input is allocated
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check-blei", "verify-bh-multilinear"])
    def test_dense_table_over_the_cap_is_refused_before_drawing(self, command, tmp_path, capsys):
        # check-blei used to draw all 3163^2 entries (346 MB RSS) before refusing.
        out = tmp_path / "r.json"
        # A first call imports modules (numpy.random, gettext); they load untraced.
        run([command, "--m", "2", "--n", "3163", "--count", "1", "--out", str(out)])
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = run([command, "--m", "2", "--n", "3163", "--count", "1", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1 and capsys.readouterr().err.startswith("error:")
        assert peak < 1 << 20
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 9.9 TiB"), "error: out of memory: Unable to allocate 9.9 TiB"),
        (MemoryError(), "error: out of memory: an allocation was refused"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_is_an_error_line(self, threads, exc, line, monkeypatch, tmp_path, capsys):
        # The last resort for an allocation no cap refuses first, also from a pool thread.
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "check_blei", refuse)
        out = tmp_path / "r.json"
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "3", "--threads", threads,
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_report_value_is_an_error_line(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(cli, "check_blei", lambda *a, **k: BleiReport(math.inf, math.inf, True))
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "2", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.out == ""  # no "Infinity" in a report

    @pytest.mark.parametrize("m_max", ["1", "0", "-3"])
    def test_constants_table_below_m_two_is_a_usage_error(self, m_max, tmp_path, capsys):
        # The table starts at m = 2, so such a cap would write an empty table.
        out = tmp_path / "ct.json"
        assert run(["constants-table", "--m-max", m_max, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --m-max must be >= 2")
        assert not out.exists()

    def test_sidon_N_heuristic_budget_zero_is_an_error_line(self, capsys):
        # With no candidate scored, S(20) >= 1 would be reported unearned.
        assert run(["sidon-N", "--N", "20", "--budget", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: needs budget >= 1")

    def test_sidon_N_over_the_candidate_cap_is_an_error_line(self, tmp_path, capsys):
        # N = 8 at the default grids has 1.1e8 brute candidates and used to run for hours.
        out = tmp_path / "sn.json"
        assert run(["sidon-N", "--N", "8", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the brute search at N = 8 has 112303124 candidates")
        assert "--mag-points/--phase-points" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["random-campaign", "--count", "-1"],
                                      ["check-blei", "--m", "2", "--n", "2", "--count", "0"]])
    def test_count_below_one_is_a_usage_error(self, argv, tmp_path, capsys):
        # Such a count used to write an empty report and exit 0.
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --count")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["constants-table"], ["sidon-N", "--N", "20", "--budget", "1"],
                                      ["verify-bh", "--m", "2", "--n", "2", "--count", "1"]])
    def test_negative_seed_is_a_usage_error(self, argv, tmp_path, capsys):
        # NumPy's SeedSequence message named no flag, and constants-table exited 0.
        out = tmp_path / "r.json"
        assert run(argv + ["--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: argument --seed: must be an integer >= 0")
        assert not out.exists()
        assert run(argv + ["--seed", "0", "--out", str(out)]) == 0

    def test_random_general_rejects_degree_below_one(self):
        with pytest.raises(ValueError, match="degree_max"):
            cli._random_general(2, 0, seed=1)

    def test_violation_maps_to_exit_2(self, monkeypatch, tmp_path, capsys):
        # The verdict discipline makes honest violations unreachable, so the
        # exit-code wiring is tested with a stubbed verifier.
        fake = InequalityReport(
            lhs=10.0, rhs_constant=4.0,
            supnorm=SupNormEstimate(1.0, 1.0, np.zeros(2), {}),
            ratio=10.0, slack=-6.0, verdict="violated-numerically",
        )
        monkeypatch.setattr(cli, "verify_bh_batch", lambda Ps, *a, **k: [fake for _ in Ps])
        rc = run(["verify-bh", "--m", "2", "--n", "2", "--count", "2",
                  "--out", str(tmp_path / "r.json")])
        assert rc == 2


COMMON = {"seed": 123456789, "out": None, "format": "json"}
CAMPAIGN = {**COMMON, "threads": None}

# Minimal argv and every parsed dest and default, per subcommand.
PARSED = {
    "verify-bh": (["--m", "2", "--n", "3"], {
        **CAMPAIGN, "m": 2, "n": 3, "count": 100, "dist": "mix", "starts": None, "iters": 200,
        "grid_step": None}),
    "verify-bh-multilinear": (["--m", "2", "--n", "3"], {
        **CAMPAIGN, "m": 2, "n": 3, "count": 100, "starts": 8, "iters": 100}),
    "check-blei": (["--m", "2", "--n", "3"], {**CAMPAIGN, "m": 2, "n": 3, "count": 1000}),
    "check-bayart": (["--m", "2", "--n", "3"], {
        **CAMPAIGN, "m": 2, "n": 3, "count": 100, "samples": 100000}),
    "check-proof-step": (["--m", "2", "--n", "3"], {**CAMPAIGN, "m": 2, "n": 3, "count": 100}),
    "check-harris": (["--m", "2", "--n", "3"], {**CAMPAIGN, "m": 2, "n": 3, "count": 100}),
    "check-wiener": ([], {**CAMPAIGN, "count": 50, "n": 2, "degree_max": 5}),
    "random-campaign": ([], {
        **CAMPAIGN, "count": 10, "m_set": [2, 3, 4, 5], "n_set": [2, 3, 4, 5, 6], "starts": 4,
        "iters": 80}),
    "sidon-mn": (["--m", "2", "--n", "3"], {
        **COMMON, "m": 2, "n": 3, "budget": 200, "strategy": "random-sign", "witness_out": None}),
    "bohr-radius": (["--n", "100"], {**COMMON, "n": [100]}),
    "bohr-small": ([], {**COMMON, "a_step": 0.001, "r_step": 0.001, "degree": 50}),
    "lift": (["--input", "q.json"], {**COMMON, "input": "q.json"}),
    "sidon-N": (["--N", "4"], {**COMMON, "N": 4, "budget": 200, "mag_points": 5,
                               "phase_points": 8}),
    "bcq-sum": (["--input", "q.json", "--c", "0.5"], {
        **COMMON, "input": "q.json", "c": 0.5, "n_start": 3}),
    "constants-table": ([], {**COMMON, "m_max": 20}),
}


class TestCommandTable:
    @pytest.mark.parametrize("name", list(PARSED))
    def test_parsed_defaults(self, name):
        rest, expected = PARSED[name]
        parsed = vars(cli.build_parser().parse_args([name] + rest))
        assert callable(parsed.pop("func"))
        assert parsed == {"command": name, **expected}

    def test_help_names_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        listed = re.findall(r"^ {4}(\S+)", capsys.readouterr().out, re.MULTILINE)
        assert sorted(listed) == sorted(PARSED)


class TestVerifyBh:
    def test_csv_campaign(self, tmp_path, capsys):
        out = tmp_path / "vb.csv"
        rc = run(["verify-bh", "--m", "3", "--n", "4", "--count", "6", "--seed", "7",
                  "--iters", "60", "--format", "csv", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        config = [l for l in lines if l.startswith("#")]
        assert any("command=verify-bh" in l for l in config)
        assert any("seed=7" in l for l in config)
        body = [l for l in lines if not l.startswith("#")]
        assert body[0].split(",")[:4] == ["case", "m", "n", "distribution"]
        assert len(body) == 7  # header + 6 rows
        assert all(row.endswith("verified") for row in body[1:])

    def test_certified_mode_reports_upper(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        rc = run(["verify-bh", "--m", "2", "--n", "2", "--count", "2", "--grid-step", "0.05",
                  "--out", str(out)])
        assert rc == 0
        for row in json.loads(out.read_text())["rows"]:
            assert row["sup_upper"] >= row["sup_lower"]
            assert row["verdict"] == "verified"

    def test_certified_mode_runs_where_only_the_slice_fits(self, tmp_path, capsys):
        # At the step 0.5 / m the (2, 4) grid has L = 26 nodes per axis;
        # the slice evaluated has 26^3 points, the lattice 26^4.
        out = tmp_path / "cert.json"
        assert run(["verify-bh", "--m", "2", "--n", "4", "--count", "1", "--grid-step", "0.25",
                    "--out", str(out)]) == 0
        row, = json.loads(out.read_text())["rows"]
        assert row["sup_upper"] >= row["sup_lower"]

    def test_certified_mode_reaches_five_variables(self, tmp_path, capsys):
        # The (3, 5) slice has 38^4 = 2.09M points, under the 10^7 cap.
        out = tmp_path / "cert.json"
        assert run(["verify-bh", "--m", "3", "--n", "5", "--count", "1", "--grid-step", repr(0.5 / 3),
                    "--out", str(out)]) == 0
        row, = json.loads(out.read_text())["rows"]
        assert isinstance(row["sup_upper"], float) and row["sup_upper"] >= row["sup_lower"]

    def test_certified_mode_over_the_cap_is_an_error_line(self, tmp_path, capsys):
        # The (5, 5) slice has 63^4 = 15.8M points, over the 10^7 cap.
        out = tmp_path / "cert.json"
        assert run(["verify-bh", "--m", "5", "--n", "5", "--count", "1", "--grid-step", "0.1",
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "cap is" in err[0]
        assert not out.exists()

    def test_every_row_is_bracketed(self, tmp_path, capsys):
        # All 20 default (m, n) pairs: each row's ascent lower bound under its certified_upper.
        out = tmp_path / "rc.json"
        assert run(["random-campaign", "--count", "2", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        for m, n in itertools.product(range(2, 6), range(2, 7)):
            assert run(["verify-bh", "--m", str(m), "--n", str(n), "--count", "2", "--starts", "4",
                        "--iters", "80", "--out", str(out)]) == 0
            rows += json.loads(out.read_text())["rows"]
        assert len(rows) == 80 and len({(row["m"], row["n"]) for row in rows}) == 20
        for row in rows:
            assert isinstance(row["sup_upper"], float) and row["sup_upper"] >= row["sup_lower"] > 0
            assert row["slack"] == row["constant"] - row["ratio"] and row["verdict"] == "verified"

    def test_json_campaign_embeds_config(self, tmp_path, capsys):
        out = tmp_path / "vb.json"
        rc = run(["verify-bh", "--m", "2", "--n", "2", "--count", "3", "--iters", "40",
                  "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["config"]["command"] == "verify-bh"
        assert data["config"]["m"] == 2
        assert len(data["rows"]) == 3
        assert all(r["verdict"] == "verified" for r in data["rows"])


class TestCampaignCommands:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify-bh-multilinear", "--m", "2", "--n", "2", "--count", "3", "--iters", "30"],
            ["check-blei", "--m", "2", "--n", "3", "--count", "10"],
            ["check-bayart", "--m", "2", "--n", "2", "--count", "3", "--samples", "5000"],
            ["check-proof-step", "--m", "3", "--n", "3", "--count", "5"],
            ["check-harris", "--m", "3", "--n", "2", "--count", "5"],
            ["check-wiener", "--n", "2", "--count", "3", "--degree-max", "3"],
        ],
    )
    def test_runs_clean(self, args, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(args + ["--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["rows"]

    def test_check_bayart_rows_name_their_judge(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert run(["check-bayart", "--m", "3", "--n", "3", "--count", "3", "--format", "csv",
                    "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines()[-1] == (
            "check-bayart: 3 cases, 3 certified by moments, 0 statistical flags at 3 sigma"
            " in 0 Monte Carlo rows (0.00%)")
        header, *rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
        assert header[-6:] == ["l1_lower", "l1_estimate", "stderr", "bound", "judge", "passed"]
        # No sample was drawn: the estimate's cells are empty.
        assert all(row[-6] and row[-5:-3] == ["", ""] and row[-2:] == ["moments", "True"] for row in rows)

    def test_bayart_flags_count_monte_carlo_rows_only(self):
        certified = [("moments", True)] * 200
        assert cli._bayart_flags(certified + [("monte-carlo", True)] * 99 + [("monte-carlo", False)]) == (
            "200 certified by moments, 1 statistical flags at 3 sigma in 100 Monte Carlo rows (1.00%)", False)
        # One flag in one sampled row is a 100% rate, however many rows the moments certified.
        assert cli._bayart_flags(certified + [("monte-carlo", False)]) == (
            "200 certified by moments, 1 statistical flags at 3 sigma in 1 Monte Carlo rows (100.00%)", True)


class TestSingleShotCommands:
    def test_sidon_mn_with_witness(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        wit = tmp_path / "w.json"
        rc = run(["sidon-mn", "--m", "2", "--n", "2", "--budget", "10", "--format", "csv",
                  "--out", str(out), "--witness-out", str(wit)])
        assert rc == 0
        P = poly_from_json(json.loads(wit.read_text()))
        assert (P.m, P.n) == (2, 2)
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        header = body[0].split(",")
        assert header == ["m", "n", "upper_hyper", "upper_trivial", "lower_search", "screen_ratio",
                          "witness_file"]

    def test_sidon_mn_witness_replays_the_certified_lower_bound(self, tmp_path, capsys):
        # The witness file alone gives the reported lower bound again, bit for bit:
        # its coefficient sum over the certified upper bound of its sup norm.
        out, wit = tmp_path / "s.json", tmp_path / "w.json"
        assert run(["sidon-mn", "--m", "3", "--n", "3", "--budget", "20", "--out", str(out),
                    "--witness-out", str(wit)]) == 0
        row, = json.loads(out.read_text())["rows"]
        P = poly_from_json(json.loads(wit.read_text()))
        assert row["lower_search"] == majorant_sum(P, 1.0) / torusnorm._finest_upper(P)[0]
        assert 1.0 < row["lower_search"] <= row["screen_ratio"]
        assert capsys.readouterr().err == f"sidon-mn: S(3,3) in [{row['lower_search']:.6g}, 3.16228]\n"

    def test_witness_is_written_after_the_report(self, tmp_path, capsys):
        # A run whose report fails must not leave its witness behind.
        wit = tmp_path / "w.json"
        rc = run(["sidon-mn", "--m", "2", "--n", "2", "--budget", "3", "--witness-out", str(wit),
                  "--out", str(tmp_path / "missing" / "r.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not wit.exists()

    def test_bohr_radius(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        rc = run(["bohr-radius", "--n", "100", "1000", "--format", "csv", "--out", str(out)])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 3
        assert body[0].split(",")[:4] == ["n", "K_lower", "K_upper", "b_lower"]

    def test_bohr_small(self, tmp_path, capsys):
        out = tmp_path / "k1.json"
        rc = run(["bohr-small", "--a-step", "0.005", "--r-step", "0.002", "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["r_pass"] <= 1 / 3 <= row["r_fail"]

    @pytest.mark.parametrize("r_step", ["5e-4", "2.5e-4", "2e-4", "1e-4"])
    def test_bohr_small_fine_r_step_contains_one_third(self, r_step, tmp_path, capsys):
        # Each used to exit 2 with MISSES 1/3.
        out = tmp_path / "k1.json"
        assert run(["bohr-small", "--r-step", r_step, "--out", str(out)]) == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["r_pass"] <= 1 / 3 <= row["r_fail"]

    def test_bohr_small_default_report(self, tmp_path, capsys):
        out = tmp_path / "k1.csv"
        assert run(["bohr-small", "--format", "csv", "--out", str(out)]) == 0
        body = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert body == ["r_pass,r_fail,a_step,r_step,degree", "0.333,0.334,0.001,0.001,50"]

    def test_lift_round_trip(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"N": 6, "terms": [
            {"n": 2, "re": 1.0, "im": 0.0},
            {"n": 3, "re": 0.0, "im": 1.0},
            {"n": 6, "re": -1.0, "im": 0.0},
        ]}))
        out = tmp_path / "lift.json"
        assert run(["lift", "--input", str(q), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["command"] == "lift"
        P = poly_from_json(data)
        assert P.parts[1].coeffs == {(1,): 1.0, (2,): 1j}
        assert P.parts[2].coeffs == {(1, 2): -1.0}

    def test_lift_writes_json_only(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"N": 4, "terms": [{"n": 2, "re": 1.0}]}))
        out = tmp_path / "lift.csv"
        assert run(["lift", "--input", str(q), "--format", "csv", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()
        assert run(["lift", "--input", str(q), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["format"] == "json"

    def test_sidon_N(self, tmp_path, capsys):
        out = tmp_path / "sn.csv"
        rc = run(["sidon-N", "--N", "4", "--format", "csv", "--out", str(out)])
        assert rc == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0].split(",") == ["N", "lower", "method", "asymptotic_c", "formula_value"]
        assert float(body[1].split(",")[1]) > 1.005

    def test_bcq_sum(self, tmp_path, capsys):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"N": 4, "terms": [{"n": 4, "re": 1.0, "im": 0.0}]}))
        out = tmp_path / "bcq.json"
        rc = run(["bcq-sum", "--input", str(q), "--c", repr(1 / math.sqrt(2)), "--out", str(out)])
        assert rc == 0
        row = json.loads(out.read_text())["rows"][0]
        assert row["value"] == pytest.approx(0.8046674531326952, rel=1e-9)

    def test_constants_table(self, tmp_path, capsys):
        out = tmp_path / "ct.csv"
        assert run(["constants-table", "--m-max", "8", "--format", "csv", "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 8  # header + m = 2..8
        first = body[1].split(",")
        assert first[0] == "2"
        assert float(first[2]) == pytest.approx(4.0)


RANDOM_CAMPAIGN = ["random-campaign", "--m-set", "2", "4", "--n-set", "3", "--count", "4"]
VERIFY_BH = ["verify-bh", "--m", "4", "--n", "3", "--count", "4", "--starts", "4", "--iters", "80"]


class TestDeterminism:
    def test_reports_identical_across_thread_counts(self, tmp_path, capsys):
        blobs = []
        for threads in ("1", "4", "16"):
            out = tmp_path / f"camp-{threads}.csv"
            rc = run(["random-campaign", "--m-set", "2", "3", "--n-set", "2", "3",
                      "--count", "2", "--seed", "99", "--threads", threads,
                      "--iters", "40", "--format", "csv", "--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_check_bayart_identical_across_thread_counts(self, tmp_path, capsys):
        blobs = []
        for threads in ("1", "2"):
            out = tmp_path / f"bayart-{threads}.json"
            assert run(["check-bayart", "--m", "2", "--n", "4", "--count", "6", "--seed", "7",
                        "--threads", threads, "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("argv, threads, chunk, chunks", [
        pytest.param(RANDOM_CAMPAIGN, "1", None, [4, 4], id="1-None"),
        pytest.param(RANDOM_CAMPAIGN, "2", None, [4, 4], id="2-None"),
        pytest.param(RANDOM_CAMPAIGN, "2", 144, [2, 2, 4], id="2-144"),
        pytest.param(VERIFY_BH, "1", 144, [2, 2], id="verify-bh-1-144"),
        pytest.param(VERIFY_BH, "2", None, [4], id="verify-bh-2-None"),
        pytest.param(VERIFY_BH + ["--grid-step", "0.125"], "1", None, [], id="verify-bh-certified-1"),
        pytest.param(VERIFY_BH + ["--grid-step", "0.125"], "2", None, [], id="verify-bh-certified-2"),
    ])
    def test_random_campaign_rows_are_per_case_verify_bh(self, argv, threads, chunk, chunks, tmp_path,
                                                         capsys, monkeypatch):
        # The cases of each (m, n) run as one batched ascent: random-campaign
        # walks its pairs in order, verify-bh has the --count cases of its
        # one pair.  A chunk cap of 144 entries holds all four (2, 3) cases,
        # 4 * (6 + 3) entries each, but splits the four (4, 3) cases into
        # chunks of 2 cases of 4 * (15 + 3).  A run at --grid-step has no ascent.
        if chunk is not None:
            monkeypatch.setattr(torusnorm, "ASCENT_BATCH_ELEMENTS", chunk)
        built, seen, make, ascent = [], [], cli.random_homogeneous, torusnorm._ascent
        monkeypatch.setattr(cli, "random_homogeneous", lambda *a, **k: built.append(1) or make(*a, **k))
        monkeypatch.setattr(torusnorm, "_ascent",
                            lambda A, Ps, *rest: seen.append((len(Ps), len(built))) or ascent(A, Ps, *rest))
        out = tmp_path / "rc.json"
        assert run(argv + ["--seed", "17", "--threads", threads, "--out", str(out)]) == 0
        assert sorted(size for size, _ in seen) == chunks
        if threads == "1":  # the P of a chunk are built just before it runs
            assert [count for _, count in seen] == np.cumsum([size for size, _ in seen]).tolist()
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == (8 if argv is RANDOM_CAMPAIGN else 4)
        grid_step = 0.125 if "--grid-step" in argv else None
        for row in rows:
            P = random_homogeneous(row["m"], row["n"], row["distribution"], seed=row["case_seed"])
            rep = verify_bh(P, starts=4, iterations=80, seed=row["case_seed"], grid_step=grid_step)
            assert (row["lhs"], row["sup_lower"], row["sup_upper"], row["ratio"], row["slack"],
                    row["verdict"]) == (rep.lhs, rep.supnorm.lower, rep.supnorm.upper, rep.ratio,
                                        rep.slack, rep.verdict)
            if grid_step is not None:
                est = sup_certified(P, grid_step)
                assert (row["sup_lower"], row["sup_upper"]) == (est.lower, est.upper)

    @pytest.mark.parametrize("argv", [VERIFY_BH, VERIFY_BH + ["--grid-step", "0.125"]],
                             ids=["verify-bh", "verify-bh-certified"])
    def test_verify_bh_runs_without_a_pool(self, argv, tmp_path, capsys, monkeypatch):
        # One batched call for its one (m, n), in the calling thread: a pool would have nothing to spread.
        rows = {}
        for threads in ("1", "2"):
            out = tmp_path / f"rc-{threads}.json"
            assert run(argv + ["--seed", "17", "--threads", threads, "--out", str(out)]) == 0
            rows[threads] = json.loads(out.read_text())["rows"]

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was constructed")

        monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
        out = tmp_path / "rc-2-no-pool.json"
        assert run(argv + ["--seed", "17", "--threads", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["rows"] == rows["2"] == rows["1"]

    def test_random_campaign_spreads_its_pairs_on_the_pool(self, tmp_path, capsys, monkeypatch):
        # One batched call per (m, n) pair; at --threads 2 the pairs go to two pool threads.
        rows, batch = {}, cli.verify_bh_batch
        for threads in ("1", "2"):
            calls = []

            def spy(Ps, *rest, **mode):
                calls.append(threading.get_ident())
                time.sleep(0.05)  # long enough that a second pool thread takes a pair
                return batch(Ps, *rest, **mode)

            monkeypatch.setattr(cli, "verify_bh_batch", spy)
            out = tmp_path / f"rc-{threads}.json"
            assert run(RANDOM_CAMPAIGN + ["--seed", "17", "--threads", threads, "--out", str(out)]) == 0
            rows[threads] = json.loads(out.read_text())["rows"]
            main = threading.get_ident()
            if threads == "1":
                assert calls == [main, main]
            else:
                assert len(set(calls)) == 2 and main not in calls
        assert rows["2"] == rows["1"]
        assert [row["case"] for row in rows["2"]] == list(range(8))

    def test_per_case_campaigns_run_on_the_pool(self, tmp_path, capsys, monkeypatch):
        seen, blei = set(), cli.check_blei

        def spy(T):
            seen.add(threading.get_ident())
            time.sleep(0.05)  # long enough that a second pool thread takes a case
            return blei(T)

        monkeypatch.setattr(cli, "check_blei", spy)
        out = tmp_path / "blei.json"
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "8", "--threads", "2",
                    "--out", str(out)]) == 0
        assert len(seen) == 2 and threading.get_ident() not in seen
        assert [row["case"] for row in json.loads(out.read_text())["rows"]] == list(range(8))

    def test_rerun_identical(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"r{tag}.json"
            assert run(["verify-bh", "--m", "2", "--n", "3", "--count", "4", "--seed", "5",
                        "--iters", "40", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_thread_count_is_a_usage_error(self, value, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "2",
                    "--threads", value, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-2", "abc", "1.5"])
    def test_bad_env_threads_is_a_usage_error(self, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, value)
        out = tmp_path / "r.json"
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and cli.ENV_THREADS in err
        assert not out.exists()
        # --threads takes precedence, and single-shot commands never read it.
        assert run(["check-blei", "--m", "2", "--n", "2", "--count", "2", "--threads", "2",
                    "--out", str(out)]) == 0
        assert run(["constants-table", "--m-max", "3", "--out", str(tmp_path / "ct.json")]) == 0

    @pytest.mark.parametrize("argv", [["random-campaign", "--m-set", "2", "--n-set", "2", "--count", "1"],
                                      ["verify-bh", "--m", "2", "--n", "2", "--count", "1"]],
                             ids=["random-campaign", "verify-bh"])
    def test_bad_env_threads_is_a_usage_error_for_batched_campaigns(self, argv, tmp_path, capsys, monkeypatch):
        # The batched campaigns read and check the thread count as the per-case ones do.
        monkeypatch.setenv(cli.ENV_THREADS, "abc")
        out = tmp_path / "r.json"
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and cli.ENV_THREADS in err
        assert not out.exists()

    def test_env_thread_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.ENV_THREADS, "4")
        out = tmp_path / "env.csv"
        rc = run(["check-blei", "--m", "2", "--n", "2", "--count", "4",
                  "--format", "csv", "--out", str(out)])
        assert rc == 0


class TestStdout:
    def test_default_writes_stdout(self, capsys):
        rc = run(["constants-table", "--m-max", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)
        assert data["config"]["command"] == "constants-table"
