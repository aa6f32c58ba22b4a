"""Self-tests of the benchmark harness: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

run.import_library(ROOT)

import workloads as wl  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# BENCHMARK.json and metric names
# ----------------------------------------------------------------------

def test_metric_names_units_and_bounds():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", m["name"])
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(wl.WORKLOADS))
def test_one_round_reports_every_metric(workload, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "0.01", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0, m["name"]


def test_stripped_checkout_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "proof-chain", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_cases_beyond():
    assert run.tail_percentile(5000) == 99
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(16) == 50
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def test_self_time_subtracts_replayed_children():
    tr = Tracer(True)
    tr.spans = [Span(0, "bhverify.verify_bh", 0.0, 1.0, None, 0, False),
                Span(1, "torusnorm.sup_lower", 1.0, 1.9, 0, 0, True),
                Span(2, "polyalgebra.coeff_norm", 1.9, 1.95, 0, 0, True)]
    assert tr.self_times()["bhverify.verify_bh"] == pytest.approx(0.05)
    assert tr.busy()["torusnorm.sup_lower"] == pytest.approx(0.9)
    assert tr.top_level_s() == pytest.approx(1.0)


def test_replay_of_a_directly_called_name_counts_once():
    tr = Tracer(True)
    tr.spans = [Span(0, "dirichlet.bohr_lift", 0.0, 0.1, None, 0, False),
                Span(1, "dirichlet.dirichlet_sup", 0.1, 1.0, None, 0, False),
                Span(2, "dirichlet.bohr_lift", 1.0, 1.1, 1, 0, True),
                Span(3, "torusnorm.sup_lower", 1.1, 1.8, 1, 0, True)]
    assert tr.busy()["dirichlet.bohr_lift"] == pytest.approx(0.1)
    assert tr.calls()["dirichlet.bohr_lift"] == 1
    assert tr.busy()["torusnorm.sup_lower"] == pytest.approx(0.7)
    assert tr.self_times()["dirichlet.dirichlet_sup"] == pytest.approx(0.1)


def test_disabled_tracer_records_nothing():
    tr = Tracer(False)
    assert tr.call("x.y", lambda a: a + 1, 1) == 2
    assert tr.replay("x.z", lambda: 1) is None
    tr.count("x.n", 5)
    assert tr.spans == [] and not tr.counts


# ----------------------------------------------------------------------
# Compare tool
# ----------------------------------------------------------------------

METRIC = {"name": "cases_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}


def _records(side, values, failed=0):
    return [{"side": side, "pair": i, "workload": "w", "correct": failed == 0, "attempted": 100,
             "failed": failed, "metrics": {"cases_per_s": {"value": v, "unit": "1/s"}}}
            for i, v in enumerate(values)]


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_compare_claims_a_clear_gain():
    v = compare.verdict(PARENT, [x * 1.2 for x in PARENT], METRIC)
    assert v["verdict"] == "gain" and v["wins"] == 10


def test_compare_no_gain_when_wins_are_too_few():
    change = [x * 1.2 for x in PARENT]
    change[0] = change[1] = 90.0
    assert compare.verdict(PARENT, change, METRIC)["verdict"] == "no-regression"


def test_compare_flags_a_regression():
    assert compare.verdict(PARENT, [x * 0.8 for x in PARENT], METRIC)["verdict"] == "regression"


def test_compare_unresolved_when_the_parent_spreads_wider_than_the_bound():
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    change = [x * 0.95 for x in noisy]
    assert compare.verdict(noisy, change, METRIC)["verdict"] == "unresolved"


def test_compare_tie_is_no_regression():
    v = compare.verdict(PARENT, list(PARENT), METRIC)
    assert v["verdict"] == "no-regression" and v["wins"] == 0 and v["losses"] == 0


def test_compare_flags_a_rise_in_failed_fraction():
    spec = {"end_to_end": [METRIC], "per_layer": []}
    rows = compare.compare(_records("parent", PARENT) + _records("change", PARENT, failed=1), spec)
    assert rows["w"]["failed_frac_rose"]
    assert rows["w"]["failed_frac_change"] == pytest.approx(0.01)


# ----------------------------------------------------------------------
# Output checks reject corrupted results
# ----------------------------------------------------------------------

def _run(workload, case):
    result = workload.run(case, Tracer(False))
    assert workload.check(case, result) is None
    return result


def test_theorem_check_rejects_corruption():
    w = wl.TheoremCampaign()
    case = w.warmup(5, Tracer(False))[7]
    rep = _run(w, case)
    assert w.check(case, dataclasses.replace(rep, verdict="inconclusive"))
    assert w.check(case, dataclasses.replace(rep, verdict="violated-numerically"))
    assert w.check(case, dataclasses.replace(rep, ratio=1e3))
    assert w.check(case, dataclasses.replace(rep, supnorm=dataclasses.replace(rep.supnorm, lower=1e9)))
    assert w.check(case, dataclasses.replace(rep, verdict="inconclusive", ratio=1e3)) is None
    verified = wl.Record(case, rep, 0.0)
    inconclusive = wl.Record(case, dataclasses.replace(rep, verdict="inconclusive", ratio=1e3), 0.0)
    assert not w.aggregate_errors([verified] * 199 + [inconclusive])
    assert w.aggregate_errors([verified] * 198 + [inconclusive] * 2)


def test_theorem_check_accepts_a_stalled_ascent():
    # A case of seed 2025631264: four starts stall at 0.28 against a sup of
    # 1.99, so verify_bh is rightly inconclusive.
    w = wl.TheoremCampaign()
    s = 13336188653139918848
    P = wl.random_homogeneous(2, 2, "complex-gaussian", seed=s)
    case = wl.Case("verify_bh", {"P": P, "seed": s})
    rep = w.run(case, Tracer(False))
    assert rep.verdict == "inconclusive"
    assert w.check(case, rep) is None


def test_proof_chain_checks_reject_corruption():
    w = wl.ProofChain()
    cases = w.make_round(5, 0, Tracer(False))
    chain, multi = cases[0], cases[-1]
    res = _run(w, chain)
    for key in ("step", "harris", "blei"):
        assert w.check(chain, {**res, key: dataclasses.replace(res[key], passed=False)})
    assert w.check(chain, {**res, "step": dataclasses.replace(res["step"], parseval_max_rel_err=1e-9)})
    assert w.check(chain, {**res, "upper": res["upper"] * 10})
    assert w.check(chain, {**res, "upper": res["upper"] * 1e-3})
    rep = _run(w, multi)
    assert w.check(multi, dataclasses.replace(rep, verdict="inconclusive"))
    flagged = wl.Record(chain, {**res, "bayart": dataclasses.replace(res["bayart"], passed=False)}, 0.0)
    assert w.aggregate_errors([flagged])
    assert not w.aggregate_errors([wl.Record(chain, res, 0.0)])


def test_dirichlet_sidon_checks_reject_corruption():
    w = wl.DirichletSidon()
    cases = {c.kind: c for c in w.warmup(5, Tracer(False))}
    d = cases["dirichlet"]
    res = _run(w, d)
    assert w.check(d, {**res, "lifted_sum": res["lifted_sum"] * (1 + 1e-15) + 1e-12})
    assert w.check(d, {**res, "sup": dataclasses.replace(res["sup"], lower=res["l1"] * 2)})
    s = cases["sidon_search"]
    rep = _run(w, s)
    assert w.check(s, dataclasses.replace(rep, lower_search=0.5))
    assert w.check(s, dataclasses.replace(rep, lower_search=1e6))
    n4 = wl.Case("sidon_N", {"N": 4})
    rep = _run(w, n4)
    assert w.check(n4, dataclasses.replace(rep, lower=1.0))
    sweep = wl.Case("bohr_sweep", {"dims": [100, 10**4]})
    reps = _run(w, sweep)
    (r0, v0), (r1, v1) = reps
    assert w.check(sweep, [(r0, 0.6), (r1, v1)])
    assert w.check(sweep, [(dataclasses.replace(r0, certificate_value=0.51), v0), (r1, v1)])
    assert w.check(sweep, [(r1, v1), (r0, v0)])  # b(n) must increase
    small = cases["bohr_small"]
    rep = _run(w, small)
    assert w.check(small, dataclasses.replace(rep, r_fail=0.3))


def test_cli_check_rejects_corruption(tmp_path):
    w = wl.CliCampaign(str(tmp_path))
    case = w.make_round(5, 0, Tracer(False))[0]
    res = _run(w, case)
    assert w.check(case, {**res, "code": 2})
    assert w.check(case, {**res, "report": None})
    report = json.loads(res["report"])
    report["rows"][3]["verdict"] = "inconclusive"
    assert w.check(case, {**res, "report": json.dumps(report)})
    report["rows"] = report["rows"][:-1]
    assert w.check(case, {**res, "report": json.dumps(report)})
