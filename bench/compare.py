"""Run the benchmark repeatedly and compare two result sets.

Record runs (one JSON record per line; ``--side`` may be given twice, and the
two sides then alternate which runs first in each pair, one seed per pair):

    python3 bench/compare.py run --side parent=../polybh-parent --side change=. \\
        --workload theorem-campaign --pairs 10 --out runs.jsonl

Report one side's spread, or the parent/change verdicts when both are present:

    python3 bench/compare.py report runs.jsonl

The verdict rule: a gain needs the change to win at least 9 of 10 pairs (ties
count for neither) and the medians to differ by more than the parent's
interquartile range.  A metric whose parent spread (IQR over median) exceeds
its bound is "unresolved" unless every change run beats every parent run;
otherwise a median worse than the parent's by more than the bound is a
regression.  A rise in the failed fraction is flagged on its own.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load_spec(path: Path = HERE.parent / "BENCHMARK.json") -> dict:
    with open(path) as handle:
        return json.load(handle)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: list[float], change: list[float], metric: dict) -> dict:
    """Compare paired runs (parent[i] and change[i] share a seed) of one metric."""
    direction, bound = metric["better"], metric.get("bound")
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    losses = sum(1 for p, c in zip(parent, change) if better(p, c, direction))
    worse_by = (pmed - cmed if direction == "higher" else cmed - pmed) / abs(pmed) if pmed else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    out = {"parent_median": pmed, "change_median": cmed, "parent_iqr": p3 - p1,
           "wins": wins, "losses": losses, "pairs": len(parent), "worse_by": worse_by}
    if wins >= WIN_SHARE * len(parent) and abs(cmed - pmed) > p3 - p1 and better(cmed, pmed, direction):
        out["verdict"] = "gain"
    elif bound is not None and spread(parent) > bound and not all_better:
        out["verdict"] = "unresolved"
    elif bound is not None and worse_by > bound:
        out["verdict"] = "regression"
    else:
        out["verdict"] = "no-regression"
    return out


def failed_frac(records: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / attempted if attempted else 0.0


def compare(records: list[dict], spec: dict) -> dict:
    """Per workload: one verdict per metric, plus the failed-fraction flag."""
    rows = {}
    metrics = spec["end_to_end"] + spec["per_layer"]
    by_workload: dict[str, dict[str, dict[int, dict]]] = {}
    for rec in records:
        by_workload.setdefault(rec["workload"], {}).setdefault(rec["side"], {})[rec["pair"]] = rec
    for workload, sides in sorted(by_workload.items()):
        pairs = sorted(set(sides.get("parent", {})) & set(sides.get("change", {})))
        parent = [sides["parent"][i] for i in pairs]
        change = [sides["change"][i] for i in pairs]
        row = {"pairs": len(pairs), "failed_frac_parent": failed_frac(parent),
               "failed_frac_change": failed_frac(change), "metrics": {}}
        row["failed_frac_rose"] = row["failed_frac_change"] > row["failed_frac_parent"]
        row["incorrect_runs"] = sum(1 for r in parent + change if not r["correct"])
        for metric in metrics:
            name = metric["name"]
            if parent and all(name in r["metrics"] for r in parent + change):
                row["metrics"][name] = verdict([r["metrics"][name]["value"] for r in parent],
                                               [r["metrics"][name]["value"] for r in change], metric)
        rows[workload] = row
    return rows


def spreads(records: list[dict], spec: dict) -> dict:
    """Per side and workload: median, quartiles and spread of each end-to-end metric."""
    out: dict = {}
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in records:
        groups.setdefault((rec["side"], rec["workload"]), []).append(rec)
    for (side, workload), recs in sorted(groups.items()):
        row = {"runs": len(recs), "incorrect_runs": sum(1 for r in recs if not r["correct"]),
               "failed_frac": failed_frac(recs), "metrics": {}}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            row["metrics"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread(values),
                                    "bound": bounds.get(name)}
        out.setdefault(side, {})[workload] = row
    return out


def run_harness(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--root", str(root)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-2])["record"]


def cmd_run(args) -> int:
    sides = [tuple(s.split("=", 1)) for s in args.side]
    seconds = load_spec()["run_seconds"]
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = sides if pair % 2 == 0 else sides[::-1]
            for workload in args.workload:
                for label, root in order:
                    rec = run_harness(Path(root).resolve(), workload, seed, seconds, args.trace)
                    rec.update({"side": label, "pair": pair})
                    out.write(json.dumps(rec, sort_keys=True) + "\n")
                    out.flush()
                    print(f"{label} {workload} seed {seed}: correct={rec['correct']}", file=sys.stderr)
    return 0


def _fmt(x) -> str:
    return f"{x:.4g}" if isinstance(x, float) else str(x)


def cmd_report(args) -> int:
    spec = load_spec()
    records = []
    for path in args.files:
        with open(path) as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    sides = {r["side"] for r in records}
    if {"parent", "change"} <= sides:
        result = compare(records, spec)
        for workload, row in result.items():
            flag = "  FAILED FRACTION ROSE" if row["failed_frac_rose"] else ""
            print(f"{workload}: {row['pairs']} pairs, failed_frac {_fmt(row['failed_frac_parent'])} -> "
                  f"{_fmt(row['failed_frac_change'])}{flag}")
            for name, v in row["metrics"].items():
                print(f"  {name:45s} {v['verdict']:14s} parent {_fmt(v['parent_median'])} "
                      f"change {_fmt(v['change_median'])} wins {v['wins']}/{v['pairs']}")
    else:
        result = spreads(records, spec)
        for side, workloads in result.items():
            for workload, row in workloads.items():
                print(f"{side} {workload}: {row['runs']} runs, {row['incorrect_runs']} incorrect, "
                      f"failed_frac {_fmt(row['failed_frac'])}")
                for name, v in row["metrics"].items():
                    bound = v["bound"]
                    mark = "" if bound is None else ("ok" if v["spread"] < bound / 3 else "WIDE")
                    print(f"  {name:45s} median {_fmt(v['median'])} spread {_fmt(v['spread'])} "
                          f"bound {_fmt(bound)} {mark}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="record benchmark runs")
    r.add_argument("--side", action="append", required=True, help="LABEL=CHECKOUT (once or twice)")
    r.add_argument("--workload", action="append", required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_run)
    s = sub.add_parser("report", help="spread of one side, or parent/change verdicts")
    s.add_argument("files", nargs="+")
    s.set_defaults(func=cmd_report)
    args = p.parse_args(argv)
    if args.command == "run" and len(args.side) > 2:
        p.error("--side takes one or two checkouts")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
