"""polybh benchmark harness: one workload, one seed, one process.

    python3 bench/run.py --workload theorem-campaign --seed 1 --seconds 10 --trace 0

Set-up imports polybh from ``src/`` of the checkout, generates the workload's
fixed pool of input rounds from the seed and warms up; generation and warm-up
are repeated and their median reported.  The timed phase is a closed loop,
one case after another, over whole rounds taken cyclically from the pool,
until ``--seconds`` have passed and every pool round has run.  Every output is
checked afterwards.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it runs each round untraced and then traced for as long
and reports the per-layer metrics, writing its spans to ``bench/out/``.  The
last line of standard output is the result; the line before it is the full
record with provenance.  Exit code 1 means the run could not be made.
"""

from __future__ import annotations

import os

# Pin BLAS pools before numpy loads, so a run's threads stay within nproc.
BLAS_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ALLOWED_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
MAX_PROBED_CPUS = 4
PROBE_EVERY_S = 0.1
SETUP_REPS = 5
# The timings describe the fastest rounds that together hold FAST_SHARE of
# the run's timed units, and at least FAST_MIN_UNITS of them.
FAST_SHARE = 0.1
FAST_MIN_UNITS = 150
TAIL_BEYOND = 10  # the tail percentile keeps at least this many cases beyond it


class HarnessError(Exception):
    pass


def load_spec(root: Path) -> dict:
    try:
        with open(root / "BENCHMARK.json") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc


def _probe_s() -> float:
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


def pin_to_fastest_cpu() -> None:
    """Move this process to the allowed CPU that runs a short fixed probe
    fastest.

    On the shared host one vCPU at a time runs the same code up to 1.6x
    slower, for seconds to minutes, and the scheduler keeps a process where
    it is; probing every PROBE_EVERY_S keeps single-threaded cases on the CPU
    that is fast at that moment.  Does nothing with one allowed CPU or more
    than MAX_PROBED_CPUS.
    """
    if not hasattr(os, "sched_setaffinity") or not 1 < len(ALLOWED_CPUS) <= MAX_PROBED_CPUS:
        return
    try:
        best = None
        for cpu in sorted(ALLOWED_CPUS):
            os.sched_setaffinity(0, {cpu})
            t = min(_probe_s() for _ in range(3))
            if best is None or t < best[0]:
                best = (t, cpu)
        os.sched_setaffinity(0, {best[1]})
    except OSError:  # a sandbox may forbid it; the run goes on unpinned
        unpin()


def unpin() -> None:
    try:
        os.sched_setaffinity(0, ALLOWED_CPUS)
    except (AttributeError, OSError):
        pass


def import_library(root: Path) -> float:
    """Import polybh from the checkout's src/ only; return the import time."""
    src = (root / "src").resolve()
    start = perf_counter()
    sys.path.insert(0, str(src))
    try:
        import polybh
    except ImportError as exc:
        raise HarnessError(f"cannot import polybh from {src}: {exc}") from exc
    if Path(polybh.__file__).resolve().parent.parent != src:
        raise HarnessError(f"polybh resolved to {polybh.__file__}, not under {src}")
    import workloads  # noqa: F401  (numpy, mpmath and every polybh module)
    return perf_counter() - start


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "git_sha": git_sha(root),
        "seed": seed,
        "blas_pins": {key: os.environ.get(key) for key in BLAS_PINS},
        "machine": platform.machine(),
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile (at most 99) with TAIL_BEYOND cases beyond it,
    but never below the median: a run of fewer than 20 units reports p50."""
    return max(50, min(99, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))) if n else 50


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def timed_phase(workload, pool, seconds: float, tracers, pin: bool):
    """Run whole rounds until ``seconds`` have passed and every pool round has
    run once through every tracer.

    Round r runs ``pool[(r // len(tracers)) % len(pool)]`` through
    ``tracers[r % len(tracers)]``, so with two tracers each pool round runs
    once through each, back to back.  With ``pin``, the process moves to the
    fastest CPU (``pin_to_fastest_cpu``) before a case whenever PROBE_EVERY_S
    has passed since it last did.  Returns the records and, per tracer, the
    wall time of each round it ran: the sum of its cases' times, which leave
    out probes and replays.
    """
    from workloads import Record

    records = []
    round_walls: list[list[float]] = [[] for _ in tracers]
    min_rounds = len(pool) * len(tracers)
    start = last_probe = perf_counter()
    r = 0
    while r < min_rounds or perf_counter() - start < seconds:
        tr = tracers[r % len(tracers)]
        round_wall = 0.0
        for case in pool[(r // len(tracers)) % len(pool)]:
            if pin and perf_counter() - last_probe >= PROBE_EVERY_S:
                pin_to_fastest_cpu()
                last_probe = perf_counter()
            tr.case = len(records)
            r0 = tr.replay_s
            t0 = perf_counter()
            try:
                result, error = workload.run(case, tr), None
            except Exception:  # a case that raises counts as failed; the run goes on
                result, error = None, traceback.format_exc(limit=3)
            wall = perf_counter() - t0 - (tr.replay_s - r0)
            round_wall += wall
            records.append(Record(case, result, wall, error, traced=tr.enabled, round=r))
        round_walls[r % len(tracers)].append(round_wall)
        r += 1
    if pin:
        unpin()
    return records, round_walls


def check_records(workload, records) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    errors = []
    for rec in records:
        attempted += rec.case.weight
        if rec.error is None:
            try:
                rec.error = workload.check(rec.case, rec.result)
            except Exception:  # a malformed output is a failed case
                rec.error = traceback.format_exc(limit=3)
        if rec.error is not None:
            failed += rec.case.weight
            errors.append(f"{rec.case.kind}: {rec.error}")
    return attempted, failed, errors + workload.aggregate_errors(records)


def fast_rounds(records, round_walls: list[float]) -> set[int]:
    """The fastest rounds holding FAST_SHARE of the timed units (at least
    FAST_MIN_UNITS, or all of them)."""
    units = [0] * len(round_walls)
    for rec in records:
        units[rec.round] += 1
    need = max(FAST_SHARE * len(records), FAST_MIN_UNITS)
    chosen, held = set(), 0
    for r in sorted(range(len(round_walls)), key=round_walls.__getitem__):
        if held >= need:
            break
        chosen.add(r)
        held += units[r]
    return chosen


def end_to_end(workload, records, round_walls, pool_rounds: int, setup_s: float) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run.

    The shared host runs the same code on the same inputs up to 2x slower
    in spells of a fraction of a second to minutes.  Every round holds the
    workload's full mix, so the timings describe the run's fastest rounds
    (see ``fast_rounds``): every case of those rounds counts with its own
    time.  The quality medians use the first pass over the pool, so they
    depend on the seed only.
    """
    fast = fast_rounds(records, round_walls)
    timed = [rec for rec in records if rec.round in fast]
    per_case_ms = [1e3 * rec.wall_s / rec.case.weight for rec in timed]
    pct = tail_percentile(len(per_case_ms))
    ratios, sup_rel = workload.quality([rec for rec in records if rec.round < pool_rounds])
    metrics = {
        "setup_s": setup_s,
        "cases_per_s": sum(rec.case.weight for rec in timed) / sum(round_walls[r] for r in fast),
        "case_p50_ms": statistics.median(per_case_ms),
        "case_p99_ms": percentile(per_case_ms, pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bh_ratio_p50": statistics.median(ratios),
        "sup_upper_rel_p50": statistics.median(sup_rel),
    }
    details = {"cases": sum(rec.case.weight for rec in records), "timed_units": len(records),
               "fast_rounds": len(fast), "fast_units": len(timed), "tail_percentile": pct,
               "bh_ratio_samples": len(ratios), "sup_upper_rel_samples": len(sup_rel)}
    return metrics, details


def per_layer(workload, tr, records, wall, ref_wall, setup_rh, extras) -> dict:
    from workloads import WORKLOADS

    names = sorted({s for w in WORKLOADS.values() for s in w.spans})
    busy, calls, self_s = tr.busy(), tr.calls(), tr.self_times()
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.busy_s"] = busy.get(name, 0.0)
        out[f"{name}.calls"] = float(calls.get(name, 0))
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    out["polyalgebra.random_homogeneous.busy_s"] = setup_rh

    def rate(counter: str, span: str) -> float:
        return tr.counts.get(counter, 0.0) / busy[span] if busy.get(span) else 0.0

    out["torusnorm.sup_lower.term_evals_per_s"] = rate("torusnorm.sup_lower.term_evals", "torusnorm.sup_lower")
    out["bhverify.check_bayart.mc_term_evals_per_s"] = rate("bhverify.check_bayart.mc_term_evals",
                                                            "bhverify.check_bayart")
    cu_calls = calls.get("torusnorm.certified_upper", 0)
    out["torusnorm.certified_upper.grid_points"] = (
        tr.counts.get("torusnorm.certified_upper.grid_points", 0.0) / cu_calls if cu_calls else 0.0)
    out["torusnorm.certified_upper.coeff_sum_frac"] = 0.0
    out["bhverify.check_bayart.flag_frac"] = 0.0
    out["bhverify.verify_bh.inconclusive_frac"] = 0.0
    out["dirichlet.sidon_N_bounds.candidates"] = tr.counts.get("dirichlet.sidon_N_bounds.candidates", 0.0)
    out["cli.speedup_2t"] = 0.0
    out.update(workload.layer_metrics(records))
    out.update(extras)
    for module in sorted({n.split(".")[0] for n in names}):
        out[f"{module}.share"] = sum(v for n, v in self_s.items() if n.split(".")[0] == module) / wall
    out["trace.span_coverage"] = tr.top_level_s() / wall
    out["trace.overhead_frac"] = wall / ref_wall - 1.0
    return out


def select(spec_metrics: list[dict], values: dict) -> dict:
    out = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise HarnessError(f"metric {m['name']} is not produced by the harness")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def run(args) -> tuple[dict, dict]:
    root = Path(args.root).resolve() if args.root else HERE.parent
    spec = load_spec(root)
    pin_to_fastest_cpu()
    import_s = import_library(root)
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](str(out_dir))
        setup_times, setup_rh = [], []
        pool = None
        for _ in range(SETUP_REPS):
            pool = None  # the previous repetition's pool is freed before the next is built
            st = Tracer(bool(args.trace))
            pin_to_fastest_cpu()
            start = perf_counter()
            pool = workload.make_rounds(args.seed, workload.pool_rounds, st)
            for case in workload.warmup(args.seed, st):
                workload.run(case, Tracer(False))
            setup_times.append(perf_counter() - start)
            setup_rh.append(st.busy().get("polyalgebra.random_homogeneous", 0.0))
        setup_s = import_s + statistics.median(setup_times)
        unpin()

        if not args.trace:
            records, (round_walls,) = timed_phase(workload, pool, args.seconds, [Tracer(False)],
                                                  workload.single_threaded)
            wall = sum(round_walls)
            attempted, failed, errors = check_records(workload, records)
            values, details = end_to_end(workload, records, round_walls, len(pool), setup_s)
            metrics = select(spec["end_to_end"], values)
        else:
            # Each pool round runs untraced and then traced, so both see the
            # same inputs and machine state; the untraced ones give the
            # tracing overhead.
            tr = Tracer(True)
            all_records, (ref_walls, round_walls) = timed_phase(
                workload, pool, args.seconds, [Tracer(False), tr], workload.single_threaded)
            # an odd round count leaves one untraced round without its pair
            ref_wall, wall = sum(ref_walls[:len(round_walls)]), sum(round_walls)
            records = [rec for rec in all_records if rec.traced]
            extras, extra_errors = workload.traced_extras(args.seed)
            attempted, failed, errors = check_records(workload, all_records)
            errors += extra_errors
            values = per_layer(workload, tr, records, wall, ref_wall, statistics.median(setup_rh), extras)
            metrics = select(spec["per_layer"], values)
            details = {"timed_units": len(records), "reference_rounds": len(ref_walls)}
            tr.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in errors[:5]:
        print(f"check failed: {line.splitlines()[-1] if line else line}", file=sys.stderr)
    result = {"correct": failed == 0 and not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details.update({"rounds": len(round_walls), "pool_rounds": len(pool), "timed_wall_s": wall, "setup_reps_s": setup_times,
                    "import_s": import_s, "errors": errors[:5]})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(root, args.seed),
              "details": details, **result}
    return record, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", default=None,
                   help="checkout whose src/ and BENCHMARK.json to use (default: the one holding bench/)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    try:
        record, result = run(args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
