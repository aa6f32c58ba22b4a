"""Command-line front end: verification campaigns, tables, and reports.

Subcommands cover the whole library surface (verify-bh, check-blei,
sidon-mn, bohr-radius, lift, ...); run ``polybh --help`` for the list.

Conventions:

* Exit code 0 means every check passed; 2 means some run produced a
  numerical-violation verdict, which by the library's verdict discipline
  indicates a bug in the implementation, not new mathematics; 1 is a usage
  or runtime error.
* Every report embeds the full configuration (JSON under a "config" key,
  CSV as leading "#" comment lines), and files are written atomically.
* The master seed (default 123456789) expands to one child seed per case via
  ``numpy.random.SeedSequence(seed, spawn_key=(index,))``; cases are
  computed independently and collected in case order, so reports are
  byte-identical for a fixed seed regardless of the thread count
  (``--threads`` or the POLYBH_THREADS environment variable).  verify-bh
  and random-campaign make one batched call per (m, n): verify-bh runs
  its one pair in the calling thread, random-campaign spreads its pairs
  over the threads, and the other campaigns spread their cases.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import operator
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .bhverify import (
    VIOLATED,
    bh_constant_hyper,
    bh_constant_polarization,
    bh_constant_queffelec,
    bh_exponent,
    check_bayart,
    check_blei,
    check_proof_step,
    davie_kaijser_constant,
    verify_bh_batch,
    verify_bh_multilinear,
)
from .dirichlet import (
    bcq_partial_sum,
    bohr_lift,
    from_json_dict as dirichlet_from_json,
    sidon_N_bounds,
)
from .polarization import check_harris
from .polyalgebra import (
    DENSE_ENTRIES_MAX,
    RANDOM_DISTRIBUTIONS,
    REL_TOL,
    GeneralPolynomial,
    check_entries,
    dimension_count,
    random_homogeneous,
    scale,
    to_json_dict as poly_to_json,
)
from .sidonbohr import (
    SEARCH_STRATEGIES,
    bohr_estimate_small,
    bohr_lower,
    check_wiener,
    sidon_lower_search,
)
from .torusnorm import certified_upper

DEFAULT_SEED = 123456789
ENV_THREADS = "POLYBH_THREADS"
DISTRIBUTIONS = RANDOM_DISTRIBUTIONS

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise UsageError(message)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

def case_seed(master: int, index: int) -> int:
    """Deterministic child seed for case ``index``: the first uint32 word of the
    spawned state, shifted up 32 bits (the low 32 bits are zero; reports
    depend on the values, so they stay)."""
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0]) << 32


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        # As strict as the JSON form: the whole report is refused before any write.
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} in a csv report")
        return repr(value)
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".polybh-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(payload) -> str:
    # Strict JSON: a non-finite value raises ValueError (an error line), never "Infinity".
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(config: dict, header: Sequence[str], rows: Iterable[Sequence], args) -> None:
    fmt = getattr(args, "format", "json")
    out = getattr(args, "out", None)
    rows = list(rows)
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(config):
            buf.write(f"# {key}={config[key]}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {
            "config": config,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = _json_text(payload)
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _config(args, command: str) -> dict:
    # threads is an execution knob: results are aggregated in case order, so
    # the report must be byte-identical whatever the parallelism, and the
    # thread count is deliberately left out of the embedded config;
    # after_report holds files _run writes, not configuration.
    skip = {"func", "out", "threads", "after_report"}
    cfg = {"command": command, "version": __version__}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        cfg[key] = value if not isinstance(value, list) else list(value)
    return cfg


def _int_at_least(text: str, low: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
    return value


def _threads(args) -> int:
    """--threads if given, else POLYBH_THREADS (read when a campaign runs), else 1."""
    if args.threads is not None:
        return args.threads
    try:
        return _int_at_least(os.environ.get(ENV_THREADS, "1"))
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{ENV_THREADS} {exc}") from None


# ----------------------------------------------------------------------
# Campaigns: one random case per index, one report row per case
# ----------------------------------------------------------------------
#
# Row workers take (args, case index, case seed) and give one case's row;
# _each runs them over a campaign's cases through _map, on args.threads
# pool threads.  The batched workers take (args, case indices, case seeds):
# verify-bh runs its one (m, n) in the calling thread, random-campaign maps
# its (m, n) pairs through _map.  All look library functions up at call
# time, so tests can substitute them on this module.

def _random_table(m: int, n: int, seed: int) -> np.ndarray:
    # Refused before drawing.  min(m, 64): for n >= 2 both powers exceed the cap, else they are equal.
    check_entries(n ** min(m, 64), DENSE_ENTRIES_MAX, f"a ({n},)*{m} table", at_least=m > 64)
    if m > 64:  # n <= 1 passes the cap; NumPy's arrays have at most 64 axes
        raise ValueError(f"--m {m}: a dense table has at most 64 axes")
    # Drawn into one complex array and scaled in place: a table near the cap is 160 MB.
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    T = np.empty((n,) * m, dtype=np.complex128)
    T.real = rng.standard_normal(T.shape)
    T.imag = rng.standard_normal(T.shape)
    T /= math.sqrt(2)
    return T


def _random_general(n: int, degree_max: int, seed: int) -> GeneralPolynomial:
    if degree_max < 1:
        raise ValueError(f"degree_max must be >= 1, got {degree_max}")
    entries = 0
    for m in range(1, degree_max + 1):
        # Summed before any part is drawn, and stopped as soon as it passes the cap.
        entries += dimension_count(m, n) * (m + n)
        check_entries(entries, DENSE_ENTRIES_MAX,
                      f"a polynomial with parts of degree 1 to {m} (of {degree_max}) in {n} variables",
                      "index and exponent entries")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    parts = {}
    for m in range(1, degree_max + 1):
        parts[m] = random_homogeneous(m, n, "complex-gaussian",
                                      seed=case_seed(seed, m))
    a0 = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
    return GeneralPolynomial(n, parts, a0)


def _row_verify_bh_multilinear(args, i: int, seed: int):
    T = _random_table(args.m, args.n, seed)
    rep = verify_bh_multilinear(T, starts=args.starts, iterations=args.iters, seed=seed)
    return (i, args.m, args.n, seed, rep.lhs, rep.supnorm.lower, rep.ratio,
            rep.rhs_constant, rep.verdict)


def _row_check_blei(args, i: int, seed: int):
    rep = check_blei(_random_table(args.m, args.n, seed))
    return (i, args.m, args.n, seed, rep.lhs, rep.rhs, rep.passed)


def _row_check_bayart(args, i: int, seed: int):
    P = random_homogeneous(args.m, args.n, DISTRIBUTIONS[i % 3], seed=seed)
    rep = check_bayart(P, mc_samples=args.samples, seed=seed)
    return (i, args.m, args.n, seed, rep.l2, rep.l1_lower, rep.l1_estimate, rep.stderr, rep.bound,
            rep.judge, rep.passed)


def _row_check_proof_step(args, i: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    P = random_homogeneous(args.m, args.n, DISTRIBUTIONS[i % 3], seed=seed)
    k = int(rng.integers(1, args.m + 1))
    rep = check_proof_step(P, k, certified_upper(P))
    return (i, args.m, args.n, seed, k, rep.lhs, rep.bound, rep.parseval_max_rel_err, rep.passed)


def _row_check_harris(args, i: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    P = random_homogeneous(args.m, args.n, DISTRIBUTIONS[i % 3], seed=seed)
    blocks = int(rng.integers(1, args.m + 1))
    partition = rng.multinomial(args.m, [1.0 / blocks] * blocks).tolist()
    points = [np.exp(2j * math.pi * rng.random(args.n)).tolist() for _ in partition]
    rep = check_harris(P, partition, points, certified_upper(P))
    return (i, args.m, args.n, seed, "+".join(map(str, partition)), rep.value, rep.bound, rep.passed)


def _row_check_wiener(args, i: int, seed: int):
    P = _random_general(args.n, args.degree_max, seed)
    s = certified_upper(P) * (1.0 + 1e-9)
    # sup|P/s| <= 1 by construction, since s is above a certified upper bound of sup|P|.
    rep = check_wiener(scale(P, 1.0 / s), 1.0)
    worst = min((p.bound - p.sup_estimate for p in rep.parts), default=math.inf)
    return (i, args.n, seed, rep.a0_modulus, rep.bound, worst, rep.passed)


def _rows_verify_bh_pair(args, m: int, n: int, dists: Sequence[str], cases: range, seeds: list[int],
                         grid_step: float | None = None) -> list:
    """The ``VERIFY_BH_HEADER`` rows of the random P of ``cases``, all of one
    (m, n), case i drawn from ``dists[i % len(dists)]``.  The P share J(m, n)
    and stream into one :func:`verify_bh_batch`, built as it pulls them."""
    case_dists = [dists[i % len(dists)] for i in cases]
    Ps = (random_homogeneous(m, n, dist, seed=seed) for dist, seed in zip(case_dists, seeds))
    reps = verify_bh_batch(Ps, args.starts, args.iters, seeds, grid_step)
    return [(i, m, n, dist, seed, rep.lhs, rep.supnorm.lower, rep.supnorm.upper, rep.ratio,
             rep.rhs_constant, rep.slack, rep.verdict)
            for i, dist, seed, rep in zip(cases, case_dists, seeds, reps)]


VERIFY_BH_HEADER = ("case", "m", "n", "distribution", "case_seed", "lhs", "sup_lower", "sup_upper",
                    "ratio", "constant", "slack", "verdict")


def _rows_verify_bh(args, cases: range, seeds: list[int]) -> list:
    dists = DISTRIBUTIONS if args.dist == "mix" else (args.dist,)
    return _rows_verify_bh_pair(args, args.m, args.n, dists, cases, seeds, args.grid_step)


def _rows_random_campaign(args, cases: range, seeds: list[int]) -> list:
    pairs = list(itertools.product(args.m_set, args.n_set))

    def pair_rows(p: int) -> list:
        block = slice(p * args.count, (p + 1) * args.count)  # pair p's cases
        return _rows_verify_bh_pair(args, *pairs[p], DISTRIBUTIONS, cases[block], seeds[block])

    return [row for part in _map(args, pair_rows, range(len(pairs))) for row in part]


def _map(args, fn: Callable, *items) -> list:
    """``fn`` over ``items`` (zipped), on ``args.threads`` pool threads,
    collected in order."""
    if args.threads == 1:
        return list(map(fn, *items))
    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        return list(pool.map(fn, *items))


def _each(row: Callable) -> Callable:
    """The worker of a per-case campaign: ``row(args, i, seed)`` for each case."""
    return lambda args, cases, seeds: _map(args, functools.partial(row, args), cases, seeds)


def _violations(rows) -> tuple[str, bool]:
    bad = sum(1 for r in rows if r[-1] == VIOLATED)
    return f"{bad} violations", bad > 0


def _failures(rows) -> tuple[str, bool]:
    bad = sum(1 for r in rows if not r[-1])
    return f"{bad} failures", bad > 0


def _bayart_flags(rows) -> tuple[str, bool]:
    # The judge is the second-to-last column; a "moments" row always passes.
    sampled = [r for r in rows if r[-2] == "monte-carlo"]
    flags = sum(1 for r in sampled if not r[-1])
    rate = flags / max(len(sampled), 1)
    # 3-sigma misses are expected at a sub-percent rate; a large rate means a bug.
    return (f"{len(rows) - len(sampled)} certified by moments, {flags} statistical flags at 3 sigma"
            f" in {len(sampled)} Monte Carlo rows ({100 * rate:.2f}%)"), rate > 0.02


# ----------------------------------------------------------------------
# Report commands described as data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Command:
    """A report subcommand: ``rows(args)`` computes the rows under ``header``,
    ``judge(rows, args)`` returns the stderr summary and whether the run
    failed.  It takes its ``options``, (flag, add_argument keywords) pairs,
    then --seed, --out and --format.
    """

    name: str
    help: str
    header: tuple[str, ...]
    rows: Callable
    judge: Callable
    options: tuple = ()


def _run(command: Command, args) -> int:
    # (path, text) files a rows function renders, written only once the report is.
    args.after_report = []
    rows = command.rows(args)
    _emit(_config(args, command.name), command.header, rows, args)
    for path, text in args.after_report:
        _atomic_write(path, text)
    summary, failed = command.judge(rows, args)
    print(f"{command.name}: {summary}", file=sys.stderr)
    return EXIT_VIOLATION if failed else EXIT_OK


_MN = (("--m", dict(type=int, required=True)), ("--n", dict(type=int, required=True)))


def _campaign(name: str, help: str, header: tuple[str, ...], case_rows: Callable, judge: Callable,
              count: int, options: tuple = (), mn: bool = True,
              cases: Callable = operator.attrgetter("count"),
              count_help: str | None = None) -> Command:
    """A campaign of ``cases(args)`` random cases, one row per case, given
    by one call ``case_rows(args, case indices, case seeds)``.  It takes
    --m and --n when ``mn`` is set, --count (default ``count``), the extra
    ``options`` and --threads, resolved into ``args.threads`` before the
    call; ``judge(rows)`` gives the summary after the case count.  More
    than ``DENSE_ENTRIES_MAX`` cases are refused before any seed is drawn.
    """
    def rows(args) -> list:
        args.threads = _threads(args)
        total = cases(args)
        check_entries(total, DENSE_ENTRIES_MAX, "the campaign", "cases")
        return case_rows(args, range(total), [case_seed(args.seed, i) for i in range(total)])

    def judge_cases(rows, args) -> tuple[str, bool]:
        summary, failed = judge(rows)
        return f"{len(rows)} cases, {summary}", failed

    count_option = ("--count", dict(type=_int_at_least, default=count, help=count_help))
    return Command(name, help, header, rows, judge_cases, (_MN if mn else ()) + (count_option,)
                   + options + (("--threads", dict(type=_int_at_least, default=None)),))


# ----------------------------------------------------------------------
# Single-shot commands: rows functions and their judges
# ----------------------------------------------------------------------

def _read_dirichlet(path: str):
    with open(path) as handle:
        return dirichlet_from_json(json.load(handle))


def _rows_sidon_mn(args) -> list:
    bounds = sidon_lower_search(args.m, args.n, budget=args.budget, seed=args.seed, strategy=args.strategy)
    if args.witness_out:
        args.after_report.append((args.witness_out, _json_text(poly_to_json(bounds.witness))))
    return [(args.m, args.n, bounds.upper_hyper, bounds.upper_trivial,
             bounds.lower_search, bounds.screen_ratio, args.witness_out or "")]


def _judge_sidon_mn(rows, args) -> tuple[str, bool]:
    # lower is certified, so a lower above the upper bound is a fault, not a loose estimate.
    (m, n, hyper, trivial, lower, _, _), = rows
    upper = min(hyper, trivial)
    return f"S({m},{n}) in [{lower:.6g}, {upper:.6g}]", not lower <= upper * (1 + REL_TOL)


def _rows_bohr_radius(args) -> list:
    rows = []
    for n in args.n:
        rep = bohr_lower(n)
        rows.append((n, rep.lower, rep.upper, rep.b_lower, rep.M_used, rep.certificate_value))
    return rows


def _judge_bohr_radius(rows, args) -> tuple[str, bool]:
    ok = all(cert <= 0.5 + 1e-12 and lower <= upper for _, lower, upper, _, _, cert in rows)
    return f"{len(rows)} dimensions, certificates {'ok' if ok else 'VIOLATED'}", not ok


def _rows_bohr_small(args) -> list:
    bracket = bohr_estimate_small(a_step=args.a_step, r_step=args.r_step, degree=args.degree)
    return [(bracket.r_pass, bracket.r_fail, bracket.a_step, bracket.r_step, bracket.degree)]


def _judge_bohr_small(rows, args) -> tuple[str, bool]:
    (r_pass, r_fail, *_), = rows
    contains = r_pass <= 1.0 / 3.0 <= r_fail
    return f"K_1 in [{r_pass}, {r_fail}] ({'contains' if contains else 'MISSES'} 1/3)", not contains


def _rows_sidon_N(args) -> list:
    bounds = sidon_N_bounds(args.N, budget=args.budget, seed=args.seed,
                            mag_points=args.mag_points, phase_points=args.phase_points)
    formula = bounds.asymptotic_sharp if bounds.asymptotic_sharp is not None else ""
    return [(args.N, bounds.lower, bounds.method["kind"], -1.0 / math.sqrt(2.0), formula)]


def _rows_bcq_sum(args) -> list:
    Q = _read_dirichlet(args.input)
    return [(Q.N, args.c, args.n_start, bcq_partial_sum(Q, args.c, n_start=args.n_start))]


def _rows_constants_table(args) -> list:
    if args.m_max < 2:  # the table starts at m = 2; a lower cap would leave it empty
        raise UsageError(f"--m-max must be >= 2, got {args.m_max}")
    return [(m, float(bh_exponent(m)), bh_constant_hyper(m), bh_constant_queffelec(m),
             bh_constant_polarization(m), davie_kaijser_constant(m))
            for m in range(2, args.m_max + 1)]


COMMANDS = (
    _campaign("verify-bh", "campaign of hypercontractive coefficient checks", VERIFY_BH_HEADER,
              _rows_verify_bh, _violations, 100,
              (("--dist", dict(choices=DISTRIBUTIONS + ("mix",), default="mix")),
               ("--starts", dict(type=int, default=None)),
               ("--iters", dict(type=int, default=200)),
               ("--grid-step", dict(type=float, default=None,
                                    help="bracket every sup norm on the certified grid of this step")))),
    _campaign("verify-bh-multilinear", "multilinear inequality campaign",
              ("case", "m", "n", "case_seed", "lhs", "sup_lower", "ratio", "constant", "verdict"),
              _each(_row_verify_bh_multilinear), _violations, 100,
              (("--starts", dict(type=int, default=8)), ("--iters", dict(type=int, default=100)))),
    _campaign("check-blei", "Blei interpolation bound on random tables",
              ("case", "m", "n", "case_seed", "lhs", "rhs", "passed"),
              _each(_row_check_blei), _failures, 1000),
    _campaign("check-bayart", "L1-L2 hypercontractive comparison (exact moments, else Monte Carlo)",
              ("case", "m", "n", "case_seed", "l2", "l1_lower", "l1_estimate", "stderr", "bound", "judge",
               "passed"),
              _each(_row_check_bayart), _bayart_flags, 100,
              (("--samples", dict(type=int, default=10**5)),)),
    _campaign("check-proof-step", "slotwise polarization estimate",
              ("case", "m", "n", "case_seed", "slot", "lhs", "bound", "parseval_rel_err", "passed"),
              _each(_row_check_proof_step), _failures, 100),
    _campaign("check-harris", "polarization bound at repeated arguments",
              ("case", "m", "n", "case_seed", "partition", "form_value", "bound", "passed"),
              _each(_row_check_harris), _failures, 100),
    _campaign("check-wiener", "homogeneous-part bound for sup-norm-1 polynomials",
              ("case", "n", "case_seed", "a0_modulus", "bound", "worst_slack", "passed"),
              _each(_row_check_wiener), _failures, 50,
              (("--n", dict(type=int, default=2)), ("--degree-max", dict(type=int, default=5))),
              mn=False),
    _campaign("random-campaign", "verify-bh sweep over (m, n) grids", VERIFY_BH_HEADER,
              _rows_random_campaign, _violations, 10,
              (("--m-set", dict(type=int, nargs="+", default=[2, 3, 4, 5])),
               ("--n-set", dict(type=int, nargs="+", default=[2, 3, 4, 5, 6])),
               ("--starts", dict(type=int, default=4)),
               ("--iters", dict(type=int, default=80))),
              mn=False, cases=lambda args: len(args.m_set) * len(args.n_set) * args.count,
              count_help="cases per (m, n) pair"),
    Command("sidon-mn", "Sidon constant bracket for degree-m monomials",
            ("m", "n", "upper_hyper", "upper_trivial", "lower_search", "screen_ratio", "witness_file"),
            _rows_sidon_mn, _judge_sidon_mn,
            _MN + (("--budget", dict(type=int, default=200)),
                   ("--strategy", dict(choices=SEARCH_STRATEGIES, default="random-sign")),
                   ("--witness-out", dict(type=str, default=None)))),
    Command("bohr-radius", "certified Bohr-radius lower bounds",
            ("n", "K_lower", "K_upper", "b_lower", "M_used", "certificate_value"),
            _rows_bohr_radius, _judge_bohr_radius,
            (("--n", dict(type=int, nargs="+", required=True)),)),
    Command("bohr-small", "one-variable Bohr radius bracket",
            ("r_pass", "r_fail", "a_step", "r_step", "degree"),
            _rows_bohr_small, _judge_bohr_small,
            (("--a-step", dict(type=float, default=1e-3)),
             ("--r-step", dict(type=float, default=1e-3)),
             ("--degree", dict(type=int, default=50)))),
    Command("sidon-N", "Sidon constant of {log n : n <= N}",
            ("N", "lower", "method", "asymptotic_c", "formula_value"),
            _rows_sidon_N,
            lambda rows, args: (f"S({rows[0][0]}) >= {rows[0][1]:.6g} ({rows[0][2]})", False),
            (("--N", dict(type=int, required=True)),
             ("--budget", dict(type=int, default=200)),
             ("--mag-points", dict(type=int, default=5)),
             ("--phase-points", dict(type=int, default=8)))),
    Command("bcq-sum", "weighted coefficient sum of a Dirichlet polynomial",
            ("N", "c", "n_start", "value"),
            _rows_bcq_sum, lambda rows, args: (repr(rows[0][-1]), False),
            (("--input", dict(type=str, required=True)),
             ("--c", dict(type=float, required=True)),
             ("--n-start", dict(type=int, default=3)))),
    Command("constants-table", "tabulate the inequality constants",
            ("m", "exponent", "hyper", "queffelec", "polarization", "davie_kaijser"),
            _rows_constants_table, lambda rows, args: (f"m up to {args.m_max}", False),
            (("--m-max", dict(type=int, default=20)),)),
)


def _cmd_lift(args) -> int:
    Q = _read_dirichlet(args.input)
    lift = bohr_lift(Q)
    payload = poly_to_json(lift.poly)
    payload["primes"] = list(lift.primes)
    payload["config"] = _config(args, "lift")
    text = _json_text(payload)
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"lift: {len(Q.coeffs)} terms -> {lift.poly.n} variables", file=sys.stderr)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_common(p: _Parser, formats: tuple[str, ...] = ("json", "csv")) -> None:
    p.add_argument("--seed", type=functools.partial(_int_at_least, low=0), default=DEFAULT_SEED)
    p.add_argument("--out", type=str, default=None, help="report file (stdout if omitted)")
    p.add_argument("--format", choices=formats, default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="polybh", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag, kwargs in command.options:
            p.add_argument(flag, **kwargs)
        _add_common(p)
        p.set_defaults(func=functools.partial(_run, command))

    p = sub.add_parser("lift", help="Bohr lift of a Dirichlet polynomial JSON file")
    p.add_argument("--input", type=str, required=True)
    _add_common(p, formats=("json",))  # a lift is a polynomial, written as JSON only
    p.set_defaults(func=_cmd_lift)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # the last resort for an allocation no cap refused first
        print(f"error: out of memory: {str(exc) or 'an allocation was refused'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
