"""The four benchmark workloads, run through polybh's public API.

Each workload turns the run's seed into a fixed pool of rounds of cases
during set-up; the timed phase only receives those generated inputs and
cycles through the pool.  A round is the smallest unit with the workload's
full mix, every round holds the same case types, and the harness only stops
between rounds, so every run sees the same mix.  ``run`` makes the public
calls of one case through a ``Tracer``; ``check`` rejects a wrong output and
runs after the timed phase, so its own library calls are not timed.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from polybh import cli
from polybh.bhverify import (
    bh_constant_hyper,
    bh_exponent,
    check_bayart,
    check_blei,
    check_proof_step,
    davie_kaijser_constant,
    verify_bh,
    verify_bh_multilinear,
)
from polybh.dirichlet import (
    DirichletPolynomial,
    bohr_lift,
    dirichlet_l1,
    dirichlet_sup,
    sidon_N_bounds,
)
from polybh.indexcore import index_to_exponent
from polybh.polarization import check_harris, polarize
from polybh.polyalgebra import (
    GeneralPolynomial,
    coeff_norm,
    l2_torus_norm,
    majorant_sum,
    random_homogeneous,
)
from polybh.sidonbohr import (
    bohr_certificate_value,
    bohr_estimate_small,
    bohr_lower,
    sidon_lower_search,
    sidon_upper_hyper,
    sidon_upper_trivial,
)
from polybh.torusnorm import certified_upper, sup_lower

DISTS = cli.DISTRIBUTIONS
CAMPAIGN_PAIRS = [(m, n) for m in (2, 3, 4, 5) for n in (2, 3, 4, 5, 6)]
REL_TOL = 1e-9
# verify_bh and verify_bh_multilinear bound the sup norm from below by ascent,
# so their verdict is "verified" or, when the ascent stalls far below the
# sup, "inconclusive" (e.g. 1 of 1600 theorem-campaign cases on seed
# 2025631264: a (2, 2) ascent stopped at 0.28 against a sup of 1.99).  A
# consistent inconclusive verdict is a correct output; more than this share
# of them in a run is counted as an error.
MAX_INCONCLUSIVE = 0.005

# certified_upper's default budget at this commit; used only to compute the
# grid size a call evaluates (the library does not report it).
_TARGET_CORRECTION = 0.25
_POINTS_CAP = 2_000_000


@dataclass
class Case:
    kind: str
    data: dict
    weight: int = 1  # polynomial cases this unit stands for (a CLI call runs many)
    probe: bool = False  # also used for the certified-bound quality probe


@dataclass
class Record:
    """One attempted case: its output, wall time and check outcome."""

    case: Case
    result: object
    wall_s: float
    error: str | None = None
    traced: bool = False
    round: int = 0  # index of the timed round that ran it


def child_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def grid_points(P) -> int:
    """Points of the Bernstein grid certified_upper evaluates for P (0: it falls back)."""
    parts = P.parts.values() if isinstance(P, GeneralPolynomial) else (P,)
    exps = [index_to_exponent(j, P.n) for part in parts for j in part.coeffs]
    if not exps or P.n == 0:
        return 0
    per_var = np.max(np.array(exps), axis=0)
    m_max = int(per_var.max())
    if m_max == 0:
        return 0
    L = math.ceil(2.0 * math.pi / (2.0 * _TARGET_CORRECTION / (P.n * m_max)))
    points = L ** int((per_var > 0).sum())
    return points if points <= _POINTS_CAP else 0


def l2_norm(P) -> float:
    """L^2 torus norm of a homogeneous or general polynomial."""
    if isinstance(P, GeneralPolynomial):
        return math.sqrt(abs(P.a0) ** 2 + sum(l2_torus_norm(part) ** 2 for part in P.parts.values()))
    return l2_torus_norm(P)


class Workload:
    name = ""
    # Rounds of generated inputs; the timed phase cycles through them.  The
    # quality medians are taken over one pass, so it is sized for steady
    # medians, not for the run's length.
    pool_rounds: int
    # Single-threaded cases run pinned to the CPU that is fastest at the
    # moment (see run.pin_to_fastest_cpu).
    single_threaded = True
    spans: tuple[str, ...] = ()

    def __init__(self, out_dir: str = "."):
        self.out_dir = out_dir  # scratch files of a run, inside the checkout

    def make_rounds(self, seed: int, count: int, tr) -> list[list[Case]]:
        return [self.make_round(seed, r, tr) for r in range(count)]

    def make_round(self, seed: int, r: int, tr) -> list[Case]:
        raise NotImplementedError

    def warmup(self, seed: int, tr) -> list[Case]:
        raise NotImplementedError

    def run(self, case: Case, tr):
        raise NotImplementedError

    def check(self, case: Case, result) -> str | None:
        raise NotImplementedError

    def aggregate_errors(self, records: list[Record]) -> list[str]:
        return []

    def quality(self, records: list[Record]) -> tuple[list[float], list[float]]:
        """(coefficient side / sup lower bound, certified upper / L^2 norm) samples."""
        raise NotImplementedError

    def layer_metrics(self, records: list[Record]) -> dict[str, float]:
        return {}

    def traced_extras(self, seed: int) -> tuple[dict[str, float], list[str]]:
        return {}, []


def verdict_error(verdict: str, ratio: float, constant: float) -> str | None:
    """Why an ascent-only verdict is wrong, or None: "verified" needs the ratio
    within the constant (up to the library's relative tolerance, REL_TOL),
    "inconclusive" above it, and no other verdict can occur."""
    if verdict == "verified":
        if ratio <= constant * (1.0 + REL_TOL):
            return None
        return f"verified, but ratio {ratio} is above the constant {constant}"
    if verdict == "inconclusive":
        return None if ratio > constant else f"inconclusive, but ratio {ratio} is within the constant {constant}"
    return f"verdict {verdict!r} from an ascent-only run"


def inconclusive_errors(verdicts: list[str]) -> list[str]:
    count = verdicts.count("inconclusive")
    if count > MAX_INCONCLUSIVE * len(verdicts):
        return [f"{count} inconclusive verdicts in {len(verdicts)} cases (more than 0.5%)"]
    return []


def _probe_sup_rel(polys) -> list[float]:
    return [certified_upper(P) / l2_norm(P) for P in polys]


# ----------------------------------------------------------------------
# theorem-campaign
# ----------------------------------------------------------------------

class TheoremCampaign(Workload):
    name = "theorem-campaign"
    # One case per (m, n) pair and round keeps a round (the unit the timings
    # filter on) near 0.1 s, so it often falls inside a fast spell of the host.
    pool_rounds = 80
    spans = ("polyalgebra.random_homogeneous", "bhverify.verify_bh", "torusnorm.sup_lower",
             "polyalgebra.coeff_norm")

    def _case(self, seed: int, idx: int, m: int, n: int, tr, probe=False) -> Case:
        s = cli.case_seed(seed, idx)
        P = tr.call("polyalgebra.random_homogeneous", random_homogeneous, m, n, DISTS[idx % 3], seed=s)
        return Case("verify_bh", {"P": P, "seed": s}, probe=probe)

    def make_round(self, seed, r, tr):
        return [self._case(seed, r * len(CAMPAIGN_PAIRS) + p, m, n, tr, probe=r < 2)
                for p, (m, n) in enumerate(CAMPAIGN_PAIRS)]

    def warmup(self, seed, tr):
        return [self._case(seed, 10**9 + p, m, n, tr) for p, (m, n) in enumerate(CAMPAIGN_PAIRS)]

    def run(self, case, tr):
        P, s = case.data["P"], case.data["seed"]
        rep = tr.call("bhverify.verify_bh", verify_bh, P, starts=4, iterations=80, seed=s)
        tr.replay("torusnorm.sup_lower", sup_lower, P, starts=4, iterations=80, seed=s)
        tr.replay("polyalgebra.coeff_norm", coeff_norm, P, bh_exponent(P.m))
        tr.count("torusnorm.sup_lower.term_evals", 4 * 81 * len(P.coeffs))
        return rep

    def check(self, case, rep):
        P = case.data["P"]
        lower = rep.supnorm.lower
        if not 0.0 <= lower <= majorant_sum(P, 1.0) * (1.0 + REL_TOL):
            return f"sup lower bound {lower} outside [0, {majorant_sum(P, 1.0)}]"
        return verdict_error(rep.verdict, rep.ratio, bh_constant_hyper(P.m))

    def aggregate_errors(self, records):
        return inconclusive_errors([rec.result.verdict for rec in records if rec.result is not None])

    def layer_metrics(self, records):
        verdicts = [rec.result.verdict for rec in records if rec.result is not None]
        return {"bhverify.verify_bh.inconclusive_frac": verdicts.count("inconclusive") / max(1, len(verdicts))}

    def quality(self, records):
        ratios = [rec.result.ratio for rec in records if rec.result is not None]
        return ratios, _probe_sup_rel(rec.case.data["P"] for rec in records if rec.case.probe)


# ----------------------------------------------------------------------
# proof-chain
# ----------------------------------------------------------------------

class ProofChain(Workload):
    name = "proof-chain"
    pool_rounds = 12
    mix = [(2, 2), (2, 4), (3, 2), (3, 3), (4, 3), (4, 4), (5, 2)]
    multilinear = [(2, 3), (3, 3), (2, 4), (3, 2)]
    mc_samples = 10**5
    spans = ("polyalgebra.random_homogeneous", "torusnorm.certified_upper",
             "bhverify.check_proof_step", "polarization.check_harris", "polarization.polarize",
             "polarization.SymmetricForm.to_dense", "bhverify.check_blei",
             "bhverify.check_bayart", "bhverify.verify_bh_multilinear")

    def make_round(self, seed, r, tr):
        cases = []
        for j, (m, n) in enumerate(self.mix):
            s = child_seed(seed, 2, r, j)
            rng = np.random.default_rng(np.random.SeedSequence(s, spawn_key=(1,)))
            P = tr.call("polyalgebra.random_homogeneous", random_homogeneous, m, n, DISTS[(r + j) % 3],
                        seed=s)
            blocks = int(rng.integers(1, m + 1))
            partition = rng.multinomial(m, [1.0 / blocks] * blocks).tolist()
            points = [np.exp(2j * math.pi * rng.random(n)).tolist() for _ in partition]
            cases.append(Case("chain", {"P": P, "seed": s, "k": int(rng.integers(1, m + 1)),
                                        "partition": partition, "points": points}))
        for j, (m, n) in enumerate(self.multilinear):
            s = child_seed(seed, 3, r, j)
            rng = np.random.default_rng(np.random.SeedSequence(s))
            T = (rng.standard_normal((n,) * m) + 1j * rng.standard_normal((n,) * m)) / math.sqrt(2)
            cases.append(Case("multilinear", {"T": T, "seed": s}))
        return cases

    def warmup(self, seed, tr):
        return self.make_round(seed, 10**6, tr)

    def run(self, case, tr):
        d = case.data
        if case.kind == "multilinear":
            return tr.call("bhverify.verify_bh_multilinear", verify_bh_multilinear, d["T"], seed=d["seed"])
        P = d["P"]
        upper = tr.call("torusnorm.certified_upper", certified_upper, P)
        step = tr.call("bhverify.check_proof_step", check_proof_step, P, d["k"], upper)
        harris = tr.call("polarization.check_harris", check_harris, P, d["partition"], d["points"], upper)
        form = tr.call("polarization.polarize", polarize, P)
        dense = tr.call("polarization.SymmetricForm.to_dense", form.to_dense)
        blei = tr.call("bhverify.check_blei", check_blei, dense)
        bayart = tr.call("bhverify.check_bayart", check_bayart, P, mc_samples=self.mc_samples, seed=d["seed"])
        if tr.enabled:
            tr.count("torusnorm.certified_upper.grid_points", grid_points(P))
            tr.count("bhverify.check_bayart.mc_term_evals", self.mc_samples * len(P.coeffs))
        return {"upper": upper, "step": step, "harris": harris, "blei": blei, "bayart": bayart}

    def check(self, case, res):
        if case.kind == "multilinear":
            error = verdict_error(res.verdict, res.ratio, davie_kaijser_constant(case.data["T"].ndim))
            return error and f"multilinear: {error}"
        P = case.data["P"]
        for key in ("step", "harris", "blei"):
            if not res[key].passed:
                return f"{key} check failed"
        if not res["step"].parseval_max_rel_err <= 1e-12:
            return f"parseval error {res['step'].parseval_max_rel_err}"
        upper, l2, l1 = res["upper"], l2_torus_norm(P), majorant_sum(P, 1.0)
        if not l2 <= upper * (1.0 + REL_TOL) or not upper <= l1:
            return f"certified upper {upper} outside [{l2}, {l1}]"
        return None

    def aggregate_errors(self, records):
        bayart = [rec.result["bayart"] for rec in records
                  if rec.case.kind == "chain" and rec.result is not None]
        flags = sum(1 for b in bayart if not b.passed)
        errors = inconclusive_errors([rec.result.verdict for rec in records
                                      if rec.case.kind == "multilinear" and rec.result is not None])
        if flags > 0.005 * len(bayart):
            errors.append(f"{flags} Bayart 3-sigma flags in {len(bayart)} cases (more than 0.5%)")
        return errors

    def quality(self, records):
        done = [rec for rec in records if rec.result is not None]
        ratios = [rec.result.ratio for rec in done if rec.case.kind == "multilinear"]
        rel = [rec.result["upper"] / l2_torus_norm(rec.case.data["P"])
               for rec in done if rec.case.kind == "chain"]
        return ratios, rel

    def layer_metrics(self, records):
        chain = [rec for rec in records if rec.case.kind == "chain" and rec.result is not None]
        if not chain:
            return {}
        fallback = sum(1 for rec in chain if rec.result["upper"] == majorant_sum(rec.case.data["P"], 1.0))
        flags = sum(1 for rec in chain if not rec.result["bayart"].passed)
        return {"torusnorm.certified_upper.coeff_sum_frac": fallback / len(chain),
                "bhverify.check_bayart.flag_frac": flags / len(chain)}


# ----------------------------------------------------------------------
# dirichlet-sidon
# ----------------------------------------------------------------------

class DirichletSidon(Workload):
    name = "dirichlet-sidon"
    pool_rounds = 6
    dirichlet_N = [30, 50, 70, 90, 110, 130]  # 10 to 32 lifted variables
    terms = 12
    sidon_pairs = [(2, 3), (3, 3), (2, 5)]
    bohr_dims = [10**k for k in range(2, 13)]
    spans = ("dirichlet.bohr_lift", "polyalgebra.majorant_sum", "dirichlet.dirichlet_l1",
             "dirichlet.dirichlet_sup", "torusnorm.sup_lower", "sidonbohr.sidon_lower_search",
             "dirichlet.sidon_N_bounds", "sidonbohr.bohr_lower", "sidonbohr.bohr_certificate_value",
             "sidonbohr.bohr_estimate_small")

    @staticmethod
    def _dirichlet(s: int, N: int) -> Case:
        # A fixed term count keeps the spread of the two quality medians (both
        # grow like sqrt(terms)) down to the coefficients' own randomness.
        rng = np.random.default_rng(np.random.SeedSequence(s))
        support = rng.choice(np.arange(1, N + 1), size=DirichletSidon.terms, replace=False)
        coeffs = {int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support}
        return Case("dirichlet", {"Q": DirichletPolynomial(N, coeffs), "seed": s})

    def make_round(self, seed, r, tr):
        cases = [self._dirichlet(child_seed(seed, 4, r, j), N) for j, N in enumerate(self.dirichlet_N)]
        for j, (m, n) in enumerate(self.sidon_pairs):
            cases.append(Case("sidon_search", {"m": m, "n": n, "seed": child_seed(seed, 5, r, j)}))
        cases.append(Case("sidon_N", {"N": 4}))
        cases.append(Case("bohr_sweep", {"dims": self.bohr_dims}))
        cases.append(Case("bohr_small", {"a_step": 1e-3, "r_step": 1e-3}))
        return cases

    def warmup(self, seed, tr):
        return [self._dirichlet(child_seed(seed, 6), 30),
                Case("sidon_search", {"m": 2, "n": 3, "seed": child_seed(seed, 7)}),
                Case("sidon_N", {"N": 3}),
                Case("bohr_sweep", {"dims": [100]}),
                Case("bohr_small", {"a_step": 1e-2, "r_step": 1e-2})]

    def run(self, case, tr):
        d = case.data
        if case.kind == "dirichlet":
            Q, s = d["Q"], d["seed"]
            lift = tr.call("dirichlet.bohr_lift", bohr_lift, Q)
            lifted_sum = tr.call("polyalgebra.majorant_sum", majorant_sum, lift.poly, 1.0)
            l1 = tr.call("dirichlet.dirichlet_l1", dirichlet_l1, Q)
            est = tr.call("dirichlet.dirichlet_sup", dirichlet_sup, Q, seed=s)
            if tr.enabled:
                inner = tr.replay("dirichlet.bohr_lift", bohr_lift, Q)
                tr.replay("torusnorm.sup_lower", sup_lower, inner.poly, iterations=200, seed=s)
                terms = sum(len(p.coeffs) for p in lift.poly.parts.values()) + (lift.poly.a0 != 0)
                tr.count("torusnorm.sup_lower.term_evals", max(1, 8 * lift.poly.n) * 201 * terms)
            return {"lift": lift, "lifted_sum": lifted_sum, "l1": l1, "sup": est}
        if case.kind == "sidon_search":
            return tr.call("sidonbohr.sidon_lower_search", sidon_lower_search, d["m"], d["n"],
                           budget=6, seed=d["seed"], iterations=100)
        if case.kind == "sidon_N":
            bounds = tr.call("dirichlet.sidon_N_bounds", sidon_N_bounds, d["N"])
            # the brute grid's default 5 magnitudes per index and 8 phases per composite index
            composites = sum(1 for k in range(4, d["N"] + 1) if any(k % p == 0 for p in range(2, k)))
            tr.count("dirichlet.sidon_N_bounds.candidates", (5 ** d["N"] - 1) * 8**composites)
            return bounds
        if case.kind == "bohr_sweep":
            out = []
            for n in d["dims"]:
                rep = tr.call("sidonbohr.bohr_lower", bohr_lower, n)
                value = tr.call("sidonbohr.bohr_certificate_value", bohr_certificate_value,
                                n, rep.lower, rep.M_used)
                out.append((rep, value))
            return out
        return tr.call("sidonbohr.bohr_estimate_small", bohr_estimate_small,
                       a_step=d["a_step"], r_step=d["r_step"])

    def check(self, case, res):
        d = case.data
        if case.kind == "dirichlet":
            if res["lifted_sum"] != res["l1"]:
                return f"lift moved the coefficient sum: {res['lifted_sum']} != {res['l1']}"
            if not 0.0 < res["sup"].lower <= res["l1"] * (1.0 + REL_TOL):
                return f"sup lower bound {res['sup'].lower} outside (0, {res['l1']}]"
            return None
        if case.kind == "sidon_search":
            upper = min(sidon_upper_hyper(d["m"], d["n"]), sidon_upper_trivial(d["m"], d["n"]))
            if not 1.0 <= res.lower_search <= upper + 1e-9:
                return f"Sidon search bound {res.lower_search} outside [1, {upper}]"
            return None
        if case.kind == "sidon_N":
            if d["N"] == 4 and not res.lower > 1.005:
                return f"S(4) lower bound {res.lower} not above 1.005"
            return None
        if case.kind == "bohr_sweep":
            prev_b = 0.0
            for rep, value in res:
                if not (rep.certificate_value <= 0.5 + 1e-12 and value <= 0.5 + 1e-12):
                    return f"Bohr certificate above 1/2 at n={rep.n}: {rep.certificate_value}, {value}"
                if not rep.lower <= rep.upper or not rep.b_lower > prev_b:
                    return f"Bohr bracket or b(n) order broken at n={rep.n}"
                prev_b = rep.b_lower
            return None
        if not res.r_pass <= 1.0 / 3.0 <= res.r_fail:
            return f"K1 bracket [{res.r_pass}, {res.r_fail}] misses 1/3"
        return None

    def quality(self, records):
        done = [rec.result for rec in records if rec.case.kind == "dirichlet" and rec.result is not None]
        ratios = [res["l1"] / res["sup"].lower for res in done]
        return ratios, _probe_sup_rel(res["lift"].poly for res in done)


# ----------------------------------------------------------------------
# cli-campaign
# ----------------------------------------------------------------------

class CliCampaign(Workload):
    name = "cli-campaign"
    pool_rounds = 16
    single_threaded = False  # --threads 2 runs on every allowed CPU
    count = 2  # cases per (m, n) pair and call: 40 cases a call
    spans = ("cli.main",)

    def _argv(self, seed: int, threads: int, path: str) -> list[str]:
        return ["random-campaign", "--count", str(self.count), "--seed", str(seed),
                "--threads", str(threads), "--out", path]

    def make_round(self, seed, r, tr):
        path = os.path.join(self.out_dir, f"campaign-{r}.json")
        return [Case("cli", {"argv": self._argv(child_seed(seed, 8, r), 2, path), "path": path},
                     weight=self.count * len(CAMPAIGN_PAIRS), probe=r == 0)]

    def warmup(self, seed, tr):
        path = os.path.join(self.out_dir, "campaign-warmup.json")
        return [Case("cli", {"argv": self._argv(child_seed(seed, 9), 2, path), "path": path})]

    def run(self, case, tr):
        code = tr.call("cli.main", cli.main, case.data["argv"])
        path = case.data["path"]
        try:
            with open(path) as handle:
                text = handle.read()
            os.unlink(path)
        except FileNotFoundError:
            text = None
        return {"code": code, "report": text}

    def check(self, case, res):
        if res["code"] != 0 or res["report"] is None:
            return f"exit code {res['code']}, report {'missing' if res['report'] is None else 'written'}"
        rows = json.loads(res["report"])["rows"]
        if len(rows) != case.weight:
            return f"{len(rows)} report rows, expected {case.weight}"
        bad = [e for e in (verdict_error(row["verdict"], row["ratio"], row["constant"]) for row in rows) if e]
        return f"{len(bad)} report rows wrong, first: {bad[0]}" if bad else None

    def aggregate_errors(self, records):
        return inconclusive_errors([row["verdict"] for rec in records if rec.result is not None
                                    and rec.result["report"] for row in json.loads(rec.result["report"])["rows"]])

    def quality(self, records):
        rows = [(rec, row) for rec in records if rec.result is not None and rec.result["report"]
                for row in json.loads(rec.result["report"])["rows"]]
        probe = [random_homogeneous(row["m"], row["n"], row["distribution"], seed=row["case_seed"])
                 for rec, row in rows if rec.case.probe]
        return [row["ratio"] for _, row in rows], _probe_sup_rel(probe)

    def traced_extras(self, seed):
        """Time the same campaign at --threads 1 and 2; the reports must match byte for byte."""
        elapsed = {1: 0.0, 2: 0.0}
        errors = []
        for rep in range(3):
            reports = {}
            for threads in ((1, 2) if rep % 2 == 0 else (2, 1)):
                path = os.path.join(self.out_dir, f"speedup-{threads}.json")
                start = perf_counter()
                code = cli.main(self._argv(child_seed(seed, 10, rep), threads, path))
                elapsed[threads] += perf_counter() - start
                with open(path, "rb") as handle:
                    reports[threads] = handle.read()
                os.unlink(path)
                if code != 0:
                    errors.append(f"speedup run at --threads {threads} exited {code}")
            if reports[1] != reports[2]:
                errors.append("--threads 1 and --threads 2 reports differ")
        return {"cli.speedup_2t": elapsed[1] / elapsed[2]}, errors


WORKLOADS = {w.name: w for w in (TheoremCampaign, ProofChain, DirichletSidon, CliCampaign)}
