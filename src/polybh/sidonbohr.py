"""Sidon constants for degree-m monomials and the n-dimensional Bohr radius.

The Sidon constant S(m, n) is the smallest C with

    sum |a_alpha| <= C sup |P|        for all m-homogeneous P on C^n;

it equals the unconditional basis constant of the degree-m monomials.  Upper
bounds come from two routes: Holder applied to the hypercontractive
coefficient inequality,

    S(m, n) <= (1+1/(m-1))^{m-1} sqrt(m) (sqrt 2)^{m-1} C(n+m-1, m)^{(m-1)/2m},

and the Cauchy-Schwarz ("trivial") bound S(m, n) <= sqrt(C(n+m-1, m)).  The
first wins only once log n is large compared to m.  Lower bounds are found by
search over random coefficient patterns, each ranked by a certified ratio.

The Bohr radius K_n is the largest r such that the coefficient majorant on
the polydisc of radius r never exceeds the sup norm on the unit polydisc.
``bohr_lower`` certifies a radius through the classical argument: Wiener's
lemma bounds each homogeneous part of a sup-norm-1 polynomial by 1 - |a0|^2,
so whenever

    sum_{m>=1} r^m S_hat(m, n) <= 1/2,    S_hat = min(both Sidon bounds),

every majorant is at most |a0| + (1 - |a0|^2)/2 <= 1.  The series tail is
dominated by a geometric series via C(n+m-1, m) <= (e (1 + n/m))^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
import numpy as np

from .bhverify import bh_constant_hyper
from .polyalgebra import (
    DENSE_ENTRIES_MAX,
    REL_TOL,
    GeneralPolynomial,
    HomogeneousPolynomial,
    check_entries,
    dimension_count,
    majorant_sum,
    random_homogeneous,
)
from .torusnorm import _finest_upper, certified_upper

__all__ = [
    "sidon_upper_hyper",
    "sidon_upper_trivial",
    "sidon_crossover_n",
    "SidonBounds",
    "sidon_lower_search",
    "WienerReport",
    "check_wiener",
    "BohrRadiusReport",
    "bohr_lower",
    "bohr_certificate_value",
    "bohr_upper",
    "K1Bracket",
    "bohr_estimate_small",
]

SEARCH_STRATEGIES = ("random-sign", "gaussian", "coordinate-ascent")
CROSSOVER_N_MAX = 10**9  # sidon_crossover_n searches n in 2..CROSSOVER_N_MAX
WIENER_CORRECTION = 0.02  # x = D h / 2 of check_wiener's certified grids


# ----------------------------------------------------------------------
# Sidon upper bounds
# ----------------------------------------------------------------------

def sidon_upper_hyper(m: int, n: int) -> float:
    """Hypercontractive Sidon bound, exact formula (raises OverflowError when
    the binomial leaves double range)."""
    if m < 2 or n < 2:
        raise ValueError("needs m >= 2 and n >= 2")
    return bh_constant_hyper(m) * float(dimension_count(m, n)) ** ((m - 1) / (2.0 * m))


def sidon_upper_trivial(m: int, n: int) -> float:
    """Cauchy-Schwarz bound sqrt(C(n+m-1, m))."""
    if m < 1 or n < 1:
        raise ValueError("needs m >= 1 and n >= 1")
    return math.sqrt(dimension_count(m, n))


@lru_cache(maxsize=None)
def _log_dim(m: int, n: int) -> float:
    # log C(n+m-1, m); math.log of the exact integer stays accurate for huge n.
    return math.log(dimension_count(m, n))


def _log_sidon_hat(m: int, n: int) -> float:
    """log of min(hyper bound, trivial bound), with S(1, n) = 1."""
    if m == 1:
        return 0.0
    lnC = _log_dim(m, n)
    ln_trivial = 0.5 * lnC
    ln_hyper = math.log(bh_constant_hyper(m)) + (m - 1) / (2.0 * m) * lnC
    return min(ln_trivial, ln_hyper)


def sidon_crossover_n(m: int) -> int | None:
    """Smallest n where the hypercontractive bound beats the trivial one.

    The comparison reduces to log C(n+m-1, m) > 2m log C_m, monotone in n,
    so a binary search suffices.  None if no crossover up to CROSSOVER_N_MAX.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    target = 2 * m * math.log(bh_constant_hyper(m))

    def wins(n: int) -> bool:
        return _log_dim(m, n) > target

    if not wins(CROSSOVER_N_MAX):
        return None
    lo, hi = 2, CROSSOVER_N_MAX
    if wins(lo):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if wins(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------------------------
# Sidon lower bounds by search
# ----------------------------------------------------------------------

@dataclass
class SidonBounds:
    """Bracket for S(m, n) from one search run.

    ``lower_search`` is a certified lower bound for S(m, n): the witness's
    coefficient sum over a certified upper bound of its sup norm, the ratio
    :func:`sidon_lower_search` ranks every candidate by, at least 1.
    ``method["certificate"]`` is the ``method`` dict of the grid that
    certified ``lower_search`` (its maximum over sqrt(1 - x^2), x = D h_eff
    / 2, D the degree), or "coefficient-sum".
    """

    m: int
    n: int
    upper_hyper: float
    upper_trivial: float
    upper_best: float
    lower_search: float
    witness: HomogeneousPolynomial
    method: dict = field(default_factory=dict)


def _certified_ratio(P: HomogeneousPolynomial) -> tuple[float, dict | str]:
    """(sum |c| / U, how), where U, how = ``torusnorm._finest_upper(P)``: a
    certified lower bound for S(m, n) and how U was found; (0, how) for P = 0."""
    l1 = majorant_sum(P, 1.0)
    upper, how = _finest_upper(P)
    return (l1 / upper if l1 else 0.0), how


def sidon_lower_search(
    m: int,
    n: int,
    budget: int = 200,
    seed: int = 0,
    strategy: str = "random-sign",
    iterations: int = 120,
) -> SidonBounds:
    """Search for polynomials with a large certified coefficient-sum to
    sup-norm ratio.

    Candidates per strategy: ``random-sign`` draws dense +-1 patterns (the
    classical source of large Sidon ratios), ``gaussian`` dense complex
    normals, ``coordinate-ascent`` additionally polishes the best candidate
    by random single-coefficient phase/modulus moves.  Every candidate,
    each random draw and each move, is ranked by its certified ratio
    sum |c(P)| / U(P), U the upper bound of ``torusnorm._finest_upper``:
    the smaller of sum |c(P)| and the grid bound on the finest theta_1 = 0
    slice lattice within ``CERTIFIED_UPPER_POINTS`` points.  Since
    sup |P| <= U(P), S(m, n) >= sum |c(P)| / sup |P| >= the ratio (modulo
    rounding, see :func:`sup_certified`).  The monomial z_1^m, of ratio
    exactly 1, is the witness until a candidate scores strictly more; the
    first best ratio is ``lower_search``, and ``method["certificate"]``
    records how its U was found.  Each candidate is built just before it is
    scored, so only it and the best are alive.

    ``iterations`` has no effect: the ratio takes no ascent.  The parameter
    stays because the benchmark's dirichlet-sidon workload passes it.

    Needs m >= 2 and n >= 2 (ValueError otherwise), where the
    hypercontractive upper bound is defined.  A ``budget`` above
    ``DENSE_ENTRIES_MAX`` is refused with BudgetExceededError before any
    seed is drawn.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    check_entries(budget, DENSE_ENTRIES_MAX, f"a search of S({m}, {n})", "scored candidates")
    if strategy not in SEARCH_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {SEARCH_STRATEGIES}")
    uh = sidon_upper_hyper(m, n)
    ut = sidon_upper_trivial(m, n)

    dist = "random-signs" if strategy == "random-sign" else "complex-gaussian"
    n_candidates = budget if strategy != "coordinate-ascent" else max(1, budget // 2)

    def candidates():
        for idx in range(n_candidates):
            yield random_homogeneous(m, n, dist, seed=int(
                np.random.SeedSequence(seed, spawn_key=(0, idx)).generate_state(1)[0]))
        # The moves of coordinate-ascent, each from the best so far.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        keys = sorted(best_P.coeffs)
        for _ in range(budget - n_candidates):
            key = keys[int(rng.integers(len(keys)))]
            twist = complex((1.0 + 0.3 * rng.normal()) * np.exp(1j * rng.normal(0.0, 0.7)))
            coeffs = dict(best_P.coeffs)
            base = coeffs.get(key, 0j)
            coeffs[key] = base * twist if base != 0 else twist
            yield HomogeneousPolynomial(m, n, coeffs)

    best_P = HomogeneousPolynomial(m, n, {(1,) * m: 1.0})
    best_ratio, certificate = _certified_ratio(best_P)  # 1.0 by the coefficient sum
    for P in candidates():
        ratio, how = _certified_ratio(P)
        if ratio > best_ratio:
            best_P, best_ratio, certificate = P, ratio, how
    return SidonBounds(m=m, n=n, upper_hyper=uh, upper_trivial=ut, upper_best=min(uh, ut),
                       lower_search=best_ratio, witness=best_P,
                       method={"strategy": strategy, "budget": budget, "seed": seed, "candidates": n_candidates,
                               "ascent_moves": budget - n_candidates, "certificate": certificate})


# ----------------------------------------------------------------------
# Wiener's homogeneous-part bound
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class WienerPart:
    degree: int
    sup_estimate: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class WienerReport:
    a0_modulus: float
    bound: float  # 1 - |a0|^2
    parts: tuple[WienerPart, ...]
    passed: bool


def check_wiener(P: GeneralPolynomial, supnorm_upper_P: float) -> WienerReport:
    """Check Wiener's bound: if sup |P| <= 1 then sup |P_m| <= 1 - |P_0|^2.

    ``supnorm_upper_P`` must be a certified upper bound in [0, 1] (a NaN or
    a value outside is a ValueError).  Each part is bounded above by
    :func:`certified_upper` at x = ``WIENER_CORRECTION``: its grid maximum
    over sqrt(1 - x^2), a relative correction of about x^2 / 2, or the
    coefficient sum if smaller.  So a pass is rigorous modulo rounding.
    """
    if not 0.0 <= supnorm_upper_P <= 1.0 + 1e-12:  # NaN too
        raise ValueError(f"supnorm_upper_P must be in [0, 1] (scale the polynomial first), "
                         f"got {supnorm_upper_P}")
    bound = 1.0 - abs(P.a0) ** 2
    parts: list[WienerPart] = []
    for m, part in P.parts.items():
        est = certified_upper(part, target_correction=WIENER_CORRECTION)
        parts.append(WienerPart(m, est, bound, est <= bound * (1.0 + REL_TOL) + 1e-15))
    return WienerReport(
        a0_modulus=abs(P.a0),
        bound=bound,
        parts=tuple(parts),
        passed=all(p.passed for p in parts),
    )


# ----------------------------------------------------------------------
# Bohr radius pipeline
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BohrRadiusReport:
    n: int
    lower: float  # certified radius from the series certificate
    upper: float
    b_lower: float  # lower * sqrt(n / log n)
    M_used: int
    tail_bound: float
    certificate_value: float  # sum + tail at the returned radius (<= 1/2)


_M_START = 16  # first truncation degree of bohr_lower's certificate
_TAIL_RATIO_MAX = 0.9
_TAIL_ABS_MAX = 1e-9
_MAX_TRUNCATION = 10**7
CERTIFICATE_DPS = 50  # decimal digits of bohr_certificate_value


def _certificate_terms(n: int, r: float, M: int) -> tuple[bool, float, float, int]:
    """Evaluate sum_{m=1..M} r^m S_hat(m, n) plus a geometric tail bound.

    Returns (exceeds_half, value, tail, M_final).  The truncation degree M
    doubles until the tail ratio r sqrt(e (1 + n/M)) drops to 0.9 AND the
    resulting tail is negligible (< 1e-9), so the radius is never throttled
    by a lazy tail; a partial sum already above 1/2 decides immediately (the
    tail is nonnegative).
    """
    if r == 0.0:
        return False, 0.0, 0.0, M
    log_r = math.log(r)
    while True:
        total = 0.0
        for m in range(1, M + 1):
            log_term = m * log_r + _log_sidon_hat(m, n)
            if log_term > 50.0:
                return True, math.inf, math.inf, M
            total += math.exp(log_term)
            if total > 0.5:
                return True, total, math.inf, M
        q = r * math.sqrt(math.e * (1.0 + n / M))
        if q <= _TAIL_RATIO_MAX:
            tail = q ** (M + 1) / (1.0 - q)
            if tail <= _TAIL_ABS_MAX:
                return (total + tail > 0.5), total + tail, tail, M
        M *= 2
        if M > _MAX_TRUNCATION:
            raise RuntimeError(f"truncation degree exceeded {_MAX_TRUNCATION} at r={r}")


def bohr_lower(n: int) -> BohrRadiusReport:
    """Certified Bohr-radius lower bound by bisection on the series certificate.

    Finds the largest r (to 1e-9 relative precision) with

        sum_{m=1}^{M} r^m S_hat(m, n) + tail(r, M, n) <= 1/2,

    where S_hat(1, n) = 1 and S_hat(m, n) is the better of the two Sidon
    upper bounds; the certificate then gives majorant <= |a0| + (1-|a0|^2)/2
    <= 1 for every sup-norm-1 polynomial, so K_n >= r.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    M0 = _M_START
    lo, hi = 0.0, 0.5
    # The m = 1 term alone makes r = 0.5 exceed the budget.
    for _ in range(200):
        if lo > 0 and (hi - lo) <= 1e-9 * lo:
            break
        mid = 0.5 * (lo + hi)
        exceeds, _, _, M0 = _certificate_terms(n, mid, M0)
        if exceeds:
            hi = mid
        else:
            lo = mid
    # The final evaluation is the authoritative certificate.  The truncation
    # degree may have grown since lo was last checked, shifting the value by
    # ~1e-9; back off the radius until the certificate holds outright.
    for _ in range(8):
        exceeds, value, tail, M_used = _certificate_terms(n, lo, M0)
        if not exceeds:
            break
        lo *= 1.0 - 4e-9
    else:
        raise RuntimeError(f"certificate failed to settle at n={n}")
    return BohrRadiusReport(
        n=n,
        lower=lo,
        upper=bohr_upper(n),
        b_lower=lo * math.sqrt(n / math.log(n)),
        M_used=M_used,
        tail_bound=tail,
        certificate_value=value,
    )


def bohr_certificate_value(n: int, r: float, M: int) -> float:
    """Recompute the certificate sum at radius r in high precision.

    Independent route for cross-checking ``bohr_lower``: exact integer
    binomials fed to mpmath arithmetic at ``CERTIFICATE_DPS`` digits, same
    tail bound.  Raises if the tail ratio is not strictly below 1.
    """
    if r == 0.0:
        return 0.0
    with mpmath.workdps(CERTIFICATE_DPS):
        rm = mpmath.mpf(r)
        total = mpmath.mpf(0)
        for m in range(1, M + 1):
            if m == 1:
                s_hat = mpmath.mpf(1)
            else:
                C = mpmath.mpf(dimension_count(m, n))
                hyper = (
                    (1 + mpmath.mpf(1) / (m - 1)) ** (m - 1)
                    * mpmath.sqrt(m)
                    * mpmath.sqrt(2) ** (m - 1)
                    * C ** (mpmath.mpf(m - 1) / (2 * m))
                )
                s_hat = min(hyper, mpmath.sqrt(C))
            total += rm**m * s_hat
        q = rm * mpmath.sqrt(mpmath.e * (1 + mpmath.mpf(n) / M))
        if not q < 1:
            raise ValueError(f"tail ratio {float(q)} >= 1; increase M")
        total += q ** (M + 1) / (1 - q)
        return float(total)


def bohr_upper(n: int) -> float:
    """Upper bound min(1/3, 2 sqrt(log n / n)): the one-variable radius 1/3
    never grows with dimension, and the Boas-Khavinson bound takes over for
    large n."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return min(1.0 / 3.0, 2.0 * math.sqrt(math.log(n) / n))


# ----------------------------------------------------------------------
# One-variable bracket via the extremal Moebius family
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class K1Bracket:
    r_pass: float  # largest grid radius where the whole family stays <= 1
    r_fail: float  # smallest grid radius with a violation
    a_step: float
    r_step: float
    degree: int


_A_MAX, _R_MAX = 0.999, 0.45  # the (a, r) scan box of bohr_estimate_small


def _moebius_truncated(a: float, degree: int) -> GeneralPolynomial:
    # (a - z) / (1 - a z) = a - (1 - a^2) sum_{k>=1} a^{k-1} z^k, truncated.
    parts = {}
    for k in range(1, degree + 1):
        c = -(1.0 - a * a) * a ** (k - 1)
        if c != 0.0:
            parts[k] = HomogeneousPolynomial(k, 1, {(1,) * k: c})
    return GeneralPolynomial(1, parts, complex(a))


def bohr_estimate_small(
    a_step: float = 1e-3,
    r_step: float = 1e-3,
    degree: int = 50,
) -> K1Bracket:
    """Bracket the one-variable Bohr radius using disc automorphisms.

    The functions f_a(z) = (a - z)/(1 - a z) have sup norm 1 and majorant
    a + (1 - a^2) r / (1 - a r) at radius r, which stays <= 1 exactly when
    r <= 1/(1 + 2a); letting a -> 1 pins the radius to 1/3.  This scans the
    truncated family on an (a, r) grid and returns the bracketing radii,
    which must contain 1/3.  The grid itself is evaluated as a vectorized
    coefficient-times-radius-powers product; a subsample is cross-checked
    against ``majorant_sum`` on the actual polynomial objects.

    The radii are k * r_step rounded to 12 digits.  At the first of them
    above 1/3, g, the untruncated excess of f_a over 1,
    (1 - a)(g (1 + 2a) - 1)/(1 - a g), peaks at
    a* = (2 - sqrt(2 (1 - g^2)))/(2 g); a* joins the a grid (0, a_step, ...,
    0.999), so the scan fails at g at the latest.  Refused before the scan:
    a ValueError for a step that is not positive or an infinite a_step,
    when the truncated f_{a*} does not exceed 1 + 1e-12 at g (degree too
    low, or r_step too fine: the excess is about 5 (g - 1/3)^2, so every
    r_step under 4.5e-7 is refused), or when r_step is below the 12-digit
    rounding or puts g past 0.45 (an infinite r_step too); a
    BudgetExceededError when the a grid times (degree + 1) exceeds
    ``DENSE_ENTRIES_MAX`` entries.
    """
    if degree < 5:
        raise ValueError("truncation degree too small to be meaningful")
    if not (a_step > 0 and r_step > 0):  # r_step = 0 would never end the scan
        raise ValueError(f"--a-step and --r-step must be positive, got {a_step} and {r_step}")
    if a_step == math.inf:  # an infinite r_step is refused below: it leaves no radius
        raise ValueError("--a-step must be finite, got inf")
    if r_step < 1e-12:  # below the 12-digit rounding the radii would not advance
        raise ValueError(f"r_step {r_step} is below the grid resolution 1e-12; use a coarser --r-step")
    # A float count: no overflow.
    check_entries((_A_MAX / a_step + 2) * (degree + 1), DENSE_ENTRIES_MAX, "the (a, r) scan", "coefficients")
    k_g = math.floor(1.0 / (3.0 * r_step))
    while round(k_g * r_step, 12) <= 1.0 / 3.0:
        k_g += 1
    g = round(k_g * r_step, 12)
    if not g <= _R_MAX:  # an infinite r_step gives NaN
        raise ValueError(f"r_step {r_step} leaves no grid radius in (1/3, {_R_MAX}]; use a finer --r-step")
    a_star = (2.0 - math.sqrt(2.0 * (1.0 - g * g))) / (2.0 * g)
    # The bracket hinges on parameters close to 1 (the violation radius of
    # f_a is 1/(1 + 2a)), so the endpoint _A_MAX and a* are always sampled.
    a_values = np.append(np.arange(0.0, _A_MAX, a_step), [_A_MAX, a_star])
    # Row a: (|a0|, l1 of degree-1 part, ..., l1 of degree-`degree` part).
    coeff_l1 = np.zeros((len(a_values), degree + 1))
    coeff_l1[:, 0] = a_values
    for k in range(1, degree + 1):
        coeff_l1[:, k] = (1.0 - a_values**2) * a_values ** (k - 1)
    peak = float(coeff_l1[-1] @ g ** np.arange(degree + 1))
    if not peak > 1.0 + 1e-12:
        raise ValueError(f"the truncated family does not exceed 1 + 1e-12 at r = {g}, the first grid "
                         f"radius above 1/3 (peak excess {peak - 1.0:.3g}); use a coarser --r-step "
                         f"or a higher --degree")

    spot = [(ia, _moebius_truncated(float(a_values[ia]), degree))
            for ia in range(0, len(a_values), max(1, len(a_values) // 7))]

    r_pass = 0.0
    for k in range(k_g + 1):
        r = round(k * r_step, 12)
        rpow = r ** np.arange(degree + 1)
        majorants = coeff_l1 @ rpow
        for ia, P in spot:  # the closed form must match the polynomial route
            direct = majorant_sum(P, r)
            if abs(direct - majorants[ia]) > 1e-9 * max(1.0, direct):
                raise AssertionError(f"majorant mismatch at a={a_values[ia]}, r={r}")
        if float(majorants.max()) > 1.0 + 1e-12:
            return K1Bracket(r_pass, r, a_step, r_step, degree)
        r_pass = r
    raise RuntimeError(f"no violation found up to r = {g}")
