"""Dirichlet polynomials and the Bohr lift.

A Dirichlet polynomial Q(s) = sum_{n<=N} a_n n^{-s} becomes an ordinary
polynomial by substituting one variable per prime: if n = prod p_j^{alpha_j}
then n^{-s} = prod (p_j^{-s})^{alpha_j} = z^alpha with z_j = p_j^{-s}.  On
the imaginary axis s = it each z_j = p_j^{-it} is unimodular, and since the
numbers log p_j are rationally independent the line orbit is dense in the
torus (Kronecker); the sup of |Q| over the line therefore equals the sup of
the lifted polynomial over the torus.  That equivalence is adopted here as a
documented modeling assumption and cross-checked one-sidedly: a finite scan
of |Q(it)| can approach but never exceed the torus sup.

The Sidon constant S(N) is the best C with sum |a_n| <= C sup_t |Q(it)|.
Tiny N admit brute-force values on the lift (at most four variables for
N <= 8); beyond that the search is heuristic.  For comparison the module
also evaluates the asymptotic shape sqrt(N) exp{c sqrt(log N log log N)}
(the sharp rate has c = -1/sqrt(2); the o(1) term is unquantified, so finite
values are shapes, not bounds) and the associated weighted coefficient sums
sum |a_n| n^{-1/2} exp{c sqrt(log n log log n)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping

import numpy as np

from .indexcore import exponent_to_index
from .polyalgebra import GeneralPolynomial, HomogeneousPolynomial, _finite, _json_complex, _json_field, monomials
from .torusnorm import SupNormEstimate, sup_lower

__all__ = [
    "DirichletPolynomial",
    "primes_up_to",
    "factorize",
    "LiftResult",
    "bohr_lift",
    "dirichlet_l1",
    "evaluate_line",
    "dirichlet_sup",
    "SidonNBounds",
    "sidon_N_bounds",
    "asymptotic_formula",
    "bcq_partial_sum",
    "to_json_dict",
    "from_json_dict",
]

BRUTE_N_MAX = 8
LINE_SCAN_T_MAX, LINE_SCAN_POINTS = 200.0, 4001  # dirichlet_sup's t grid on [0, T]
SMALL_GRID_POINTS = 2048  # phase grid of the N <= 8 certified sup bound


@dataclass(frozen=True)
class DirichletPolynomial:
    """Finite Dirichlet polynomial sum_{n<=N} a_n n^{-s} as a sparse table
    (exact zeros dropped, non-finite coefficients rejected)."""

    N: int
    coeffs: Mapping[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("length N must be >= 1")
        clean: dict[int, complex] = {}
        for key, value in dict(self.coeffs).items():
            nn = int(key)
            if not 1 <= nn <= self.N:
                raise ValueError(f"frequency index {nn} outside 1..{self.N}")
            c = _finite(value)
            if c != 0:
                clean[nn] = c
        object.__setattr__(self, "coeffs", dict(sorted(clean.items())))

    def coeff(self, n: int) -> complex:
        return self.coeffs.get(n, 0j)


def primes_up_to(x: int) -> list[int]:
    """Primes <= x by a byte sieve."""
    if x < 2:
        return []
    sieve = bytearray(b"\x01") * (x + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, int(math.isqrt(x)) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : x + 1 : p] = b"\x00" * ((x - start) // p + 1)
    return [i for i, flag in enumerate(sieve) if flag]


def factorize(n: int) -> tuple[int, ...]:
    """Prime-exponent vector of n over the initial segment of primes.

    The tuple covers every prime up to the largest prime factor, so
    factorize(12) == (2, 1) over (2, 3) and factorize(97) has a single 1 in
    position 25.  factorize(1) is the empty tuple.
    """
    if n < 1:
        raise ValueError("can only factorize positive integers")
    if n == 1:
        return ()
    rem = n
    exps: dict[int, int] = {}
    p = 2
    while p * p <= rem:
        while rem % p == 0:
            exps[p] = exps.get(p, 0) + 1
            rem //= p
        p += 1 if p == 2 else 2
    if rem > 1:
        exps[rem] = exps.get(rem, 0) + 1
    plist = primes_up_to(max(exps))
    return tuple(exps.get(p, 0) for p in plist)


@dataclass(frozen=True)
class LiftResult:
    """A lifted Dirichlet polynomial: one variable per prime up to N."""

    poly: GeneralPolynomial
    primes: tuple[int, ...]
    monomial_map: dict[int, tuple[int, ...]]


def bohr_lift(Q: DirichletPolynomial) -> LiftResult:
    """Substitute z_j = p_j^{-s}: coefficient a_n moves to the monomial
    z^{alpha(n)} with alpha(n) the prime-exponent vector of n.  The lift is
    linear and carries coefficients over unchanged, so the coefficient sum
    is preserved exactly; each monomial's degree is the number of prime
    factors of n counted with multiplicity."""
    plist = tuple(primes_up_to(Q.N))
    nv = len(plist)
    a0 = 0j
    by_degree: dict[int, dict[tuple[int, ...], complex]] = {}
    monomial_map: dict[int, tuple[int, ...]] = {}
    for nn, c in Q.coeffs.items():
        alpha = factorize(nn)
        alpha = alpha + (0,) * (nv - len(alpha))
        monomial_map[nn] = alpha
        degree = sum(alpha)
        if degree == 0:
            a0 += c
        else:
            by_degree.setdefault(degree, {})[exponent_to_index(alpha)] = c
    parts = {
        deg: HomogeneousPolynomial(deg, nv, table) for deg, table in by_degree.items() if nv > 0
    }
    return LiftResult(GeneralPolynomial(nv, parts, a0), plist, monomial_map)


def dirichlet_l1(Q: DirichletPolynomial) -> float:
    """Coefficient sum |||Q|||_1 = sum |a_n| (exactly rounded)."""
    return math.fsum(abs(c) for c in Q.coeffs.values())


def _line_values(Q: DirichletPolynomial, ts: np.ndarray) -> np.ndarray:
    logs = np.array([math.log(nn) for nn in Q.coeffs])
    cs = np.array(list(Q.coeffs.values()), dtype=np.complex128)
    return monomials(-ts[:, None], logs[:, None]) @ cs


def evaluate_line(Q: DirichletPolynomial, t: float) -> complex:
    """Q(it) = sum a_n n^{-it} = sum a_n e^{-i t log n}."""
    return complex(_line_values(Q, np.array([float(t)]))[0])


def dirichlet_sup(Q: DirichletPolynomial, seed: int = 0) -> SupNormEstimate:
    """Estimate sup_t |Q(it)| through the lifted polynomial's torus sup.

    Runs phase ascent on the lift and a direct scan of |Q(it)| on a uniform
    t grid.  The scan values are genuine lower bounds too (the line orbit is
    in the torus closure), so the reported lower bound is the larger of the
    two; the gap between them is kept in the metadata as a consistency
    check.
    """
    lift = bohr_lift(Q)
    est = sup_lower(lift.poly, seed=seed)
    ts = np.linspace(0.0, LINE_SCAN_T_MAX, LINE_SCAN_POINTS)
    scan = float(np.max(np.abs(_line_values(Q, ts))))
    lower = max(est.lower, scan)
    meta = dict(est.method)
    meta.update({
        "torus_ascent": est.lower,
        "line_scan_max": scan,
        "line_scan_t_max": LINE_SCAN_T_MAX,
        "line_scan_points": LINE_SCAN_POINTS,
        "n_vars": lift.poly.n,
    })
    return SupNormEstimate(lower, None, est.argmax, meta)


# ----------------------------------------------------------------------
# Sidon constants S(N)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SidonNBounds:
    N: int
    lower: float
    witness: DirichletPolynomial
    method: dict
    asymptotic_sharp: float | None  # shape value at c = -1/sqrt(2), N >= 16 only


def _brute_candidates(N: int, mag_points: int, phase_points: int):
    """Coefficient candidates for the brute-force search at tiny N.

    Scale and torus rotations make a_1 and each a_p (p prime) nonnegative
    without loss; remaining composite indices keep a phase grid.
    """
    plist = primes_up_to(N)
    pset = set(plist)
    mags = np.linspace(0.0, 1.0, mag_points)
    phases = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    free_phase = [nn for nn in range(2, N + 1) if nn not in pset]
    for mtuple in product(mags, repeat=N):
        if max(mtuple) == 0.0:
            continue
        for ptuple in product(phases, repeat=len(free_phase)):
            coeffs: dict[int, complex] = {}
            if mtuple[0]:
                coeffs[1] = mtuple[0]
            for nn in range(2, N + 1):
                mag = mtuple[nn - 1]
                if not mag:
                    continue
                if nn in pset:
                    coeffs[nn] = mag
                else:
                    coeffs[nn] = mag * np.exp(1j * ptuple[free_phase.index(nn)])
            yield DirichletPolynomial(N, coeffs)


def _sup_upper_small(Q: DirichletPolynomial, grid_points: int = SMALL_GRID_POINTS) -> float:
    """Rigorous sup upper bound for N <= 8, reduced to one phase variable.

    For N <= 8 every prime except 2 enters the lift linearly: with z the
    variable of prime 2,

        |Q| = |A(z) + B(z) z_3 + a_5 z_5 + a_7 z_7|,
        A = a_1 + a_2 z + a_4 z^2 + a_8 z^3,   B = a_3 + a_6 z,

    and aligning the unimodular z_3, z_5, z_7 gives sup = max_theta (|A| +
    |B|) + |a_5| + |a_7|.  The 1-D max over a rigid grid is corrected by the
    Lipschitz bound |d/dtheta| <= sum_k k (|A_k| + |B_k|).
    """
    if Q.N > BRUTE_N_MAX:
        raise ValueError("small-lift bound only valid for N <= 8")
    A = [Q.coeff(1), Q.coeff(2), Q.coeff(4), Q.coeff(8)]
    B = [Q.coeff(3), Q.coeff(6)]
    extra = abs(Q.coeff(5)) + abs(Q.coeff(7))
    theta = np.arange(grid_points) * (2.0 * math.pi / grid_points)
    z = np.exp(1j * theta)
    va = np.abs(A[0] + A[1] * z + A[2] * z * z + A[3] * z * z * z)
    vb = np.abs(B[0] + B[1] * z)
    grid_max = float(np.max(va + vb))
    lipschitz = math.fsum(k * abs(c) for k, c in enumerate(A)) + abs(B[1])
    return grid_max + lipschitz * (math.pi / grid_points) + extra


def certified_ratio_small(Q: DirichletPolynomial, grid_points: int = SMALL_GRID_POINTS) -> float:
    """Coefficient sum over a certified sup upper bound (true S(N) lower bound)."""
    l1 = dirichlet_l1(Q)
    if l1 == 0.0:
        return 0.0
    return l1 / _sup_upper_small(Q, grid_points)


def sidon_N_bounds(
    N: int,
    budget: int = 200,
    seed: int = 0,
    mag_points: int = 5,
    phase_points: int = 8,
) -> SidonNBounds:
    """Lower-bound S(N) by search over coefficient patterns.

    For N <= 8 a brute grid over coefficient magnitudes and essential phases
    runs on the lift, each candidate scored by coefficient sum over a
    certified sup upper bound, so the result is a true lower bound to grid
    accuracy.  Default resolutions are sized for N <= 5; pass smaller
    ``mag_points``/``phase_points`` for N in 6..8 (cost is mag_points^N times
    phase_points^(number of composites)).  Larger N fall back to random
    candidates scored heuristically with ascent sup estimates, plus the
    asymptotic shape for comparison.
    """
    if N < 2:
        raise ValueError("needs N >= 2")
    if N > BRUTE_N_MAX and budget < 1:
        # No candidate would be scored: S(N) >= 1 would be reported from the a_1 witness alone.
        raise ValueError(f"needs budget >= 1 for N > {BRUTE_N_MAX}, got {budget}")
    if N <= BRUTE_N_MAX and (mag_points < 2 or phase_points < 1):
        # Fewer points can leave no nonzero candidate: S(N) >= 1 would be reported unscored.
        raise ValueError(f"needs mag_points >= 2 and phase_points >= 1, "
                         f"got {mag_points} and {phase_points}")
    best_ratio = 1.0  # witness a_1 = 1 alone has ratio exactly 1
    best_Q = DirichletPolynomial(N, {1: 1.0})
    if N <= BRUTE_N_MAX:
        for Q in _brute_candidates(N, mag_points, phase_points):
            ratio = certified_ratio_small(Q)
            if ratio > best_ratio:
                best_ratio, best_Q = ratio, Q
        method = {
            "kind": "brute-grid",
            "certified": True,
            "mag_points": mag_points,
            "phase_points": phase_points,
            "grid_points": SMALL_GRID_POINTS,
        }
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        for idx in range(budget):
            gauss = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
            Q = DirichletPolynomial(N, dict(zip(range(1, N + 1), gauss)))
            l1 = dirichlet_l1(Q)
            denom = sup_lower(bohr_lift(Q).poly, iterations=120, seed=seed + idx).lower
            ratio = l1 / denom if denom > 0 else 0.0
            if ratio > best_ratio:
                best_ratio, best_Q = ratio, Q
        # Firm up the winner's denominator before reporting.
        denom = sup_lower(bohr_lift(best_Q).poly, iterations=600, seed=seed).lower
        best_ratio = max(1.0, min(best_ratio, dirichlet_l1(best_Q) / denom if denom else 1.0))
        method = {"kind": "random-search-heuristic", "certified": False, "budget": budget, "seed": seed}
    shape = asymptotic_formula(N, -1.0 / math.sqrt(2.0)) if N >= 16 else None
    return SidonNBounds(N=N, lower=best_ratio, witness=best_Q, method=method, asymptotic_sharp=shape)


def asymptotic_formula(N: int, c: float) -> float:
    """The growth shape sqrt(N) exp{c sqrt(log N log log N)}.

    Only meaningful once log log N > 1, so N < 16 is rejected as out of
    domain.  c = 0 returns sqrt(N) exactly.
    """
    if N < 16:
        raise ValueError("asymptotic shape is out of domain for N < 16")
    logN = math.log(N)
    return math.sqrt(N) * math.exp(c * math.sqrt(logN * math.log(logN)))


def bcq_partial_sum(Q, c: float, n_start: int = 3) -> float:
    """Weighted coefficient sum sum_n |a_n| n^{-1/2} exp{c sqrt(log n log log n)}.

    Terms with n < n_start (default 3) carry the weight n^{-1/2} alone:
    log log n is zero or negative there, so the exponential factor is
    omitted by convention rather than extrapolated.
    """
    if isinstance(Q, DirichletPolynomial):
        items = Q.coeffs.items()
    else:
        items = {int(k): complex(v) for k, v in dict(Q).items()}.items()
    terms = []
    for nn, a in items:
        if nn < 1:
            raise ValueError("frequency indices must be positive")
        w = nn ** (-0.5)
        if nn >= n_start and nn >= 3:
            w *= math.exp(c * math.sqrt(math.log(nn) * math.log(math.log(nn))))
        terms.append(abs(a) * w)
    return math.fsum(terms)


# ----------------------------------------------------------------------
# JSON wire format
# ----------------------------------------------------------------------

def to_json_dict(Q: DirichletPolynomial) -> dict:
    """``{"N": 6, "terms": [{"n": 2, "re": 1.0, "im": 0.0}, ...]}``"""
    return {
        "N": Q.N,
        "terms": [{"n": nn, "re": c.real, "im": c.imag} for nn, c in Q.coeffs.items()],
    }


def from_json_dict(data: Mapping) -> DirichletPolynomial:
    """Inverse of :func:`to_json_dict`; a missing key or a value of the wrong
    JSON type raises ValueError naming the key."""
    N = _json_field(data, "N", "integer")
    coeffs: dict[int, complex] = {}
    for term in _json_field(data, "terms", "list", []):
        nn = _json_field(term, "n", "integer")
        coeffs[nn] = coeffs.get(nn, 0j) + _json_complex(term)
    return DirichletPolynomial(N, coeffs)
