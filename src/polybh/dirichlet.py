"""Dirichlet polynomials and the Bohr lift.

A Dirichlet polynomial Q(s) = sum_{n<=N} a_n n^{-s} becomes an ordinary
polynomial by substituting one variable per prime: if n = prod p_j^{alpha_j}
then n^{-s} = prod (p_j^{-s})^{alpha_j} = z^alpha with z_j = p_j^{-s}.  On
the imaginary axis s = it each z_j = p_j^{-it} is unimodular, and since the
numbers log p_j are rationally independent the line orbit is dense in the
torus (Kronecker); the sup of |Q| over the line therefore equals the sup of
the lifted polynomial over the torus.  That equivalence is adopted here as a
documented modeling assumption: :func:`dirichlet_sup` takes the torus sup of
the lift.  A finite scan of |Q(it)| (:func:`evaluate_line`) can approach but
never exceed it.

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
from itertools import islice
from typing import Mapping

import numpy as np

from .indexcore import exponent_to_index
from .polyalgebra import DENSE_ENTRIES_MAX, check_entries
from .polyalgebra import GeneralPolynomial, HomogeneousPolynomial, _finite, _json_complex, _json_field, monomials
from .sidonbohr import _firm_up, _sidon_ratios
from .torusnorm import SupNormEstimate, _bernstein_factor, sup_lower

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
SMALL_GRID_POINTS = 2048  # phase grid of the N <= 8 certified sup bound
BRUTE_COARSE_STRIDE = 32  # every 32nd grid node (64 of 2048) prunes brute candidates
# Candidate rows x coarse nodes per brute block.  At N = 6 (mag_points 4) on a
# 2-vCPU x86_64 machine 2**13 was 1.3x to 1.4x faster than 2**14; its 128 KiB
# temporaries also stay below NumPy's 256 KiB in-place elision threshold.
BRUTE_BLOCK_ELEMENTS = 1 << 13
BRUTE_CANDIDATES_MAX = 10**7  # largest brute grid sidon_N_bounds enumerates
PRUNE_SLACK = 2.0**-40  # relative widening of the NumPy coefficient sums (see _ratio_bounds)


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


def _lift_primes(N: int, terms: int) -> tuple[int, ...]:
    """The primes up to N, the variables of a lift of ``terms`` terms; a
    BudgetExceededError when the sieve's N + 1 bytes or the lift's terms x
    pi(N) exponent entries exceed ``DENSE_ENTRIES_MAX``, each before it is built."""
    check_entries(N + 1, DENSE_ENTRIES_MAX, f"the prime sieve up to N = {N}", "bytes")
    plist = tuple(primes_up_to(N))
    check_entries(terms * len(plist), DENSE_ENTRIES_MAX, f"a lift of {terms} terms in {len(plist)} variables",
                  "exponent entries")
    return plist


def bohr_lift(Q: DirichletPolynomial) -> LiftResult:
    """Substitute z_j = p_j^{-s}: coefficient a_n moves to the monomial
    z^{alpha(n)} with alpha(n) the prime-exponent vector of n.  The lift is
    linear and carries coefficients over unchanged, so the coefficient sum
    is preserved exactly; each monomial's degree is the number of prime
    factors of n counted with multiplicity.  Its sieve and exponent table
    are capped by ``DENSE_ENTRIES_MAX`` (see :func:`_lift_primes`)."""
    plist = _lift_primes(Q.N, len(Q.coeffs))
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


def evaluate_line(Q: DirichletPolynomial, t: float) -> complex:
    """Q(it) = sum a_n n^{-it} = sum a_n e^{-i t log n}."""
    logs = np.array([math.log(nn) for nn in Q.coeffs]).reshape(-1, 1)  # (K, 1), K = 0 too
    cs = np.array(list(Q.coeffs.values()), dtype=np.complex128)
    return complex((monomials(np.array([[-float(t)]]), logs) @ cs)[0])


def dirichlet_sup(Q: DirichletPolynomial, seed: int = 0) -> SupNormEstimate:
    """Estimate sup_t |Q(it)| as the torus sup of the Bohr lift.

    Runs phase ascent (:func:`torusnorm.sup_lower`) on the lift; its value
    is a lower bound of the line sup too, since the line orbit is dense in
    the torus.  ``method`` is the ascent's, plus ``n_vars``, the number of
    lift variables.
    """
    lift = bohr_lift(Q)
    est = sup_lower(lift.poly, seed=seed)
    return SupNormEstimate(est.lower, None, est.argmax, {**est.method, "n_vars": lift.poly.n})


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


def _small_nodes(grid_points: int) -> np.ndarray:
    """The phase grid z_j = e^{i theta_j}, theta_j = 2 pi j / grid_points."""
    return np.exp(1j * (np.arange(grid_points) * (2.0 * math.pi / grid_points)))


def _row_max(rows: np.ndarray, z: np.ndarray) -> np.ndarray:
    """max_j |A(z_j)| + |B(z_j)| for each row a_1 .. a_8 of ``rows`` (see _ratio_small).

    The expressions are evaluated elementwise in one association order, so a
    row's value at a node has the same bits whatever the other rows and
    nodes are.
    """
    a1, a2, a3, a4, _, a6, _, a8 = (rows[:, k, None] for k in range(BRUTE_N_MAX))
    z = np.tile(z, (len(rows), 1))  # a (rows, 1) x (nodes,) product is about 5x slower in NumPy
    # |a1 + a2 z + a4 z z + a8 z z z| + |a3 + a6 z| in place, in that order.
    va, t = a2 * z, a4 * z
    va += a1
    t *= z
    va += t
    np.multiply(a8, z, out=t)
    t *= z
    t *= z
    va += t
    np.multiply(a6, z, out=t)
    t += a3
    return np.max(np.abs(va) + np.abs(t), axis=1)


def _small_factor(grid_points: int) -> float:
    """The grid correction of :func:`_ratio_small` on ``grid_points`` nodes:
    torusnorm's sqrt(1 - x^2) at x = D pi / grid_points, the step being
    2 pi / grid_points and D = 3 the largest degree in z of A and B for
    N <= ``BRUTE_N_MAX`` (a_8 z^3)."""
    return _bernstein_factor((BRUTE_N_MAX.bit_length() - 1) * math.pi / grid_points)


def _ratio_small(grid_max: float, moduli, grid_points: int) -> float:
    """Certified ratio sum |a_n| / sup |Q| for N <= 8, reduced to one phase variable.

    For N <= 8 every prime except 2 enters the lift linearly: with z the
    variable of prime 2,

        |Q| = |A(z) + B(z) z_3 + a_5 z_5 + a_7 z_7|,
        A = a_1 + a_2 z + a_4 z^2 + a_8 z^3,   B = a_3 + a_6 z,

    and aligning the unimodular z_3, z_5, z_7 gives sup = max_theta (|A| +
    |B|) + |a_5| + |a_7|.  ``grid_max`` is that max over the rigid grid of
    ``grid_points`` nodes; divided by :func:`_small_factor` it bounds the
    max over theta (torusnorm._bernstein_factor covers sums of moduli, and
    A and B have degree at most 3).  The degree is the search's, not the
    candidate's, so a candidate with A and B constant (only a_1, a_3, a_5,
    a_7) scores just below 1.  ``moduli[n - 1]`` is |a_n|; an all-zero
    pattern has ratio 0.
    """
    l1 = math.fsum(moduli)
    if not l1:
        return 0.0
    return l1 / (grid_max / _small_factor(grid_points) + (moduli[4] + moduli[6]))


def _ratio_bounds(coarse_max: np.ndarray, moduli: np.ndarray, grid_points: int) -> np.ndarray:
    """Vectorized upper bounds on _ratio_small(coarse_max[r], moduli[r], grid_points).

    The same expression with a NumPy sum in place of math.fsum.  A sum of
    at most 8 nonnegative terms is off by less than 8 ulp relative
    (2**-50), so widening the coefficient sum up by PRUNE_SLACK = 2**-40
    puts it above the fsum value.  The denominator has the one-row bits,
    and each rounded operation is monotone in its arguments, so every bound
    is >= the one-row value.
    """
    l1 = moduli.sum(axis=1) * (1.0 + PRUNE_SLACK)
    return l1 / (coarse_max / _small_factor(grid_points) + (moduli[:, 4] + moduli[:, 6]))


def _brute_search(N: int, mag_points: int, phase_points: int):
    """Best certified ratio over the brute grid of N <= 8 coefficient patterns.

    Returns (ratio, coefficients of the winner, candidates, scored).
    See sidon_N_bounds for the grid, the blocks and the pruning.
    """
    pset = set(primes_up_to(N))
    composite = [nn > 1 and nn not in pset for nn in range(1, N + 1)]
    radices = [1 + (mag_points - 1) * (phase_points if c else 1) for c in composite]
    candidates = math.prod(radices) - 1
    if candidates > BRUTE_CANDIDATES_MAX:
        raise ValueError(f"the brute search at N = {N} has {candidates} candidates, above the cap "
                         f"of {BRUTE_CANDIDATES_MAX}; lower --mag-points/--phase-points "
                         f"(now {mag_points} and {phase_points})")
    mags = np.linspace(0.0, 1.0, mag_points)[1:]
    # values[n - 1][d] is a_n at digit d: 0, then each nonzero magnitude, a
    # composite n's at each phase in turn; a_1 and the a_p are real.
    values = [[0j] + ([complex(r * np.exp(1j * ph)) for r in mags
                       for ph in np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)]
                      if c else [complex(r) for r in mags]) for c in composite]
    moduli = [np.array([abs(v) for v in vs]) for vs in values]
    values = [np.array(vs) for vs in values]

    z = _small_nodes(SMALL_GRID_POINTS)
    coarse = z[::BRUTE_COARSE_STRIDE]
    step = max(1, BRUTE_BLOCK_ELEMENTS // len(coarse))
    best_ratio, best, scored = 1.0, {1: 1.0}, 0  # the witness a_1 = 1 alone has ratio exactly 1
    # Candidate k has the C-order digits of k, a_1 most significant; k = 0 is the all-zero pattern.
    for start in range(1, candidates + 1, step):
        digits = np.unravel_index(np.arange(start, min(start + step, candidates + 1)), radices)
        rows = np.zeros((len(digits[0]), BRUTE_N_MAX), dtype=complex)
        mods = np.zeros(rows.shape)
        for nn, d in enumerate(digits, 1):
            rows[:, nn - 1], mods[:, nn - 1] = values[nn - 1][d], moduli[nn - 1][d]
        bounds = _ratio_bounds(_row_max(rows, coarse), mods, SMALL_GRID_POINTS)
        # Index order and strict `>`, as in a loop scoring every candidate.
        for r in np.flatnonzero(bounds > best_ratio):
            if bounds[r] > best_ratio:
                scored += 1
                grid_max = float(_row_max(rows[r : r + 1], z)[0])
                ratio = _ratio_small(grid_max, mods[r].tolist(), SMALL_GRID_POINTS)
                if ratio > best_ratio:
                    best_ratio, best = ratio, {nn: complex(c) for nn, c in enumerate(rows[r, :N], 1) if c != 0}
    return best_ratio, best, candidates, scored


def sidon_N_bounds(
    N: int,
    budget: int = 200,
    seed: int = 0,
    mag_points: int = 5,
    phase_points: int = 8,
) -> SidonNBounds:
    """Lower-bound S(N) by search over coefficient patterns.

    For N <= 8 a brute grid over coefficient magnitudes and essential phases
    runs on the lift.  Scale and torus rotations make a_1 and each a_p (p
    prime) nonnegative without loss, so each a_n has one digit: 0, then the
    ``mag_points`` - 1 nonzero magnitudes in (0, 1], for a composite n each
    at each of ``phase_points`` phases.  Every nonzero pattern is one
    candidate, scored by coefficient sum over the certified sup upper bound
    of _ratio_small on the 2048-node grid, so the result is a lower bound
    for S(N) up to rounding.  It is the first candidate, in the C order of
    the digits (a_1 most significant), of largest ratio, or the witness
    a_1 = 1 of ratio 1 if none exceeds 1.

    Candidates are built in blocks of consecutive indices (np.unravel_index
    over the digits), about BRUTE_BLOCK_ELEMENTS rows x coarse nodes each,
    so memory does not grow with their number.  Only the winner becomes a
    DirichletPolynomial.  Each block is prefiltered before the full grid is
    used.  The coarse nodes are every BRUTE_COARSE_STRIDE-th fine node (64
    of 2048), and _row_max evaluates each node elementwise, so their values
    have the fine grid's bits and coarse_max <= grid_max.  The chain

        _ratio_bounds(coarse_max) >= _ratio_small(coarse_max) >= _ratio_small(grid_max)

    holds for every candidate: the first by the widened NumPy sum (see
    _ratio_bounds), the second because the exact score sum |a_n| /
    (max / sqrt(1 - (3 pi / G)^2) + (|a_5| + |a_7|)), G = 2048, is computed
    by rounded additions and divisions, each monotone in its arguments, so
    a smaller max cannot give a smaller ratio.  The candidates are taken in
    index order, as a strict `>` loop over all of them takes them: one is
    skipped when its prefilter bound is not above the best ratio so far
    (then its exact ratio is not either), the others are scored on the full
    grid, and a strictly larger ratio replaces the best, so ties go to the
    lower index.  Pruning therefore cannot change the result.  The
    ``method`` dict counts the ``candidates`` and the ``scored`` ones.

    Searches above BRUTE_CANDIDATES_MAX candidates, mag_points^(N - C)
    (1 + (mag_points - 1) phase_points)^C - 1 with C composites up to N,
    raise ValueError before any work.  The defaults have 4124, 20624, 680624
    and 3403124 at N = 4 .. 7; on a 2-vCPU x86_64 Xeon (one BLAS thread,
    pinned, best of 3) they take about 0.006, 0.03, 0.9 and 4.5 s, scoring
    6, 10, 47 and 67.  N = 8 needs smaller grids: 83348 candidates at
    mag_points = phase_points = 3, 1828 scored in 0.18 s.
    Larger N score ``budget`` complex Gaussian patterns drawn from ``seed``
    by S(m, n)'s scorer (sidonbohr._sidon_ratios): pattern idx's lift, built
    at most one batched-ascent chunk ahead, gets 120 ascent iterations
    seeded ``seed + idx``.  The first best is firmed up with 600 from
    ``seed`` and floored by the witness a_1 = 1 (sidonbohr._firm_up).  A
    ``budget`` above ``DENSE_ENTRIES_MAX`` is refused with
    BudgetExceededError before any pattern is drawn.  The asymptotic shape
    is added for comparison.
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
    if N <= BRUTE_N_MAX:
        best_ratio, best, candidates, scored = _brute_search(N, mag_points, phase_points)
        best_Q = DirichletPolynomial(N, best)
        method = {
            "kind": "brute-grid",
            "certified": True,
            "mag_points": mag_points,
            "phase_points": phase_points,
            "grid_points": SMALL_GRID_POINTS,
            "candidates": candidates,
            "scored": scored,
        }
    else:
        # Refused here, before any pattern is drawn: each draw has N terms, and
        # the search keeps one ratio per draw.
        _lift_primes(N, N)
        check_entries(budget, DENSE_ENTRIES_MAX, f"a search of S({N})", "scored patterns")

        def draws():
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            for _ in range(budget):
                gauss = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
                yield DirichletPolynomial(N, dict(enumerate(gauss, 1)))

        ratios = _sidon_ratios((bohr_lift(Q).poly for Q in draws()), 120, range(seed, seed + budget))
        top = max(range(budget), key=ratios.__getitem__)
        baseline = DirichletPolynomial(N, {1: 1.0})  # its ratio is exactly 1
        best_Q = next(islice(draws(), top, None)) if ratios[top] > 1.0 else baseline
        best_ratio, best_Q = _firm_up(best_Q, bohr_lift(best_Q).poly, max(1.0, ratios[top]), baseline,
                                      600, seed)
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


def bcq_partial_sum(Q: DirichletPolynomial, c: float, n_start: int = 3) -> float:
    """Weighted coefficient sum sum_n |a_n| n^{-1/2} exp{c sqrt(log n log log n)}
    of a Dirichlet polynomial (whose frequencies are 1..N by construction).

    Terms with n < n_start (default 3) carry the weight n^{-1/2} alone:
    log log n is zero or negative there, so the exponential factor is
    omitted by convention rather than extrapolated.  A non-finite ``c`` is
    a ValueError, and a weight past the float range an OverflowError; both
    name ``c``.
    """
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c!r}")
    terms = []
    for nn, a in Q.coeffs.items():
        w = nn ** (-0.5)
        if nn >= n_start and nn >= 3:
            try:
                w *= math.exp(c * math.sqrt(math.log(nn) * math.log(math.log(nn))))
            except OverflowError:
                raise OverflowError(f"the weight of n = {nn} at c = {c!r} is past the float range") from None
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
