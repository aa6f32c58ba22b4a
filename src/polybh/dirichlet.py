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
from .polyalgebra import DENSE_ENTRIES_MAX, BudgetExceededError
from .polyalgebra import GeneralPolynomial, HomogeneousPolynomial, _finite, _json_complex, _json_field, monomials
from .sidonbohr import _firm_up, _sidon_ratios
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
SMALL_GRID_POINTS = 2048  # phase grid of the N <= 8 certified sup bound
BRUTE_COARSE_STRIDE = 32  # every 32nd grid node (64 of 2048) prunes brute candidates
# Candidate rows x coarse nodes per brute block.  At N = 6 (mag_points 4) on a
# 2-vCPU x86_64 machine 2**13 was 1.3x to 1.4x faster than 2**14; its 128 KiB
# temporaries also stay below NumPy's 256 KiB in-place elision threshold.
BRUTE_BLOCK_ELEMENTS = 1 << 13
BRUTE_CANDIDATES_MAX = 10**7  # largest brute grid sidon_N_bounds enumerates
PRUNE_SLACK = 2.0**-40  # relative widening of the NumPy pruning sums (see _ratio_bounds)


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
    if N + 1 > DENSE_ENTRIES_MAX:
        raise BudgetExceededError(f"the prime sieve up to N = {N} needs {N + 1} bytes, "
                                  f"cap is {DENSE_ENTRIES_MAX}")
    plist = tuple(primes_up_to(N))
    if terms * len(plist) > DENSE_ENTRIES_MAX:
        raise BudgetExceededError(f"a lift of {terms} terms in {len(plist)} variables needs "
                                  f"{terms * len(plist)} exponent entries, cap is {DENSE_ENTRIES_MAX}")
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


def _ratio_small(grid_max: float, moduli, grid_points: int) -> float:
    """Certified ratio sum |a_n| / sup |Q| for N <= 8, reduced to one phase variable.

    For N <= 8 every prime except 2 enters the lift linearly: with z the
    variable of prime 2,

        |Q| = |A(z) + B(z) z_3 + a_5 z_5 + a_7 z_7|,
        A = a_1 + a_2 z + a_4 z^2 + a_8 z^3,   B = a_3 + a_6 z,

    and aligning the unimodular z_3, z_5, z_7 gives sup = max_theta (|A| +
    |B|) + |a_5| + |a_7|.  ``grid_max`` is that max over the rigid grid of
    ``grid_points`` nodes; it is corrected upward by the Lipschitz bound
    |d/dtheta| <= sum_k k (|A_k| + |B_k|).  ``moduli[n - 1]`` is |a_n|; an
    all-zero pattern has ratio 0.
    """
    l1 = math.fsum(moduli)
    if not l1:
        return 0.0
    lipschitz = math.fsum(k * moduli[n - 1] for k, n in enumerate((1, 2, 4, 8))) + moduli[5]
    return l1 / (grid_max + lipschitz * (math.pi / grid_points) + (moduli[4] + moduli[6]))


def _ratio_bounds(coarse_max: np.ndarray, moduli: np.ndarray, grid_points: int) -> np.ndarray:
    """Vectorized upper bounds on _ratio_small(coarse_max[r], moduli[r], grid_points).

    The same expression with NumPy sums in place of math.fsum.  A sum of at
    most 8 nonnegative terms is off by less than 8 ulp relative (2**-50),
    so widening the coefficient sum up and the Lipschitz sum down by
    PRUNE_SLACK = 2**-40 puts them above and below the fsum values.  Each
    rounded operation is monotone in its arguments, so every bound is >= the
    one-row value.
    """
    l1 = moduli.sum(axis=1) * (1.0 + PRUNE_SLACK)
    lipschitz = (moduli[:, 1] + 2.0 * moduli[:, 3] + 3.0 * moduli[:, 7] + moduli[:, 5]) * (1.0 - PRUNE_SLACK)
    return l1 / (coarse_max + lipschitz * (math.pi / grid_points) + (moduli[:, 4] + moduli[:, 6]))


def _brute_search(N: int, mag_points: int, phase_points: int):
    """Best certified ratio over the brute grid of N <= 8 coefficient patterns.

    Returns (ratio, coefficients of the winner, candidates, scored).
    See sidon_N_bounds for the grid, the blocks and the pruning.
    """
    pset = set(primes_up_to(N))
    composites = [nn for nn in range(2, N + 1) if nn not in pset]
    per_mag = phase_points ** len(composites)
    candidates = (mag_points**N - 1) * per_mag
    if candidates > BRUTE_CANDIDATES_MAX:
        raise ValueError(f"the brute search at N = {N} has {candidates} candidates, above the cap "
                         f"of {BRUTE_CANDIDATES_MAX}; lower --mag-points/--phase-points "
                         f"(now {mag_points} and {phase_points})")
    mags = np.linspace(0.0, 1.0, mag_points)
    phases = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    # table[n - 1, i, j] is a_n at magnitude i and phase j; a_1 and the a_p are real.
    table = np.zeros((BRUTE_N_MAX, mag_points, phase_points), dtype=complex)
    for nn in range(1, N + 1):
        for i in range(1, mag_points):
            if nn in composites:
                table[nn - 1, i] = [complex(mags[i] * np.exp(1j * ph)) for ph in phases]
            else:
                table[nn - 1, i] = complex(mags[i])
    moduli = np.array([abs(complex(c)) for c in table.ravel()]).reshape(table.shape)
    # Candidate k has the C-order digits of k + per_mag (magnitude code 0 is all
    # zero): magnitudes of a_1 .. a_N, a_1 most significant, then composite phases.
    radices = (mag_points,) * N + (phase_points,) * len(composites)
    phase_axis = {nn: N + j for j, nn in enumerate(composites)}

    z = _small_nodes(SMALL_GRID_POINTS)
    coarse = z[::BRUTE_COARSE_STRIDE]
    step = max(1, BRUTE_BLOCK_ELEMENTS // len(coarse))
    best_ratio, best, scored = 1.0, {1: 1.0}, 0  # the witness a_1 = 1 alone has ratio exactly 1
    for start in range(per_mag, candidates + per_mag, step):
        digits = np.unravel_index(np.arange(start, min(start + step, candidates + per_mag)), radices)
        rows = np.zeros((len(digits[0]), BRUTE_N_MAX), dtype=complex)
        mods = np.zeros(rows.shape)
        for nn in range(1, N + 1):
            i, j = digits[nn - 1], digits[phase_axis[nn]] if nn in phase_axis else 0
            rows[:, nn - 1], mods[:, nn - 1] = table[nn - 1, i, j], moduli[nn - 1, i, j]
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
    prime) nonnegative without loss, so these take ``mag_points`` magnitudes
    in [0, 1] and each composite index also one of ``phase_points`` phases;
    the all-zero pattern is skipped.  Each candidate is scored by coefficient
    sum over the certified sup upper bound of _ratio_small on the
    2048-node grid, so the result is a true lower bound to grid accuracy.
    It is the first candidate, in the order magnitudes outer (a_1 most
    significant) and phases inner, of largest ratio, or the witness a_1 = 1
    of ratio 1 if none exceeds 1.

    Candidates are built in blocks of consecutive indices (the C-order
    digits of np.unravel_index over the magnitudes, then the composite
    phases), about BRUTE_BLOCK_ELEMENTS rows x coarse nodes each, so memory
    does not grow with their number.  Only the winner becomes a
    DirichletPolynomial.  Each block is prefiltered before the full grid is
    used.  The coarse nodes are every BRUTE_COARSE_STRIDE-th fine node (64
    of 2048), and _row_max evaluates each node elementwise, so their values
    have the fine grid's bits and coarse_max <= grid_max.  The chain

        _ratio_bounds(coarse_max) >= _ratio_small(coarse_max) >= _ratio_small(grid_max)

    holds for every candidate: the first by the widened NumPy sums (see
    _ratio_bounds), the second because the exact score sum |a_n| /
    (max + lipschitz * pi / G + (|a_5| + |a_7|)) is computed by rounded
    additions, multiplications and a division, each monotone in its
    arguments, so a smaller max cannot give a smaller ratio.  The
    candidates are taken in index order, as a strict `>` loop over all of
    them takes them: one is skipped when its prefilter bound is not above
    the best ratio so far (then its exact ratio is not either), the others
    are scored on the full grid, and a strictly larger ratio replaces the
    best, so ties go to the lower index.  Pruning therefore cannot change
    the result.  The ``method`` dict counts the ``candidates`` and the
    ``scored`` ones.

    Searches above BRUTE_CANDIDATES_MAX candidates ((mag_points^N - 1)
    phase_points^(number of composites)) raise ValueError before any work.
    On a 2-vCPU x86_64 machine (one BLAS thread, best of 3) the defaults
    take about 0.013 s at N = 4, 0.09 s at N = 5, 2.5 s at N = 6 and 12 s
    at N = 7 (scoring every candidate took 0.5 s, 3 s and 153 s for N = 4,
    5 and 6); N = 8 needs smaller grids.
    Larger N score ``budget`` complex Gaussian patterns drawn from ``seed``
    by S(m, n)'s scorer (sidonbohr._sidon_ratios): pattern idx's lift, built
    at most one batched-ascent chunk ahead, gets 120 ascent iterations
    seeded ``seed + idx``.  The first best is firmed up with 600 from
    ``seed`` and floored by the witness a_1 = 1 (sidonbohr._firm_up).  The
    asymptotic shape is added for comparison.
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
        _lift_primes(N, N)  # each draw has N terms: refused here, before any is drawn

        def draws():
            rng = np.random.default_rng(np.random.SeedSequence(seed))
            for _ in range(budget):
                gauss = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
                yield DirichletPolynomial(N, dict(enumerate(gauss, 1)))

        ratios = _sidon_ratios((bohr_lift(Q).poly for Q in draws()), False, 120, range(seed, seed + budget))
        top = max(range(budget), key=ratios.__getitem__)
        baseline = DirichletPolynomial(N, {1: 1.0})  # its ratio is exactly 1
        best_Q = next(islice(draws(), top, None)) if ratios[top] > 1.0 else baseline
        best_ratio, best_Q = _firm_up(best_Q, bohr_lift(best_Q).poly, max(1.0, ratios[top]), baseline,
                                      False, 600, seed)
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
    omitted by convention rather than extrapolated.
    """
    terms = []
    for nn, a in Q.coeffs.items():
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
