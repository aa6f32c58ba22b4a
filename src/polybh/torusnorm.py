"""Supremum norms over the polydisc: heuristic lower bounds, certified upper bounds.

For a polynomial the supremum of |P| over the closed unit polydisc is
attained on the torus (apply the maximum principle coordinatewise), so every
search here runs purely in phase variables theta with moduli pinned to one.

Three estimators:

* ``sup_lower``: multistart fixed-step gradient ascent on |P(e^{i theta})|^2
  with backtracking halving.  The result is a genuine lower bound for the
  sup norm (it is a value of |P|), never an upper bound.  ``sup_lower_each``
  runs it on a stream of polynomials, with the same bits per case, batching
  each run of polynomials with one exponent matrix.

* ``sup_certified``: evaluates |P| on a uniform phase grid of step h (the
  slice theta_1 = 0 for homogeneous P) and, by Bernstein's inequality
  applied twice in the total degree D = max |alpha|, bounds

      sup |P| <= grid_max / sqrt(1 - x^2),   x = D h / 2 < 1,

  rigorously up to floating-point rounding (no interval arithmetic).  The
  factor sqrt(1 - x^2) is :func:`_bernstein_factor`, the one grid
  correction of the package.  ``certified_upper`` takes the smaller of this
  bound on a small grid and the coefficient sum.

* ``sup_multilinear``: block-coordinate phase ascent for an m-linear form
  over a product of polydiscs; aligning one argument at a time is exact per
  block, so the objective is nondecreasing.

The same lattice kernel gives ``l4_torus_norm``, the L^4 norm of P on the
torus, exactly (no sampling) from a lattice of 2 e + 1 nodes per axis.

All estimators are deterministic for a fixed seed, and coefficients are
normalized by their largest modulus internally so that scaling a polynomial
scales the estimate exactly.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .polyalgebra import DENSE_ENTRIES_MAX, BudgetExceededError
from .polyalgebra import Polynomial, check_entries, majorant_sum, monomials, term_arrays

__all__ = [
    "SupNormEstimate",
    "sup_lower",
    "sup_lower_each",
    "sup_certified",
    "sup_multilinear",
    "certified_upper",
    "l4_torus_norm",
    "as_dense_form",
]

TWO_PI = 2.0 * math.pi
ASCENT_STEP0 = 0.5  # initial phase step of each sup_lower start
ASCENT_STEP_MIN = 1e-16  # a sup_lower case stops once every start's step is below this
# The first iteration index at which a step can be below ASCENT_STEP_MIN, the
# least it with ASCENT_STEP0 / 2 ** (it + 1) < ASCENT_STEP_MIN: a step starts
# at ASCENT_STEP0 and halves at most once per iteration.
ASCENT_FIRST_STOP = math.floor(math.log2(ASCENT_STEP0 / ASCENT_STEP_MIN))
# Cap on B S (K + n) per ascent chunk (see sup_lower_each).  Exponentials
# over the (B, S, K) table are about half of an ascent on a Bohr lift (45% on
# dirichlet-sidon's at seed 1, stage timing); np.mod over the (B, S, n) phases
# was a third before the ascent dropped the variables no term uses, and is 17%
# after.  On a 2-core Xeon (2 MiB of L2 per core) 2**14 was within 8% of the
# fastest of 2**13 .. 2**16 on random-campaign shapes; 100-candidate Sidon
# searches ran 1.1x to 2.3x faster than one ascent per candidate, and up to
# 1.3x slower at 2**15.
# A call then peaks at 0.5 to 1.3 MiB of arrays for S >= 4 (tracemalloc);
# the (B, K, n) weighted exponents add up to n / S times the capped
# entries, 3.4 MiB at S = 1 and (m, n) = (5, 6).
ASCENT_BATCH_ELEMENTS = 1 << 14
BLOCK_ASCENT_TOL = 1e-12  # relative sweep gain at which a sup_multilinear start stops
# Points a certified_upper grid may evaluate: at 40 bytes each (tensor and
# transform, 16 each, moduli 8) about 2.5 MiB, which keeps campaigns that bound
# every case this way within 10% of their peak RSS (bench ``peak_rss_mb``).
CERTIFIED_UPPER_POINTS = 1 << 16
# Points an l4_torus_norm lattice may evaluate: at about 48 bytes each (tensor,
# transform, squared moduli; 17 MiB traced at (6, 6)) about 50 MB.  The (6, 6)
# slice, 13^5 = 371293 points, fits; it takes 45 to 100 ms on a 2-vCPU Xeon.
MOMENT_POINTS_MAX = 1 << 20


@dataclass
class SupNormEstimate:
    """A sup-norm bracket: ``lower`` is always a certified lower bound (a
    witnessed value of |P|); ``upper``, when present, is an upper bound
    certified modulo floating-point rounding."""

    lower: float
    upper: float | None
    argmax: np.ndarray
    method: dict = field(default_factory=dict)


def _abs2(v: np.ndarray) -> np.ndarray:
    return v.real * v.real + v.imag * v.imag


def _finite_bound(value: float, what: str) -> float:
    """``value``, or OverflowError if it is infinite or NaN: finite inputs
    whose sup or norm leaves the float range have no bound to report."""
    if not math.isfinite(value):
        raise OverflowError(f"{what} is {value}: the input is too large for floating point")
    return value


# ----------------------------------------------------------------------
# Multistart phase ascent
# ----------------------------------------------------------------------

def sup_lower(
    P: Polynomial,
    starts: int | None = None,
    iterations: int = 200,
    seed: int = 0,
) -> SupNormEstimate:
    """Lower bound for sup |P| by multistart gradient ascent in phases.

    The objective is f(theta) = |P(e^{i theta})|^2, whose gradient is
    2 Re(conj(P) d_theta P) with d_{theta_k} P = i sum_alpha alpha_k
    a_alpha e^{i theta . alpha}.  Each start keeps its own step size,
    ``ASCENT_STEP0`` at first: a proposal that does not improve halves the
    step, and the ascent stops once every step is below ``ASCENT_STEP_MIN``
    (``method["iterations_run"]`` is the iteration it stopped at).  A step
    halves at most once per iteration, so the earliest stop is after 53
    iterations (index ``ASCENT_FIRST_STOP`` = 52), which a P whose value no
    proposal raises, such as a constant, reaches.  Start count defaults to
    8 n (at least 1), and counts the deterministic aligned start theta = 0,
    which is start 0; the others are seeded random phases.  A variable that
    no term of P uses keeps its start phase in ``argmax``, and the ascent
    spends no elementwise work on it.  Nondecreasing in both ``iterations``
    and ``starts`` for a fixed seed.  This is the one-case call of
    :func:`sup_lower_each`.
    """
    return sup_lower_each([P], starts, iterations, [seed])[0]


def sup_lower_each(
    Ps: Iterable[Polynomial],
    starts: int | None,
    iterations: int,
    seeds: Sequence[int],
) -> list[SupNormEstimate]:
    """``sup_lower(P, starts, iterations, seed)`` for each P of the iterable
    ``Ps`` with its seed in ``seeds``, bit for bit.

    ``starts`` and ``iterations`` are checked before any P is pulled; a
    seed count that differs from the number of P is a ValueError as soon as
    it shows.  Consecutive P run as one ascent in chunks, each run as soon
    as it ends, so ``Ps`` is pulled at most one chunk ahead of the ascent.
    A chunk ends where the exponent matrix changes (dense random P of one
    (m, n) share J(m, n) unless a coefficient is drawn as exactly 0), or
    where one more case would take its B S (K + n) entries, the (B, S, K)
    monomial table and (B, S, n) phases, past ``ASCENT_BATCH_ELEMENTS``.
    Each case keeps its own seeded starts, step vector and stop: a case
    whose steps all fall below ``ASCENT_STEP_MIN`` is frozen, so no later
    proposal is accepted for it, while the others run on.  No case's bits depend on its
    chunk (see :func:`_ascent`).  A case whose own S (K + n) entries exceed
    ``DENSE_ENTRIES_MAX`` is refused with BudgetExceededError before its
    ascent allocates them.  A lower bound past the float range (huge
    coefficients) raises OverflowError.
    """
    if starts is not None and starts < 1:
        raise ValueError("starts must be >= 1")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    out: list[SupNormEstimate] = []
    chunk: list[Polynomial] = []

    def run() -> None:
        out.extend(_ascent(A, chunk, starts, iterations, seeds[len(out):len(out) + len(chunk)]))
        chunk.clear()

    for b, P in enumerate(Ps):
        if b == len(seeds):
            raise ValueError(f"more polynomials than the {len(seeds)} seeds")
        if chunk and not np.array_equal(term_arrays(P)[0], A):
            run()
        A = term_arrays(P)[0]
        K, n = A.shape
        entries = _start_count(n, starts) * (K + n)
        check_entries(entries, DENSE_ENTRIES_MAX, "one case's ascent",
                      "phase and monomial entries (starts x (terms + variables))")
        chunk.append(P)
        if (len(chunk) + 1) * entries > ASCENT_BATCH_ELEMENTS:
            run()
    if chunk:
        run()
    if len(out) != len(seeds):
        raise ValueError(f"{len(seeds)} seeds for {len(out)} polynomials")
    return out


def _start_count(n: int, starts: int | None) -> int:
    return starts if starts is not None else max(1, 8 * n)


def _ascent(A: np.ndarray, Ps: Sequence[Polynomial], starts: int | None, iterations: int,
            seeds: Sequence[int]) -> list[SupNormEstimate]:
    """The ascent of :func:`sup_lower_each` on one chunk of B cases with
    exponent matrix ``A``.

    The arrays carry the case as their first axis: phases (B, S, n),
    monomials (B, S, K), values (B, S, 1).  Every product is a stacked
    matmul, so case b goes through the same (S, n) @ (n, K), (S, K) @ (K, 1)
    and (S, K) @ (K, n) BLAS calls as it does alone, and everything else is
    elementwise; flattening the cases to (B S, n) rows moved values by
    rounding.  Hence no case's bits depend on the others in its chunk.

    Only the variables some term uses (a nonzero column of ``A``) move: an
    unused one has a zero gradient, so its proposal is its start phase again
    (u 2 pi with u < 1 rounds below 2 pi, which np.mod keeps).  The ascent
    therefore updates the used columns of the phases alone, and an unused
    coordinate of ``argmax`` keeps its start phase.  Both products go
    through BLAS at the full width n, as they do when every variable moves:
    the used phases are written into a (B, S, n) table of the start phases
    before the (S, n) @ (n, K) product, and the (S, K) @ (K, n) gradient is
    sliced to the used columns afterwards.  A product of another width
    rounds differently (measured on OpenBLAS for K = 1, S = 1 and n >= 32).
    The stop check runs from iteration index ``ASCENT_FIRST_STOP`` on, the
    first at which a step can be below ``ASCENT_STEP_MIN``, and the
    acceptance is masked by the live cases only once one has stopped.
    """
    (K, n), B = A.shape, len(Ps)
    if K == 0:
        empty = {"mode": "ascent", "starts": 0, "iterations": 0, "iterations_run": 0}
        return [SupNormEstimate(0.0, None, np.zeros(n), empty | {"seed": seed}) for seed in seeds]
    S = _start_count(n, starts)
    c = np.stack([term_arrays(P)[1] for P in Ps])
    cmax = np.abs(c).max(axis=1)
    cn = c / cmax[:, None]
    Af = A.astype(np.float64)
    cv = cn[:, :, None]
    cA = cv * A

    start = np.empty((B, S, n))
    for b, seed in enumerate(seeds):
        start[b] = np.random.default_rng(np.random.SeedSequence(seed)).random((S, n)) * TWO_PI
    start[:, 0] = 0.0
    used = np.flatnonzero(A.any(axis=0))
    trim = len(used) < n
    theta = start[..., used] if trim else start
    table = start.copy() if trim else None

    def value_grad(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if trim:
            table[..., used] = th
            th = table
        M = monomials(th, Af)
        vals = M @ cv
        dP = M @ cA
        if trim:
            dP = dP[..., used]
        f = _abs2(vals)
        grad = 2.0 * (np.conjugate(vals) * (1j * dP)).real
        return f, grad

    f, grad = value_grad(theta)
    step = np.full((B, S, 1), ASCENT_STEP0)
    stopped = np.full(B, iterations)
    live = np.ones((B, 1, 1), dtype=bool)
    all_live = True
    for it in range(iterations):
        prop = np.mod(theta + step * grad, TWO_PI)
        fp, gp = value_grad(prop)
        acc = fp > f if all_live else (fp > f) & live
        theta = np.where(acc, prop, theta)
        f = np.where(acc, fp, f)
        grad = np.where(acc, gp, grad)
        step = np.where(acc, step, 0.5 * step)
        if it < ASCENT_FIRST_STOP:
            continue
        done = live[:, 0, 0] & (step.max(axis=(1, 2)) < ASCENT_STEP_MIN)
        if done.any():
            stopped[done] = it + 1
            live[done] = False
            all_live = False
            if not live.any():
                break

    out = []
    for b, seed in enumerate(seeds):
        best = int(np.argmax(f[b, :, 0]))
        arg = start[b, best].copy()
        arg[used] = theta[b, best]
        lower = float(np.abs(monomials(arg, Af) @ cn[b])) * float(cmax[b])
        meta = {"mode": "ascent", "starts": S, "iterations": iterations,
                "iterations_run": int(stopped[b]), "seed": seed}
        out.append(SupNormEstimate(_finite_bound(lower, "sup |P| lower bound"), None, arg, meta))
    return out


# ----------------------------------------------------------------------
# Certified grid search
# ----------------------------------------------------------------------

def _grid_values(A: np.ndarray, c: np.ndarray, L: int) -> np.ndarray:
    """Values sum_j c_j e^{i theta . A_j} at the nodes theta = (2 pi / L) k,
    k in {0..L-1}^d, as an array of shape (L,) * d indexed by k.

    ``A`` has shape (K, d) with every entry below L.  The coefficients are
    scattered into a tensor indexed by their exponents, and one inverse FFT
    with no normalization sums them at every node, exactly up to rounding.
    With d = 0 there is one node and its value is sum_j c_j.
    """
    if A.shape[1] == 0:
        return np.asarray(c.sum())
    W = np.zeros((L,) * A.shape[1], dtype=np.complex128)
    np.add.at(W, tuple(A.T), c)
    return np.fft.ifftn(W, norm="forward")


def _slice_axes(A: np.ndarray) -> np.ndarray:
    """The axes of the exponents ``A`` that a lattice over P needs: the
    active ones (some term uses them), less the first when every term has
    one degree (the slice theta_1 = 0, see :func:`sup_certified`)."""
    active = np.flatnonzero(A.max(axis=0, initial=0))
    degrees = A.sum(axis=1)
    return active[1:] if (degrees == degrees.max(initial=0)).all() else active


def _lattice(A: np.ndarray, grid_step: float, cap: int) -> tuple[int, np.ndarray]:
    """(L, axes) of the lattice :func:`sup_certified` evaluates for the
    exponents ``A`` at step h > 0: L = ceil(2 pi / h) nodes on each of the
    axes of :func:`_slice_axes`.  Raises BudgetExceededError when its
    L ** len(axes) points exceed ``cap``, and before the ceiling, which a
    tiny step overflows, when 2 pi / h does: a step below 2 pi / cap is
    refused whatever the slice."""
    axes = _slice_axes(A)
    check_entries(TWO_PI / grid_step, cap, f"a grid at step {grid_step}", "nodes per axis")
    L = math.ceil(TWO_PI / grid_step)
    check_entries(L ** len(axes), cap, "the grid", "evaluations")
    return L, axes


def _bernstein_factor(x: float) -> float:
    """sqrt(1 - x^2) for 0 <= x < 1, the grid correction: a lattice maximum
    divided by it bounds the sup, for a lattice of step h, x = D h / 2, and
    frequencies of modulus at most D along every line.

    Proof.  Let S = sup |G| > 0 be attained at theta*, and theta* + s u the
    nearest node, with |u|_inf = 1 and s <= h / 2.  For a polynomial G = P
    the line g(t) = G(theta* + t u) has frequencies alpha . u in [-D, D]
    (|alpha . u| <= |alpha|_1 <= D), so f(t) = |g(t)|^2 = g conj(g) has
    frequencies in [-2 D, 2 D]: it has type 2 D.  As 0 <= f <= S^2, f - S^2 / 2
    has the same type and modulus at most S^2 / 2, and Bernstein's
    inequality (Boas, *Entire Functions*, 1954, ch. 11) applied twice gives
    |f'| <= D S^2 and |f''| <= (2 D)^2 S^2 / 2 = 2 D^2 S^2.  f'(0) = 0 at
    the maximiser, so Taylor's theorem gives f(s) >= S^2 - D^2 S^2 s^2
    >= S^2 (1 - x^2): the lattice maximum is at least |g(s)| >= S sqrt(1 - x^2).

    The argument also covers F = sum_k |G_k|, each G_k of such frequencies:
    at a maximiser theta* of F, unimodular w_k with w_k G_k(theta*) =
    |G_k(theta*)| align the G_k, and G = sum_k w_k G_k has |G| <= F
    everywhere and |G(theta*)| = sup F, so the lattice maximum of F is at
    least that of |G|, at least sup F sqrt(1 - x^2).

    Since 1 - x^2 = (1 - x)(1 + x) >= (1 - x)^2, the factor is never below
    the first-order one, 1 - x (from |g'| <= D S alone): on the same lattice
    this bound is never above that one.
    """
    return math.sqrt(1.0 - x * x)


def _grid_bracket(P: Polynomial, grid_step: float, L: int, axes: np.ndarray, degree: int) -> SupNormEstimate:
    """The :func:`sup_certified` bracket on L nodes on each of ``axes``, for P of total
    degree ``degree`` < L / pi; OverflowError if its upper bound is not finite."""
    A, c = term_arrays(P)
    h_eff = TWO_PI / L
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite maximum raises below
        V = np.abs(_grid_values(A[:, axes], c, L))
    best = np.unravel_index(int(np.argmax(V)), V.shape)
    arg = np.zeros(P.n)
    arg[axes] = np.array(best) * h_eff
    best_val = float(V[best])
    meta = {"mode": "certified-grid", "grid_step": grid_step, "note": "certified-modulo-floating-point",
            "evaluations": V.size, "grid_points_per_axis": L, "h_eff": h_eff, "degree": degree}
    upper = _finite_bound(best_val / _bernstein_factor(degree * h_eff / 2.0), "sup |P| upper bound")
    return SupNormEstimate(best_val, upper, arg, meta)


def sup_certified(P: Polynomial, grid_step: float) -> SupNormEstimate:
    """Bracket sup |P| by exhaustive evaluation on a uniform phase lattice.

    ``grid_step`` must satisfy h < 2 / D, with D = max |alpha| the total
    degree; the step used is h_eff = 2 pi / L, L = ceil(2 pi / h).  ``lower``
    is the lattice maximum and ``upper = lower / sqrt(1 - x^2)``, x =
    D h_eff / 2 < 1 (:func:`_bernstein_factor`, which holds the proof: the
    nearest node to a maximiser is at most h_eff / 2 away on every axis, as
    L h_eff = 2 pi, and P has frequencies |alpha . u| <= |alpha|_1 <= D
    along every line theta* + t u with |u|_inf = 1).  An upper bound past
    the float range raises OverflowError.  Every exponent is at most
    D < pi D < L, so :func:`_grid_values` gives P on the lattice by one
    inverse FFT.

    A homogeneous P (all terms of one degree m) is evaluated on the slice
    k_1 = 0 of its first active axis alone, L times fewer points, with the
    same maximum: P(theta + t (1, ..., 1)) = e^{i m t} P(theta), so the node
    h k shifted by -k_1 h (1, ..., 1) is a node with k_1 = 0 and the same
    modulus.  Ties go to the slice's first maximum in C order (with exact
    values, the lattice's: some maximum has k_1 = 0).  General P keep all
    active axes; a constant P has none, and its one value is exact.
    ``method["evaluations"]`` counts the points evaluated; more than
    ``DENSE_ENTRIES_MAX`` are refused with BudgetExceededError (see
    :func:`_lattice`).  Memory: 40 bytes per point (tensor, transform,
    moduli), so at most 400 MB.
    """
    if not grid_step > 0:  # NaN too
        raise ValueError("grid_step must be positive")
    A, _ = term_arrays(P)
    degree = int(A.sum(axis=1).max(initial=0))
    if degree and grid_step >= 2.0 / degree:
        raise ValueError(f"grid_step {grid_step} too large; need h < 2/D = {2.0 / degree} (total degree D)")
    L, axes = _lattice(A, grid_step, DENSE_ENTRIES_MAX)
    return _grid_bracket(P, grid_step, L, axes, degree)


def certified_upper(P: Polynomial, target_correction: float = 0.25) -> float:
    """A cheap certified upper bound for sup |P|: the coefficient sum
    (sup |P| <= sum |a_alpha|), or the :func:`sup_certified` bound at the
    step h = 2 ``target_correction`` / D, D the total degree, if that is
    smaller.  ``target_correction`` is x = D h / 2, in (0, 1); the grid
    maximum is divided by sqrt(1 - x^2) at most (1.033 at the default
    x = 1/4, less where h_eff = 2 pi / L is below h).  The grid runs only when
    its evaluated points (see :func:`_lattice`) are at most
    ``CERTIFIED_UPPER_POINTS``; OverflowError only if neither is finite."""
    if not 0.0 < target_correction < 1.0:  # NaN too
        raise ValueError(f"target_correction must be in (0, 1), got {target_correction}")

    def lattice(A: np.ndarray, degree: int) -> tuple[float, int, np.ndarray]:
        h = 2.0 * target_correction / degree
        return (h, *_lattice(A, h, CERTIFIED_UPPER_POINTS))

    return _upper_bound(P, lattice)[0]


def _finest_upper(P: Polynomial) -> tuple[float, dict | str]:
    """The bound of :func:`certified_upper` on the finest lattice within
    ``CERTIFIED_UPPER_POINTS`` points, and how it was found: the grid's
    ``method`` dict, or "coefficient-sum".

    The lattice has L nodes on each of the k axes of :func:`_slice_axes`
    (the slice theta_1 = 0 for homogeneous P), L the largest integer with
    L ** k <= ``CERTIFIED_UPPER_POINTS``.  It runs only when L > pi D, that
    is h = 2 pi / L < 2 / D, D the total degree, where the bound of
    :func:`sup_certified` holds.  With k = 0 no grid runs: P is a constant
    or one monomial a z_j^D, whose sup |a| is its coefficient sum.
    """

    def lattice(A: np.ndarray, degree: int) -> tuple[float, int, np.ndarray] | None:
        axes = _slice_axes(A)
        if len(axes) == 0:
            return None
        L = round(CERTIFIED_UPPER_POINTS ** (1.0 / len(axes)))
        L -= L ** len(axes) > CERTIFIED_UPPER_POINTS  # the rounded root may be L + 1
        return (TWO_PI / L, L, axes) if L > math.pi * degree else None

    return _upper_bound(P, lattice)


def _upper_bound(P: Polynomial, lattice) -> tuple[float, dict | str]:
    """min(sum |a_alpha|, the :func:`_grid_bracket` bound on the lattice
    (h, L, axes) = ``lattice(A, D)``) for P of exponents A and total degree
    D > 0, with the grid's ``method`` dict if the grid gave it, else
    "coefficient-sum".  No grid runs where ``lattice`` returns None or
    raises BudgetExceededError, and a grid bound that is not finite is
    dropped; OverflowError only if neither bound is finite."""
    try:
        upper = majorant_sum(P, 1.0)
    except OverflowError:  # fsum's partial sums left the float range
        upper = math.inf
    how: dict | str = "coefficient-sum"
    A, _ = term_arrays(P)
    degree = int(A.sum(axis=1).max(initial=0))
    if degree > 0:
        with contextlib.suppress(BudgetExceededError, OverflowError):  # over the cap, or not finite
            grid = lattice(A, degree)
            if grid is not None:
                est = _grid_bracket(P, *grid, degree)
                if est.upper < upper:
                    upper, how = est.upper, est.method
    return _finite_bound(upper, "sup |P| upper bound"), how


def l4_torus_norm(P: Polynomial) -> float:
    """The L^4 norm of P on the torus T^n with normalized measure, exactly
    up to rounding: (mean of |P|^4 on a lattice)^{1/4}, with no sampling.

    The lattice has L = 2 e + 1 nodes on each axis of :func:`_slice_axes`
    (the slice theta_1 = 0 for homogeneous P), e the largest exponent on
    those axes, and :func:`_grid_values` gives P there.  Its mean of |P|^4
    is the torus mean.  Proof.  An axis that no term uses changes no mean.
    The slice: for homogeneous P of degree m, P(phi + t (1, ..., 1)) =
    e^{i m t} P(phi), and theta = phi + theta_1 (1, ..., 1) with phi_1 = 0
    maps the torus onto itself preserving measure, so the torus mean of
    |P|^4 is the mean over the slice torus phi_1 = 0.  On the axes kept,
    |P|^4 = |P^2|^2 = sum_{gamma, delta} b_gamma conj(b_delta)
    e^{i phi . (gamma - delta)}, b the coefficients of P^2, whose exponents
    are at most 2 e on each axis; so every frequency nu of |P|^4 there has
    |nu_k| <= 2 e < L.  The lattice mean of e^{i phi . nu} is 1 when L
    divides every nu_k and 0 otherwise, so only nu = 0 survives: the
    lattice mean is the constant term of |P|^4, its torus mean.

    The coefficients are divided by their largest modulus before the
    powers and the norm is scaled back, so |P|^4 neither overflows nor
    underflows unless the norm does.  A slice of more than
    ``MOMENT_POINTS_MAX`` points is refused with BudgetExceededError before
    it is allocated, and a norm past the float range raises OverflowError.
    """
    A, c = term_arrays(P)
    if len(c) == 0:
        return 0.0
    axes = _slice_axes(A)
    A = A[:, axes]
    L = 2 * int(A.max(initial=0)) + 1
    check_entries(L ** len(axes), MOMENT_POINTS_MAX, "the fourth-moment lattice", "evaluations")
    cmax = float(np.abs(c).max())
    v2 = _abs2(np.asarray(_grid_values(A, c / cmax, L)))
    return _finite_bound(cmax * float(np.mean(v2 * v2)) ** 0.25, "L^4 norm")


# ----------------------------------------------------------------------
# Multilinear forms over products of polydiscs
# ----------------------------------------------------------------------

def as_dense_form(T) -> np.ndarray:
    """Validate a dense form coefficient table: ``T`` as a complex array of shape (n,) * m.

    The one validator of dense tables (``sup_multilinear``,
    ``verify_bh_multilinear`` and ``check_blei`` go through it).  ``T`` must
    be an ndarray (TypeError otherwise) with at least one axis, a cubical
    shape and no axis of length 0 (ValueError otherwise: such a table has no
    entries), at most ``DENSE_ENTRIES_MAX`` entries (BudgetExceededError
    otherwise) and only finite entries (ValueError otherwise).
    """
    if not isinstance(T, (np.ndarray, np.generic)):  # a NumPy scalar is a table with no axis
        raise TypeError(f"a dense form table must be an ndarray, not {type(T).__name__}")
    if T.ndim < 1 or len(set(T.shape)) > 1:
        raise ValueError("form tensor must be cubical with at least one axis")
    if 0 in T.shape:
        raise ValueError(f"form tensor of shape {T.shape} has an axis of length 0")
    check_entries(T.size, DENSE_ENTRIES_MAX, f"a table of shape {T.shape}")
    T = np.asarray(T, dtype=np.complex128)
    if not np.isfinite(T).all():
        raise ValueError("form tensor has a non-finite entry")
    return T


def sup_multilinear(
    B,
    starts: int = 8,
    iterations: int = 100,
    seed: int = 0,
) -> SupNormEstimate:
    """Lower bound for sup |B(z1, ..., zm)| over the product of polydiscs.

    Multilinearity pins the optimum to unimodular coordinates.  With all
    arguments but the k-th fixed, B = sum_j w_j z_{k,j} is maximized exactly
    by z_{k,j} = conj(w_j)/|w_j|, giving sum_j |w_j|; sweeping k makes the
    value nondecreasing.  Of the ``starts`` starts, start 0 is the
    deterministic all-ones point and the others are random unimodular
    initializations.  ``B`` is a dense table, validated by :func:`as_dense_form`.
    A lower bound past the float range raises OverflowError.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    if iterations < 1:  # no sweep would leave every start unevaluated
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    T = as_dense_form(B)
    m, n = T.ndim, T.shape[0]
    scale = float(np.max(np.abs(T)))
    meta = {"mode": "block-ascent", "starts": starts, "iterations": iterations, "seed": seed}
    if scale == 0.0:
        return SupNormEstimate(0.0, None, np.zeros((m, n)), meta)
    Tn = T / scale
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def contract_all_but(Z: np.ndarray, k: int) -> np.ndarray:
        w = Tn
        for l in range(m - 1, -1, -1):
            if l == k:
                continue
            w = np.tensordot(w, Z[l], axes=([l], [0]))
        return w

    best_val = -1.0
    best_Z = np.ones((m, n), dtype=np.complex128)
    for s in range(starts):
        if s == 0:
            Z = np.ones((m, n), dtype=np.complex128)
        else:
            Z = np.exp(1j * TWO_PI * rng.random((m, n)))
        prev = -math.inf
        val = 0.0
        for _ in range(iterations):
            for k in range(m):
                w = contract_all_but(Z, k)
                aw = np.abs(w)
                val = float(aw.sum())
                nz = aw > 0
                Z[k, nz] = np.conjugate(w[nz]) / aw[nz]
            if val - prev <= BLOCK_ASCENT_TOL * max(1.0, val):
                break
            prev = val
        if val > best_val:
            best_val = val
            best_Z = Z.copy()
    lower = _finite_bound(best_val * scale, "sup |B| lower bound")
    return SupNormEstimate(lower, None, np.mod(np.angle(best_Z), TWO_PI), meta)
