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
  slice theta_1 = 0 for homogeneous P) and, by Bernstein's inequality in the
  total degree D = max |alpha|, bounds

      sup |P| <= grid_max / (1 - D * h / 2),   for h < 2 / D,

  rigorously up to floating-point rounding (no interval arithmetic).
  ``certified_upper`` takes the smaller of this bound on a small grid and
  the coefficient sum.

* ``sup_multilinear``: block-coordinate phase ascent for an m-linear form
  over a product of polydiscs; aligning one argument at a time is exact per
  block, so the objective is nondecreasing.

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


def _lattice(A: np.ndarray, grid_step: float, cap: int) -> tuple[int, np.ndarray]:
    """(L, axes) of the lattice :func:`sup_certified` evaluates for the
    exponents ``A`` at step h > 0: L = ceil(2 pi / h) nodes on each of the
    active axes, less the first when every term has one degree (the slice
    theta_1 = 0).  Raises BudgetExceededError when its L ** len(axes) points
    exceed ``cap``, and before the ceiling, which a tiny step overflows, when
    2 pi / h does: a step below 2 pi / cap is refused whatever the slice."""
    active = np.flatnonzero(A.max(axis=0, initial=0))
    degrees = A.sum(axis=1)
    axes = active[1:] if (degrees == degrees.max(initial=0)).all() else active
    check_entries(TWO_PI / grid_step, cap, f"a grid at step {grid_step}", "nodes per axis")
    L = math.ceil(TWO_PI / grid_step)
    check_entries(L ** len(axes), cap, "the grid", "evaluations")
    return L, axes


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
    upper = _finite_bound(best_val / (1.0 - degree * h_eff / 2.0), "sup |P| upper bound")
    return SupNormEstimate(best_val, upper, arg, meta)


def sup_certified(P: Polynomial, grid_step: float) -> SupNormEstimate:
    """Bracket sup |P| by exhaustive evaluation on a uniform phase lattice.

    ``grid_step`` must satisfy h < 2 / D, with D = max |alpha| the total
    degree; the step used is h_eff = 2 pi / L, L = ceil(2 pi / h).  ``lower``
    is the lattice maximum and ``upper = lower / (1 - D h_eff / 2)``; an
    upper bound past the float range raises OverflowError.

    Proof.  Let S = sup |P| be attained at theta* and theta* + s u be the
    nearest node, with |u|_inf = 1 and s <= h_eff / 2 (L h_eff = 2 pi).
    g(t) = P(theta* + t u) = sum_alpha a_alpha e^{i theta* . alpha} e^{i t alpha . u}
    has frequencies |alpha . u| <= |alpha|_1 <= D and |g| <= S on the line,
    so Bernstein's inequality (Boas, *Entire Functions*, 1954, ch. 11) gives
    |g'| <= D S and lower >= |g(s)| >= S (1 - D h_eff / 2) > 0.  Since
    D <= n m_max, m_max the largest per-variable degree, this is never
    looser than the per-variable bound lower / (1 - n m_max h_eff / 2).
    Every exponent is at most D < pi D < L, so :func:`_grid_values` gives P
    on the lattice by one inverse FFT.

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
    smaller; ``target_correction`` lies in (0, 1).  The grid runs only when
    its evaluated points (see :func:`_lattice`) are at most
    ``CERTIFIED_UPPER_POINTS``; OverflowError only if neither is finite."""
    if not 0.0 < target_correction < 1.0:  # NaN too
        raise ValueError(f"target_correction must be in (0, 1), got {target_correction}")
    try:
        upper = majorant_sum(P, 1.0)
    except OverflowError:  # fsum's partial sums left the float range
        upper = math.inf
    A, _ = term_arrays(P)
    degree = int(A.sum(axis=1).max(initial=0))
    if degree > 0:
        with contextlib.suppress(BudgetExceededError, OverflowError):  # over the cap, or not finite
            h = 2.0 * target_correction / degree
            L, axes = _lattice(A, h, CERTIFIED_UPPER_POINTS)
            upper = min(upper, _grid_bracket(P, h, L, axes, degree).upper)
    return _finite_bound(upper, "sup |P| upper bound")


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
