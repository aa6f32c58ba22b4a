"""Supremum norms over the polydisc: heuristic lower bounds, certified upper bounds.

For a polynomial the supremum of |P| over the closed unit polydisc is
attained on the torus (apply the maximum principle coordinatewise), so every
search here runs purely in phase variables theta with moduli pinned to one.

Three estimators:

* ``sup_lower``: multistart fixed-step gradient ascent on |P(e^{i theta})|^2
  with backtracking halving.  The result is a genuine lower bound for the
  sup norm (it is a value of |P|), never an upper bound.

* ``sup_certified``: evaluates |P| on a uniform phase grid of step h and
  converts the grid maximum into an upper bound through the Bernstein
  derivative estimate for trigonometric polynomials: if d_k is the degree of
  P in theta_k then |P| moves by at most sum_k d_k * (h/2) * sup|P| between
  a point and its nearest grid node, hence

      sup |P| <= grid_max / (1 - n * m_max * h / 2),

  with m_max the maximal per-variable degree.  The bound is rigorous up to
  floating-point rounding only (no interval arithmetic).  For homogeneous P
  the grid is the slice theta_1 = 0: |P(theta + t (1, ..., 1))| = |P(theta)|
  and a node shifted by -theta_1 (1, ..., 1) is a node with theta_1 = 0.

* ``sup_multilinear``: block-coordinate phase ascent for an m-linear form
  over a product of polydiscs; aligning one argument at a time is exact per
  block, so the objective is nondecreasing.

All estimators are deterministic for a fixed seed, and coefficients are
normalized by their largest modulus internally so that scaling a polynomial
scales the estimate exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .polyalgebra import Polynomial, majorant_sum, monomials, term_arrays

__all__ = [
    "SupNormEstimate",
    "BudgetExceededError",
    "sup_lower",
    "sup_certified",
    "sup_multilinear",
    "certified_upper",
    "as_dense_form",
]

TWO_PI = 2.0 * math.pi
ASCENT_STEP0 = 0.5  # initial phase step of each sup_lower start
BLOCK_ASCENT_TOL = 1e-12  # relative sweep gain at which a sup_multilinear start stops


class BudgetExceededError(RuntimeError):
    """A grid or search would exceed its configured evaluation budget."""


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
    a_alpha e^{i theta . alpha}.  Each start keeps its own step size: a
    proposal that does not improve halves the step.  Start count defaults to
    8 n plus the deterministic aligned start theta = 0.  Nondecreasing in
    both ``iterations`` and ``starts`` for a fixed seed.
    """
    if starts is not None and starts < 1:
        raise ValueError("starts must be >= 1")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    A, c = term_arrays(P)
    n = P.n
    if len(c) == 0:
        return SupNormEstimate(0.0, None, np.zeros(n), {"mode": "ascent", "starts": 0, "iterations": 0, "seed": seed})
    cmax = float(np.max(np.abs(c)))
    cn = c / cmax
    Af = A.astype(np.float64)
    cA = cn[:, None] * A

    S = starts if starts is not None else max(1, 8 * n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    theta = rng.random((S, n)) * TWO_PI
    theta[0] = 0.0

    def value_grad(th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        M = monomials(th, Af)
        vals = M @ cn
        dP = M @ cA
        f = _abs2(vals)
        grad = 2.0 * (np.conjugate(vals)[:, None] * (1j * dP)).real
        return f, grad

    f, grad = value_grad(theta)
    step = np.full(S, ASCENT_STEP0)
    for _ in range(iterations):
        prop = np.mod(theta + step[:, None] * grad, TWO_PI)
        fp, gp = value_grad(prop)
        acc = fp > f
        if np.any(acc):
            theta[acc] = prop[acc]
            f[acc] = fp[acc]
            grad[acc] = gp[acc]
        step[~acc] *= 0.5
        if float(step.max()) < 1e-16:
            break
    best = int(np.argmax(f))
    arg = theta[best].copy()
    lower = float(np.abs(monomials(arg, Af) @ cn)) * cmax
    return SupNormEstimate(
        lower,
        None,
        arg,
        {"mode": "ascent", "starts": S, "iterations": iterations, "seed": seed},
    )


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


def sup_certified(
    P: Polynomial,
    grid_step: float,
    max_evaluations: int = 10**8,
) -> SupNormEstimate:
    """Bracket sup |P| by exhaustive evaluation on a uniform phase lattice.

    ``grid_step`` must satisfy h < 2 / (n * m_max), with m_max the largest
    per-variable degree; the step used is h_eff = 2 pi / L, L = ceil(2 pi / h).
    The lattice spans the variables P depends on, but the correction keeps
    the n * m_max form: the upper bound is the module docstring's with h_eff
    for h, and ``lower`` is the lattice maximum.  Every exponent is at most
    m_max < L (L >= 2 pi / h > pi * n * m_max), so :func:`_grid_values`
    gives P on the lattice by one inverse FFT.

    A homogeneous P (all terms of one degree m) is evaluated on the slice
    k_1 = 0 of its first active axis alone, L times fewer points, with the
    same maximum: P(theta + t (1, ..., 1)) = e^{i m t} P(theta), so the node
    h k shifted by -k_1 h (1, ..., 1) is a node with k_1 = 0 and the same
    modulus.  Ties go to the first maximum in C order; with exact values
    that node is unchanged too, since the first lattice maximum has k_1 = 0
    (some maximum has) and C order on the slice is C order on the lattice.
    In floating point the nodes of one orbit differ by rounding, so the
    argmax is the slice's own first maximum.  General P keep all active axes.
    ``method["evaluations"]`` counts the points evaluated.

    Raises BudgetExceededError when the lattice, L ** (active variables)
    points, exceeds ``max_evaluations``.  The budget counts the lattice, not
    the slice: ``certified_upper`` picks between this bound and sum |c| by
    it, and counting the slice would change its choice.  Memory: the tensor
    and its transform, 16 bytes per evaluated point each, plus 8 for the
    moduli.  A homogeneous slice has L ** (d - 1) points; general P reach
    this grid from the library only through ``certified_upper`` (2M points).
    """
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    A, c = term_arrays(P)
    n = P.n
    meta = {"mode": "certified-grid", "grid_step": grid_step, "note": "certified-modulo-floating-point"}
    if len(c) == 0:
        return SupNormEstimate(0.0, 0.0, np.zeros(n), meta | {"evaluations": 0})
    per_var_degree = A.max(axis=0) if n else np.zeros(0, dtype=np.int64)
    m_max = int(per_var_degree.max()) if n else 0
    if m_max == 0:
        value = float(abs(c.sum()))
        return SupNormEstimate(value, value, np.zeros(n), meta | {"evaluations": 1, "m_max": 0})
    if grid_step >= 2.0 / (n * m_max):
        raise ValueError(f"grid_step {grid_step} too large; need h < 2/(n*m_max) = {2.0 / (n * m_max)}")

    active = [k for k in range(n) if per_var_degree[k] > 0]
    L = int(math.ceil(TWO_PI / grid_step))
    h_eff = TWO_PI / L
    points = L ** len(active)
    if points > max_evaluations:
        raise BudgetExceededError(f"grid needs {points} evaluations, cap is {max_evaluations}")

    degrees = A.sum(axis=1)
    axes = active[1:] if (degrees == degrees[0]).all() else active
    V = np.abs(_grid_values(A[:, axes], c, L))
    best = np.unravel_index(int(np.argmax(V)), V.shape)
    arg = np.zeros(n)
    arg[axes] = np.array(best) * h_eff
    best_val = float(V[best])
    correction = 1.0 - n * m_max * h_eff / 2.0
    meta.update({"evaluations": V.size, "grid_points_per_axis": L, "h_eff": h_eff, "m_max": m_max})
    return SupNormEstimate(best_val, best_val / correction, arg, meta)


def certified_upper(
    P: Polynomial,
    target_correction: float = 0.25,
    points_cap: int = 2_000_000,
) -> float:
    """A cheap certified upper bound for sup |P|.

    Always bounded by the coefficient sum (sup |P| <= sum |a_alpha|); when a
    Bernstein grid with relative correction ``target_correction`` fits inside
    ``points_cap`` evaluations, the grid bound is computed too and the
    smaller of the two is returned.
    """
    l1 = majorant_sum(P, 1.0)
    A, _ = term_arrays(P)
    m_max = int(A.max(initial=0))
    if m_max == 0:
        return l1
    try:
        grid = sup_certified(P, 2.0 * target_correction / (P.n * m_max), max_evaluations=points_cap)
    except BudgetExceededError:
        return l1
    return min(l1, grid.upper)


# ----------------------------------------------------------------------
# Multilinear forms over products of polydiscs
# ----------------------------------------------------------------------

def as_dense_form(B, m: int | None = None, n: int | None = None) -> np.ndarray:
    """Coerce a form coefficient table to a dense complex array of shape (n,) * m.

    Accepts an ndarray, a mapping from 1-based multi-indices to coefficients,
    or anything with a ``to_dense`` method (e.g. a SymmetricForm).
    """
    if hasattr(B, "to_dense"):
        return np.asarray(B.to_dense(), dtype=np.complex128)
    if isinstance(B, np.ndarray):
        out = np.asarray(B, dtype=np.complex128)
        if out.ndim < 1 or len(set(out.shape)) > 1:
            raise ValueError("form tensor must be cubical with at least one axis")
        return out
    if isinstance(B, Mapping):
        if m is None or n is None:
            keys = list(B)
            if not keys:
                raise ValueError("empty mapping needs explicit m and n")
            m = len(keys[0])
            n = max(max(k) for k in keys)
        out = np.zeros((n,) * m, dtype=np.complex128)
        for key, value in B.items():
            if len(key) != m or any(not 1 <= v <= n for v in key):
                raise ValueError(f"bad multi-index {key} for shape ({n},)*{m}")
            out[tuple(v - 1 for v in key)] = complex(value)
        return out
    raise TypeError(f"cannot interpret {type(B).__name__} as a multilinear form")


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
    value nondecreasing.  Multistart over random unimodular initializations
    plus one deterministic all-ones start.
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
    return SupNormEstimate(best_val * scale, None, np.mod(np.angle(best_Z), TWO_PI), meta)
