"""The Bohnenblust-Hille inequality engine: constants and numerical verification.

For an m-homogeneous polynomial P = sum a_alpha z^alpha on C^n, the
Bohnenblust-Hille inequality bounds the ell^{2m/(m+1)} norm of the
coefficients by a constant independent of n times sup |P| over the polydisc.
This module evaluates the classical constants, the hypercontractive bound

    (1 + 1/(m-1))^{m-1} * sqrt(m) * (sqrt 2)^{m-1},

and runs the checks that make up its proof chain:

* Blei's ell^{2m/(m+1)} interpolation bound for full multi-index tables,
* Bayart's hypercontractive L^1-L^2 comparison on the torus,
* the slotwise polarization estimate that reduces the polynomial case to
  Harris' bound (the inner sums hit the L^2 norms of one-slot substitutions
  of the polarized form exactly, which is cross-checked per variable through
  the derivative identity B(z, ..., e_d, ..., z) = (1/m) dP/dz_d),
* the multilinear inequality with the Davie-Kaijser constant (sqrt 2)^{m-1}.

Verdict discipline: a "violated-numerically" verdict (which would indicate a
bug, not new mathematics) requires the coefficient norm to beat the constant
times a certified UPPER bound for the sup norm, which every ``verify_bh`` case
has.  The multilinear check's block ascent has none, so it can only return
"verified" or "inconclusive": the ascent underestimates the denominator.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .indexcore import multiplicity, remove_coordinate
from .polarization import polarize
from .polyalgebra import (
    REL_TOL,
    HomogeneousPolynomial,
    coeff_norm,
    l1_torus_norm_mc,
    term_arrays,
)
from .torusnorm import SupNormEstimate, _finite_bound, as_dense_form
from .torusnorm import certified_upper, sup_certified, sup_lower_each, sup_multilinear

__all__ = [
    "bh_exponent",
    "bh_constant_hyper",
    "bh_constant_polarization",
    "bh_constant_queffelec",
    "davie_kaijser_constant",
    "proof_step_constant",
    "InequalityReport",
    "verify_bh",
    "verify_bh_batch",
    "verify_bh_multilinear",
    "BleiReport",
    "check_blei",
    "BayartReport",
    "check_bayart",
    "ProofStepReport",
    "check_proof_step",
]

BLEI_REL_TOL = 1e-12  # check_blei's margin, tighter than REL_TOL

VERIFIED = "verified"
VIOLATED = "violated-numerically"
INCONCLUSIVE = "inconclusive"


# ----------------------------------------------------------------------
# Exponent and constants
# ----------------------------------------------------------------------

def bh_exponent(m: int) -> Fraction:
    """The critical coefficient exponent 2m/(m+1), as an exact rational.

    m = 1 gives 1, m = 2 gives Littlewood's 4/3; the value increases to 2.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    return Fraction(2 * m, m + 1)


def bh_constant_hyper(m: int) -> float:
    """Hypercontractive polynomial constant (1+1/(m-1))^{m-1} sqrt(m) (sqrt 2)^{m-1}."""
    if m < 2:
        raise ValueError("hypercontractive constant needs m >= 2")
    return (1.0 + 1.0 / (m - 1)) ** (m - 1) * math.sqrt(m) * math.sqrt(2.0) ** (m - 1)


def _symmetrization_quotient_log(m: int) -> float:
    # log of m^{m/2} (m+1)^{(m+1)/2} / (2^m (m!)^{(m+1)/(2m)})
    return (
        0.5 * m * math.log(m)
        + 0.5 * (m + 1) * math.log(m + 1)
        - m * math.log(2.0)
        - (m + 1) / (2.0 * m) * math.lgamma(m + 1)
    )


def bh_constant_polarization(m: int) -> float:
    """Polynomial constant via polarization of the Davie-Kaijser bound:
    (sqrt 2)^{m-1} m^{m/2} (m+1)^{(m+1)/2} / (2^m (m!)^{(m+1)/2m})."""
    if m < 2:
        raise ValueError("needs m >= 2")
    return math.exp(0.5 * (m - 1) * math.log(2.0) + _symmetrization_quotient_log(m))


def bh_constant_queffelec(m: int) -> float:
    """Queffelec's polynomial constant: (2/sqrt(pi))^{m-1} times the same
    symmetrization quotient as the polarization constant."""
    if m < 2:
        raise ValueError("needs m >= 2")
    return math.exp((m - 1) * math.log(2.0 / math.sqrt(math.pi)) + _symmetrization_quotient_log(m))


def davie_kaijser_constant(m: int) -> float:
    """Multilinear constant (sqrt 2)^{m-1}."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    return math.sqrt(2.0) ** (m - 1)


def proof_step_constant(m: int) -> float:
    """Slotwise constant (1+1/(m-1))^{m-1} (sqrt 2)^{m-1} (equals
    bh_constant_hyper(m) / sqrt(m))."""
    if m < 2:
        raise ValueError("needs m >= 2")
    return (1.0 + 1.0 / (m - 1)) ** (m - 1) * math.sqrt(2.0) ** (m - 1)


# ----------------------------------------------------------------------
# Verification of the polynomial and multilinear inequalities
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class InequalityReport:
    """One inequality check: lhs vs constant * sup norm.

    ``ratio`` divides the lhs by the sup-norm LOWER bound, so it can only
    overestimate the true ratio; ``verdict`` is "violated-numerically" only
    when the lhs exceeds the constant times a certified upper bound.
    """

    lhs: float
    rhs_constant: float
    supnorm: SupNormEstimate
    ratio: float
    slack: float
    verdict: str


def _lp_norm(moduli: np.ndarray, p: float, top: float | None = None) -> float:
    """ell^p norm of the float array ``moduli``, divided by the largest,
    ``top`` (found here unless given), before powering as in coeff_norm.  It
    works in place: ``moduli`` is overwritten."""
    if top is None:
        top = float(moduli.max(initial=0.0))
    if top == 0.0:
        return 0.0
    moduli /= top
    return top * float(np.sum(np.power(moduli, p, out=moduli))) ** (1.0 / p)


def _verdict(lhs: float, constant: float, est: SupNormEstimate) -> str:
    if lhs <= constant * est.lower * (1.0 + REL_TOL) or lhs == 0.0:
        return VERIFIED
    if est.upper is not None and lhs > constant * est.upper * (1.0 + REL_TOL):
        return VIOLATED
    return INCONCLUSIVE


def _report(lhs: float, constant: float, est: SupNormEstimate) -> InequalityReport:
    # The estimators refuse non-finite sup bounds themselves.
    _finite_bound(lhs, "coefficient norm")
    ratio = 0.0 if lhs == 0.0 else (lhs / est.lower if est.lower > 0 else math.inf)
    return InequalityReport(
        lhs=lhs,
        rhs_constant=constant,
        supnorm=est,
        ratio=ratio,
        slack=constant - ratio,
        verdict=_verdict(lhs, constant, est),
    )


def verify_bh(
    P: HomogeneousPolynomial,
    starts: int | None = None,
    iterations: int = 200,
    seed: int = 0,
    grid_step: float | None = None,
) -> InequalityReport:
    """Check the hypercontractive coefficient bound on one polynomial.

    lhs = ell^{2m/(m+1)} coefficient norm; constant = bh_constant_hyper(m);
    the sup norm is a certified bracket, so every verdict can be reached.
    This is the one-case call of :func:`verify_bh_batch`.
    """
    return verify_bh_batch([P], starts, iterations, [seed], grid_step)[0]


def verify_bh_batch(
    Ps: Iterable[HomogeneousPolynomial],
    starts: int | None,
    iterations: int,
    seeds: Sequence[int],
    grid_step: float | None = None,
) -> list[InequalityReport]:
    """:func:`verify_bh` for each P of the iterable ``Ps`` with its seed.

    Each P's coefficient norm is taken as it streams through.  With
    ``grid_step``, :func:`sup_certified` at that step brackets each P and no
    seed is used.  Otherwise :func:`sup_lower_each` gives the lower bounds,
    so consecutive P with one exponent matrix (e.g. random P of one (m, n))
    run as one batched ascent, and :func:`certified_upper` the upper bounds,
    raised to the lower bound where rounding put the ascent's value above it
    (a P of sup exactly sum |a_alpha|, e.g. random signs at n = 2).
    """
    cases = []  # (coefficient norm, constant, certified_upper or None) of each P pulled

    def measured(P: HomogeneousPolynomial) -> HomogeneousPolynomial:
        if P.m < 2:
            raise ValueError("the inequality is stated for m >= 2")
        cases.append((coeff_norm(P, bh_exponent(P.m)), bh_constant_hyper(P.m),
                      certified_upper(P) if grid_step is None else None))
        return P

    stream = map(measured, Ps)
    if grid_step is None:
        ests = sup_lower_each(stream, starts, iterations, seeds)
    else:
        ests = [sup_certified(P, grid_step) for P in stream]
    return [_report(norm, constant,
                    est if upper is None else dataclasses.replace(est, upper=max(upper, est.lower)))
            for (norm, constant, upper), est in zip(cases, ests)]


def verify_bh_multilinear(
    B,
    starts: int = 8,
    iterations: int = 100,
    seed: int = 0,
) -> InequalityReport:
    """Check the multilinear inequality on a coefficient table over M(m, n).

    lhs runs over ALL multi-indices (not permutation classes); the constant
    is the Davie-Kaijser (sqrt 2)^{m-1}; the sup is estimated by block
    ascent, so the verdict can never be "violated-numerically".  ``B`` is a
    dense table, validated by ``torusnorm.as_dense_form``.
    """
    T = as_dense_form(B)
    m = T.ndim
    if m < 2:
        raise ValueError("the inequality is stated for m >= 2")
    lhs = _lp_norm(np.abs(T), float(bh_exponent(m)))
    est = sup_multilinear(T, starts=starts, iterations=iterations, seed=seed)
    return _report(lhs, davie_kaijser_constant(m), est)


# ----------------------------------------------------------------------
# Proof-chain checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BleiReport:
    lhs: float
    rhs: float
    passed: bool


def check_blei(c) -> BleiReport:
    """Blei's bound for a full table (c_i) over M(m, n):

        ( sum_i |c_i|^{2m/(m+1)} )^{(m+1)/2m}
            <= prod_k [ sum_{i_k} ( sum_{i^k} |c_i|^2 )^{1/2} ]^{1/m}.

    Both sides are computed from the dense table divided by its largest
    modulus (both are 1-homogeneous, so they scale back exactly and neither
    overflows nor underflows); the report asserts lhs <= rhs within
    ``BLEI_REL_TOL``.  ``c`` is validated by ``torusnorm.as_dense_form``: an
    ndarray of shape (n,) * m with n >= 1 and at most ``DENSE_ENTRIES_MAX``
    entries.  A table with fewer than two axes is a ValueError, and a side
    past the float range an OverflowError.
    """
    T = as_dense_form(c)
    m = T.ndim
    if m < 2:
        raise ValueError("Blei's bound is stated for m >= 2")
    # One float copy ``a`` holds the moduli, their powers, then the moduli
    # again and their squares: the table is up to DENSE_ENTRIES_MAX entries.
    a = np.abs(T)
    top = float(a.max(initial=0.0))
    if top == 0.0:
        return BleiReport(0.0, 0.0, True)
    lhs = _finite_bound(_lp_norm(a, float(bh_exponent(m)), top), "Blei left side")
    np.abs(T, out=a)
    a /= top
    a *= a
    log_factors = []
    for k in range(m):
        other = tuple(ax for ax in range(m) if ax != k)
        # At least 1: the largest normalised modulus is 1.
        log_factors.append(math.log(float(np.sqrt(a.sum(axis=other)).sum())))
    rhs = _finite_bound(top * math.exp(math.fsum(log_factors) / m), "Blei right side")
    return BleiReport(lhs, rhs, lhs <= rhs * (1.0 + BLEI_REL_TOL))


@dataclass(frozen=True)
class BayartReport:
    """Statistical check of the L^1-L^2 comparison on the torus:
    ell^2 coefficient norm <= (sqrt 2)^m * L^1 norm.  The L^1 side is a
    Monte Carlo mean, so the verdict uses a 3-sigma upper band and a failure
    is a statistical flag, not a hard contradiction."""

    l2: float
    l1_estimate: float
    stderr: float
    bound: float
    passed: bool
    samples: int


def check_bayart(
    P: HomogeneousPolynomial,
    mc_samples: int = 10**5,
    seed: int = 0,
) -> BayartReport:
    """Bayart's comparison ||P||_2 <= (sqrt 2)^m ||P||_1 on the torus, with the
    L^1 norm estimated by :func:`l1_torus_norm_mc` from ``mc_samples`` samples.

    ``l2`` is exact (Parseval).  The check passes when
    ``l2 <= bound * (1 + REL_TOL)`` for ``bound = (sqrt 2)^m (mean + 3 stderr)``,
    the 3-sigma upper band of the estimate.  A failure is therefore a
    statistical flag, not a proof that the inequality fails: under a normal
    approximation the band falls below the true L^1 norm for about 0.1% of
    seeds.
    """
    if mc_samples < 10**3:
        raise ValueError("need at least 1000 Monte Carlo samples")
    l2 = coeff_norm(P, 2)
    est = l1_torus_norm_mc(P, mc_samples, seed=seed)
    bound = math.sqrt(2.0) ** P.m * (est.value + 3.0 * est.stderr)
    return BayartReport(
        l2=l2,
        l1_estimate=est.value,
        stderr=est.stderr,
        bound=bound,
        passed=l2 <= bound * (1.0 + REL_TOL),
        samples=mc_samples,
    )


@dataclass(frozen=True)
class ProofStepReport:
    lhs: float
    constant: float
    supnorm_upper: float
    bound: float
    passed: bool
    parseval_max_rel_err: float


def check_proof_step(
    P: HomogeneousPolynomial,
    k: int,
    supnorm_upper: float,
) -> ProofStepReport:
    """The slotwise estimate reducing the polynomial inequality to Harris' bound.

    With b the polarized coefficients (b_i = c_{[i]}/|i|), checks

        sum_{d=1}^n ( sum_{i^k in M(m-1, n)} |i^k| |b_i|^2 )^{1/2}
            <= (1+1/(m-1))^{m-1} (sqrt 2)^{m-1} * supnorm_upper,

    where i is i^k with the value d inserted in slot k.  The inner sum equals
    the squared L^2 torus norm of the one-slot substitution
    P_d(z) = B(z, ..., e^(d), ..., z) = (1/m) dP/dz_d (symmetry of B), so by
    Parseval it is also sum_alpha (alpha_d / m)^2 |c_alpha|^2.  Both routes
    are computed and the report carries their worst relative disagreement.

    By symmetry of B the left side does not depend on the slot k; the
    argument is validated against 1..m anyway.
    """
    m, n = P.m, P.n
    if m < 2:
        raise ValueError("needs m >= 2")
    if not 1 <= k <= m:
        raise ValueError(f"slot k={k} outside 1..{m}")

    # Route 1: class arithmetic.  For each support class j and each distinct
    # value d in j, the class of j with one d removed contributes
    # |j'|^2 |b_j|^2 to the inner sum at d.
    inner = [0.0] * (n + 1)
    for j, bj in polarize(P).coeffs().items():
        ab2 = abs(bj) ** 2
        for pos, d in enumerate(j):
            if pos > 0 and j[pos - 1] == d:
                continue  # one removal per distinct value
            jprime = remove_coordinate(j, pos + 1)
            inner[d] += multiplicity(jprime) ** 2 * ab2
    lhs = math.fsum(math.sqrt(v) for v in inner[1:])

    # Route 2: the derivative identity, for all d at once.
    A, c = term_arrays(P)
    via_derivative = ((A / m) ** 2).T @ (np.abs(c) ** 2)
    via_classes = np.array(inner[1:])
    max_rel_err = float(np.max(np.abs(via_classes - via_derivative)
                               / np.maximum(np.maximum(via_classes, via_derivative), 1e-300)))

    constant = proof_step_constant(m)
    bound = constant * supnorm_upper
    return ProofStepReport(
        lhs=lhs,
        constant=constant,
        supnorm_upper=supnorm_upper,
        bound=bound,
        passed=lhs <= bound * (1.0 + REL_TOL),
        parseval_max_rel_err=max_rel_err,
    )
