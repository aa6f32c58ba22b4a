"""Polarization: the symmetric multilinear form attached to a homogeneous polynomial.

Every m-homogeneous polynomial P determines a unique symmetric m-linear form
B with B(z, ..., z) = P(z).  Writing P over nondecreasing indices with
coefficients c_j, the form's coefficient on the class of j is

    b_j = c_j / |j|,

where |j| is the number of distinct rearrangements of j, and the form is

    B(z1, ..., zm) = sum over all of M(m, n) of b_i z1_{i_1} ... zm_{i_m}.

A form is stored through its diagonal polynomial (the c_j table); b values
are produced on access.  This makes restrict_diagonal(polarize(P)) == P an
exact identity, not a floating-point round trip.  B is evaluated through P
by the polarization formula

    B(w_1, ..., w_m) = (2^m m!)^{-1} sum_{eps in {+-1}^m} eps_1...eps_m P(eps_1 w_1 + ... + eps_m w_m).

Harris' polarization estimate bounds the form at grouped repeated arguments:
for a partition m = m_1 + ... + m_k and points w_1, ..., w_k in the closed
polydisc,

    |B(w_1...w_1, ..., w_k...w_k)| <=
        (m_1! ... m_k! / m_1^{m_1} ... m_k^{m_k}) * (m^m / m!) * sup |P|,

with the convention 0^0 = 1 so empty groups contribute a factor of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .indexcore import multiplicity
from .polyalgebra import DENSE_ENTRIES_MAX, REL_TOL, HomogeneousPolynomial
from .polyalgebra import _factor_table, check_entries, evaluate_points, term_arrays

__all__ = [
    "SymmetricForm",
    "HarrisReport",
    "polarize",
    "restrict_diagonal",
    "evaluate_form",
    "harris_factor",
    "check_harris",
]


@dataclass(frozen=True)
class SymmetricForm:
    """Symmetric m-linear form on C^n, stored via its diagonal polynomial.

    ``diagonal.coeffs[j]`` holds c_j; the form coefficient b_i for an
    arbitrary multi-index i is c_{[i]} / |i|, computed at access time.
    """

    diagonal: HomogeneousPolynomial

    @property
    def m(self) -> int:
        return self.diagonal.m

    @property
    def n(self) -> int:
        return self.diagonal.n

    def coeff(self, i: Sequence[int]) -> complex:
        """b_i = c_{[i]} / |i| (symmetric in i)."""
        return self.diagonal.coeff(i) / multiplicity(i)

    def coeffs(self) -> dict[tuple[int, ...], complex]:
        """The b_j table over the stored support in J(m, n)."""
        return {j: c / multiplicity(j) for j, c in self.diagonal.coeffs.items()}

    def to_dense(self) -> np.ndarray:
        """Dense coefficient tensor b over all of M(m, n), shape (n,) * m: each
        multi-index reads b_j = c_j / |j| at its sorted representative j.
        Raises BudgetExceededError, before allocating, when the table and its
        (m, n^m) index table, (m + 1) n^m entries, exceed ``DENSE_ENTRIES_MAX``."""
        m, n = self.m, self.n
        check_entries((m + 1) * n**m, DENSE_ENTRIES_MAX, f"a ({n},)*{m} table and its indices")
        shape = (n,) * m
        A, c = term_arrays(self.diagonal)
        J = _factor_table(A).T  # row k: term k's nondecreasing 0-based multi-index
        table = np.zeros(n**m, dtype=np.complex128)
        table[np.ravel_multi_index(J.T, shape)] = [cj / multiplicity(j) for cj, j in zip(c.tolist(), J.tolist())]
        classes = np.sort(np.indices(shape).reshape(m, -1), axis=0)
        return table[np.ravel_multi_index(classes, shape)].reshape(shape)


def polarize(P: HomogeneousPolynomial) -> SymmetricForm:
    """The symmetric m-linear form with diagonal P (b_j = c_j / |j|)."""
    return SymmetricForm(P)


def restrict_diagonal(B: SymmetricForm) -> HomogeneousPolynomial:
    """The polynomial z -> B(z, ..., z); exact inverse of :func:`polarize`."""
    return B.diagonal


def evaluate_form(B: SymmetricForm, points: Sequence[Sequence[complex]]) -> complex:
    """Evaluate B at m points of C^n by the polarization formula.

    One evaluation of P at the 2^m signed sums: cost 2^m K n for K stored
    terms and memory proportional to 2^m K, so sparse forms in many variables
    stay cheap.  The +-1 form amplifies rounding by sum_eps |sum eps|^m /
    (2^m m!) (2.3 at m = 5), far less than the subset form over sums of
    subsets of the points (92 at m = 5).  Raises BudgetExceededError,
    before allocating, when the (2^m, m) sign table and the 2^m signed points,
    2^m (m + n) entries, exceed ``DENSE_ENTRIES_MAX``.  The sign table is
    float, and the signed points are formed as two real products, so no
    complex copy of it is made.
    """
    m, n = B.m, B.n
    check_entries(2**m * (m + n), DENSE_ENTRIES_MAX, f"polarizing at m = {m}, n = {n}",
                  "sign and point entries")
    if len(points) != m:
        raise ValueError(f"need exactly {m} points, got {len(points)}")
    W = np.array([[complex(w) for w in p] for p in points], dtype=np.complex128)
    if W.shape != (m, n):
        raise ValueError(f"points have shape {W.shape}, form needs ({m}, {n})")
    # Row r holds eps_k = -1 where bit k of r is set.
    signs = np.empty((2**m, m))
    for k in range(m):
        signs[:, k] = np.tile(np.repeat([1.0, -1.0], 2**k), 2 ** (m - 1 - k))
    Z = np.empty((2**m, n), dtype=np.complex128)
    Z.real = signs @ W.real
    Z.imag = signs @ W.imag
    values = evaluate_points(B.diagonal, Z)
    return complex(np.prod(signs, axis=1) @ values) / (2**m * math.factorial(m))


def harris_factor(m: int, partition: Sequence[int]) -> float:
    """The polarization factor (m_1!...m_k!/m_1^{m_1}...m_k^{m_k}) * m^m/m!.

    ``partition`` must consist of nonnegative integers summing to m; zero
    parts contribute a factor of one (0^0 = 1).  Evaluated in exact rational
    arithmetic before conversion to float.
    """
    parts = [int(p) for p in partition]
    if any(p < 0 for p in parts):
        raise ValueError("partition entries must be nonnegative")
    if sum(parts) != m:
        raise ValueError(f"partition {parts} sums to {sum(parts)}, expected {m}")
    num = math.prod(math.factorial(p) for p in parts) * m**m
    den = math.prod(p**p for p in parts if p > 0) * math.factorial(m)
    return float(Fraction(num, den))


@dataclass(frozen=True)
class HarrisReport:
    """Outcome of one polarization-bound check."""

    value: float  # |B| at the repeated-argument tuple
    factor: float  # Harris factor for the partition
    supnorm_bound: float
    bound: float  # factor * supnorm_bound
    slack: float  # bound - value
    passed: bool


def check_harris(
    P: HomogeneousPolynomial,
    partition: Sequence[int],
    points: Sequence[Sequence[complex]],
    supnorm_bound: float,
) -> HarrisReport:
    """Check the polarization bound at grouped repeated arguments.

    ``points`` holds one point per partition block, each in the closed
    polydisc; ``supnorm_bound`` must be an upper bound for sup |P| over the
    polydisc for the pass verdict to be meaningful.
    """
    parts = [int(p) for p in partition]
    if len(points) != len(parts):
        raise ValueError(f"need one point per partition block ({len(parts)}), got {len(points)}")
    for p in points:
        if not all(abs(complex(w)) <= 1 + 1e-12 for w in p):  # NaN fails too
            raise ValueError("points must be finite and lie in the closed polydisc")
    factor = harris_factor(P.m, parts)
    repeated = [p for size, p in zip(parts, points) for _ in range(size)]
    value = abs(evaluate_form(polarize(P), repeated))
    bound = factor * supnorm_bound
    return HarrisReport(
        value=value,
        factor=factor,
        supnorm_bound=supnorm_bound,
        bound=bound,
        slack=bound - value,
        passed=value <= bound * (1 + REL_TOL) + 1e-15,
    )
