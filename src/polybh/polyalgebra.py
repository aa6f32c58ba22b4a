"""Polynomials on C^n: sparse representation, evaluation, coefficient norms.

A homogeneous polynomial of degree m is stored as a sparse table mapping
nondecreasing multi-indices j in J(m, n) to complex coefficients c_j, so that

    P(z) = sum_{j in J(m, n)} c_j z_{j_1} ... z_{j_m}.

Coefficient access by an arbitrary multi-index resolves through its
nondecreasing representative, so ``P.coeff((2, 1)) == P.coeff((1, 2))``.
A general polynomial is a finite sum of homogeneous parts plus a constant.

Coefficient norms are the ell^p norms of the family {c_j}, one entry per
monomial.  By orthonormality of the monomials on the torus, the ell^2 norm
equals the L^2 norm with respect to normalized Lebesgue measure on T^n; the
L^1 torus norm has no closed form and is estimated by Monte Carlo here.

All sums of absolute values use ``math.fsum``, which is exactly rounded and
therefore independent of summation order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .indexcore import (
    MultiIndex,
    canonical,
    enumerate_J,
    exponent_to_index,
    index_to_exponent,
    validate_index,
)

__all__ = [
    "BudgetExceededError",
    "check_entries",
    "HomogeneousPolynomial",
    "GeneralPolynomial",
    "MCEstimate",
    "evaluate",
    "evaluate_points",
    "coeff_norm",
    "l2_torus_norm",
    "l1_torus_norm_mc",
    "random_homogeneous",
    "dimension_count",
    "majorant_sum",
    "scale",
    "term_arrays",
    "monomials",
    "to_json_dict",
    "from_json_dict",
]

RANDOM_DISTRIBUTIONS = ("complex-gaussian", "uniform-disc", "random-signs")
REL_TOL = 1e-9  # relative margin of the numerical pass/fail checks against a bound
MC_BATCH = 1 << 14  # samples per seeded batch of l1_torus_norm_mc; fixes the seed -> estimate map
# Cap on K x rows per chunk of evaluate_points.  On a 2-core Xeon (2 MiB of
# L2 per core) 2**14 was the fastest of 2**12 .. 2**16 for 10^5-sample
# l1_torus_norm_mc summed over the seven proof-chain shapes (2**13 took 5%
# longer, 2**15 36%, 2**16 95%).  l1_torus_norm_mc at (6, 6) with 16384
# samples then peaks at 5 MiB (tracemalloc).
EVAL_CHUNK_ELEMENTS = 1 << 14
# Cap on samples x terms of one l1_torus_norm_mc call.  It bounds time, not
# memory (the batches run one at a time): 12 to 65 million term evaluations
# per second from (2, 2) to (6, 6) on a 2-vCPU Xeon, so 3 to 14 minutes.
MC_TERM_EVALS_MAX = 10**10
# The one cap on the entries of an array sized from an input: a dense form
# table (160 MB as complex128), a certified grid, a random polynomial's index
# and exponent entries, a Bohr lift's exponent table.  Each module passes its
# own name of it to check_entries, so a test can lower one module's cap.
DENSE_ENTRIES_MAX = 10**7


class BudgetExceededError(RuntimeError):
    """An input would need more entries (or evaluations) than a cap allows;
    raised by :func:`check_entries` before anything sized from it is allocated."""


def check_entries(count, cap: int, what: str, unit: str = "entries", at_least: bool = False) -> None:
    """The one refusal rule: BudgetExceededError("<what> needs <count> <unit>;
    cap is <cap>") when ``count > cap``.  ``count`` may be a float (an
    estimate, or inf for a count past the float range); ``at_least`` marks
    a count that is only a lower bound of what is needed."""
    if count > cap:
        shown = f"{count:.3g}" if isinstance(count, float) else str(count)
        bound = "at least " if at_least else ""
        raise BudgetExceededError(f"{what} needs {bound}{shown} {unit}; cap is {cap}")


def _finite(value) -> complex:
    c = complex(value)
    if not cmath.isfinite(c):
        raise ValueError(f"coefficient {c} is not finite")
    return c


def _read_only(A: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    A.setflags(write=False)
    c.setflags(write=False)
    return A, c


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """Degree-m polynomial on C^n with coefficients over J(m, n).

    ``coeffs`` may be keyed by arbitrary multi-indices; keys are canonicalized
    (sorted) on construction and coefficients of equivalent keys are merged.
    Exact zeros are dropped, so the zero polynomial has an empty table, and
    non-finite coefficients are rejected.  Instances are immutable after
    construction.
    """

    m: int
    n: int
    coeffs: Mapping[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        merged: dict[MultiIndex, complex] = {}
        for key, value in dict(self.coeffs).items():
            idx = validate_index(key, self.n)
            if len(idx) != self.m:
                raise ValueError(f"index {idx} has degree {len(idx)}, expected {self.m}")
            c = complex(value)
            if c != 0:
                j = canonical(idx)
                merged[j] = merged.get(j, 0j) + c
        merged = {j: _finite(c) for j, c in merged.items() if c != 0}
        object.__setattr__(self, "coeffs", merged)

    def coeff(self, i: Sequence[int]) -> complex:
        """Coefficient c_{[i]}, resolved through the class representative of ``i``."""
        idx = validate_index(i, self.n)
        if len(idx) != self.m:
            raise ValueError(f"index {idx} has degree {len(idx)}, expected {self.m}")
        return self.coeffs.get(canonical(idx), 0j)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        support = sorted(self.coeffs)
        K, n = len(support), self.n
        flat = np.repeat(np.arange(K) * n, self.m) + np.array(support, dtype=np.int64).reshape(-1) - 1
        A = np.bincount(flat, minlength=K * n).reshape(K, n)  # alpha_v counts the entries v of j
        c = np.array([self.coeffs[j] for j in support], dtype=np.complex128)
        return _read_only(A, c)

    def __call__(self, z: Sequence[complex]) -> complex:
        return evaluate(self, z)


@dataclass(frozen=True)
class GeneralPolynomial:
    """Finite sum of homogeneous parts plus a constant term a0.

    ``parts[m]`` must be an m-homogeneous polynomial in the same dimension.
    Dimension n = 0 is allowed and means a constant.
    """

    n: int
    parts: Mapping[int, HomogeneousPolynomial] = field(default_factory=dict)
    a0: complex = 0j

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("dimension must be >= 0")
        clean: dict[int, HomogeneousPolynomial] = {}
        for m, part in dict(self.parts).items():
            if part.m != m:
                raise ValueError(f"part at degree {m} has degree {part.m}")
            if part.n != self.n:
                raise ValueError(f"part at degree {m} has dimension {part.n}, expected {self.n}")
            if part.coeffs:
                clean[m] = part
        object.__setattr__(self, "parts", dict(sorted(clean.items())))
        object.__setattr__(self, "a0", _finite(self.a0))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        blocks = [part._arrays for part in self.parts.values()]
        if self.a0 != 0:
            blocks.insert(0, (np.zeros((1, self.n), dtype=np.int64), np.array([self.a0])))
        A = np.concatenate([a for a, _ in blocks] + [np.zeros((0, self.n), dtype=np.int64)])
        c = np.concatenate([c for _, c in blocks] + [np.zeros(0, dtype=np.complex128)])
        return _read_only(A, c)

    def __call__(self, z: Sequence[complex]) -> complex:
        return evaluate(self, z)


Polynomial = Union[HomogeneousPolynomial, GeneralPolynomial]


class MCEstimate(NamedTuple):
    """A Monte Carlo mean together with its standard error."""

    value: float
    stderr: float
    samples: int


# ----------------------------------------------------------------------
# Evaluation and norms
# ----------------------------------------------------------------------

def evaluate(P: Polynomial, z: Sequence[complex]) -> complex:
    """Evaluate P at a point of C^n: the one-row case of :func:`evaluate_points`.

    For homogeneous P this satisfies P(lambda z) = lambda^m P(z).
    """
    zv = [complex(w) for w in z]
    if len(zv) != P.n:
        raise ValueError(f"point has dimension {len(zv)}, polynomial has {P.n}")
    return complex(evaluate_points(P, [zv])[0])


def evaluate_points(P: Polynomial, Z) -> np.ndarray:
    """Values sum_alpha c_alpha z^alpha of P at the rows z of ``Z`` (shape (k, n)).

    The kernel for points of C^n, torus samples e^{i theta} included
    (:func:`monomials` is the one for phases).  Each term z^alpha is a
    product of the coordinates of alpha, counted with multiplicity, gathered
    from the table Z^T stacked over a row of ones.  The ones pad terms of
    lower degree, so 0^0 = 1 and the constant row of a general polynomial
    counts once.  Rows are taken in chunks of about ``EVAL_CHUNK_ELEMENTS``
    terms times rows, so memory stays bounded for any k.  Each row's value
    does not depend on the other rows or on the chunk size:
    ``evaluate(P, Z[i]) == evaluate_points(P, Z)[i]`` bit for bit.
    """
    Z = np.asarray(Z, dtype=np.complex128)
    if Z.ndim != 2 or Z.shape[1] != P.n:
        raise ValueError(f"points have shape {Z.shape}, polynomial needs (k, {P.n})")
    A, c = term_arrays(P)
    return _point_values(_factor_table(A), c, Z)


def _factor_table(A: np.ndarray) -> np.ndarray:
    """Table rows of the factors of every term, shape (D, K) for total degree
    at most D: column k lists the variables of term k with multiplicity, in
    ascending order, then the ones row n for each missing degree.  Built
    once per call of a kernel that uses it: 10 to 32 us from (2, 2) to
    (6, 6) on a 2-vCPU Xeon, against milliseconds for a Monte Carlo batch."""
    K, n = A.shape
    degree = A.sum(axis=1)
    D = int(degree.max(initial=1))
    counts = np.concatenate([A, (D - degree)[:, None]], axis=1)
    return np.repeat(np.tile(np.arange(n + 1), K), counts.ravel()).reshape(K, D).T


def _point_values(F: np.ndarray, c: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The kernel of :func:`evaluate_points` on a factor table F, coefficients c
    and points Z (k, n)."""
    return _table_values(F, c, np.concatenate([Z.T, np.ones((1, len(Z)), dtype=np.complex128)]))


def _table_values(F: np.ndarray, c: np.ndarray, table: np.ndarray) -> np.ndarray:
    """:func:`_point_values` on ``table``, the (n + 1, k) coordinates of the
    points stacked over a row of ones."""
    k = table.shape[1]
    rows = max(1, EVAL_CHUNK_ELEMENTS // max(len(c), 1))
    values = np.empty(k, dtype=np.complex128)
    for start in range(0, k, rows):
        cols = slice(start, start + rows)
        M = table[F[0], cols]
        for f in F[1:]:
            # Out of place: an in-place product rounds some entries
            # differently, depending on the array length.  Hence np.multiply
            # and not ``*``, which NumPy may run in place on a temporary
            # operand of 256 KiB or more.
            M = np.multiply(M, table[f, cols])
        # einsum, not ``c @ M``: BLAS may round a row differently in a batch of another size.
        values[cols] = np.einsum("ki,k->i", M, c)
    return values


def coeff_norm(P: HomogeneousPolynomial, p) -> float:
    """ell^p norm of the coefficient family over J(m, n).

    One entry per monomial; p = inf gives the max modulus and p = 1 the
    coefficient sum |||P|||_1.  ``p`` may be any positive real (fractions
    accepted).  Moduli are divided by the largest one before powering, so
    the norm neither overflows nor underflows unless its value does.
    """
    pf = float(p)
    if not pf > 0:
        raise ValueError(f"norm exponent must be positive, got {p}")
    values = [abs(c) for c in P.coeffs.values()]
    if not values:
        return 0.0
    top = max(values)
    if math.isinf(pf):
        return top
    if pf == 1.0:
        return math.fsum(values)
    return top * math.fsum((v / top) ** pf for v in values) ** (1.0 / pf)


def l2_torus_norm(P: HomogeneousPolynomial) -> float:
    """L^2 norm of P on the torus T^n with normalized measure.

    Monomials are orthonormal in L^2(mu^n), so this is exactly the ell^2
    coefficient norm.
    """
    return coeff_norm(P, 2)


def term_arrays(P: Polynomial) -> tuple[np.ndarray, np.ndarray]:
    """Exponent matrix and coefficient vector of all terms of P.

    Returns ``(A, c)`` with A of shape (K, n) holding exponent vectors (a zero
    row for the constant term of a general polynomial) and c of shape (K,)
    the matching complex coefficients.  Row order is deterministic: ascending
    degree, then lexicographic in the stored canonical indices.  The arrays
    are built once per polynomial, cached on it and read-only.
    """
    return P._arrays


def monomials(theta: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """e^{i theta . alpha} for points theta of shape (..., d) and frequency rows
    alpha of ``freqs`` (K, d), shape (..., K): ``monomials(theta, A) @ c``
    evaluates P at e^{i theta}, and real frequencies log n with theta = -t
    evaluate a Dirichlet polynomial on the line s = it."""
    return np.exp(1j * (theta @ freqs.T))


def _check_mc_budget(samples: int, terms: int) -> None:
    """The refusal of a Monte Carlo run of ``samples`` over ``terms`` terms
    past ``MC_TERM_EVALS_MAX`` term evaluations."""
    check_entries(samples * terms, MC_TERM_EVALS_MAX, f"a Monte Carlo run of {samples} samples over {terms} terms",
                  "term evaluations")


def l1_torus_norm_mc(
    P: Polynomial,
    samples: int,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo estimate of the L^1 norm of P on the torus.

    Draws independent uniform phases per coordinate and averages |P|.  Batch
    i of ``MC_BATCH`` samples (the last one partial) draws from the stream
    ``numpy.random.SeedSequence(seed, spawn_key=(i,))``, the i-th child of
    ``SeedSequence(seed).spawn``, so the estimate is reproducible for a fixed
    seed.  The batches run one at a time, and their sums add up exactly
    (``Fraction``) and round once, to the ``math.fsum`` of the per-batch
    sums, so memory does not grow with ``samples``.  Each batch is evaluated
    at the points e^{i theta} by the kernel of :func:`evaluate_points`, whose
    values do not depend on its chunk size ``EVAL_CHUNK_ELEMENTS``.  The
    coefficients are divided by the largest modulus before evaluation and
    the mean and stderr are scaled back, so neither |P|^2 nor the variance
    overflows or underflows unless the result does.  A run of more than
    ``MC_TERM_EVALS_MAX`` samples x terms is refused with
    BudgetExceededError before the first batch.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    A, c = term_arrays(P)
    _check_mc_budget(samples, len(c))
    if len(c) == 0:
        return MCEstimate(0.0, 0.0, samples)
    cmax = float(np.abs(c).max())
    cn = c / cmax
    F = _factor_table(A)

    def batch_sums(i: int) -> tuple[Fraction, Fraction]:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        theta = rng.random((min(MC_BATCH, samples - i * MC_BATCH), P.n)) * (2.0 * math.pi)
        # e^{i theta} written straight into the table: the same bits as np.exp(1j * theta).
        table = np.empty((P.n + 1, len(theta)), dtype=np.complex128)
        np.cos(theta.T, out=table.real[:-1])
        np.sin(theta.T, out=table.imag[:-1])
        table[-1] = 1.0
        av = np.abs(_table_values(F, cn, table))
        return Fraction(float(av.sum())), Fraction(float((av * av).sum()))

    s1 = s2 = Fraction(0)
    for i in range(-(-samples // MC_BATCH)):
        a, b = batch_sums(i)
        s1, s2 = s1 + a, s2 + b
    s1, s2 = float(s1), float(s2)
    mean = s1 / samples
    var = max(s2 - s1 * s1 / samples, 0.0) / (samples - 1)
    return MCEstimate(mean * cmax, math.sqrt(var / samples) * cmax, samples)


# ----------------------------------------------------------------------
# Generation and counting
# ----------------------------------------------------------------------

def dimension_count(m: int, n: int) -> int:
    """Number of degree-m monomials in n variables: C(n + m - 1, m), exact."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return math.comb(n + m - 1, m)


def random_homogeneous(
    m: int,
    n: int,
    distribution: str = "complex-gaussian",
    seed: int = 0,
) -> HomogeneousPolynomial:
    """Random polynomial with a dense coefficient table over J(m, n).

    Distributions: ``complex-gaussian`` (standard complex normal),
    ``uniform-disc`` (uniform on the closed unit disc), ``random-signs``
    (independent +-1).  Deterministic for a fixed seed.  Refused with
    BudgetExceededError before enumerating when the K = C(n + m - 1, m)
    index tuples and the (K, n) exponent matrix, K (m + n) entries, exceed
    ``DENSE_ENTRIES_MAX``.
    """
    if distribution not in RANDOM_DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}; choose from {RANDOM_DISTRIBUTIONS}")
    K = dimension_count(m, n)
    check_entries(K * (m + n), DENSE_ENTRIES_MAX, f"J({m}, {n}) with {K} terms", "index and exponent entries")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    J = enumerate_J(m, n)
    if distribution == "complex-gaussian":
        values = (rng.standard_normal(K) + 1j * rng.standard_normal(K)) / math.sqrt(2)
    elif distribution == "uniform-disc":
        radii = np.sqrt(rng.random(K))
        values = radii * np.exp(2j * math.pi * rng.random(K))
    else:
        values = (rng.integers(0, 2, K) * 2 - 1).astype(np.complex128)
    return HomogeneousPolynomial(m, n, dict(zip(J, values.tolist())))


# ----------------------------------------------------------------------
# Majorants and arithmetic helpers
# ----------------------------------------------------------------------

def majorant_sum(P: Polynomial, r: float) -> float:
    """sup over the polydisc of radius r of the coefficient majorant sum.

    Equals |a0| + sum_m r^m * (coefficient sum of the degree-m part): the
    majorant sum_alpha |a_alpha z^alpha| is maximized on the distinguished
    boundary |z_k| = r by positivity.  Computed as one exactly rounded fsum
    over all terms.
    """
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    A, c = term_arrays(P)
    # Python abs, not np.abs: the two differ in the last bit on some complex
    # values, and lift transport compares this sum exactly.
    return math.fsum(abs(a) * r**d for a, d in zip(c.tolist(), A.sum(axis=1).tolist()))


def scale(P: Polynomial, factor: complex):
    """The polynomial ``factor * P``."""
    lam = complex(factor)
    if isinstance(P, HomogeneousPolynomial):
        return HomogeneousPolynomial(P.m, P.n, {j: lam * c for j, c in P.coeffs.items()})
    return GeneralPolynomial(
        P.n,
        {m: scale(part, lam) for m, part in P.parts.items()},
        lam * P.a0,
    )


# ----------------------------------------------------------------------
# JSON wire format (exponent vectors on the wire, canonical indices inside)
# ----------------------------------------------------------------------

def to_json_dict(P: Polynomial) -> dict:
    """Serializable dict for a polynomial.

    Homogeneous: ``{"kind": "homogeneous", "m": ..., "n": ..., "terms":
    [{"alpha": [...], "re": ..., "im": ...}, ...]}``.  General wraps a list of
    homogeneous parts plus ``"a0"``.
    """
    if isinstance(P, HomogeneousPolynomial):
        terms = [
            {"alpha": list(index_to_exponent(j, P.n)), "re": c.real, "im": c.imag}
            for j, c in sorted(P.coeffs.items())
        ]
        return {"kind": "homogeneous", "m": P.m, "n": P.n, "terms": terms}
    return {
        "kind": "general",
        "n": P.n,
        "a0": {"re": P.a0.real, "im": P.a0.imag},
        "parts": [to_json_dict(part) for part in P.parts.values()],
    }


_REQUIRED = object()
_JSON_TYPES = {"string": str, "number": (int, float), "integer": (int, float), "list": list, "object": Mapping}


def _json_field(data, key: str, kind: str, default=_REQUIRED):
    """``data[key]`` for a parsed JSON object, checked to be a ``kind`` from
    ``_JSON_TYPES`` ("integer": a number of integral value, returned as int).
    A wrong type, or a missing key without a ``default``, raises ValueError
    naming the key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a JSON object with key {key!r}, got {type(data).__name__}")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"JSON object is missing key {key!r}")
        return default
    return _json_typed(data[key], key, kind)


def _json_typed(value, key: str, kind: str):
    ok = isinstance(value, _JSON_TYPES[kind]) and not isinstance(value, bool)
    if ok and kind == "integer":
        ok = isinstance(value, int) or value.is_integer()
    if not ok:
        raise ValueError(f"JSON key {key!r} must be of type {kind}, got {value!r}")
    return int(value) if kind == "integer" else value


def _json_complex(data) -> complex:
    return complex(_json_field(data, "re", "number"), _json_field(data, "im", "number", 0.0))


def from_json_dict(data: Mapping) -> Polynomial:
    """Inverse of :func:`to_json_dict`; a missing key or a value of the wrong
    JSON type raises ValueError naming the key."""
    kind = _json_field(data, "kind", "string")
    if kind == "homogeneous":
        m, n = _json_field(data, "m", "integer"), _json_field(data, "n", "integer")
        coeffs: dict[MultiIndex, complex] = {}
        for term in _json_field(data, "terms", "list"):
            alpha = tuple(_json_typed(a, "alpha", "integer") for a in _json_field(term, "alpha", "list"))
            if len(alpha) != n:
                raise ValueError(f"exponent vector {alpha} has length {len(alpha)}, expected {n}")
            if sum(alpha) != m:
                raise ValueError(f"exponent vector {alpha} has degree {sum(alpha)}, expected {m}")
            j = exponent_to_index(alpha)
            coeffs[j] = coeffs.get(j, 0j) + _json_complex(term)
        return HomogeneousPolynomial(m, n, coeffs)
    if kind == "general":
        n = _json_field(data, "n", "integer")
        parts: dict[int, HomogeneousPolynomial] = {}
        for pd in _json_field(data, "parts", "list", []):
            part = from_json_dict(pd)
            if not isinstance(part, HomogeneousPolynomial):
                raise ValueError("parts of a general polynomial must be homogeneous")
            parts[part.m] = part
        return GeneralPolynomial(n, parts, _json_complex(_json_field(data, "a0", "object", {"re": 0.0})))
    raise ValueError(f"unknown polynomial kind {kind!r}")
