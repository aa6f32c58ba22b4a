"""Multi-index combinatorics for monomials on C^n.

A multi-index is a tuple ``i = (i_1, ..., i_m)`` of variable numbers, each in
``1..n`` (everything here is 1-based).  Two multi-indices are equivalent when
one is a permutation of the other; every class has a unique nondecreasing
representative, and the set of those representatives is denoted J(m, n).  The
multiplicity of ``i`` is the size of its class, ``m! / prod_k r_k!`` with
``r_k`` the repetition count of the value ``k`` in ``i``.

Nondecreasing indices are in bijection with exponent vectors: the index
``(1, 2, 2)`` over n = 3 variables corresponds to ``alpha = (1, 2, 0)``, i.e.
the monomial ``z_1 z_2^2``.

All values are plain tuples, all functions are pure, and all integer
arithmetic is exact (Python integers do not overflow, so multiplicities and
binomials are never silently truncated).
"""

from __future__ import annotations

import math
from itertools import combinations_with_replacement
from typing import Sequence

MultiIndex = tuple[int, ...]
ExponentVector = tuple[int, ...]

__all__ = [
    "MultiIndex",
    "ExponentVector",
    "validate_index",
    "enumerate_J",
    "canonical",
    "multiplicity",
    "remove_coordinate",
    "index_to_exponent",
    "exponent_to_index",
]


def validate_index(i: Sequence[int], n: int) -> MultiIndex:
    """Check that ``i`` is a valid multi-index over ``1..n`` and return it as a tuple."""
    idx = tuple(int(v) for v in i)
    if len(idx) < 1:
        raise ValueError("multi-index must have length m >= 1")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    for v in idx:
        if not 1 <= v <= n:
            raise ValueError(f"index entry {v} outside 1..{n}")
    return idx


def enumerate_J(m: int, n: int) -> list[MultiIndex]:
    """All of J(m, n), the nondecreasing m-tuples over ``1..n``, as a list in
    lexicographic order.

    The count is the number of degree-m monomials in n variables,
    C(n + m - 1, m).
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return list(combinations_with_replacement(range(1, n + 1), m))


def canonical(i: Sequence[int]) -> MultiIndex:
    """The nondecreasing representative of the permutation class of ``i``."""
    return tuple(sorted(i))


def multiplicity(i: Sequence[int]) -> int:
    """Number of distinct rearrangements of ``i``: m! / prod_k (count of k)!.

    Exact integer arithmetic; the result divides m! so it is always an
    integer.
    """
    m = len(i)
    if m < 1:
        raise ValueError("multi-index must have length m >= 1")
    counts: dict[int, int] = {}
    for v in i:
        counts[v] = counts.get(v, 0) + 1
    result = math.factorial(m)
    for r in counts.values():
        result //= math.factorial(r)
    return result


def remove_coordinate(i: Sequence[int], k: int) -> MultiIndex:
    """Drop the k-th entry (1-based) of ``i``, yielding an index of degree m - 1."""
    m = len(i)
    if m < 2:
        raise ValueError("cannot remove a coordinate from an index of length 1")
    if not 1 <= k <= m:
        raise ValueError(f"position k={k} outside 1..{m}")
    return tuple(i[: k - 1]) + tuple(i[k:])


def index_to_exponent(j: Sequence[int], n: int) -> ExponentVector:
    """Exponent vector of the monomial z_{j_1} ... z_{j_m} in n variables."""
    idx = validate_index(j, n)
    alpha = [0] * n
    for v in idx:
        alpha[v - 1] += 1
    return tuple(alpha)


def exponent_to_index(alpha: Sequence[int]) -> MultiIndex:
    """Nondecreasing multi-index of the monomial z^alpha.

    Inverse of :func:`index_to_exponent`; requires ``|alpha| >= 1``.
    """
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    degree = sum(alpha)
    if degree < 1:
        raise ValueError("exponent vector must have degree >= 1")
    out: list[int] = []
    for var, a in enumerate(alpha, start=1):
        out.extend([var] * a)
    return tuple(out)
