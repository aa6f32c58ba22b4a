#!/usr/bin/env python3
"""Dirichlet polynomials through the Bohr lift.

Substituting one torus variable per prime, z_j = p_j^{-s}, turns a Dirichlet
polynomial sum a_n n^{-s} into an ordinary polynomial; rational independence
of the log-primes equates the line sup with the torus sup.  The Sidon
constant S(N) of {log n : n <= N} is then accessible numerically: exactly at
tiny N, by its asymptotic shape sqrt(N) exp{(-1/sqrt 2) sqrt(log N loglog N)}
for large N.
"""

import math

import numpy as np

from polybh import (
    DirichletPolynomial,
    asymptotic_formula,
    bcq_partial_sum,
    bohr_lift,
    dirichlet_sup,
    factorize,
    sidon_N_bounds,
)
from polybh.dirichlet import dirichlet_l1, evaluate_line

# ----------------------------------------------------------------------
# 1. The lift itself.
# ----------------------------------------------------------------------
Q = DirichletPolynomial(12, {1: 0.5, 2: 1.0, 6: -2.0, 12: 1.0j})
lift = bohr_lift(Q)
print("Q coefficients:", dict(Q.coeffs))
print("primes used:", lift.primes)
for nn, alpha in lift.monomial_map.items():
    print(f"  n = {nn:<3} -> monomial exponents {alpha}")
print("coefficient sum preserved:", dirichlet_l1(Q) == sum(
    abs(c) for part in lift.poly.parts.values() for c in part.coeffs.values()
) + abs(lift.poly.a0))

# ----------------------------------------------------------------------
# 2. Sup norms: the torus search dominates any finite scan of |Q(it)|.
# ----------------------------------------------------------------------
est = dirichlet_sup(Q, seed=3)
print(f"\nsup |Q(it)| via torus ascent: {est.lower:.6f}")
scan = max(abs(evaluate_line(Q, t)) for t in np.linspace(0.0, 200.0, 4001))
print(f"line scan of |Q(it)| for t in [0, 200]: {scan:.6f}")
print(f"|Q(i * 17.3)| = {abs(evaluate_line(Q, 17.3)):.6f}")

# ----------------------------------------------------------------------
# 3. Sidon constants at tiny N: S(2) = S(3) = 1 (phases decouple), while
#    S(4) jumps because 2 and 4 share the prime 2.
# ----------------------------------------------------------------------
print("\nbrute-force S(N) lower bounds (certified denominators):")
for N in (2, 3, 4, 5):
    sb = sidon_N_bounds(N)
    print(f"  S({N}) >= {sb.lower:.4f}   [{sb.method['kind']}]")
witness = DirichletPolynomial(4, {1: 1.0, 2: math.sqrt(2) * 1j, 4: 1.0})
print(f"classic witness 1 + sqrt(2) i 2^(-s) + 4^(-s): ratio = "
      f"{(2 + math.sqrt(2)) / math.sqrt(6):.4f}")

# ----------------------------------------------------------------------
# 4. The asymptotic shape and the weighted coefficient sums that encode
#    absolute convergence on the 1/2-line.
# ----------------------------------------------------------------------
print("\nN          sqrt(N)      shape(c = -1/sqrt2)   ratio")
for N in (10**2, 10**4, 10**8, 10**16):
    shape = asymptotic_formula(N, -1 / math.sqrt(2))
    print(f"10^{int(math.log10(N)):<8} {math.sqrt(N):<12.4g} {shape:<21.6g} "
          f"{shape / math.sqrt(N):.3e}")

rng = np.random.default_rng(1)
R = DirichletPolynomial(50, {int(n): complex(rng.standard_normal()) for n in range(1, 51)})
for c in (0.0, 0.5, 1 / math.sqrt(2), 1.0):
    print(f"weighted sum at c = {c:.4f}: {bcq_partial_sum(R, c):.6f}")
