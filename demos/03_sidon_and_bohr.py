#!/usr/bin/env python3
"""Sidon constants of monomial systems and the n-dimensional Bohr radius.

S(m, n) compares the coefficient sum of an m-homogeneous polynomial with its
sup norm.  Two upper bounds compete: Cauchy-Schwarz (dimension counting) and
the hypercontractive route, which wins once log n is large against m.  The
Bohr radius K_n then follows from a series certificate, giving
K_n >= b(n) sqrt(log n / n) with b(n) increasing past 1/2 on this grid.
"""

import math

from polybh import (
    bohr_estimate_small,
    bohr_lower,
    bohr_upper,
    sidon_lower_search,
    sidon_upper_hyper,
    sidon_upper_trivial,
)
from polybh.sidonbohr import bohr_certificate_value, sidon_crossover_n

# ----------------------------------------------------------------------
# 1. The two upper bounds and their crossover.
# ----------------------------------------------------------------------
print("crossover dimension where the hypercontractive bound wins:")
for m in range(2, 7):
    print(f"  m={m}: n >= {sidon_crossover_n(m)}  (e^m = {math.e**m:.0f})")

print("\nS(2, n) bounds: the search's certified lower bound, where the slice lattice fits:")
print("n     lower     hyper      trivial")
for n in range(2, 7):
    sb = sidon_lower_search(2, n, budget=25, seed=5)
    print(f"{n:<5} {sb.lower_search:<9.4f} {sb.upper_hyper:<10.4f} {sb.upper_trivial:.4f}")

# ----------------------------------------------------------------------
# 2. Bohr radius lower bounds by the series certificate: largest r with
#    sum_m r^m S_hat(m, n) <= 1/2, which forces every coefficient majorant
#    on r D^n below the sup norm.
# ----------------------------------------------------------------------
print("\nn          K_lower      K_upper      b(n) = K sqrt(n/log n)")
for k in (2, 4, 6, 8, 10, 12):
    rep = bohr_lower(10**k)
    print(f"10^{k:<7} {rep.lower:<12.4e} {rep.upper:<12.4e} {rep.b_lower:.4f}")
rep = bohr_lower(10**12)
recheck = bohr_certificate_value(10**12, rep.lower, rep.M_used)
print(f"certificate at n = 10^12 recomputed in high precision: {recheck:.12f} <= 0.5")

# ----------------------------------------------------------------------
# 3. One variable: the classical radius is exactly 1/3, pinned by the disc
#    automorphisms (a - z)/(1 - a z) as a -> 1.
# ----------------------------------------------------------------------
bracket = bohr_estimate_small()
print(f"\nK_1 bracketed by the extremal family: [{bracket.r_pass}, {bracket.r_fail}] "
      f"(1/3 = {1 / 3:.6f})")
print(f"upper bound min(1/3, 2 sqrt(log n / n)) at n = 2: {bohr_upper(2):.6f}")
