#!/usr/bin/env python3
"""Tour of the hypercontractive coefficient inequality.

For an m-homogeneous polynomial P on C^n the Bohnenblust-Hille inequality
bounds the ell^{2m/(m+1)} norm of the coefficients by a constant independent
of the dimension times sup |P| over the unit polydisc.  This script tabulates
the classical constants next to the hypercontractive one, then verifies the
inequality on hand-picked and random polynomials.
"""

import math

from polybh import (
    HomogeneousPolynomial,
    bh_constant_hyper,
    bh_constant_polarization,
    bh_constant_queffelec,
    bh_exponent,
    coeff_norm,
    random_homogeneous,
    sup_certified,
    sup_lower,
    verify_bh,
)

# ----------------------------------------------------------------------
# 1. The constants.  The hypercontractive bound loses at small m but grows
#    like sqrt(2)^m, while the polarization-based constants grow like m^{m/2}.
# ----------------------------------------------------------------------
print("m   exponent   hyper        queffelec      polarization")
for m in range(2, 13):
    print(f"{m:<3} {float(bh_exponent(m)):<10.4f} {bh_constant_hyper(m):<12.4f} "
          f"{bh_constant_queffelec(m):<14.4f} {bh_constant_polarization(m):.4f}")

root = bh_constant_hyper(200) ** (1 / 200)
print(f"\nhyper(200)^(1/200) = {root:.4f}  (heads to sqrt(2) = {math.sqrt(2):.4f})")

# ----------------------------------------------------------------------
# 2. A worked example: P = (z1 + z2)^2 has coefficients (1, 2, 1), so the
#    ell^{4/3} norm is (2 + 2^{4/3})^{3/4} ~ 3.0999, while sup |P| = 4.
# ----------------------------------------------------------------------
P = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0})
print(f"\nP = (z1+z2)^2: lhs = {coeff_norm(P, bh_exponent(2)):.6f}")
est = sup_lower(P, seed=1)
print(f"ascent sup estimate  = {est.lower:.6f} at theta = {est.argmax.round(3)}")
bracket = sup_certified(P, grid_step=0.01)
print(f"certified bracket    = [{bracket.lower:.6f}, {bracket.upper:.6f}]")
report = verify_bh(P, seed=1)  # the ascent under certified_upper
print(f"verify_bh bracket    = [{report.supnorm.lower:.6f}, {report.supnorm.upper:.6f}]")
print(f"ratio = {report.ratio:.4f} <= {report.rhs_constant:.4f}: {report.verdict}")

# ----------------------------------------------------------------------
# 3. Random campaign.  Ratios stay far below the constant; the extremal
#    behaviour only emerges at dimensions far beyond desk scale.
# ----------------------------------------------------------------------
print("\nrandom campaign (worst ratio per (m, n)):")
for m in (2, 3, 4):
    for n in (2, 4, 6):
        worst = 0.0
        for seed in range(25):
            Q = random_homogeneous(m, n, "complex-gaussian", seed=seed)
            worst = max(worst, verify_bh(Q, starts=4, iterations=80, seed=seed).ratio)
        print(f"  m={m} n={n}: worst ratio {worst:.4f} vs constant {bh_constant_hyper(m):.3f}")
