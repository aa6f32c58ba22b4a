"""polybh: coefficient inequalities for polynomials on the polydisc.

A numpy-backed library for numerically exploring the Bohnenblust-Hille
inequality and its hypercontractive constant, the proof chain behind it
(Blei and Bayart bounds, polarization, Harris' estimate), Sidon constants
S(m, n) and S(N), the n-dimensional Bohr radius, and Dirichlet polynomials
via the Bohr lift.  See the module docstrings for the mathematics and
``polybh.cli`` for the command-line front end.
"""

from .indexcore import (
    canonical,
    enumerate_J,
    exponent_to_index,
    index_to_exponent,
    multiplicity,
    remove_coordinate,
)
from .polyalgebra import (
    GeneralPolynomial,
    HomogeneousPolynomial,
    MCEstimate,
    coeff_norm,
    dimension_count,
    evaluate,
    l1_torus_norm_mc,
    l2_torus_norm,
    majorant_sum,
    random_homogeneous,
)
from .polarization import (
    SymmetricForm,
    check_harris,
    evaluate_form,
    harris_factor,
    polarize,
    restrict_diagonal,
)
from .torusnorm import (
    BudgetExceededError,
    SupNormEstimate,
    certified_upper,
    l4_torus_norm,
    sup_certified,
    sup_lower,
    sup_lower_each,
    sup_multilinear,
)
from .bhverify import (
    InequalityReport,
    bh_constant_hyper,
    bh_constant_polarization,
    bh_constant_queffelec,
    bh_exponent,
    check_bayart,
    check_blei,
    check_proof_step,
    davie_kaijser_constant,
    verify_bh,
    verify_bh_batch,
    verify_bh_multilinear,
)
from .sidonbohr import (
    BohrRadiusReport,
    SidonBounds,
    bohr_estimate_small,
    bohr_lower,
    bohr_upper,
    check_wiener,
    sidon_lower_search,
    sidon_upper_hyper,
    sidon_upper_trivial,
)
from .dirichlet import (
    DirichletPolynomial,
    asymptotic_formula,
    bcq_partial_sum,
    bohr_lift,
    dirichlet_sup,
    factorize,
    sidon_N_bounds,
)

__version__ = "0.1.0"
