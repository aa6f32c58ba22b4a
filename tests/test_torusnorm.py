import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polybh.polyalgebra import (
    RANDOM_DISTRIBUTIONS,
    GeneralPolynomial,
    HomogeneousPolynomial,
    coeff_norm,
    evaluate,
    monomials,
    random_homogeneous,
    scale,
    term_arrays,
)
from polybh.torusnorm import (
    BudgetExceededError,
    _grid_values,
    as_dense_form,
    certified_upper,
    sup_certified,
    sup_lower,
    sup_multilinear,
)

Z1Z2 = HomogeneousPolynomial(2, 2, {(1, 2): 1.0})
Z1_PLUS_Z2 = HomogeneousPolynomial(1, 2, {(1,): 1.0, (2,): 1.0})
SQUARE = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0})


class TestSupLower:
    def test_unimodular_monomial(self):
        est = sup_lower(Z1Z2, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)

    def test_alignment(self):
        est = sup_lower(Z1_PLUS_Z2, seed=0)
        assert est.lower == pytest.approx(2.0, abs=1e-9)

    def test_square_of_sum(self):
        est = sup_lower(SQUARE, seed=0)
        assert est.lower == pytest.approx(4.0, abs=1e-7)

    def test_argmax_witnesses_value(self):
        P = random_homogeneous(3, 3, "complex-gaussian", seed=6)
        est = sup_lower(P, seed=2)
        val = abs(evaluate(P, np.exp(1j * est.argmax)))
        assert abs(val - est.lower) <= 1e-12 * max(1.0, est.lower)

    def test_zero_polynomial(self):
        est = sup_lower(HomogeneousPolynomial(2, 2, {}), seed=0)
        assert est.lower == 0.0

    def test_scaling_exact_same_seed(self):
        P = random_homogeneous(3, 2, "complex-gaussian", seed=9)
        base = sup_lower(P, seed=5).lower
        assert sup_lower(scale(P, 2.0), seed=5).lower == 2.0 * base
        assert sup_lower(scale(P, 1.7), seed=5).lower == pytest.approx(1.7 * base, rel=1e-12)

    def test_monotone_in_budget(self):
        P = random_homogeneous(3, 2, "complex-gaussian", seed=9)
        v_small = sup_lower(P, starts=4, iterations=50, seed=5).lower
        v_more_iters = sup_lower(P, starts=4, iterations=200, seed=5).lower
        v_more_starts = sup_lower(P, starts=8, iterations=200, seed=5).lower
        assert v_small <= v_more_iters * (1 + 1e-15)
        assert v_more_iters <= v_more_starts * (1 + 1e-15)

    def test_never_exceeds_coefficient_sum(self):
        for seed in range(20):
            P = random_homogeneous(3, 3, "uniform-disc", seed=seed)
            est = sup_lower(P, seed=seed)
            assert est.lower <= coeff_norm(P, 1) * (1 + 1e-9)

    def test_interior_points_never_beat_torus(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            P = random_homogeneous(3, 3, "complex-gaussian", seed=seed)
            est = sup_lower(P, seed=seed)
            for _ in range(30):
                z = np.sqrt(rng.random(3)) * np.exp(2j * math.pi * rng.random(3)) * 0.999
                assert abs(evaluate(P, z)) <= est.lower * (1 + 1e-9)

    def test_general_polynomial(self):
        G = GeneralPolynomial(2, {1: Z1_PLUS_Z2}, a0=1.0)
        est = sup_lower(G, seed=0)
        assert est.lower == pytest.approx(3.0, abs=1e-8)

    def test_deterministic(self):
        P = random_homogeneous(2, 4, "complex-gaussian", seed=3)
        assert sup_lower(P, seed=11).lower == sup_lower(P, seed=11).lower

    def test_iterations_validation(self):
        # A negative count used to run as 0; 0 still evaluates every start.
        with pytest.raises(ValueError, match="iterations"):
            sup_lower(Z1_PLUS_Z2, iterations=-5)
        assert sup_lower(Z1_PLUS_Z2, iterations=0).lower == pytest.approx(2.0)


class TestSupCertified:
    def test_single_variable(self):
        est = sup_certified(HomogeneousPolynomial(1, 1, {(1,): 1.0}), 0.1)
        assert est.lower == pytest.approx(1.0, abs=1e-12)
        h_eff = est.method["h_eff"]
        assert est.upper <= 1.0 / (1.0 - h_eff / 2) + 1e-12

    def test_bernstein_window(self):
        est = sup_certified(Z1_PLUS_Z2, 0.01)
        assert est.lower <= 2.0 + 1e-12
        assert est.upper - 2.0 <= 2.0 * 0.01 / (1.0 - 0.01) + 1e-9
        assert est.upper >= 2.0 - 1e-12

    def test_bracket_against_ascent(self):
        for seed in range(25):
            m, n = 2 + seed % 3, 2 + seed % 2
            P = random_homogeneous(m, n, "complex-gaussian", seed=seed)
            low = sup_lower(P, seed=seed).lower
            est = sup_certified(P, 0.9 / (n * m))
            assert est.upper >= low * (1 - 1e-12)
            assert est.lower <= est.upper

    def test_gap_shrinks_with_refinement(self):
        P = random_homogeneous(2, 2, "complex-gaussian", seed=3)
        gaps = [sup_certified(P, h).upper - sup_certified(P, h).lower for h in (0.2, 0.1, 0.05)]
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sup_certified(SQUARE, 0.5)  # needs h < 2/(2*2)
        with pytest.raises(ValueError):
            sup_certified(SQUARE, -1.0)

    def test_budget_cap(self):
        P = random_homogeneous(2, 3, "complex-gaussian", seed=1)
        with pytest.raises(BudgetExceededError):
            sup_certified(P, 0.01, max_evaluations=1000)

    def test_constant_polynomial_exact(self):
        G = GeneralPolynomial(2, {}, a0=2 - 1j)
        est = sup_certified(G, 0.3)
        assert est.lower == est.upper == pytest.approx(abs(2 - 1j))

    def test_inactive_variables_skipped(self):
        # P depends only on z1; the grid should not blow up with n.
        P = HomogeneousPolynomial(2, 6, {(1, 1): 1.0})
        est = sup_certified(P, 0.05, max_evaluations=10_000)
        assert est.method["evaluations"] <= 200
        assert est.lower == pytest.approx(1.0, abs=1e-12)


SMALL_PAIRS = [(m, n) for m in range(1, 10) for n in range(1, 10) if m * n <= 9]


class TestFFTGrid:
    @given(st.sampled_from(SMALL_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_grid_values_match_direct_sum(self, pair, dist, seed, extra):
        m, n = pair
        L = m + extra  # every exponent is at most m < L: no aliasing
        assume(L**n <= 100_000)
        P = random_homogeneous(m, n, dist, seed=seed)
        A, c = term_arrays(P)
        fft = _grid_values(A, c, L).ravel()
        axes = np.meshgrid(*[np.arange(L) * (2 * math.pi / L)] * n, indexing="ij")
        nodes = np.stack(axes, axis=-1).reshape(-1, n)
        direct = monomials(nodes, A) @ c
        assert np.abs(fft - direct).max() <= 1e-12 * np.abs(c).sum()

    @given(st.sampled_from(SMALL_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_upper_brackets_ascent(self, pair, dist, seed):
        m, n = pair
        P = random_homogeneous(m, n, dist, seed=seed)
        try:
            est = sup_certified(P, 1.9 / (n * m), max_evaluations=2_000_000)
        except BudgetExceededError:
            return  # degree-one forms in six or more variables: grid too large here
        low = sup_lower(P, starts=4, iterations=80, seed=seed % 1000).lower
        assert est.upper >= low * (1 - 1e-12)
        assert est.lower == pytest.approx(abs(evaluate(P, np.exp(1j * est.argmax))), rel=1e-12)


class TestGridSlice:
    # Homogeneous P are evaluated on the slice theta_1 = 0 of the first active
    # axis; its maximum must be the maximum of the whole lattice.
    @given(st.sampled_from([(m, n) for m, n in SMALL_PAIRS if n <= 4]),
           st.sampled_from(RANDOM_DISTRIBUTIONS), st.integers(0, 2**32 - 1),
           st.floats(0.7, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_slice_max_is_lattice_max(self, pair, dist, seed, frac):
        m, n = pair
        P = random_homogeneous(m, n, dist, seed=seed)
        A, c = term_arrays(P)
        active = np.flatnonzero(A.max(axis=0))
        est = sup_certified(P, frac * 2 / (n * A.max()))
        L = est.method["grid_points_per_axis"]
        lattice = np.abs(_grid_values(A[:, active], c, L))
        assert est.method["evaluations"] == L ** (len(active) - 1)
        assert est.lower == pytest.approx(lattice.max(), rel=1e-12)
        assert est.argmax[active[0]] == 0.0
        assert abs(evaluate(P, np.exp(1j * est.argmax))) == pytest.approx(est.lower, rel=1e-12)

    @given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_general_polynomial_keeps_the_lattice(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        parts = {k: random_homogeneous(k, n, "complex-gaussian", seed=seed + k)
                 for k in range(1, degree + 1)}
        G = GeneralPolynomial(n, parts, a0=complex(*rng.standard_normal(2)))
        A, c = term_arrays(G)
        est = sup_certified(G, 1.9 / (n * A.max()))
        L = est.method["grid_points_per_axis"]
        active = np.flatnonzero(A.max(axis=0))
        axes = np.meshgrid(*[np.arange(L) * (2 * math.pi / L)] * len(active), indexing="ij")
        nodes = np.stack(axes, axis=-1).reshape(-1, len(active))
        direct = np.abs(monomials(nodes, A[:, active]) @ c)
        assert est.method["evaluations"] == L ** len(active)
        assert est.lower == pytest.approx(direct.max(), rel=1e-12)


class TestCertifiedUpper:
    def test_bounded_by_coefficient_sum(self):
        for seed in range(10):
            P = random_homogeneous(2, 5, "complex-gaussian", seed=seed)
            assert certified_upper(P) <= coeff_norm(P, 1) * (1 + 1e-12)

    def test_is_a_true_upper_bound(self):
        for seed in range(10):
            P = random_homogeneous(3, 2, "complex-gaussian", seed=seed)
            assert certified_upper(P) >= sup_lower(P, seed=seed).lower * (1 - 1e-12)


class TestSupMultilinear:
    def test_rank_one(self):
        T = np.zeros((2, 2), dtype=complex)
        T[0, 0] = 1.0
        est = sup_multilinear(T, seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)

    def test_identity_alignment(self):
        T = np.eye(3, dtype=complex)
        assert sup_multilinear(T, seed=0).lower == pytest.approx(3.0, abs=1e-10)

    def test_dominates_diagonal_restriction(self):
        from polybh.polarization import polarize

        for seed in range(8):
            P = random_homogeneous(3, 3, "complex-gaussian", seed=seed)
            diag = sup_lower(P, seed=seed).lower
            full = sup_multilinear(polarize(P).to_dense(), seed=seed).lower
            assert full >= diag * (1 - 1e-9)

    def test_linear_form(self):
        T = np.array([1.0, 2.0, 2.0], dtype=complex)
        assert sup_multilinear(T, seed=1).lower == pytest.approx(5.0)

    def test_dict_input(self):
        est = sup_multilinear({(1, 1): 1.0, (2, 2): 1.0}, seed=0)
        assert est.lower == pytest.approx(2.0, abs=1e-10)

    def test_zero_form(self):
        assert sup_multilinear(np.zeros((2, 2), dtype=complex)).lower == 0.0

    @pytest.mark.parametrize("starts", [0, -1])
    def test_starts_validation(self, starts):
        # With no start the "lower bound" used to come out as -scale.
        with pytest.raises(ValueError, match="starts"):
            sup_multilinear(np.eye(2, dtype=complex), starts=starts)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterations_validation(self, iterations):
        # With no sweep the lower bound used to come out as 0.
        with pytest.raises(ValueError, match="iterations"):
            sup_multilinear(np.eye(2, dtype=complex), iterations=iterations)

    def test_as_dense_form_validation(self):
        with pytest.raises(ValueError):
            as_dense_form(np.zeros((2, 3)))
        with pytest.raises(TypeError):
            as_dense_form("nonsense")
        with pytest.raises(ValueError):
            as_dense_form({(1, 3): 1.0}, m=2, n=2)
