import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybh.bhverify import (
    bh_constant_hyper,
    bh_constant_polarization,
    bh_constant_queffelec,
    bh_exponent,
    check_bayart,
    check_blei,
    check_proof_step,
    davie_kaijser_constant,
    proof_step_constant,
    verify_bh,
    verify_bh_batch,
    verify_bh_multilinear,
)
from polybh.indexcore import multiplicity
from polybh.polarization import polarize
from polybh.polyalgebra import (
    RANDOM_DISTRIBUTIONS,
    REL_TOL,
    HomogeneousPolynomial,
    coeff_norm,
    random_homogeneous,
    scale,
)
from polybh import bhverify, torusnorm
from polybh.torusnorm import BudgetExceededError, certified_upper, sup_certified, sup_lower, sup_multilinear

Z1Z2 = HomogeneousPolynomial(2, 2, {(1, 2): 1.0})
SQUARE = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0})


class TestExponent:
    def test_littlewood(self):
        assert bh_exponent(2) == Fraction(4, 3)

    def test_degree_one(self):
        assert bh_exponent(1) == 1

    def test_degree_three(self):
        assert bh_exponent(3) == Fraction(3, 2)

    def test_increases_to_two(self):
        values = [bh_exponent(m) for m in range(1, 30)]
        assert all(a < b < 2 for a, b in zip(values, values[1:]))


class TestConstants:
    def test_hyper_values(self):
        assert bh_constant_hyper(2) == pytest.approx(4.0)
        assert bh_constant_hyper(3) == pytest.approx((1.5**2) * math.sqrt(3) * 2, rel=1e-12)

    def test_hyper_domain(self):
        with pytest.raises(ValueError):
            bh_constant_hyper(1)

    def test_hyper_euler_bound(self):
        for m in range(2, 60):
            assert bh_constant_hyper(m) <= math.e * math.sqrt(m) * math.sqrt(2) ** (m - 1)

    def test_davie_kaijser(self):
        assert davie_kaijser_constant(3) == pytest.approx(2.0)
        assert davie_kaijser_constant(1) == 1.0

    def test_queffelec_value(self):
        assert bh_constant_queffelec(2) == pytest.approx(1.7431487506894623, rel=1e-12)

    def test_against_direct_formula(self):
        # Oracle: plain-float evaluation of the closed formulas (valid
        # until the factorial overflows), vs the log-space implementation.
        for m in range(2, 21):
            quot = m ** (m / 2) * (m + 1) ** ((m + 1) / 2) / (
                2**m * math.factorial(m) ** ((m + 1) / (2 * m))
            )
            assert bh_constant_polarization(m) == pytest.approx(
                math.sqrt(2) ** (m - 1) * quot, rel=1e-11
            )
            assert bh_constant_queffelec(m) == pytest.approx(
                (2 / math.sqrt(math.pi)) ** (m - 1) * quot, rel=1e-11
            )

    def test_orderings_in_tabulated_ranges(self):
        # Direct tabulation fixes where each comparison holds: the
        # hypercontractive constant undercuts Queffelec's from m = 5 on and
        # the polarization constant from m = 4 on (not before).
        for m in range(5, 21):
            assert bh_constant_hyper(m) < bh_constant_queffelec(m)
        for m in range(4, 21):
            assert bh_constant_hyper(m) < bh_constant_polarization(m)
        for m in range(2, 21):
            assert bh_constant_queffelec(m) < bh_constant_polarization(m)
        assert bh_constant_hyper(3) > bh_constant_queffelec(3)
        assert bh_constant_hyper(3) > bh_constant_polarization(3)

    def test_hypercontractive_growth_rate(self):
        # C(m)^{1/m} -> sqrt(2); frozen value at m = 200 is 1.43774...
        root = bh_constant_hyper(200) ** (1 / 200)
        assert root == pytest.approx(1.4377422408402358, rel=1e-12)
        assert abs(root - math.sqrt(2)) < 0.05

    def test_proof_step_constant_links_to_hyper(self):
        for m in range(2, 12):
            assert proof_step_constant(m) * math.sqrt(m) == pytest.approx(
                bh_constant_hyper(m), rel=1e-12
            )


class TestVerifyBH:
    def test_monomial(self):
        rep = verify_bh(Z1Z2, seed=0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs_constant == pytest.approx(4.0)
        assert rep.verdict == "verified"

    def test_square_of_sum(self):
        rep = verify_bh(SQUARE, seed=0)
        assert rep.ratio == pytest.approx(3.099862620896644 / 4.0, rel=1e-6)
        assert rep.verdict == "verified"

    def test_batch_is_verify_bh_per_case(self):
        # The second P lost a coefficient, so its ascent runs apart from the others.
        Ps = [random_homogeneous(3, 2, "uniform-disc", seed=s) for s in range(3)]
        Ps[1] = HomogeneousPolynomial(3, 2, {k: v for k, v in Ps[1].coeffs.items() if k != (1, 1, 2)})
        for grid_step in (None, 0.125):
            for P, s, rep in zip(Ps, range(3), verify_bh_batch(Ps, 4, 60, [0, 1, 2], grid_step)):
                one = verify_bh(P, starts=4, iterations=60, seed=s, grid_step=grid_step)
                assert (rep.lhs, rep.supnorm.lower, rep.supnorm.upper, rep.supnorm.argmax.tolist(),
                        rep.supnorm.method, rep.ratio, rep.verdict) == \
                    (one.lhs, one.supnorm.lower, one.supnorm.upper, one.supnorm.argmax.tolist(),
                     one.supnorm.method, one.ratio, one.verdict)

    def test_zero_polynomial(self):
        rep = verify_bh(HomogeneousPolynomial(2, 2, {}), seed=0)
        assert rep.ratio == 0.0
        assert rep.verdict == "verified"

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            verify_bh(HomogeneousPolynomial(1, 2, {(1,): 1.0}))

    def test_nan_coefficient_never_reaches_a_bound(self):
        # A NaN coefficient used to come back as a negative certified upper bound.
        with pytest.raises(ValueError, match="not finite"):
            verify_bh(HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): math.nan}), grid_step=0.25)

    def test_power_sum_family_closed_form(self):
        # P = sum z_k^m has ratio n^{-(m-1)/(2m)}.
        for m, n in product((2, 3, 4), (2, 3, 4, 5, 6)):
            P = HomogeneousPolynomial(m, n, {(k,) * m: 1.0 for k in range(1, n + 1)})
            rep = verify_bh(P, seed=1)
            assert rep.ratio == pytest.approx(n ** (-(m - 1) / (2 * m)), rel=1e-6)

    def test_scale_invariance_same_seed(self):
        P = random_homogeneous(3, 3, "complex-gaussian", seed=4)
        r1 = verify_bh(P, seed=9).ratio
        r2 = verify_bh(scale(P, 2.0), seed=9).ratio
        assert r1 == r2

    def test_certified_mode_brackets(self):
        rep, est = verify_bh(SQUARE, grid_step=0.05), sup_certified(SQUARE, 0.05)
        assert (rep.supnorm.lower, rep.supnorm.upper, rep.supnorm.method) == (est.lower, est.upper, est.method)
        assert rep.supnorm.lower <= 4.0 + 1e-9 <= rep.supnorm.upper * (1 + 1e-9)
        assert rep.verdict == "verified"

    def test_a_stalled_ascent_is_bracketed(self):
        # Four starts and 80 iterations reach 0.223 of the sup of this P, which a
        # fine grid finds; certified_upper still bounds the sup from above.
        s = 17103292073185902592
        P = random_homogeneous(3, 2, "complex-gaussian", seed=s)
        rep, grid = verify_bh(P, starts=4, iterations=80, seed=s), sup_certified(P, 2 * math.pi / 4096)
        assert rep.supnorm.lower == sup_lower(P, starts=4, iterations=80, seed=s).lower < 0.23 * grid.lower
        assert grid.lower <= rep.supnorm.upper == certified_upper(P)
        assert rep.verdict != "violated-numerically"

    def test_ascent_cases_keep_the_ascent_and_gain_certified_upper(self):
        s = 5
        P = random_homogeneous(3, 3, "uniform-disc", seed=s)
        rep, est = verify_bh(P, starts=4, iterations=80, seed=s), sup_lower(P, starts=4, iterations=80, seed=s)
        assert (rep.supnorm.lower, rep.supnorm.argmax.tolist(), rep.supnorm.method) == \
            (est.lower, est.argmax.tolist(), est.method)
        assert rep.supnorm.upper == certified_upper(P)

    @given(st.integers(2, 5), st.integers(1, 4), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**63 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_report_is_bracketed(self, m, n, dist, seed, sparse):
        P = random_homogeneous(m, n, dist, seed=seed)
        if sparse:  # terms in at most two variables, whatever n is
            P = HomogeneousPolynomial(m, n, {j: a for j, a in P.coeffs.items() if j[-1] <= 2})
        rep = verify_bh(P, starts=2, iterations=40, seed=seed)
        lower, upper = rep.supnorm.lower, rep.supnorm.upper
        assert math.isfinite(upper) and lower <= upper == max(certified_upper(P), lower)
        assert lower <= certified_upper(P) * (1 + REL_TOL)

    def test_a_bracket_is_never_inverted(self):
        # sup |-z_1^2 + z_1 z_2 - z_2^2| = 3 = sum |a|, and the ascent's value rounds to 3 + 4.4e-16.
        s = 17479151391472615424
        P = random_homogeneous(2, 2, "random-signs", seed=s)
        rep = verify_bh(P, starts=4, iterations=80, seed=s)
        assert certified_upper(P) == 3.0 < rep.supnorm.lower == rep.supnorm.upper

    def test_random_campaign(self):
        for seed in range(60):
            m, n = 2 + seed % 3, 2 + seed % 4
            P = random_homogeneous(m, n, ("complex-gaussian", "uniform-disc", "random-signs")[seed % 3], seed=seed)
            rep = verify_bh(P, starts=4, iterations=80, seed=seed)
            assert rep.verdict == "verified"
            assert rep.ratio <= rep.rhs_constant


class TestVerifyMultilinear:
    def test_rank_one(self):
        T = np.zeros((2, 2), dtype=complex)
        T[0, 0] = 1.0
        rep = verify_bh_multilinear(T, seed=0)
        assert rep.ratio == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs_constant == pytest.approx(math.sqrt(2))
        assert rep.verdict == "verified"

    def test_identity_form(self):
        rep = verify_bh_multilinear(np.eye(2, dtype=complex), seed=0)
        assert rep.lhs == pytest.approx(2 ** (3 / 4), rel=1e-12)
        assert rep.supnorm.lower == pytest.approx(2.0, abs=1e-9)
        assert rep.verdict == "verified"

    def test_polarized_z1z2(self):
        rep = verify_bh_multilinear(polarize(Z1Z2).to_dense(), seed=0)
        # lhs over all of M: two entries of 1/2.
        assert rep.lhs == pytest.approx((2 * 0.5 ** (4 / 3)) ** (3 / 4), rel=1e-12)
        assert rep.verdict == "verified"

    def test_never_claims_violation(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            T = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
            rep = verify_bh_multilinear(T, seed=seed)
            assert rep.verdict in ("verified", "inconclusive")
            assert rep.verdict == "verified"

    @pytest.mark.parametrize("scale_factor", [1e300, 1e-300])
    def test_scale_covariant(self, scale_factor):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        base = verify_bh_multilinear(T, seed=1)
        scaled = verify_bh_multilinear(scale_factor * T, seed=1)
        assert scaled.lhs == pytest.approx(scale_factor * base.lhs, rel=1e-12, abs=0.0)
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-12)
        assert scaled.verdict == base.verdict == "verified"


NON_FINITE = [math.nan, math.inf, complex(0.0, -math.inf)]
DENSE_ENTRY_POINTS = [check_blei, verify_bh_multilinear, sup_multilinear]
HUGE = HomogeneousPolynomial(2, 2, {(1, 1): 1e308, (1, 2): 1e308})  # 10^308 (z_1^2 + z_1 z_2)
# 0.7 10^308 (z_1^2 + i z_1 z_2 + z_2^2) + 10^300 z_3^2: sup |P| < 1.6e308, sum |a| = 2.1e308.
HUGE3 = HomogeneousPolynomial(2, 3, {(1, 1): 0.7e308, (1, 2): 0.7e308j, (2, 2): 0.7e308, (3, 3): 1e300})


class TestNonFiniteAndOverflow:
    @pytest.mark.parametrize("entry", NON_FINITE)
    @pytest.mark.parametrize("call", DENSE_ENTRY_POINTS)
    def test_non_finite_table_is_refused(self, call, entry):
        # Such a table used to give a NaN lhs or lower bound and a verdict.
        T = np.ones((2, 2), dtype=complex)
        T[0, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            call(T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("P, grid_step, match", [
        (HUGE, None, "sup"), (HUGE, 0.25, "sup"),
        # The ascent's lower bound is finite, but the coefficient sum, 2.1e308, used to raise
        # fsum's "intermediate overflow" from certified_upper, a message that named no bound.
        (HUGE3, None, "sup [|]P[|] upper bound is inf: the input is too large for floating point"),
    ], ids=["ascent", "certified", "ascent-three-variables"])
    def test_overflowing_sup_is_an_error(self, P, grid_step, match):
        # sup |P| = 2e308 used to come back as an infinite bound, ratio 0 and "verified".
        with pytest.raises(OverflowError, match=match):
            verify_bh(P, grid_step=grid_step)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_certified_upper_raises_only_when_neither_bound_is_finite(self):
        # Both used to raise: fsum's "intermediate overflow" for the sum of 1.8e308, and the
        # grid bound of 2e308 although the coefficient sum 1.5e308 bounds the sup.
        sum_overflows = HomogeneousPolynomial(2, 2, {(1, 1): 0.6e308, (1, 2): 0.6e308j, (2, 2): 0.6e308})
        assert sup_lower(sum_overflows).lower <= certified_upper(sum_overflows) < math.inf
        assert certified_upper(HomogeneousPolynomial(2, 2, {(1, 1): 1.5e308})) == 1.5e308
        with pytest.raises(OverflowError, match="sup [|]P[|] upper bound is inf"):
            certified_upper(HUGE3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_estimators_raise(self):
        with pytest.raises(OverflowError, match="lower bound"):
            sup_lower(HUGE)
        with pytest.raises(OverflowError, match="upper bound"):
            sup_certified(HUGE, 0.25)
        with pytest.raises(OverflowError, match="lower bound"):
            sup_multilinear(np.full((2, 2), 1e308 + 0j))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("call", [verify_bh_multilinear, check_blei])
    def test_overflowing_table_is_an_error(self, call):
        # verify_bh_multilinear used to report lhs inf, ratio nan and "verified".
        with pytest.raises(OverflowError):
            call(np.full((2, 2), 1e308 + 0j))


class TestBlei:
    def test_identity_table(self):
        rep = check_blei(np.eye(2))
        assert rep.lhs == pytest.approx(2 ** (3 / 4), rel=1e-12)
        assert rep.rhs == pytest.approx(2.0, rel=1e-12)
        assert rep.passed

    def test_single_entry_equality(self):
        T = np.zeros((3, 3), dtype=complex)
        T[1, 2] = 2 - 1j
        rep = check_blei(T)
        assert rep.lhs == pytest.approx(abs(2 - 1j), rel=1e-12)
        assert rep.rhs == pytest.approx(abs(2 - 1j), rel=1e-12)

    def test_zero_table(self):
        rep = check_blei(np.zeros((2, 2, 2)))
        assert rep.passed and rep.lhs == 0.0

    def test_random_campaign(self):
        rng = np.random.default_rng(5)
        for case in range(300):
            m = 2 + case % 2
            n = int(rng.integers(2, 5))
            T = rng.standard_normal((n,) * m) + 1j * rng.standard_normal((n,) * m)
            assert check_blei(T).passed

    def test_entry_cap(self, monkeypatch):
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 100)
        with pytest.raises(BudgetExceededError):
            check_blei(np.zeros((10, 10, 10)))
        with pytest.raises(BudgetExceededError):
            verify_bh_multilinear(np.zeros((10, 10, 10)))

    def test_peak_is_one_float_copy(self):
        # The moduli, their powers and their squares share one float array;
        # the powers used to be a second one.
        T = np.random.default_rng(8).standard_normal((1000, 1000)).astype(complex)
        tracemalloc.start()
        try:
            check_blei(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * T.size * 8

    def test_one_lp_kernel_keeps_both_bits(self):
        # check_blei's left side and verify_bh_multilinear's lhs now share
        # bhverify._lp_norm; each must keep the bits of its former formula.
        rng = np.random.default_rng(12)
        for trial in range(200):
            m, n = 2 + trial % 3, 1 + trial % 5
            T = (rng.standard_normal((n,) * m) + 1j * rng.standard_normal((n,) * m)) * 10.0 ** (trial % 9 - 4)
            p = float(bh_exponent(m))
            a = np.abs(T)
            top = float(a.max())
            blei_lhs = top * float(np.sum(np.power(a / top, p))) ** (1.0 / p)
            multilinear_lhs = top * float(np.sum((np.abs(T) / top) ** p)) ** (1.0 / p)
            assert check_blei(T).lhs == blei_lhs
            assert bhverify._lp_norm(np.abs(T), p) == multilinear_lhs

    def test_needs_two_axes(self):
        with pytest.raises(ValueError):
            check_blei(np.ones(4))

    def test_rejects_an_empty_axis(self):
        # An empty table used to pass vacuously.
        with pytest.raises(ValueError, match="axis of length 0"):
            check_blei(np.zeros((0, 0)))

    @pytest.mark.parametrize("scale_factor", [1e300, 1e-300])
    def test_scale_covariant(self, scale_factor):
        rng = np.random.default_rng(3)
        T = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        base, scaled = check_blei(T), check_blei(scale_factor * T)
        assert scaled.lhs == pytest.approx(scale_factor * base.lhs, rel=1e-12, abs=0.0)
        assert scaled.rhs == pytest.approx(scale_factor * base.rhs, rel=1e-12, abs=0.0)
        assert scaled.passed


class TestBayart:
    def test_pure_power(self):
        for m in (1, 3):
            P = HomogeneousPolynomial(m, 2, {(1,) * m: 1.0})
            rep = check_bayart(P, mc_samples=2000, seed=0)
            assert rep.l2 == pytest.approx(1.0)
            assert rep.l1_estimate == pytest.approx(1.0, abs=1e-12)
            assert rep.passed

    def test_two_term_closed_form(self):
        P = HomogeneousPolynomial(1, 2, {(1,): 1.0, (2,): 1.0})
        rep = check_bayart(P, mc_samples=10**5, seed=2)
        assert rep.l2 == pytest.approx(math.sqrt(2))
        assert abs(rep.l1_estimate - 4 / math.pi) <= 3 * rep.stderr
        assert rep.passed

    def test_random_campaign(self):
        flags = 0
        for seed in range(40):
            m, n = 1 + seed % 4, 2 + seed % 3
            P = random_homogeneous(m, n, "complex-gaussian", seed=seed)
            rep = check_bayart(P, mc_samples=20_000, seed=seed)
            flags += not rep.passed
        assert flags == 0

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            check_bayart(Z1Z2, mc_samples=10)

    @pytest.mark.parametrize("factor", [1e160, 1e-160, 1e300, 1e-300])
    def test_scale_safe(self, factor):
        # |P|^2 overflows at 1e160 and underflows at 1e-160 unless the
        # estimate normalizes the coefficients (a NaN or zero stderr).
        P = random_homogeneous(3, 2, "complex-gaussian", seed=4)
        base = check_bayart(P, mc_samples=20_000, seed=1)
        rep = check_bayart(scale(P, factor), mc_samples=20_000, seed=1)
        for field in ("l2", "l1_estimate", "stderr", "bound"):
            assert getattr(rep, field) / factor == pytest.approx(getattr(base, field), rel=1e-12, abs=0.0)
        assert rep.passed == base.passed


class TestProofStep:
    def test_hand_case_z1z2(self):
        rep = check_proof_step(Z1Z2, 1, supnorm_upper=1.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-12)
        assert rep.bound == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert rep.parseval_max_rel_err <= 1e-15
        assert rep.passed

    def test_pure_power_single_class(self):
        for m in (2, 3, 4):
            P = HomogeneousPolynomial(m, 3, {(1,) * m: 1.0})
            rep = check_proof_step(P, 1, supnorm_upper=1.0)
            assert rep.lhs == pytest.approx(1.0, rel=1e-12)
            assert rep.passed

    def test_slot_independence(self):
        P = random_homogeneous(3, 3, "complex-gaussian", seed=13)
        u = certified_upper(P)
        values = [check_proof_step(P, k, u).lhs for k in (1, 2, 3)]
        assert values[0] == pytest.approx(values[1], rel=1e-12)
        assert values[0] == pytest.approx(values[2], rel=1e-12)

    def test_slot_validation(self):
        with pytest.raises(ValueError):
            check_proof_step(Z1Z2, 0, 1.0)
        with pytest.raises(ValueError):
            check_proof_step(Z1Z2, 3, 1.0)

    def test_random_campaign(self):
        rng = np.random.default_rng(31)
        for case in range(40):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            P = random_homogeneous(m, n, "complex-gaussian", seed=case)
            rep = check_proof_step(P, int(rng.integers(1, m + 1)), certified_upper(P))
            assert rep.passed
            assert rep.parseval_max_rel_err <= 1e-12

    def test_derivative_route_catches_wrong_class_sizes(self, monkeypatch):
        # Route 2 reads only the term arrays, so a wrong multiplicity in the
        # class arithmetic of route 1 shows as a large disagreement.
        import polybh.bhverify as bhverify

        P = random_homogeneous(3, 3, "complex-gaussian", seed=4)
        monkeypatch.setattr(bhverify, "multiplicity", lambda j: multiplicity(j) + 1)
        assert check_proof_step(P, 1, certified_upper(P)).parseval_max_rel_err > 1e-3


class TestProofChain:
    def test_polynomial_lhs_below_weighted_blei(self):
        # The reduction chain: the polynomial lhs is at most the Blei lhs of
        # the |i|^{-1/2}-weighted full table, which Blei bounds again.
        p = 3 / 2  # 2m/(m+1) at m = 3
        for seed in range(10):
            P = random_homogeneous(3, 3, "complex-gaussian", seed=seed)
            W = np.zeros((3, 3, 3), dtype=complex)
            for idx in product(range(1, 4), repeat=3):
                W[tuple(v - 1 for v in idx)] = P.coeff(idx) / math.sqrt(multiplicity(idx))
            rep = check_blei(W)
            assert coeff_norm(P, p) <= rep.lhs * (1 + 1e-12)
            assert rep.passed
