import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybh.bhverify import bh_constant_hyper
from polybh.polyalgebra import (
    GeneralPolynomial,
    dimension_count,
    majorant_sum,
    random_homogeneous,
    scale,
)
from polybh.sidonbohr import (
    _moebius_truncated,
    bohr_certificate_value,
    bohr_estimate_small,
    bohr_lower,
    bohr_upper,
    check_wiener,
    sidon_crossover_n,
    sidon_lower_search,
    sidon_upper_hyper,
    sidon_upper_trivial,
)
from polybh import sidonbohr, torusnorm
from polybh.torusnorm import BudgetExceededError, certified_upper


class TestSidonUpperBounds:
    def test_hyper_values(self):
        assert sidon_upper_hyper(2, 2) == pytest.approx(5.26429605180997, rel=1e-12)
        assert sidon_upper_hyper(2, 3) == pytest.approx(6.260338320293151, rel=1e-12)

    def test_hyper_is_constant_times_dimension_power(self):
        for m in (2, 3, 4):
            for n in (2, 5, 9):
                want = bh_constant_hyper(m) * dimension_count(m, n) ** ((m - 1) / (2 * m))
                assert sidon_upper_hyper(m, n) == pytest.approx(want, rel=1e-12)

    def test_trivial_values(self):
        assert sidon_upper_trivial(2, 2) == pytest.approx(math.sqrt(3), rel=1e-12)
        for n in (2, 5, 17):
            assert sidon_upper_trivial(1, n) == pytest.approx(math.sqrt(n), rel=1e-12)

    def test_domains(self):
        with pytest.raises(ValueError):
            sidon_upper_hyper(1, 5)
        with pytest.raises(ValueError):
            sidon_upper_trivial(0, 5)

    def test_crossover_frozen_values(self):
        assert sidon_crossover_n(2) == 23
        assert sidon_crossover_n(3) == 110
        assert sidon_crossover_n(4) == 397

    def test_crossover_needs_log_n_beyond_m(self):
        # The improved bound wins only for large n: crossover beyond e^m.
        for m in range(2, 7):
            assert sidon_crossover_n(m) > math.e**m

    def test_ratio_monotone_in_n(self):
        for m in (2, 3):
            ratios = [sidon_upper_hyper(m, n) / sidon_upper_trivial(m, n) for n in range(2, 200)]
            assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestSidonSearch:
    def test_monomial_baseline(self):
        sb = sidon_lower_search(2, 2, budget=1, seed=0)
        assert sb.lower_search >= 1.0

    def test_sandwich_small(self):
        sb = sidon_lower_search(2, 2, budget=30, seed=1)
        assert 1.0 <= sb.lower_search <= math.sqrt(3) * (1 + 1e-9)
        assert sb.upper_best == pytest.approx(math.sqrt(3))

    @pytest.mark.parametrize("strategy", ["random-sign", "gaussian", "coordinate-ascent"])
    def test_strategies_respect_sandwich(self, strategy):
        sb = sidon_lower_search(3, 3, budget=20, seed=5, strategy=strategy)
        assert 1.0 <= sb.lower_search <= sb.upper_best * (1 + 1e-9)
        assert sb.witness.coeffs

    def test_deterministic(self):
        a = sidon_lower_search(2, 3, budget=10, seed=7)
        b = sidon_lower_search(2, 3, budget=10, seed=7)
        assert a.lower_search == b.lower_search
        assert a.witness.coeffs == b.witness.coeffs

    @pytest.mark.parametrize("strategy, moves", [("random-sign", 0), ("gaussian", 0), ("coordinate-ascent", 6)],
                             ids=["random-sign", "gaussian", "coordinate-ascent"])
    def test_each_candidate_is_built_just_before_it_is_scored(self, strategy, moves, monkeypatch):
        # The baseline z_1^2 is scored first, then each random candidate right
        # after it is built, then each move; only the candidate being scored
        # and the best one are alive when it is scored, and no ascent runs.
        events, built = [], []
        make, finest = sidonbohr.random_homogeneous, sidonbohr._finest_upper

        def build(*args, **kwargs):
            P = make(*args, **kwargs)
            events.append("P")
            built.append(weakref.ref(P))
            return P

        def score(P):
            events.append("score")
            assert sum(ref() is not None for ref in built) <= 2
            return finest(P)

        def no_ascent(*args):
            raise AssertionError("the search ran an ascent")

        monkeypatch.setattr(sidonbohr, "random_homogeneous", build)
        monkeypatch.setattr(sidonbohr, "_finest_upper", score)
        monkeypatch.setattr(torusnorm, "_ascent", no_ascent)
        sb = sidon_lower_search(2, 3, budget=12, seed=4, strategy=strategy)
        assert events == ["score"] + ["P", "score"] * (12 - moves) + ["score"] * moves
        assert sb.lower_search > 1.0

    def test_signs_find_nontrivial_ratio(self):
        # Random signs beat the monomial baseline comfortably at (2, 6).
        sb = sidon_lower_search(2, 6, budget=30, seed=2)
        # There the finest slice lattice within the cap has 9 nodes on each
        # of 5 axes, x = 2 pi / 9 = 0.70, and its bound grid_max / sqrt(1 -
        # x^2) = 1.4 grid_max is below the coefficient sum, so the 9^5 grid
        # certifies a ratio above 1.
        certificate = sb.method["certificate"]
        assert (certificate["grid_points_per_axis"], certificate["evaluations"]) == (9, 9**5)
        assert 1.2 < sb.lower_search
        assert sb.witness.coeffs != {(1, 1): 1.0}

    # The certified lower bounds of the search that scored every candidate by
    # certified_upper (random-sign, budget 200, seed 0), which the certified
    # winner must not fall below.
    @pytest.mark.parametrize("m, n, floor", [(2, 3, 1.1375085399704086), (3, 3, 1.5148947500739163),
                                             (2, 5, 1.0)])
    def test_certified_winner_beats_certified_scoring(self, m, n, floor):
        sb = sidon_lower_search(m, n, budget=200, seed=0)
        assert sb.lower_search >= floor
        assert isinstance(sb.method["certificate"], dict)

    # The certified lower bounds of the search that ranked its candidates by an
    # ascent screen and certified only the winner (random-sign, budget 200,
    # seed 0), which ranking by the certified ratio must not fall below.
    @pytest.mark.parametrize("m, n, floor", [(2, 4, 1.7450852974347923), (3, 4, 2.356774782424359),
                                             (2, 5, 1.869388752516714), (2, 6, 1.5440604550071995)])
    def test_certified_ranking_is_not_below_the_ascent_screen(self, m, n, floor):
        assert sidon_lower_search(m, n, budget=200, seed=0).lower_search >= floor

    @given(m=st.integers(2, 4), n=st.integers(2, 4), budget=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(["random-sign", "gaussian"]))
    @settings(max_examples=20, deadline=None)
    def test_the_first_best_certified_ratio_is_reported(self, m, n, budget, seed, strategy):
        # The candidates rebuilt from their seeds: the first of largest ratio
        # sum |c| / _finest_upper is the witness, or z_1^m if none is above 1.
        sb = sidon_lower_search(m, n, budget=budget, seed=seed, strategy=strategy)
        dist = "random-signs" if strategy == "random-sign" else "complex-gaussian"
        best, witness = 1.0, {(1,) * m: 1.0}
        for idx in range(budget):
            s = int(np.random.SeedSequence(seed, spawn_key=(0, idx)).generate_state(1)[0])
            P = random_homogeneous(m, n, dist, seed=s)
            ratio = majorant_sum(P, 1.0) / torusnorm._finest_upper(P)[0]
            if ratio > best:
                best, witness = ratio, P.coeffs
        assert sb.lower_search == best
        assert sb.witness.coeffs == witness

    @given(m=st.integers(2, 4), n=st.integers(2, 4), budget=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(sidonbohr.SEARCH_STRATEGIES))
    @settings(max_examples=20, deadline=None)
    def test_certified_lower_is_at_least_one_and_under_the_upper_bound(self, m, n, budget, seed, strategy):
        sb = sidon_lower_search(m, n, budget=budget, seed=seed, strategy=strategy)
        assert 1.0 <= sb.lower_search <= sb.upper_best
        assert sb.lower_search == majorant_sum(sb.witness, 1.0) / torusnorm._finest_upper(sb.witness)[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            sidon_lower_search(2, 2, budget=0)
        with pytest.raises(ValueError):
            sidon_lower_search(2, 2, strategy="anneal")

    def test_budget_cap(self, monkeypatch):
        # A budget at the cap runs; one above it is refused before a candidate is drawn.
        monkeypatch.setattr(sidonbohr, "DENSE_ENTRIES_MAX", 6)
        assert sidon_lower_search(2, 2, budget=6, seed=1).method["candidates"] == 6

        def no_draw(*args, **kwargs):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(sidonbohr, "random_homogeneous", no_draw)
        with pytest.raises(BudgetExceededError, match="needs 7 scored candidates; cap is 6$"):
            sidon_lower_search(2, 2, budget=7, seed=1)

    @pytest.mark.parametrize("m, n", [(1, 2), (2, 1), (1, 1)])
    def test_needs_m_and_n_at_least_two(self, m, n):
        # The hypercontractive upper bound is defined only from m, n = 2 on.
        with pytest.raises(ValueError, match="needs m >= 2 and n >= 2"):
            sidon_lower_search(m, n, budget=1)


class TestWiener:
    def test_constant_polynomial(self):
        G = GeneralPolynomial(2, {}, a0=0.9)
        rep = check_wiener(G, supnorm_upper_P=0.9)
        assert rep.passed and rep.parts == ()

    def test_moebius_near_equality(self):
        # Truncated (a - z)/(1 - a z) at a = 1/2: the degree-1 part has sup
        # norm 1 - a^2 = 3/4 exactly, the Wiener bound with equality.
        P = _moebius_truncated(0.5, 10)
        s = certified_upper(P, target_correction=0.002) * (1 + 1e-9)
        P1 = scale(P, 1.0 / s)
        rep = check_wiener(P1, min(1.0, certified_upper(P1, target_correction=0.002)))
        assert rep.passed
        part1 = rep.parts[0]
        assert part1.degree == 1
        assert part1.sup_estimate == pytest.approx(0.75, abs=5e-3)
        assert part1.bound == pytest.approx(0.75, abs=5e-3)

    def test_random_campaign_n2(self):
        from polybh.cli import _random_general, case_seed

        for i in range(12):
            seed = case_seed(101, i)
            G = _random_general(2, 4, seed)
            s = certified_upper(G) * (1 + 1e-9)
            G1 = scale(G, 1.0 / s)
            rep = check_wiener(G1, min(1.0, certified_upper(G1)))
            assert rep.passed

    def test_precondition(self):
        G = GeneralPolynomial(2, {}, a0=2.0)
        with pytest.raises(ValueError):
            check_wiener(G, supnorm_upper_P=2.0)

    @pytest.mark.parametrize("upper", [math.nan, -3.0])
    def test_rejects_a_nan_or_negative_sup_bound(self, upper):
        # Both used to pass: nan > 1 + 1e-12 is False.
        with pytest.raises(ValueError, match="supnorm_upper_P"):
            check_wiener(GeneralPolynomial(2, {}, a0=0.5), upper)


class TestBohrRadius:
    def test_certificate_reverifies(self):
        for n in (100, 10_000):
            rep = bohr_lower(n)
            assert rep.certificate_value <= 0.5 + 1e-12
            # Independent high-precision recomputation with exact binomials.
            assert bohr_certificate_value(n, rep.lower, rep.M_used) <= 0.5 + 1e-12

    def test_monotone_b_pair(self):
        assert bohr_lower(10**6).b_lower > bohr_lower(10**3).b_lower

    def test_sandwich(self):
        for n in (10, 1000, 10**6):
            rep = bohr_lower(n)
            assert rep.lower <= rep.upper

    def test_radius_maximality(self):
        # Slightly above the returned radius the certificate must fail.
        from polybh.sidonbohr import _certificate_terms

        rep = bohr_lower(1000)
        exceeds, _, _, _ = _certificate_terms(1000, rep.lower * (1 + 1e-6), rep.M_used)
        assert exceeds

    def test_upper_values(self):
        assert bohr_upper(2) == pytest.approx(1 / 3)
        assert bohr_upper(10**6) == pytest.approx(2 * math.sqrt(math.log(10**6) / 10**6), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            bohr_lower(1)
        with pytest.raises(ValueError):
            bohr_upper(1)

    def test_certificate_lemma(self):
        # max_{0<=a<=1} a + c (1 - a^2) <= 1 iff c <= 1/2 (grid check).
        a = np.linspace(0, 1, 2001)
        assert float(np.max(a + 0.5 * (1 - a * a))) <= 1 + 1e-12
        assert float(np.max(a + 0.51 * (1 - a * a))) > 1


class TestK1Bracket:
    def test_bracket_contains_one_third(self):
        br = bohr_estimate_small()
        assert br.r_pass <= 1 / 3 <= br.r_fail
        assert br.r_fail - br.r_pass <= 0.02

    def test_bracket_is_tight_at_default_resolution(self):
        br = bohr_estimate_small()
        assert br.r_pass == pytest.approx(0.333, abs=1e-12)
        assert br.r_fail == pytest.approx(0.334, abs=1e-12)

    def test_closed_form_oracle(self):
        # Untruncated majorant: a + (1 - a^2) r / (1 - a r); the degree-50
        # truncation agrees to far better than grid resolution.
        for a in (0.3, 0.9, 0.99):
            P = _moebius_truncated(a, 50)
            for r in (0.2, 1 / 3, 0.34):
                oracle = a + (1 - a * a) * r / (1 - a * r)
                tail = (1 - a * a) * a**50 * r**51 / (1 - a * r)
                assert majorant_sum(P, r) == pytest.approx(oracle - tail, rel=1e-12)

    def test_violation_threshold_formula(self):
        # majorant <= 1 iff r <= 1/(1 + 2a): at r = 0.334 the violating a
        # exist (near 1), at r = 1/3 none do.
        P = _moebius_truncated(0.999, 50)
        assert majorant_sum(P, 0.334) > 1
        assert majorant_sum(P, 1 / 3) <= 1

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            bohr_estimate_small(degree=2)

    @pytest.mark.parametrize("r_step, r_fail", [(5e-4, 0.3335), (2.5e-4, 0.3335), (2e-4, 0.3334),
                                                 (1e-4, 0.3334), (0.1, 0.4)])
    def test_fails_at_the_first_grid_radius_above_one_third(self, r_step, r_fail):
        # The fine steps used to miss 1/3: a = 0.999 violates only from 0.333556 on.
        br = bohr_estimate_small(r_step=r_step)
        assert br.r_fail == r_fail
        assert br.r_pass == pytest.approx(r_fail - r_step, abs=1e-12)
        assert br.r_pass <= 1 / 3 <= br.r_fail

    @pytest.mark.parametrize("kwargs, message", [
        ({"degree": 5}, "--degree"),  # truncation hides the violation at 0.334
        ({"r_step": 1e-7}, "--r-step"),  # the excess at 0.3333334 is 2e-14
        ({"r_step": 1e-13}, "resolution"),
        ({"r_step": 0.3}, "no grid radius"),
        ({"r_step": math.inf}, "no grid radius"),
    ], ids=["degree-5", "r-step-1e-7", "r-step-1e-13", "r-step-0.3", "r-step-inf"])
    def test_refuses_a_grid_that_cannot_fail_above_one_third(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            bohr_estimate_small(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"a_step": 1e-7}, {"degree": 10**6}, {"a_step": 5e-324}])
    def test_table_cap(self, kwargs):
        # Refused before allocating: the first two would take 4.1 GB and 8 GB.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="cap is"):
                bohr_estimate_small(**kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("steps", [{"r_step": 0.0}, {"a_step": 0.0}, {"a_step": -1.0}],
                             ids=["r-step-0", "a-step-0", "a-step-negative"])
    def test_step_validation(self, steps):
        # r_step = 0 used to scan forever, a_step = 0 to divide by zero, and
        # a_step < 0 to scan a = 0.999 alone.
        with pytest.raises(ValueError, match="must be positive"):
            bohr_estimate_small(**steps)
