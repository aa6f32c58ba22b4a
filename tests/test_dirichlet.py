import cmath
import functools
import json
import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polybh import dirichlet, torusnorm
from polybh.dirichlet import (
    DirichletPolynomial,
    asymptotic_formula,
    bcq_partial_sum,
    bohr_lift,
    dirichlet_l1,
    dirichlet_sup,
    evaluate_line,
    factorize,
    from_json_dict,
    primes_up_to,
    sidon_N_bounds,
    SMALL_GRID_POINTS,
    to_json_dict,
)
from polybh.polyalgebra import evaluate, majorant_sum
from polybh.torusnorm import sup_lower


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(math.isqrt(n)) + 1))


class TestFactorize:
    def test_twelve(self):
        assert factorize(12) == (2, 1)

    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_prime_97(self):
        assert is_prime(97)
        alpha = factorize(97)
        assert len(alpha) == sum(1 for p in range(2, 98) if is_prime(p)) == 25
        assert alpha[24] == 1 and sum(alpha) == 1

    def test_reconstructs_n(self):
        for n in range(1, 300):
            alpha = factorize(n)
            primes = primes_up_to(300)
            assert math.prod(p**a for p, a in zip(primes, alpha)) == n

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)


class TestPrimes:
    def test_small(self):
        assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert primes_up_to(1) == []

    def test_counts(self):
        assert len(primes_up_to(1000)) == 168


class TestBohrLift:
    def test_three_term_example(self):
        Q = DirichletPolynomial(6, {2: 2.0, 3: 3.0, 6: 6.0})
        lift = bohr_lift(Q)
        assert lift.primes == (2, 3, 5)
        assert lift.poly.parts[1].coeffs == {(1,): 2.0, (2,): 3.0}
        assert lift.poly.parts[2].coeffs == {(1, 2): 6.0}
        assert lift.monomial_map[6] == (1, 1, 0)

    def test_constant_only(self):
        lift = bohr_lift(DirichletPolynomial(1, {1: 3 - 1j}))
        assert lift.poly.a0 == 3 - 1j
        assert lift.poly.parts == {}

    def test_prime_power(self):
        lift = bohr_lift(DirichletPolynomial(4, {4: 1.0}))
        assert lift.poly.parts[2].coeffs == {(1, 1): 1.0}

    def test_degree_is_prime_multiplicity(self):
        # 8 = 2^3, 12 = 2^2*3, 30 = 2*3*5: each has three prime factors.
        Q = DirichletPolynomial(30, {8: 1.0, 12: 1.0, 30: 1.0, 9: 1.0})
        lift = bohr_lift(Q)
        assert sorted(lift.poly.parts) == [2, 3]  # 9 = 3^2 sits at degree 2
        assert sum(lift.monomial_map[8]) == 3
        assert sum(lift.monomial_map[12]) == 3
        assert sum(lift.monomial_map[30]) == 3
        assert sum(lift.monomial_map[9]) == 2

    def test_entry_cap(self, monkeypatch):
        # Four terms over the ten primes up to 30: 40 exponent entries, and a 31-byte sieve.
        Q = DirichletPolynomial(30, {8: 1.0, 9: 1.0, 12: 1.0, 30: 1.0})
        monkeypatch.setattr(dirichlet, "DENSE_ENTRIES_MAX", 40)
        assert bohr_lift(Q).poly.n == 10
        monkeypatch.setattr(dirichlet, "DENSE_ENTRIES_MAX", 39)
        with pytest.raises(torusnorm.BudgetExceededError, match="40 exponent entries"):
            bohr_lift(Q)
        monkeypatch.setattr(dirichlet, "DENSE_ENTRIES_MAX", 30)
        with pytest.raises(torusnorm.BudgetExceededError, match="sieve"):
            bohr_lift(Q)

    def test_l1_transport_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            N = int(rng.integers(2, 500))
            size = int(rng.integers(1, min(N, 25) + 1))
            support = rng.choice(np.arange(1, N + 1), size=size, replace=False)
            Q = DirichletPolynomial(
                N, {int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support}
            )
            assert majorant_sum(bohr_lift(Q).poly, 1.0) == dirichlet_l1(Q)

    def test_multiplicativity_on_small_cases(self):
        # lift(Q1 * Q2) evaluates as the product of the lifted evaluations
        # when no truncation occurs (N = N1 * N2).
        rng = np.random.default_rng(3)
        q1 = {1: 1.0, 2: 0.5 + 1j, 3: -0.25}
        q2 = {1: -1j, 2: 2.0}
        prod_coeffs: dict[int, complex] = {}
        for a, ca in q1.items():
            for b, cb in q2.items():
                prod_coeffs[a * b] = prod_coeffs.get(a * b, 0j) + ca * cb
        Q1, Q2 = DirichletPolynomial(3, q1), DirichletPolynomial(2, q2)
        Q12 = DirichletPolynomial(6, prod_coeffs)
        L1, L2, L12 = bohr_lift(Q1), bohr_lift(Q2), bohr_lift(Q12)
        for _ in range(10):
            z = np.exp(2j * math.pi * rng.random(L12.poly.n))
            lhs = evaluate(L12.poly, z)
            rhs = evaluate(L1.poly, z[: L1.poly.n]) * evaluate(L2.poly, z[: L2.poly.n])
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestDirichletSup:
    def test_single_term(self):
        est = dirichlet_sup(DirichletPolynomial(2, {2: 1.0}), seed=0)
        assert est.lower == pytest.approx(1.0, abs=1e-12)

    def test_two_terms_align(self):
        est = dirichlet_sup(DirichletPolynomial(2, {1: 1.0, 2: 1.0}), seed=0)
        assert est.lower == pytest.approx(2.0, abs=1e-9)

    def test_three_independent_phases(self):
        est = dirichlet_sup(DirichletPolynomial(3, {1: 1.0, 2: 1.0, 3: 1.0}), seed=0)
        assert est.lower == pytest.approx(3.0, abs=1e-8)

    def test_line_scan_one_sided(self):
        # Kronecker direction: the line orbit lies in the torus closure, so a
        # finite scan of |Q(it)| can approach but never beat the torus sup.
        rng = np.random.default_rng(11)
        ts = np.linspace(0.0, 200.0, 4001)
        for case in range(8):
            N = int(rng.integers(2, 30))
            coeffs = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                      for k in rng.choice(np.arange(1, N + 1), size=min(N, 6), replace=False)}
            Q = DirichletPolynomial(N, coeffs)
            est = dirichlet_sup(Q, seed=case)
            logs = np.log(np.array(list(Q.coeffs), dtype=float))
            scan = float(np.max(np.abs(np.exp(-1j * np.outer(ts, logs)) @ np.array(list(Q.coeffs.values())))))
            assert scan <= est.lower * (1 + 1e-6)  # est.lower is the lift's ascent (next test)
            # spot-check raw line values as well, against the explicit sum
            t = float(rng.uniform(0, 50))
            assert abs(evaluate_line(Q, t)) <= est.lower * (1 + 1e-9)
            direct = sum(c * cmath.exp(-1j * t * math.log(k)) for k, c in Q.coeffs.items())
            assert abs(evaluate_line(Q, t) - direct) <= 1e-12 * max(1.0, abs(direct))

    def test_empty_polynomial_on_the_line(self):
        # Its log table used to have shape (0,), which the line kernel refused.
        assert evaluate_line(DirichletPolynomial(5, {}), 1.0) == 0j

    def test_lower_is_the_lift_ascent(self):
        rng = np.random.default_rng(12)
        for seed in range(6):
            N = int(rng.integers(2, 120))
            coeffs = {int(k): complex(rng.standard_normal(), rng.standard_normal())
                      for k in rng.choice(np.arange(1, N + 1), size=min(N, 12), replace=False)}
            Q = DirichletPolynomial(N, coeffs)
            est = dirichlet_sup(Q, seed=seed)
            ascent = sup_lower(bohr_lift(Q).poly, seed=seed)
            assert est.lower.hex() == ascent.lower.hex()
            assert est.method == {**ascent.method, "n_vars": len(bohr_lift(Q).primes)}


class TestSidonN:
    def test_S2_and_S3_are_one(self):
        assert sidon_N_bounds(2).lower == pytest.approx(1.0, abs=1e-3)
        assert sidon_N_bounds(3).lower == pytest.approx(1.0, abs=1e-3)

    def test_S4_exceeds_threshold(self):
        sb = sidon_N_bounds(4)
        assert sb.lower > 1.005
        assert sb.method["certified"]

    def test_known_witness_ratio(self):
        # Q = 1 + sqrt(2) i 2^{-s} + 4^{-s} has ratio (2 + sqrt 2)/sqrt 6.
        Q = DirichletPolynomial(4, {1: 1.0, 2: math.sqrt(2) * 1j, 4: 1.0})
        ratio = _certified_ratio(Q, grid_points=1 << 14)
        assert ratio == pytest.approx((2 + math.sqrt(2)) / math.sqrt(6), rel=2e-3)

    def test_nondecreasing_in_N(self):
        values = [sidon_N_bounds(N, mag_points=4, phase_points=6).lower for N in (2, 3, 4, 5)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_heuristic_path_large_N(self):
        sb = sidon_N_bounds(20, budget=10, seed=1)
        assert sb.method["kind"] == "random-search-heuristic"
        assert sb.lower >= 1.0
        assert sb.asymptotic_sharp == pytest.approx(asymptotic_formula(20, -1 / math.sqrt(2)))

    def test_domain(self):
        with pytest.raises(ValueError):
            sidon_N_bounds(1)

    @pytest.mark.parametrize("mag_points, phase_points", [(1, 8), (0, 8), (5, 0)])
    def test_brute_grid_resolution(self, mag_points, phase_points):
        # These grids score no candidate, so "S(4) >= 1" used to be reported unearned.
        with pytest.raises(ValueError, match="mag_points"):
            sidon_N_bounds(4, mag_points=mag_points, phase_points=phase_points)
        # The random search above the brute range does not use the grid.
        assert sidon_N_bounds(20, budget=1, mag_points=mag_points,
                              phase_points=phase_points).lower >= 1.0

    @pytest.mark.parametrize("budget", [0, -1])
    def test_heuristic_budget(self, budget):
        # No candidate would be scored, so "S(20) >= 1" would be reported unearned.
        with pytest.raises(ValueError, match="budget >= 1"):
            sidon_N_bounds(20, budget=budget)
        # The brute grid below the heuristic range does not use the budget.
        assert sidon_N_bounds(3, budget=budget).lower >= 1.0

    def test_heuristic_budget_cap(self, monkeypatch):
        # At N = 9 a lift has 9 terms in 4 variables: 36 exponent entries, the cap here.
        monkeypatch.setattr(dirichlet, "DENSE_ENTRIES_MAX", 36)
        assert sidon_N_bounds(9, budget=36, seed=1).method["budget"] == 36

        def no_search(*args, **kwargs):
            raise AssertionError("a pattern was scored")

        monkeypatch.setattr(dirichlet, "_sidon_ratios", no_search)
        with pytest.raises(torusnorm.BudgetExceededError, match="needs 37 scored patterns; cap is 36$"):
            sidon_N_bounds(9, budget=37, seed=1)


# The brute search as it stood before blocks and pruning: one DirichletPolynomial
# and one full-grid score per candidate, kept as the reference for the result bits.
def _reference_candidates(N, mag_points, phase_points):
    plist = primes_up_to(N)
    pset = set(plist)
    mags = np.linspace(0.0, 1.0, mag_points)
    phases = np.linspace(0.0, 2.0 * math.pi, phase_points, endpoint=False)
    free_phase = [nn for nn in range(2, N + 1) if nn not in pset]
    for mtuple in product(mags, repeat=N):
        if max(mtuple) == 0.0:
            continue
        for ptuple in product(phases, repeat=len(free_phase)):
            coeffs = {}
            if mtuple[0]:
                coeffs[1] = mtuple[0]
            for nn in range(2, N + 1):
                mag = mtuple[nn - 1]
                if not mag:
                    continue
                if nn in pset:
                    coeffs[nn] = mag
                else:
                    coeffs[nn] = mag * np.exp(1j * ptuple[free_phase.index(nn)])
            yield DirichletPolynomial(N, coeffs)


def _certified_ratio(Q, grid_points=SMALL_GRID_POINTS):
    """The brute search's score of Q (N <= 8): coefficient sum over the certified sup bound."""
    coeffs = [Q.coeff(n) for n in range(1, 9)]
    grid_max = float(dirichlet._row_max(np.array([coeffs]), dirichlet._small_nodes(grid_points))[0])
    return dirichlet._ratio_small(grid_max, [abs(c) for c in coeffs], grid_points)


def _reference_ratio(Q, grid_points=SMALL_GRID_POINTS):
    l1 = dirichlet_l1(Q)
    if l1 == 0.0:
        return 0.0
    A = [Q.coeff(1), Q.coeff(2), Q.coeff(4), Q.coeff(8)]
    B = [Q.coeff(3), Q.coeff(6)]
    extra = abs(Q.coeff(5)) + abs(Q.coeff(7))
    theta = np.arange(grid_points) * (2.0 * math.pi / grid_points)
    z = np.exp(1j * theta)
    va = np.abs(A[0] + A[1] * z + A[2] * z * z + A[3] * z * z * z)
    vb = np.abs(B[0] + B[1] * z)
    grid_max = float(np.max(va + vb))
    # A and B have degree at most 3 in z; the nearest node is pi / grid_points away.
    x = 3.0 * math.pi / grid_points
    return l1 / (grid_max / math.sqrt(1.0 - x * x) + extra)


@functools.lru_cache(maxsize=None)
def _reference_search(N, mag_points, phase_points):
    best_ratio, best_Q = 1.0, DirichletPolynomial(N, {1: 1.0})
    for Q in _reference_candidates(N, mag_points, phase_points):
        ratio = _reference_ratio(Q)
        if ratio > best_ratio:
            best_ratio, best_Q = ratio, Q
    return best_ratio, best_Q


def _distinct_patterns(N, mag_points, phase_points):
    """The nonzero patterns of the brute grid, each counted once: a_1 and the
    a_p take 0 or one of mag_points - 1 magnitudes, a composite a_n also one
    of phase_points phases when nonzero."""
    composites = N - 1 - len(primes_up_to(N))
    return mag_points ** (N - composites) * (1 + (mag_points - 1) * phase_points) ** composites - 1


# N = 2..5 at the defaults, and small grids that reach a_6 (B_1 != 0) and a_8.
BRUTE_CASES = [(2, 5, 8), (3, 5, 8), (4, 5, 8), (5, 5, 8),
               (5, 4, 6), (6, 3, 2), (6, 2, 4), (7, 2, 2), (8, 2, 2), (8, 3, 1)]


def _assert_reference_result(sb, N, mag_points, phase_points):
    ratio, Q = _reference_search(N, mag_points, phase_points)
    assert sb.lower.hex() == ratio.hex()
    assert sb.witness == Q
    assert repr(sb.witness.coeffs) == repr(Q.coeffs)


class TestBruteSearch:
    @pytest.mark.parametrize("N, mag_points, phase_points", BRUTE_CASES)
    def test_same_bits_as_the_unpruned_loop(self, N, mag_points, phase_points):
        sb = sidon_N_bounds(N, mag_points=mag_points, phase_points=phase_points)
        _assert_reference_result(sb, N, mag_points, phase_points)
        assert sb.method["candidates"] == _distinct_patterns(N, mag_points, phase_points)
        assert 0 <= sb.method["scored"] <= sb.method["candidates"]

    @given(N=st.integers(2, 8), mag_points=st.integers(2, 3), phase_points=st.integers(1, 3),
           one_per_block=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_same_bits_as_the_unpruned_loop_on_small_grids(self, N, mag_points, phase_points, one_per_block):
        assume((mag_points**N - 1) * phase_points ** (N - 1 - len(primes_up_to(N))) <= 3000)
        elements = 1 if one_per_block else dirichlet.BRUTE_BLOCK_ELEMENTS
        with mock.patch.object(dirichlet, "BRUTE_BLOCK_ELEMENTS", elements):
            sb = sidon_N_bounds(N, mag_points=mag_points, phase_points=phase_points)
        _assert_reference_result(sb, N, mag_points, phase_points)

    @pytest.mark.parametrize("elements", [1, 1 << 40])
    @pytest.mark.parametrize("N, mag_points, phase_points",
                             [(4, 5, 8), (6, 3, 2), (6, 2, 4), (8, 2, 2), (8, 3, 1)])
    def test_block_size_does_not_matter(self, monkeypatch, elements, N, mag_points, phase_points):
        monkeypatch.setattr(dirichlet, "BRUTE_BLOCK_ELEMENTS", elements)
        sb = sidon_N_bounds(N, mag_points=mag_points, phase_points=phase_points)
        _assert_reference_result(sb, N, mag_points, phase_points)

    def test_coarse_nodes_are_fine_nodes(self, monkeypatch):
        # The pruning bound is sound only if the coarse values are fine-grid values.
        fine = dirichlet._small_nodes(SMALL_GRID_POINTS)
        row_max, seen = dirichlet._row_max, []

        def spy(rows, z):
            seen.append(np.array(z))
            return row_max(rows, z)

        monkeypatch.setattr(dirichlet, "_row_max", spy)
        sidon_N_bounds(4)
        coarse = [z for z in seen if len(z) != SMALL_GRID_POINTS]
        assert len(coarse) < len(seen)
        assert all(np.array_equal(z, fine) for z in seen if len(z) == SMALL_GRID_POINTS)
        assert coarse and all(np.array_equal(z, fine[::32]) and len(z) == 64 for z in coarse)

    def test_each_pattern_is_bounded_once(self, monkeypatch):
        # A zero composite coefficient has no phase, so its pattern is one row,
        # not one per phase: every coarse-bounded row is a distinct pattern.
        row_max, blocks = dirichlet._row_max, []

        def spy(rows, z):
            if len(z) != SMALL_GRID_POINTS:
                blocks.append(np.array(rows))
            return row_max(rows, z)

        monkeypatch.setattr(dirichlet, "_row_max", spy)
        method = sidon_N_bounds(6, mag_points=3, phase_points=2).method
        rows = [tuple(row) for row in np.concatenate(blocks).tolist()]
        assert len(set(rows)) == len(rows) == method["candidates"] == _distinct_patterns(6, 3, 2)

    def test_pruning_leaves_few_to_score(self):
        method = sidon_N_bounds(4).method
        assert method["candidates"] == 4124
        # Candidates whose A and B are constant score below 1 and are pruned.
        assert method["scored"] <= 10

    # S(N) at the default grids under the first-order Lipschitz score, which
    # the Bernstein score must not fall below.
    @pytest.mark.parametrize("N, floor", [(2, 1.0), (3, 1.0), (4, 1.4111522419537006),
                                          (5, 1.4111522419537006)])
    def test_no_value_falls_below_the_first_order_score(self, N, floor):
        assert sidon_N_bounds(N).lower >= floor

    def test_candidate_cap_raises_before_any_work(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("a candidate was evaluated")

        monkeypatch.setattr(dirichlet, "_row_max", no_evaluation)
        # 5^5 33^3 - 1 candidates at the defaults would take hours.
        with pytest.raises(ValueError, match=r"112303124 candidates.*10000000.*--mag-points/--phase-points"):
            sidon_N_bounds(8)
        # A composite's digit has 1 + 4 10^9 values here; none is built.
        with pytest.raises(ValueError, match=r"500000000124 candidates"):
            sidon_N_bounds(4, phase_points=10**9)

    def test_seven_fits_under_the_cap(self):
        # N = 7 at the defaults has 5^5 33^2 - 1 candidates, below the cap.
        assert _distinct_patterns(7, 5, 8) == 3403124 <= dirichlet.BRUTE_CANDIDATES_MAX

    def test_memory_is_flat(self):
        tracemalloc.start()
        try:
            sidon_N_bounds(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("N", [2, 3])
    def test_no_phase_is_allocated_without_a_composite(self, N):
        # No index up to 3 is composite, so no phase is read: these used to
        # allocate a 7.45 GiB phase grid and a (8, 5, 10^9) complex table.
        tracemalloc.start()
        try:
            sb = sidon_N_bounds(N, phase_points=10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        one = sidon_N_bounds(N, phase_points=1)
        assert sb.lower.hex() == one.lower.hex()
        assert repr(sb.witness.coeffs) == repr(one.witness.coeffs)
        assert sb.method["candidates"] == 5**N - 1


# The random search above N = 8 as it stood with its own loop: one ascent per
# candidate and its own firm-up, kept as the reference for the result bits.
def _reference_random_search(N, budget, seed):
    best_ratio, best_Q = 1.0, DirichletPolynomial(N, {1: 1.0})
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for idx in range(budget):
        gauss = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) / math.sqrt(2)
        Q = DirichletPolynomial(N, dict(zip(range(1, N + 1), gauss)))
        denom = sup_lower(bohr_lift(Q).poly, iterations=120, seed=seed + idx).lower
        ratio = dirichlet_l1(Q) / denom if denom > 0 else 0.0
        if ratio > best_ratio:
            best_ratio, best_Q = ratio, Q
    denom = sup_lower(bohr_lift(best_Q).poly, iterations=600, seed=seed).lower
    return max(1.0, min(best_ratio, dirichlet_l1(best_Q) / denom if denom else 1.0)), best_Q


class TestRandomSearch:
    @pytest.mark.parametrize("N, budget, seed", [(20, 50, 1), (20, 12, 0), (30, 20, 3), (25, 8, 11)])
    def test_same_bits_as_the_one_ascent_loop(self, N, budget, seed):
        sb = sidon_N_bounds(N, budget=budget, seed=seed)
        ratio, Q = _reference_random_search(N, budget, seed)
        assert ratio > 1.0  # a drawn candidate wins, not the a_1 = 1 witness
        assert sb.lower.hex() == ratio.hex()
        assert sb.witness == Q
        assert repr(sb.witness.coeffs) == repr(Q.coeffs)

    def test_lifts_are_scored_one_chunk_at_a_time(self, monkeypatch):
        # At N = 20 a lift has 20 terms in 8 variables and 64 starts, so a
        # cap of 3 * 64 * (20 + 8) entries makes ascent chunks of 3.  Each
        # lift is built just before the ascent that scores it; the last call
        # firms up the winner, lifted again.
        whole = sidon_N_bounds(20, budget=20, seed=2)
        events = []
        lift, ascent = dirichlet.bohr_lift, torusnorm._ascent
        monkeypatch.setattr(dirichlet, "bohr_lift", lambda Q: events.append("lift") or lift(Q))
        monkeypatch.setattr(torusnorm, "_ascent", lambda A, Ps, *rest: events.append(len(Ps)) or ascent(A, Ps, *rest))
        monkeypatch.setattr(torusnorm, "ASCENT_BATCH_ELEMENTS", 3 * 64 * (20 + 8))
        split = sidon_N_bounds(20, budget=20, seed=2)
        seen, pending = [], 0
        for event in events:
            if event == "lift":
                pending += 1
            else:
                assert pending == event
                seen.append(event)
                pending = 0
        assert seen == [3, 3, 3, 3, 3, 3, 2, 1]
        assert (split.lower, split.witness) == (whole.lower, whole.witness)


def _coefficient(draw, complex_phase):
    if draw(st.booleans()):
        return 0j
    mag = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-3, 2))
    if complex_phase:
        return mag * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    return draw(st.sampled_from([mag, -mag])) + 0j


@st.composite
def coefficient_rows(draw):
    """Nonzero rows a_1 .. a_8 with zeros, complex composites (4, 6, 8) and scales 1e-3 .. 1e3."""
    n_rows = draw(st.integers(1, 12))
    rows = [[_coefficient(draw, n in (4, 6, 8)) for n in range(1, 9)] for _ in range(n_rows)]
    return [row for row in rows if any(row)]


class TestPruningBound:
    @given(coefficient_rows())
    @settings(max_examples=150, deadline=None)
    def test_bound_is_above_the_certified_ratio(self, rows):
        assume(rows)
        z = dirichlet._small_nodes(SMALL_GRID_POINTS)
        block = np.array(rows)
        coarse_max = dirichlet._row_max(block, z[:: dirichlet.BRUTE_COARSE_STRIDE])
        moduli = [[abs(c) for c in row] for row in rows]
        prefilter = dirichlet._ratio_bounds(coarse_max, np.array(moduli), SMALL_GRID_POINTS)
        for r, row in enumerate(rows):
            grid_max = float(dirichlet._row_max(np.array([row]), z)[0])
            assert coarse_max[r] <= grid_max
            exact = _certified_ratio(DirichletPolynomial(8, dict(enumerate(row, 1))))
            assert exact == _reference_ratio(DirichletPolynomial(8, dict(enumerate(row, 1))))
            bound = dirichlet._ratio_small(float(coarse_max[r]), moduli[r], SMALL_GRID_POINTS)
            assert bound >= exact
            assert prefilter[r] >= bound

    @given(coefficient_rows())
    @settings(max_examples=60, deadline=None)
    def test_score_covers_a_16x_finer_grid(self, rows):
        # The score's denominator is at least max(|A| + |B|) on 16 * 2048
        # nodes plus |a_5| + |a_7|, the sup that the finer grid sees.
        assume(rows)
        theta = np.arange(16 * SMALL_GRID_POINTS) * (2.0 * math.pi / (16 * SMALL_GRID_POINTS))
        z = np.exp(1j * theta)
        for row in rows:
            a = dict(enumerate(row, 1))
            fine = float(np.max(np.abs(a[1] + a[2] * z + a[4] * z * z + a[8] * z * z * z)
                                + np.abs(a[3] + a[6] * z)))
            grid_max = float(dirichlet._row_max(np.array([row]), dirichlet._small_nodes(SMALL_GRID_POINTS))[0])
            assert grid_max / dirichlet._small_factor(SMALL_GRID_POINTS) >= fine
            Q = DirichletPolynomial(8, a)
            assert _certified_ratio(Q) <= dirichlet_l1(Q) / (fine + (abs(a[5]) + abs(a[7])))


class TestAsymptoticFormula:
    def test_frozen_value(self):
        assert asymptotic_formula(100, -1 / math.sqrt(2)) == pytest.approx(
            1.5332078308902644, rel=1e-12
        )

    def test_c_zero_is_sqrt(self):
        assert asymptotic_formula(100, 0.0) == pytest.approx(10.0)
        assert asymptotic_formula(400, 0.0) == pytest.approx(20.0)

    def test_monotone_in_c(self):
        for N in (16, 100, 10**6):
            assert asymptotic_formula(N, -1 / math.sqrt(2)) < asymptotic_formula(
                N, -1 / (2 * math.sqrt(2))
            )

    def test_out_of_domain(self):
        with pytest.raises(ValueError):
            asymptotic_formula(15, 0.0)


class TestBcqSum:
    def test_single_term_frozen(self):
        assert bcq_partial_sum(DirichletPolynomial(4, {4: 1.0}), 1 / math.sqrt(2)) == pytest.approx(
            0.8046674531326952, rel=1e-12
        )

    def test_c_zero(self):
        Q = DirichletPolynomial(4, {1: 1.0, 2: 1.0, 4: 2.0})
        want = 1.0 + 1 / math.sqrt(2) + 2 / 2.0
        assert bcq_partial_sum(Q, 0.0) == pytest.approx(want, rel=1e-14)

    def test_zero_coefficients(self):
        assert bcq_partial_sum(DirichletPolynomial(1), 1.0) == 0.0

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_is_refused(self, c):
        with pytest.raises(ValueError, match="c must be finite"):
            bcq_partial_sum(DirichletPolynomial(6, {6: 1.0}), c)

    def test_weight_past_the_float_range_names_c_and_n(self):
        # exp(700 sqrt(log 6 log log 6)) is about e^716, past the float range.
        Q = DirichletPolynomial(6, {2: 1.0, 6: 1.0})
        with pytest.raises(OverflowError, match=r"n = 6 at c = 700\.0"):
            bcq_partial_sum(Q, 700.0)
        assert math.isfinite(bcq_partial_sum(Q, 690.0))

    def test_small_n_convention(self):
        # n < 3 never receives the exponential factor.
        val = bcq_partial_sum(DirichletPolynomial(2, {1: 1.0, 2: 1.0}), 5.0)
        assert val == pytest.approx(1.0 + 1 / math.sqrt(2), rel=1e-14)

    def test_n_start_moves_threshold(self):
        Q = DirichletPolynomial(5, {5: 1.0})
        with_factor = bcq_partial_sum(Q, 1.0, n_start=3)
        without = bcq_partial_sum(Q, 1.0, n_start=6)
        assert without == pytest.approx(5 ** (-0.5))
        assert with_factor > without


class TestJson:
    def test_wire_format(self):
        Q = DirichletPolynomial(6, {2: 1.0})
        assert to_json_dict(Q) == {"N": 6, "terms": [{"n": 2, "re": 1.0, "im": 0.0}]}

    def test_round_trip(self):
        Q = DirichletPolynomial(10, {1: 1j, 7: 2.0, 10: -1.5 + 0.5j})
        R = from_json_dict(json.loads(json.dumps(to_json_dict(Q))))
        assert R.N == Q.N and R.coeffs == Q.coeffs

    def test_index_bounds(self):
        with pytest.raises(ValueError):
            DirichletPolynomial(5, {6: 1.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            DirichletPolynomial(5, {2: 1.0, 3: bad})

    def test_missing_keys_named(self):
        with pytest.raises(ValueError, match="'N'"):
            from_json_dict({"terms": [{"n": 2, "re": 1.0}]})
        with pytest.raises(ValueError, match="'n'"):
            from_json_dict({"N": 3, "terms": [{"re": 1.0}]})
        with pytest.raises(ValueError, match="'re'"):
            from_json_dict({"N": 3, "terms": [{"n": 2, "im": 1.0}]})

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"N": [1], "terms": []}, "N"),
            ({"N": 4, "terms": 5}, "terms"),
            ({"N": 4, "terms": [{"n": None, "re": 1.0}]}, "n"),
            ({"N": 4, "terms": [{"n": 2, "re": "1"}]}, "re"),
            ({"N": 4, "terms": [{"n": 2, "re": 1.0, "im": {}}]}, "im"),
        ],
    )
    def test_wrong_type_named(self, data, key):
        with pytest.raises(ValueError, match=repr(key)):
            from_json_dict(data)
