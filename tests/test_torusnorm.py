import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polybh.polyalgebra import (
    RANDOM_DISTRIBUTIONS,
    GeneralPolynomial,
    HomogeneousPolynomial,
    coeff_norm,
    evaluate,
    majorant_sum,
    monomials,
    random_homogeneous,
    scale,
    term_arrays,
)
from polybh import torusnorm
from polybh.dirichlet import DirichletPolynomial, bohr_lift
from polybh.torusnorm import (
    ASCENT_FIRST_STOP,
    ASCENT_STEP0,
    TWO_PI,
    BudgetExceededError,
    _grid_values,
    as_dense_form,
    certified_upper,
    l4_torus_norm,
    sup_certified,
    sup_lower,
    sup_lower_each,
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


def plain_ascent(P, starts, iterations, seed):
    """The phase ascent written out for one case, with masked updates: the
    reference that sup_lower and every case of sup_lower_each must match
    bit for bit."""
    A, c = term_arrays(P)
    cmax = float(np.max(np.abs(c)))
    cn = c / cmax
    Af = A.astype(np.float64)
    cA = cn[:, None] * A
    S = starts if starts is not None else max(1, 8 * P.n)
    theta = np.random.default_rng(np.random.SeedSequence(seed)).random((S, P.n)) * TWO_PI
    theta[0] = 0.0

    def value_grad(th):
        M = monomials(th, Af)
        vals = M @ cn
        return vals.real ** 2 + vals.imag ** 2, 2.0 * (np.conjugate(vals)[:, None] * (1j * (M @ cA))).real

    f, grad = value_grad(theta)
    step = np.full(S, ASCENT_STEP0)
    run = iterations
    for it in range(iterations):
        prop = np.mod(theta + step[:, None] * grad, TWO_PI)
        fp, gp = value_grad(prop)
        acc = fp > f
        theta[acc], f[acc], grad[acc] = prop[acc], fp[acc], gp[acc]
        step[~acc] *= 0.5
        if float(step.max()) < 1e-16:
            run = it + 1
            break
    arg = theta[int(np.argmax(f))]
    return float(np.abs(monomials(arg, Af) @ cn)) * cmax, arg, run


DENSE_PAIRS = [(m, n) for m in range(1, 6) for n in range(1, 7) if m * n <= 24]


class TestSupLowerBatch:
    """The batched ascent of sup_lower_each: a stream of polynomials with one
    exponent matrix runs as one ascent, in chunks."""

    @given(st.sampled_from(DENSE_PAIRS), st.integers(1, 6), st.sampled_from([None, 1, 3, 4]),
           st.sampled_from([0, 1, 7, 40, 200]), st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_every_case_is_its_one_case_ascent(self, pair, B, starts, iterations, seed):
        m, n = pair
        seeds = [int(s) for s in np.random.default_rng(seed).integers(0, 2**63, B)]
        Ps = [random_homogeneous(m, n, RANDOM_DISTRIBUTIONS[i % 3], seed=s) for i, s in enumerate(seeds)]
        batch = sup_lower_each(Ps, starts, iterations, seeds)
        for P, s, est in zip(Ps, seeds, batch):
            one = sup_lower(P, starts=starts, iterations=iterations, seed=s)
            lower, arg, run = plain_ascent(P, starts, iterations, s)
            assert est.lower == one.lower == lower
            assert np.array_equal(est.argmax, one.argmax) and np.array_equal(est.argmax, arg)
            assert est.method == one.method
            assert est.method["iterations_run"] == run
            assert type(est.lower) is float

    def test_one_case_stops_while_another_runs_on(self):
        # At (3, 2) and 200 iterations the seed-0 case stops early, the seed-8 case never does.
        Ps = [random_homogeneous(3, 2, RANDOM_DISTRIBUTIONS[i % 3], seed=i) for i in (0, 8)]
        batch = sup_lower_each(Ps, None, 200, [0, 8])
        runs = [est.method["iterations_run"] for est in batch]
        assert runs[0] < 200 == runs[1]
        for P, s, est in zip(Ps, (0, 8), batch):
            one = sup_lower(P, iterations=200, seed=s)
            assert (est.lower, est.method) == (one.lower, one.method)
            lower, _, run = plain_ascent(P, None, 200, s)
            assert (est.lower, est.method["iterations_run"]) == (lower, run)

    def test_output_does_not_depend_on_the_chunk_cap(self, monkeypatch):
        Ps = [random_homogeneous(4, 3, RANDOM_DISTRIBUTIONS[i % 3], seed=i) for i in range(5)]
        whole = sup_lower_each(Ps, 4, 80, list(range(5)))
        monkeypatch.setattr(torusnorm, "ASCENT_BATCH_ELEMENTS", 1)
        split = sup_lower_each(Ps, 4, 80, list(range(5)))
        assert [(e.lower, e.argmax.tolist(), e.method) for e in whole] == \
            [(e.lower, e.argmax.tolist(), e.method) for e in split]

    def test_zero_polynomials(self):
        Z = HomogeneousPolynomial(2, 2, {})
        assert [e.lower for e in sup_lower_each([Z, Z], None, 10, [1, 2])] == [0.0, 0.0]

    def test_a_generator_is_pulled_at_most_one_chunk_ahead(self, monkeypatch):
        # A cap of 2 * 4 * (6 + 3) entries makes chunks of 2 at (2, 3) and 4
        # starts; the (2, 2) case 3 has another exponent matrix, so it cuts
        # a chunk before and after it.
        monkeypatch.setattr(torusnorm, "ASCENT_BATCH_ELEMENTS", 2 * 4 * (6 + 3))
        shapes = [(2, 3)] * 3 + [(2, 2)] + [(2, 3)] * 3
        Ps = [random_homogeneous(m, n, "complex-gaussian", seed=s) for s, (m, n) in enumerate(shapes)]
        pulled, ran, calls = [0], [0], []

        def stream():
            for P in Ps:
                pulled[0] += 1
                yield P

        def ascent(A, Qs, *rest, kernel=torusnorm._ascent):
            calls.append((len(Qs), pulled[0] - ran[0]))
            ran[0] += len(Qs)
            return kernel(A, Qs, *rest)

        monkeypatch.setattr(torusnorm, "_ascent", ascent)
        each = sup_lower_each(stream(), 4, 20, list(range(7)))
        assert [size for size, _ in calls] == [2, 1, 1, 2, 1]
        # Pulled but not yet run: the chunk itself, and at most the P that ended it.
        assert all(size <= ahead <= size + 1 for size, ahead in calls)
        for P, s, est in zip(Ps, range(7), each):
            one = sup_lower(P, starts=4, iterations=20, seed=s)
            assert (est.lower, est.argmax.tolist(), est.method) == (one.lower, one.argmax.tolist(), one.method)

    def test_validation(self):
        P = random_homogeneous(2, 3, "complex-gaussian", seed=1)

        def never_pulled():
            raise AssertionError("pulled before the arguments were checked")
            yield

        with pytest.raises(ValueError, match="seeds"):
            sup_lower_each([P, P], None, 10, [1])
        with pytest.raises(ValueError, match="starts"):
            sup_lower_each([P], 0, 10, [1])
        with pytest.raises(ValueError, match="iterations"):
            sup_lower_each([P], None, -1, [1])
        # A generator: too few P for the seeds, and arguments checked before any pull.
        with pytest.raises(ValueError, match="seeds"):
            sup_lower_each(iter([P, P]), None, 10, [1, 2, 3])
        with pytest.raises(ValueError, match="starts"):
            sup_lower_each(never_pulled(), 0, 10, [1])
        with pytest.raises(ValueError, match="iterations"):
            sup_lower_each(never_pulled(), None, -1, [1])


class TestSupLowerEach:
    def test_a_dropped_coefficient_splits_the_run(self, monkeypatch):
        # A coefficient drawn as exactly 0 is dropped, so that P has its own
        # exponent matrix; it runs alone and its neighbours still batch.
        Ps = [random_homogeneous(2, 3, "complex-gaussian", seed=s) for s in range(4)]
        Ps[1] = HomogeneousPolynomial(2, 3, {k: v for k, v in Ps[1].coeffs.items() if k != (1, 2)})
        Ps.append(Ps[3])
        seen, ascent = [], torusnorm._ascent
        monkeypatch.setattr(torusnorm, "_ascent", lambda A, Qs, *rest: seen.append(len(Qs)) or ascent(A, Qs, *rest))
        each = sup_lower_each(Ps, None, 50, [0, 1, 2, 3, 4])
        assert seen == [1, 1, 3]
        for P, s, est in zip(Ps, range(5), each):
            one = sup_lower(P, iterations=50, seed=s)
            assert (est.lower, est.argmax.tolist(), est.method) == (one.lower, one.argmax.tolist(), one.method)

    def test_validation(self):
        assert sup_lower_each([], None, 10, []) == []
        with pytest.raises(ValueError, match="seeds"):
            sup_lower_each([Z1_PLUS_Z2], None, 10, [1, 2])

    def test_a_case_over_the_entry_cap_is_refused_before_its_ascent(self, monkeypatch):
        # 10^9 starts of a (2, 2) polynomial used to end in a 14.9 GiB MemoryError.
        def no_ascent(*args):
            raise AssertionError("an ascent ran")

        monkeypatch.setattr(torusnorm, "_ascent", no_ascent)
        P = random_homogeneous(2, 2, "complex-gaussian", seed=1)  # K = 3 terms, n = 2
        with pytest.raises(BudgetExceededError, match="5000000000 phase and monomial entries"):
            sup_lower_each([P], 10**9, 10, [1])
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 4 * 5)
        with pytest.raises(BudgetExceededError, match="cap is 20"):
            sup_lower_each([P], 5, 10, [1])
        monkeypatch.setattr(torusnorm, "_ascent", lambda A, Ps, *rest: [None] * len(Ps))
        assert sup_lower_each([P], 4, 10, [1]) == [None]  # exactly at the cap runs


class TestUnusedVariablesAndStops:
    """Variables no term uses keep their start phases, and the stop check
    fires first at iteration ASCENT_FIRST_STOP, both with the bits of the
    reference ascent, which moves every variable and checks every iteration."""

    @given(st.sampled_from(DENSE_PAIRS), st.integers(1, 6), st.integers(1, 3),
           st.sampled_from([None, 1, 3]), st.sampled_from([7, 80, 200]), st.integers(0, 2**63 - 1))
    @settings(max_examples=25, deadline=None)
    def test_dense_P_among_unused_variables(self, pair, extra, B, starts, iterations, seed):
        m, k = pair
        n = k + extra
        rng = np.random.default_rng(seed)
        at = np.sort(rng.choice(n, size=k, replace=False)) + 1  # variable j of P is variable at[j - 1]
        seeds = [int(s) for s in rng.integers(0, 2**63, B)]
        Ps = [HomogeneousPolynomial(m, n, {tuple(int(at[j - 1]) for j in idx): v
                                           for idx, v in random_homogeneous(m, k, "complex-gaussian", seed=s)
                                           .coeffs.items()}) for s in seeds]
        unused = np.setdiff1d(np.arange(n), at - 1)
        S = starts if starts is not None else 8 * n
        for P, s, est in zip(Ps, seeds, sup_lower_each(Ps, starts, iterations, seeds)):
            lower, arg, run = plain_ascent(P, starts, iterations, s)
            assert est.lower == lower and np.array_equal(est.argmax, arg)
            assert est.method["iterations_run"] == run
            start = np.random.default_rng(np.random.SeedSequence(s)).random((S, n)) * TWO_PI
            start[0] = 0.0
            assert any(np.array_equal(est.argmax[unused], row[unused]) for row in start)

    @pytest.mark.parametrize("j, N", [(0, 30), (5, 130)])
    def test_dirichlet_lift(self, j, N):
        # The lift of round 0 at benchmark seed 1 of dirichlet-sidon: 12 terms,
        # 10 and 31 variables of which 6 and 10 are used.
        seed = int(np.random.SeedSequence(1, spawn_key=(4, 0, j)).generate_state(1)[0])
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        support = rng.choice(np.arange(1, N + 1), size=12, replace=False)
        Q = DirichletPolynomial(N, {int(k): complex(rng.standard_normal(), rng.standard_normal()) for k in support})
        lift = bohr_lift(Q).poly
        used = int(term_arrays(lift)[0].any(axis=0).sum())
        assert (lift.n, used) == {30: (10, 6), 130: (31, 10)}[N]
        est = sup_lower(lift, seed=seed)
        lower, arg, run = plain_ascent(lift, None, 200, seed)
        assert (est.lower, est.method["iterations_run"]) == (lower, run)
        assert np.array_equal(est.argmax, arg)

    @pytest.mark.parametrize("P", [GeneralPolynomial(3, {}, a0=2), HomogeneousPolynomial(1, 1, {(1,): 1.0})],
                             ids=["constant", "z1"])
    def test_the_earliest_stop(self, P):
        # No proposal raises |P| here, so every step halves each iteration.
        est = sup_lower(P, seed=0)
        lower, _, run = plain_ascent(P, None, 200, 0)
        assert est.method["iterations_run"] == run == ASCENT_FIRST_STOP + 1 == 53
        assert est.lower == lower


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
        with pytest.raises(ValueError, match="need h < 2/D = 1.0"):
            sup_certified(SQUARE, 1.0)  # needs h < 2/D, total degree D = 2
        with pytest.raises(ValueError):
            sup_certified(SQUARE, -1.0)

    def test_total_degree_sets_the_correction(self):
        # D = 2 < n m_max = 4: a step in [2/(n m_max), 2/D) is legal, and the
        # correction is sqrt(1 - x^2), x = D h_eff / 2.  sup = 2, attained at theta = 0.
        P = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
        for h in (0.5, 0.9):
            est = sup_certified(P, h)
            h_eff = est.method["h_eff"]
            assert est.method["degree"] == 2 and h_eff <= h
            assert est.lower == pytest.approx(2.0, abs=1e-12)
            x = 2 * h_eff / 2.0
            assert est.upper == est.lower / math.sqrt(1.0 - x * x)

    def test_budget_cap(self, monkeypatch):
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 1000)
        P = random_homogeneous(2, 3, "complex-gaussian", seed=1)
        with pytest.raises(BudgetExceededError):
            sup_certified(P, 0.01)

    def test_tiny_step_hits_the_cap_before_the_ceiling(self, monkeypatch):
        # 2 pi / h overflows to inf here; math.ceil(inf) used to be the error.
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 1000)
        with pytest.raises(BudgetExceededError, match="needs inf nodes per axis; cap is 1000$"):
            sup_certified(SQUARE, 1e-320)

    def test_budget_counts_the_slice(self, monkeypatch):
        # 2 pi / 0.1 -> L = 63: the lattice has 63^3 points, the slice 63^2.
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 63**2)
        P = random_homogeneous(2, 3, "complex-gaussian", seed=4)
        est = sup_certified(P, 0.1)
        assert est.method["grid_points_per_axis"] == 63
        assert est.method["evaluations"] == 63**2
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 63**2 - 1)
        with pytest.raises(BudgetExceededError, match=f"needs {63**2} evaluations"):
            sup_certified(P, 0.1)

    def test_constant_polynomial_exact(self):
        G = GeneralPolynomial(2, {}, a0=2 - 1j)
        est = sup_certified(G, 0.3)
        assert est.lower == est.upper == pytest.approx(abs(2 - 1j))

    def test_inactive_variables_skipped(self, monkeypatch):
        # P depends only on z1; the grid should not blow up with n.
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 10_000)
        P = HomogeneousPolynomial(2, 6, {(1, 1): 1.0})
        est = sup_certified(P, 0.05)
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
            with mock.patch.object(torusnorm, "DENSE_ENTRIES_MAX", 2_000_000):
                est = sup_certified(P, 1.9 / (n * m))
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
    def test_lattice_rule(self, monkeypatch):
        # The step 2 * 0.25 / D = 0.25 gives L = 26, and the (2, 4) slice
        # evaluated has 26^3 points: at a cap of exactly that the grid bound,
        # below the coefficient sum, is returned; one point less, the sum.
        P = random_homogeneous(2, 4, "random-signs", seed=2)
        grid = sup_certified(P, 0.25)
        assert grid.method["grid_points_per_axis"] == 26 and grid.method["evaluations"] == 26**3
        assert grid.upper < majorant_sum(P, 1.0)
        monkeypatch.setattr(torusnorm, "CERTIFIED_UPPER_POINTS", 26**3)
        assert certified_upper(P) == grid.upper
        monkeypatch.setattr(torusnorm, "CERTIFIED_UPPER_POINTS", 26**3 - 1)
        assert certified_upper(P) == majorant_sum(P, 1.0)

    def test_default_cap(self):
        # (4, 4): L = ceil(2 pi / (0.5 / 4)) = 51, and the slice has 51^3 > 2^16 points.
        P = random_homogeneous(4, 4, "random-signs", seed=2)
        assert torusnorm.CERTIFIED_UPPER_POINTS == 1 << 16 < 51**3
        assert sup_certified(P, 0.125).upper < majorant_sum(P, 1.0)
        assert certified_upper(P) == majorant_sum(P, 1.0)

    @pytest.mark.parametrize("target", [0.0, -0.1, 1.0, math.nan])
    def test_target_correction_validation(self, target):
        with pytest.raises(ValueError, match="target_correction"):
            certified_upper(SQUARE, target_correction=target)

    def test_bounded_by_coefficient_sum(self):
        for seed in range(10):
            P = random_homogeneous(2, 5, "complex-gaussian", seed=seed)
            assert certified_upper(P) <= coeff_norm(P, 1) * (1 + 1e-12)

    def test_is_a_true_upper_bound(self):
        for seed in range(10):
            P = random_homogeneous(3, 2, "complex-gaussian", seed=seed)
            assert certified_upper(P) >= sup_lower(P, seed=seed).lower * (1 - 1e-12)


class TestFinestUpper:
    @staticmethod
    def _spy(monkeypatch):
        calls = []
        bracket = torusnorm._grid_bracket
        monkeypatch.setattr(torusnorm, "_grid_bracket",
                            lambda P, h, L, axes, D: calls.append((h, L, len(axes))) or bracket(P, h, L, axes, D))
        return calls

    @pytest.mark.parametrize("m, n, j", [(2, 2, 1), (3, 4, 2), (5, 3, 3)])
    def test_one_monomial_is_its_coefficient_sum(self, m, n, j, monkeypatch):
        # A slice of k = 0 axes: sup |a z_j^m| = |a| exactly, with no grid.
        calls = self._spy(monkeypatch)
        assert torusnorm._finest_upper(HomogeneousPolynomial(m, n, {(j,) * m: 1.0})) == (1.0, "coefficient-sum")
        assert torusnorm._finest_upper(HomogeneousPolynomial(m, n, {(j,) * m: -3j})) == (3.0, "coefficient-sum")
        assert calls == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_the_finest_lattice_within_the_cap(self, k, monkeypatch):
        # (2, k + 1) has a slice of k axes; L = 65536, 256, 40, 16, 9 nodes per axis.
        calls = self._spy(monkeypatch)
        P = random_homogeneous(2, k + 1, "random-signs", seed=1)
        upper, how = torusnorm._finest_upper(P)
        (h, L, axes), = calls
        cap = torusnorm.CERTIFIED_UPPER_POINTS
        assert axes == k and L**k <= cap < (L + 1) ** k and h == TWO_PI / L
        if how != "coefficient-sum":
            assert how["grid_points_per_axis"] == L and how["evaluations"] == L**k
            assert upper < majorant_sum(P, 1.0)

    def test_a_lattice_of_at_most_pi_d_nodes_runs_no_grid(self, monkeypatch):
        # (3, 6): L = 9 nodes on 5 axes, below pi D = 9.42, so h = 2 pi / 9 is not below 2 / D.
        calls = self._spy(monkeypatch)
        P = random_homogeneous(3, 6, "random-signs", seed=1)
        assert torusnorm._finest_upper(P) == (majorant_sum(P, 1.0), "coefficient-sum")
        assert calls == []
        # At (2, 2), one axis: 6 nodes are not above 2 pi, 7 are.
        P = random_homogeneous(2, 2, "random-signs", seed=1)
        monkeypatch.setattr(torusnorm, "CERTIFIED_UPPER_POINTS", 6)
        torusnorm._finest_upper(P)
        assert calls == []
        monkeypatch.setattr(torusnorm, "CERTIFIED_UPPER_POINTS", 7)
        torusnorm._finest_upper(P)
        assert [L for _, L, _ in calls] == [7]

    @pytest.mark.parametrize("m, n", [(2, 2), (4, 2), (3, 3), (2, 5)])
    def test_brackets_the_sup_norm(self, m, n):
        for seed in range(3):
            P = random_homogeneous(m, n, "complex-gaussian", seed=seed)
            upper, how = torusnorm._finest_upper(P)
            assert sup_lower(P, seed=seed).lower <= upper <= majorant_sum(P, 1.0)
            assert (how == "coefficient-sum") == (upper == majorant_sum(P, 1.0))


def _random_polynomial(pair, dist, seed, general):
    m, n = pair
    if not general:
        return random_homogeneous(m, n, dist, seed=seed)
    parts = {k: random_homogeneous(k, n, dist, seed=seed + k) for k in range(1, m + 1)}
    return GeneralPolynomial(n, parts, a0=complex(*np.random.default_rng(seed).standard_normal(2)))


def _permuted(P, perm):
    if isinstance(P, GeneralPolynomial):
        return GeneralPolynomial(P.n, {k: _permuted(part, perm) for k, part in P.parts.items()}, P.a0)
    return HomogeneousPolynomial(P.m, P.n, {tuple(perm[i - 1] + 1 for i in j): c for j, c in P.coeffs.items()})


BOUND_PAIRS = [(m, n) for m, n in SMALL_PAIRS if n <= 4]


class TestTotalDegreeBound:
    # sup |P| <= grid_max / sqrt(1 - x^2), x = D h_eff / 2, with D the total degree.
    @given(st.sampled_from(BOUND_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1), st.booleans(), st.floats(0.3, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_upper_bounds_every_value(self, pair, dist, seed, general, frac):
        P = _random_polynomial(pair, dist, seed, general)
        D = int(term_arrays(P)[0].sum(axis=1).max())
        # Random phases and the ascent's best point, a near-maximizer.
        theta = np.random.default_rng(seed).random((64, P.n)) * TWO_PI
        theta[0] = sup_lower(P, starts=4, iterations=80, seed=seed % 1000).argmax
        values = np.abs([evaluate(P, np.exp(1j * t)) for t in theta])
        est = sup_certified(P, frac * 2 / D)
        assert est.upper >= values.max() * (1 - 1e-12)
        assert est.upper >= est.lower
        assert certified_upper(P) >= values.max() * (1 - 1e-12)

    @given(st.integers(1, 6),
           st.lists(st.just(0j) | st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3), min_size=7, max_size=7),
           st.floats(1e-3, 0.999))
    @settings(max_examples=60, deadline=None)
    def test_one_axis_bound_is_second_order(self, m, coeffs, x):
        # n = 2, homogeneous: the slice theta_1 = 0 has at most one axis.  The bound
        # covers the maximum on a 16x finer lattice and is never above the
        # first-order one, lower / (1 - x).
        assume(any(coeffs[: m + 1]))
        P = HomogeneousPolynomial(m, 2, {(1,) * (m - j) + (2,) * j: c for j, c in enumerate(coeffs[: m + 1])})
        est = sup_certified(P, 2 * x / m)
        L = est.method["grid_points_per_axis"]
        t = np.arange(16 * L) * (TWO_PI / (16 * L))
        fine = np.abs(np.exp(1j * np.outer(t, np.arange(m + 1))) @ np.array(coeffs[: m + 1])).max()
        assert est.upper >= fine
        assert est.upper <= est.lower / (1.0 - x)
        assert est.upper < est.lower / (1.0 - m * est.method["h_eff"] / 2)  # the first-order bound

    @given(st.sampled_from(BOUND_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1), st.booleans(), st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_scaling_covariance(self, pair, dist, seed, general, factor):
        P = _random_polynomial(pair, dist, seed, general)
        Q = scale(P, factor)
        D = int(term_arrays(P)[0].sum(axis=1).max())
        assert certified_upper(Q) == pytest.approx(factor * certified_upper(P), rel=1e-12)
        assert sup_certified(Q, 1 / D).upper == pytest.approx(factor * sup_certified(P, 1 / D).upper, rel=1e-12)

    @given(st.sampled_from(BOUND_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_permuting_variables(self, pair, dist, seed, general, rnd):
        P = _random_polynomial(pair, dist, seed, general)
        perm = list(range(P.n))
        rnd.shuffle(perm)
        Q = _permuted(P, perm)
        D = int(term_arrays(P)[0].sum(axis=1).max())
        assert certified_upper(Q) == pytest.approx(certified_upper(P), rel=1e-12)
        assert sup_certified(Q, 1 / D).upper == pytest.approx(sup_certified(P, 1 / D).upper, rel=1e-12)


def _l4_reference(P):
    """||P||_4^4 = ||P^2||_2^2, the sum of |b_gamma|^2 over the coefficients
    b of P^2, by a loop over pairs of terms."""
    A, c = term_arrays(P)
    terms = [(tuple(int(e) for e in a), complex(v)) for a, v in zip(A, c)]
    square = {}
    for a, u in terms:
        for b, v in terms:
            gamma = tuple(x + y for x, y in zip(a, b))
            square[gamma] = square.get(gamma, 0j) + u * v
    return math.fsum(abs(w) ** 2 for w in square.values())


class TestL4Norm:
    @given(st.sampled_from(SMALL_PAIRS), st.sampled_from(RANDOM_DISTRIBUTIONS),
           st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_lattice_mean_is_the_square_convolution(self, pair, dist, seed, general):
        P = _random_polynomial(pair, dist, seed, general)
        assert l4_torus_norm(P) ** 4 == pytest.approx(_l4_reference(P), rel=1e-12, abs=0.0)

    def test_closed_forms(self):
        assert l4_torus_norm(HomogeneousPolynomial(3, 2, {(2, 2, 2): -2.0})) == 2.0
        assert l4_torus_norm(HomogeneousPolynomial(2, 3)) == 0.0
        # |1 + w|^4 has mean 1 + 4 + 1; 1 + z1 is not homogeneous, so no slice.
        one_plus_z1 = GeneralPolynomial(2, {1: HomogeneousPolynomial(1, 2, {(1,): 1.0})}, a0=1.0)
        assert l4_torus_norm(one_plus_z1) == pytest.approx(6.0 ** 0.25, rel=1e-15)
        assert l4_torus_norm(Z1_PLUS_Z2) == pytest.approx(6.0 ** 0.25, rel=1e-15)
        # z1^2 + z1 z2 and z2^2 + z2 z3: the slice keeps one axis, whose exponents
        # are at most 1 < m, so L = 3.  P^2 has coefficients 1, 2 and 1.
        for P in (HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): 1.0}),
                  HomogeneousPolynomial(2, 3, {(2, 2): 1.0, (2, 3): 1.0})):
            assert l4_torus_norm(P) == pytest.approx(6.0 ** 0.25, rel=1e-15)

    def test_lattice_cap(self, monkeypatch):
        # (2, 4): L = 5 nodes on the three axes of the slice.
        P = random_homogeneous(2, 4, "complex-gaussian", seed=3)
        monkeypatch.setattr(torusnorm, "MOMENT_POINTS_MAX", 5**3)
        value = l4_torus_norm(P)
        monkeypatch.setattr(torusnorm, "MOMENT_POINTS_MAX", 5**3 - 1)
        with pytest.raises(BudgetExceededError, match="needs 125 evaluations"):
            l4_torus_norm(P)
        assert value == pytest.approx(_l4_reference(P) ** 0.25, rel=1e-13)


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
        with pytest.raises(ValueError, match="at least one axis"):
            as_dense_form(np.complex128(1.0))
        with pytest.raises(TypeError):
            as_dense_form("nonsense")
        with pytest.raises(TypeError):  # an ndarray is the only table form
            as_dense_form([[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("form", [np.zeros((0, 0)), np.zeros((0, 0, 0))])
    def test_as_dense_form_rejects_an_empty_axis(self, form):
        # n = 0 leaves no entries; sup_multilinear used to fail inside numpy.
        with pytest.raises(ValueError, match="axis of length 0"):
            as_dense_form(form)

    def test_as_dense_form_entry_cap(self, monkeypatch):
        monkeypatch.setattr(torusnorm, "DENSE_ENTRIES_MAX", 8)
        assert as_dense_form(np.ones((2, 2, 2))).dtype == np.complex128
        with pytest.raises(BudgetExceededError, match="cap is 8"):
            as_dense_form(np.ones((3, 3)))
        with pytest.raises(BudgetExceededError):
            sup_multilinear(np.ones((3, 3)))
