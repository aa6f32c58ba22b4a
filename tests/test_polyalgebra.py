import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybh import polyalgebra
from polybh.indexcore import index_to_exponent
from polybh.polyalgebra import (
    MC_BATCH,
    BudgetExceededError,
    GeneralPolynomial,
    HomogeneousPolynomial,
    MCEstimate,
    check_entries,
    coeff_norm,
    dimension_count,
    evaluate,
    evaluate_points,
    from_json_dict,
    l1_torus_norm_mc,
    l2_torus_norm,
    majorant_sum,
    random_homogeneous,
    scale,
    term_arrays,
    to_json_dict,
)

Z1Z2 = HomogeneousPolynomial(2, 2, {(1, 2): 1.0})
SQUARE = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 1.0})  # (z1+z2)^2


class TestConstruction:
    def test_keys_canonicalized_and_merged(self):
        P = HomogeneousPolynomial(2, 2, {(2, 1): 1.0, (1, 2): 2.0})
        assert P.coeffs == {(1, 2): 3.0}
        assert P.coeff((2, 1)) == 3.0

    def test_zero_coefficients_dropped(self):
        P = HomogeneousPolynomial(2, 2, {(1, 1): 0.0, (1, 2): 1.0})
        assert (1, 1) not in P.coeffs

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, {(1, 1, 1): 1.0})

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(ValueError):
            HomogeneousPolynomial(2, 2, {(1, 3): 1.0})

    def test_general_parts_validated(self):
        with pytest.raises(ValueError):
            GeneralPolynomial(2, {3: HomogeneousPolynomial(2, 2, {(1, 1): 1.0})})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (1, 2): bad})
        with pytest.raises(ValueError, match="not finite"):
            GeneralPolynomial(2, {2: Z1Z2}, a0=bad)

    def test_merged_overflow_rejected(self):
        with pytest.raises(ValueError, match="not finite"):
            HomogeneousPolynomial(2, 2, {(1, 2): 1e308, (2, 1): 1e308})


class TestTermArrays:
    def test_cached_read_only_and_equal_to_fresh_build(self):
        P = random_homogeneous(3, 4, "complex-gaussian", seed=2)
        A, c = term_arrays(P)
        assert term_arrays(P)[0] is A and term_arrays(P)[1] is c
        assert not A.flags.writeable and not c.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 7
        support = sorted(P.coeffs)
        np.testing.assert_array_equal(A, [index_to_exponent(j, P.n) for j in support])
        np.testing.assert_array_equal(c, [P.coeffs[j] for j in support])

    def test_general_rows_constant_then_ascending_degree(self):
        P1 = HomogeneousPolynomial(1, 2, {(2,): 2.0, (1,): 1.0})
        G = GeneralPolynomial(2, {2: Z1Z2, 1: P1}, a0=5.0)
        A, c = term_arrays(G)
        np.testing.assert_array_equal(A, [[0, 0], [1, 0], [0, 1], [1, 1]])
        np.testing.assert_array_equal(c, [5.0, 1.0, 2.0, 1.0])
        assert not A.flags.writeable and not c.flags.writeable
        A0, c0 = term_arrays(GeneralPolynomial(2, {1: P1}))
        assert A0.shape == (2, 2) and list(c0) == [1.0, 2.0]


class TestEvaluate:
    def test_z1z2_at_ii(self):
        assert evaluate(Z1Z2, (1j, 1j)) == pytest.approx(-1.0)

    def test_sum_of_squares(self):
        P = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
        assert evaluate(P, (1.0, 1.0)) == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(Z1Z2, (1.0,))

    def test_homogeneity(self):
        rng = np.random.default_rng(12)
        for seed in range(10):
            P = random_homogeneous(3, 3, "complex-gaussian", seed=seed)
            z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            lhs = evaluate(P, lam * z)
            rhs = lam**3 * evaluate(P, z)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)

    def test_linearity_in_coefficients(self):
        P = random_homogeneous(2, 3, "complex-gaussian", seed=1)
        Q = random_homogeneous(2, 3, "complex-gaussian", seed=2)
        z = (0.3 + 0.1j, -0.5, 0.9j)
        total = evaluate(HomogeneousPolynomial(2, 3, {j: P.coeff(j) + Q.coeff(j) for j in P.coeffs}), z)
        assert total == pytest.approx(evaluate(P, z) + evaluate(Q, z))

    def test_general_polynomial_includes_constant(self):
        G = GeneralPolynomial(2, {2: Z1Z2}, a0=5.0)
        assert evaluate(G, (1.0, 1.0)) == pytest.approx(6.0)


@st.composite
def points_cases(draw):
    """A homogeneous or general P (general ones may have a0 and n = 0) and 1..40 points,
    some coordinates exactly zero."""
    general = draw(st.booleans())
    n = draw(st.integers(0 if general else 1, 4))
    degrees = draw(st.sets(st.integers(1, 4), max_size=3)) if general and n else {draw(st.integers(1, 4))}
    rows = draw(st.integers(1, 40))
    zero_frac = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = {}
    for m in degrees if n else ():
        dense = random_homogeneous(m, n, "complex-gaussian", seed=int(rng.integers(2**32)))
        parts[m] = HomogeneousPolynomial(m, n, {j: c for j, c in dense.coeffs.items() if rng.random() < 0.7})
    if general:
        P = GeneralPolynomial(n, parts, a0=draw(st.sampled_from([0.0, 1.5 - 0.5j])))
    else:
        (P,) = parts.values()
    Z = 2 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    Z[rng.random((rows, n)) < zero_frac] = 0
    return P, Z


class TestEvaluatePoints:
    @given(points_cases())
    @settings(max_examples=200, deadline=None)
    def test_one_row_rule_and_power_reference(self, case):
        P, Z = case
        values = evaluate_points(P, Z)
        for i in range(len(Z)):
            assert np.complex128(evaluate(P, Z[i])).tobytes() == values[i].tobytes()
        # Reference: every term as a product of coordinate powers.
        A, c = term_arrays(P)
        powers = np.prod(Z[:, None, :] ** A, axis=2)
        want = np.einsum("ik,k->i", powers, c)
        assert np.all(np.abs(values - want) <= 1e-13 * (np.abs(powers) @ np.abs(c)))

    def test_empty_batch_and_zero_polynomial(self):
        assert evaluate_points(SQUARE, np.zeros((0, 2))).shape == (0,)
        assert list(evaluate_points(GeneralPolynomial(2), [[1.0, 2.0]])) == [0j]


class TestCoeffNorm:
    def test_littlewood_exponent_example(self):
        # (1 + 2^{4/3} + 1)^{3/4}
        assert coeff_norm(SQUARE, 4 / 3) == pytest.approx(3.099862620896644, rel=1e-12)

    def test_single_coefficient_any_p(self):
        for p in (0.5, 1, 4 / 3, 2, 7, math.inf):
            assert coeff_norm(Z1Z2, p) == pytest.approx(1.0)

    def test_equal_moduli_power_sum(self):
        for n in (2, 3, 5):
            P = HomogeneousPolynomial(3, n, {(k,) * 3: 1.0 for k in range(1, n + 1)})
            for p in (1.0, 1.5, 2.0, 4.0):
                assert coeff_norm(P, p) == pytest.approx(n ** (1 / p), rel=1e-12)

    def test_monotone_nonincreasing_in_p(self):
        P = random_homogeneous(3, 4, "complex-gaussian", seed=8)
        ps = [0.7, 1.0, 4 / 3, 1.5, 2.0, 3.0, 10.0, math.inf]
        values = [coeff_norm(P, p) for p in ps]
        for a, b in zip(values, values[1:]):
            assert b <= a * (1 + 1e-12)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            coeff_norm(Z1Z2, 0)
        with pytest.raises(ValueError):
            coeff_norm(Z1Z2, -1)

    def test_zero_polynomial(self):
        Z = HomogeneousPolynomial(2, 2, {})
        assert coeff_norm(Z, 4 / 3) == 0.0
        assert coeff_norm(Z, math.inf) == 0.0

    @pytest.mark.parametrize("p", [0.7, 1, 4 / 3, 2, 7, math.inf])
    def test_no_overflow_near_double_max(self, p):
        P = HomogeneousPolynomial(2, 2, {(1, 1): 0.3, (1, 2): 0.4j, (2, 2): -0.25})
        big = coeff_norm(scale(P, 1e308), p)
        assert big == pytest.approx(1e308 * coeff_norm(P, p), rel=1e-12)
        tiny = coeff_norm(scale(P, 1e-300), p)
        assert tiny == pytest.approx(1e-300 * coeff_norm(P, p), rel=1e-12)


class TestL2TorusNorm:
    def test_orthonormality(self):
        P = HomogeneousPolynomial(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
        assert l2_torus_norm(P) == pytest.approx(math.sqrt(2))

    def test_single_monomial(self):
        P = HomogeneousPolynomial(3, 2, {(1, 1, 2): 2.5 - 1j})
        assert l2_torus_norm(P) == pytest.approx(abs(2.5 - 1j))

    def test_parseval_is_definition(self):
        P = random_homogeneous(3, 3, "uniform-disc", seed=4)
        assert l2_torus_norm(P) ** 2 == pytest.approx(
            math.fsum(abs(c) ** 2 for c in P.coeffs.values()), rel=1e-14
        )

    def test_monte_carlo_cross_check(self):
        # int |P|^2 dmu estimated by MC agrees with the exact value at 3 se.
        P = random_homogeneous(2, 3, "complex-gaussian", seed=11)
        exact = l2_torus_norm(P) ** 2
        rng = np.random.default_rng(np.random.SeedSequence(77))
        from polybh.polyalgebra import term_arrays

        A, c = term_arrays(P)
        theta = rng.random((200_000, 3)) * 2 * math.pi
        vals = np.abs(np.exp(1j * theta @ A.T) @ c) ** 2
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact) <= 3 * se


class TestL1MonteCarlo:
    def test_unimodular_monomial(self):
        est = l1_torus_norm_mc(Z1Z2, samples=5000, seed=1)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-12)

    def test_two_term_closed_form(self):
        # int |1 + e^{i t}| dt / 2pi = 4 / pi
        P = HomogeneousPolynomial(1, 2, {(1,): 1.0, (2,): 1.0})
        est = l1_torus_norm_mc(P, samples=10**6, seed=3)
        assert abs(est.value - 4 / math.pi) <= 3 * est.stderr

    def test_scaling_exact_power_of_two(self):
        P = random_homogeneous(2, 2, "complex-gaussian", seed=5)
        e1 = l1_torus_norm_mc(P, samples=4000, seed=9)
        e2 = l1_torus_norm_mc(scale(P, 2.0), samples=4000, seed=9)
        assert e2.value == 2.0 * e1.value

    def test_scaling_general_factor(self):
        P = random_homogeneous(2, 2, "complex-gaussian", seed=5)
        e1 = l1_torus_norm_mc(P, samples=4000, seed=9)
        e2 = l1_torus_norm_mc(scale(P, 1.7), samples=4000, seed=9)
        assert e2.value == pytest.approx(1.7 * e1.value, rel=1e-12)

    def test_deterministic_and_batch_invariant(self):
        P = random_homogeneous(2, 3, "complex-gaussian", seed=2)
        a = l1_torus_norm_mc(P, samples=30_000, seed=4)
        b = l1_torus_norm_mc(P, samples=30_000, seed=4)
        assert a == b

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            l1_torus_norm_mc(Z1Z2, samples=1)

    @pytest.mark.parametrize("chunk", [1, 1 << 40])
    def test_chunk_size_changes_no_bit(self, chunk, monkeypatch):
        G = GeneralPolynomial(4, {1: random_homogeneous(1, 4, seed=1), 3: random_homogeneous(3, 4, seed=2)},
                              a0=0.5)
        # The estimate sums |P| over whole batches, which hides last-bit
        # differences in single values, so the values are compared too.
        Z = np.exp(2j * math.pi * np.random.default_rng(0).random((3000, 4)))
        for P in (random_homogeneous(4, 4, "complex-gaussian", seed=3), G):
            values = evaluate_points(P, Z)
            want = l1_torus_norm_mc(P, samples=20_000, seed=5)
            with monkeypatch.context() as mp:
                mp.setattr(polyalgebra, "EVAL_CHUNK_ELEMENTS", chunk)
                assert evaluate_points(P, Z).tobytes() == values.tobytes()
                assert l1_torus_norm_mc(P, samples=20_000, seed=5) == want

    def test_batches_draw_the_spawned_streams(self):
        # The reference spawns every batch's seed stream up front and keeps
        # every batch's sums, as the estimator did before it streamed them.
        P = random_homogeneous(2, 3, "complex-gaussian", seed=6)
        samples = 2 * MC_BATCH + 1234  # a partial last batch
        A, c = term_arrays(P)
        cmax = float(np.abs(c).max())
        F = polyalgebra._factor_table(A)
        counts = [MC_BATCH, MC_BATCH, 1234]
        results = []
        for ss, count in zip(np.random.SeedSequence(11).spawn(len(counts)), counts):
            theta = np.random.default_rng(ss).random((count, 3)) * (2.0 * math.pi)
            av = np.abs(polyalgebra._point_values(F, c / cmax, np.exp(1j * theta)))
            results.append((float(av.sum()), float((av * av).sum())))
        s1 = math.fsum(r[0] for r in results)
        s2 = math.fsum(r[1] for r in results)
        var = max(s2 - s1 * s1 / samples, 0.0) / (samples - 1)
        want = MCEstimate(s1 / samples * cmax, math.sqrt(var / samples) * cmax, samples)
        assert l1_torus_norm_mc(P, samples, seed=11) == want

    def test_the_cos_sin_table_is_the_exp_table_batch_by_batch(self, monkeypatch):
        # A constant and a degree-1 part put the ones row under terms of
        # degree 0 and 1; each batch's values must be those of the
        # np.exp(1j * theta) points, bit for bit, the partial last one too.
        G = GeneralPolynomial(3, {1: random_homogeneous(1, 3, seed=4), 2: random_homogeneous(2, 3, seed=5)},
                              a0=0.75 - 0.25j)
        samples = MC_BATCH + 777
        A, c = term_arrays(G)
        cn = c / float(np.abs(c).max())
        seen = []
        kernel = polyalgebra._table_values
        monkeypatch.setattr(polyalgebra, "_table_values", lambda *a: seen.append(kernel(*a)) or seen[-1])
        l1_torus_norm_mc(G, samples, seed=9)
        monkeypatch.undo()
        assert [len(v) for v in seen] == [MC_BATCH, 777]
        for i, values in enumerate(seen):
            rng = np.random.default_rng(np.random.SeedSequence(9, spawn_key=(i,)))
            theta = rng.random((len(values), 3)) * (2.0 * math.pi)
            want = polyalgebra._point_values(polyalgebra._factor_table(A), cn, np.exp(1j * theta))
            assert values.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_the_batch_count(self):
        P = random_homogeneous(2, 2, "complex-gaussian", seed=1)

        def peak(batches: int) -> int:
            tracemalloc.start()
            try:
                l1_torus_norm_mc(P, batches * MC_BATCH, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # a first call imports and caches; later calls trace the batches alone
        assert peak(64) == peak(4)

    def test_term_evaluation_cap(self, monkeypatch):
        # 2000 samples over J(2, 2)'s 3 terms are 6000 term evaluations.
        P = random_homogeneous(2, 2, "complex-gaussian", seed=1)
        monkeypatch.setattr(polyalgebra, "MC_TERM_EVALS_MAX", 6000)
        assert l1_torus_norm_mc(P, 2000, seed=0).samples == 2000
        monkeypatch.setattr(polyalgebra, "MC_TERM_EVALS_MAX", 5999)
        with pytest.raises(BudgetExceededError, match=r"^a Monte Carlo run of 2000 samples over 3 terms needs "
                                                      r"6000 term evaluations; cap is 5999$"):
            l1_torus_norm_mc(P, 2000, seed=0)

    def test_memory_bounded_at_6_6(self):
        P = random_homogeneous(6, 6, "complex-gaussian", seed=1)
        tracemalloc.start()
        try:
            l1_torus_norm_mc(P, samples=1 << 14, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestRandomHomogeneous:
    def test_random_signs_shape(self):
        P = random_homogeneous(2, 2, "random-signs", seed=0)
        assert len(P.coeffs) == 3
        assert all(c in (1, -1) for c in P.coeffs.values())

    def test_deterministic(self):
        a = random_homogeneous(3, 3, "complex-gaussian", seed=42)
        b = random_homogeneous(3, 3, "complex-gaussian", seed=42)
        assert a.coeffs == b.coeffs

    def test_dense_support(self):
        P = random_homogeneous(3, 3, "complex-gaussian", seed=1)
        assert len(P.coeffs) == dimension_count(3, 3) == 10

    def test_gaussian_mean_near_zero(self):
        acc = []
        for seed in range(40):
            P = random_homogeneous(3, 3, "complex-gaussian", seed=seed)
            acc.extend(P.coeffs.values())
        mean = sum(acc) / len(acc)
        assert abs(mean) < 4 / math.sqrt(len(acc))

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            random_homogeneous(2, 2, "cauchy", seed=0)

    def test_entry_cap(self, monkeypatch):
        # J(2, 2) has 3 terms: 3 x (2 + 2) index and exponent entries.
        monkeypatch.setattr(polyalgebra, "DENSE_ENTRIES_MAX", 12)
        assert len(random_homogeneous(2, 2, seed=0).coeffs) == 3
        monkeypatch.setattr(polyalgebra, "DENSE_ENTRIES_MAX", 11)
        with pytest.raises(polyalgebra.BudgetExceededError, match="12 index and exponent entries"):
            random_homogeneous(2, 2, seed=0)


class TestCheckEntries:
    def test_refuses_above_the_cap_only(self):
        check_entries(10, 10, "a table")
        with pytest.raises(BudgetExceededError, match=r"^a table needs 11 entries; cap is 10$"):
            check_entries(11, 10, "a table")

    def test_float_and_lower_bound_counts(self):
        with pytest.raises(BudgetExceededError, match=r"^a grid needs inf nodes; cap is 5$"):
            check_entries(math.inf, 5, "a grid", "nodes")
        with pytest.raises(BudgetExceededError, match=r"^a scan needs 1\.23e\+08 coefficients; cap is 5$"):
            check_entries(1.23e8, 5, "a scan", "coefficients")
        with pytest.raises(BudgetExceededError, match=r"^a table needs at least 64 entries; cap is 5$"):
            check_entries(64, 5, "a table", at_least=True)


class TestDimensionCount:
    def test_values(self):
        assert dimension_count(2, 2) == 3
        assert dimension_count(2, 3) == 6
        assert dimension_count(7, 1) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            dimension_count(0, 2)


class TestMajorantSum:
    def test_constant(self):
        G = GeneralPolynomial(2, {}, a0=3 - 4j)
        for r in (0.0, 0.5, 1.0, 2.0):
            assert majorant_sum(G, r) == pytest.approx(5.0)

    def test_linear_at_half(self):
        P = HomogeneousPolynomial(1, 2, {(1,): 1.0, (2,): 1.0})
        assert majorant_sum(P, 0.5) == pytest.approx(1.0)

    def test_truncated_moebius_geometric_oracle(self):
        # (a - z)/(1 - a z) truncated to degree 50 at a = 0.9, r = 1/3:
        # majorant = a + (1 - a^2) sum_{k<=50} a^{k-1} r^k < 1.
        a, r, deg = 0.9, 1 / 3, 50
        parts = {
            k: HomogeneousPolynomial(k, 1, {(1,) * k: -(1 - a * a) * a ** (k - 1)})
            for k in range(1, deg + 1)
        }
        G = GeneralPolynomial(1, parts, a0=a)
        oracle = a + (1 - a * a) * math.fsum(a ** (k - 1) * r**k for k in range(1, deg + 1))
        got = majorant_sum(G, r)
        assert got == pytest.approx(oracle, rel=1e-13)
        assert got < 1.0

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_nondecreasing_in_r(self, r1, r2):
        P = random_homogeneous(2, 2, "complex-gaussian", seed=17)
        lo, hi = sorted((r1, r2))
        assert majorant_sum(P, lo) <= majorant_sum(P, hi) + 1e-12

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            majorant_sum(Z1Z2, -0.1)

    @pytest.mark.parametrize("dist", ["complex-gaussian", "uniform-disc", "random-signs"])
    def test_radius_one_is_the_coefficient_sum_bit_for_bit(self, dist):
        # The Sidon searches take sum |c| this way, for lifts and homogeneous P alike.
        for seed in range(20):
            for m, n in [(1, 3), (2, 4), (3, 3), (4, 2)]:
                P = random_homogeneous(m, n, dist, seed=seed)
                assert majorant_sum(P, 1.0).hex() == coeff_norm(P, 1).hex()


class TestJson:
    def test_homogeneous_wire_format(self):
        P = HomogeneousPolynomial(2, 2, {(1, 2): 2.0})
        d = to_json_dict(P)
        assert d == {
            "kind": "homogeneous",
            "m": 2,
            "n": 2,
            "terms": [{"alpha": [1, 1], "re": 2.0, "im": 0.0}],
        }
        assert json.loads(json.dumps(d)) == d

    def test_round_trip_homogeneous(self):
        P = random_homogeneous(3, 4, "complex-gaussian", seed=6)
        Q = from_json_dict(to_json_dict(P))
        assert Q.coeffs == P.coeffs and (Q.m, Q.n) == (P.m, P.n)

    def test_round_trip_general(self):
        G = GeneralPolynomial(2, {1: HomogeneousPolynomial(1, 2, {(1,): 1j}), 2: Z1Z2}, a0=0.5)
        H = from_json_dict(to_json_dict(G))
        assert H.a0 == G.a0
        assert {m: p.coeffs for m, p in H.parts.items()} == {m: p.coeffs for m, p in G.parts.items()}

    def test_bad_degree_rejected(self):
        with pytest.raises(ValueError):
            from_json_dict({"kind": "homogeneous", "m": 2, "n": 2,
                            "terms": [{"alpha": [1, 0], "re": 1.0, "im": 0.0}]})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            from_json_dict({"kind": "rational"})

    @pytest.mark.parametrize("key", ["kind", "m", "n", "terms"])
    def test_missing_key_named(self, key):
        data = to_json_dict(Z1Z2)
        del data[key]
        with pytest.raises(ValueError, match=repr(key)):
            from_json_dict(data)

    @pytest.mark.parametrize("key", ["alpha", "re"])
    def test_missing_term_key_named(self, key):
        data = to_json_dict(Z1Z2)
        del data["terms"][0][key]
        with pytest.raises(ValueError, match=repr(key)):
            from_json_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            from_json_dict([1, 2])

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("top", "m", [2]),
            ("top", "n", "2"),
            ("top", "terms", 5),
            ("term", "alpha", 5),
            ("term", "alpha", [1, "1"]),
            ("term", "alpha", [1.5, 0.5]),
            ("term", "re", None),
            ("term", "re", "1"),
            ("term", "im", [0.0]),
        ],
    )
    def test_wrong_type_named(self, where, key, value):
        data = to_json_dict(Z1Z2)
        (data if where == "top" else data["terms"][0])[key] = value
        with pytest.raises(ValueError, match=repr(key)):
            from_json_dict(data)
