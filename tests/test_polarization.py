import math
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybh import polarization, polyalgebra
from polybh.indexcore import enumerate_J, multiplicity
from polybh.polarization import (
    check_harris,
    evaluate_form,
    harris_factor,
    polarize,
    restrict_diagonal,
)
from polybh.polyalgebra import (
    RANDOM_DISTRIBUTIONS,
    BudgetExceededError,
    HomogeneousPolynomial,
    evaluate,
    evaluate_points,
    majorant_sum,
    random_homogeneous,
    term_arrays,
)

Z1Z2 = HomogeneousPolynomial(2, 2, {(1, 2): 1.0})


def random_torus_point(rng, n):
    return np.exp(2j * math.pi * rng.random(n)).tolist()


class TestPolarize:
    def test_mixed_monomial(self):
        B = polarize(Z1Z2)
        assert B.coeff((1, 2)) == pytest.approx(0.5)
        assert B.coeff((2, 1)) == pytest.approx(0.5)  # symmetry of access

    def test_pure_power(self):
        B = polarize(HomogeneousPolynomial(2, 2, {(1, 1): 1.0}))
        assert B.coeff((1, 1)) == pytest.approx(1.0)

    def test_triple(self):
        B = polarize(HomogeneousPolynomial(3, 2, {(1, 1, 2): 1.0}))
        assert B.coeff((1, 1, 2)) == pytest.approx(1 / 3)

    def test_round_trip_exact(self):
        for m in range(1, 5):
            for n in range(1, 5):
                P = random_homogeneous(m, n, "complex-gaussian", seed=10 * m + n)
                assert restrict_diagonal(polarize(P)).coeffs == P.coeffs

    def test_zero_form(self):
        B = polarize(HomogeneousPolynomial(3, 3, {}))
        assert restrict_diagonal(B).coeffs == {}
        assert evaluate_form(B, [(1, 1, 1)] * 3) == 0


class TestEvaluateForm:
    def test_basis_points(self):
        B = polarize(Z1Z2)
        assert evaluate_form(B, [(1, 0), (0, 1)]) == pytest.approx(0.5)

    def test_diagonal_identity(self):
        rng = np.random.default_rng(3)
        for seed in range(6):
            m, n = 2 + seed % 3, 2 + seed % 2
            P = random_homogeneous(m, n, "complex-gaussian", seed=seed)
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = evaluate_form(polarize(P), [z] * m)
            want = evaluate(P, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_symmetric_in_points(self):
        rng = np.random.default_rng(8)
        P = random_homogeneous(3, 3, "complex-gaussian", seed=5)
        B = polarize(P)
        points = [random_torus_point(rng, 3) for _ in range(3)]
        base = evaluate_form(B, points)
        for perm in permutations(range(3)):
            val = evaluate_form(B, [points[i] for i in perm])
            assert abs(val - base) <= 1e-12 * max(1.0, abs(base))

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            evaluate_form(polarize(Z1Z2), [(1, 0)])

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            evaluate_form(polarize(Z1Z2), [(1, 0, 0), (0, 1, 0)])

    def test_matches_dense_tensor_contraction(self):
        # Oracle: contract the dense b tensor against the point vectors.
        rng = np.random.default_rng(14)
        P = random_homogeneous(3, 3, "complex-gaussian", seed=21)
        B = polarize(P)
        T = B.to_dense()
        pts = [rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3)]
        want = np.einsum("abc,a,b,c->", T, *pts)
        got = evaluate_form(B, pts)
        assert abs(got - want) <= 1e-11 * max(1.0, abs(want))

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           dist=st.sampled_from(RANDOM_DISTRIBUTIONS))
    def test_polarization_formula_matches_dense_contraction(self, m, n, seed, dist):
        P = random_homogeneous(m, n, dist, seed=seed)
        rng = np.random.default_rng(seed)
        W = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        operands = [polarize(P).to_dense(), list(range(m))]
        for k in range(m):
            operands += [W[k], [k]]
        want = np.einsum(*operands)
        assert abs(evaluate_form(polarize(P), W) - want) <= 1e-11 * max(1.0, abs(want))
        # evaluate is exactly the one-row case of the batched kernel.
        Z = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        values = evaluate_points(P, Z)
        assert all(values[i] == evaluate(P, Z[i]) for i in range(len(Z)))

    def test_sparse_form_in_many_variables(self):
        # A dense tensor would need 40^6 = 4.1e9 entries; the polarization
        # formula needs 2^6 evaluations of 30 terms.
        rng = np.random.default_rng(40)
        coeffs = {tuple(rng.integers(1, 41, 6)): complex(rng.standard_normal(), rng.standard_normal())
                  for _ in range(30)}
        P = HomogeneousPolynomial(6, 40, coeffs)
        z = random_torus_point(rng, 40)
        got = evaluate_form(polarize(P), [z] * 6)
        assert abs(got - evaluate(P, z)) <= 1e-12 * majorant_sum(P, 1.0)


def complex_sign_table_value(B, points) -> complex:
    """evaluate_form as it was: an int shift table cast to float, then to complex by ``signs @ W``."""
    m = B.m
    W = np.array(points, dtype=np.complex128)
    signs = 1.0 - 2.0 * ((np.arange(2**m)[:, None] >> np.arange(m)) & 1)
    values = evaluate_points(B.diagonal, signs @ W)
    return complex(np.prod(signs, axis=1) @ values) / (2**m * math.factorial(m))


class TestPolarizationKernel:
    @pytest.mark.parametrize("m, n", [(1, 3), (2, 2), (3, 3), (4, 4), (5, 2), (8, 2), (11, 3)])
    def test_same_bits_as_the_complex_sign_table(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        for seed in range(4):
            B = polarize(random_homogeneous(m, n, RANDOM_DISTRIBUTIONS[seed % 3], seed=seed))
            points = rng.random((m, n)) * np.exp(2j * math.pi * rng.random((m, n)))
            assert evaluate_form(B, points.tolist()) == complex_sign_table_value(B, points)

    def test_peak_is_below_the_complex_sign_table(self):
        B = polarize(random_homogeneous(16, 2, seed=1))
        points = np.exp(2j * math.pi * np.random.default_rng(1).random((16, 2))).tolist()

        def peak(call) -> int:
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        old = peak(lambda: complex_sign_table_value(B, points))
        assert peak(lambda: evaluate_form(B, points)) < 0.6 * old

    @pytest.mark.parametrize("m, n", [(4, 4), (5, 2), (6, 6)])
    def test_factor_table_lists_the_multi_indices(self, m, n):
        # to_dense reads each term's 0-based multi-index from the factor table;
        # it used to expand the exponent rows itself.
        A, c = term_arrays(random_homogeneous(m, n, seed=m))
        expanded = np.repeat(np.tile(np.arange(n), len(c)), A.ravel()).reshape(len(c), m)
        np.testing.assert_array_equal(polyalgebra._factor_table(A).T, expanded)


class TestPartialSubstitutionParseval:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3), (4, 4)])
    def test_identity(self, m, n):
        # || B(z, ..., e^(d), ..., z) ||_2^2 == sum over classes |j'|^2 |b|^2,
        # checked through the dual-route report of check_proof_step.
        from polybh.bhverify import check_proof_step
        from polybh.torusnorm import certified_upper

        P = random_homogeneous(m, n, "complex-gaussian", seed=100 * m + n)
        rep = check_proof_step(P, 1, certified_upper(P))
        assert rep.parseval_max_rel_err <= 1e-12


class TestHarrisFactor:
    def test_values(self):
        assert harris_factor(2, (1, 1)) == pytest.approx(2.0)
        assert harris_factor(3, (2, 1)) == pytest.approx(2.25)

    def test_single_block_is_one(self):
        for m in (1, 2, 5, 9):
            assert harris_factor(m, (m,)) == pytest.approx(1.0)

    def test_zero_parts_allowed(self):
        assert harris_factor(3, (3, 0, 0)) == pytest.approx(1.0)
        assert harris_factor(2, (0, 1, 1)) == pytest.approx(2.0)

    def test_equals_theorem_constant_source(self):
        # Partition (m-1, 1) reproduces (1 + 1/(m-1))^{m-1}.
        for m in range(2, 9):
            want = (1 + 1 / (m - 1)) ** (m - 1)
            assert harris_factor(m, (m - 1, 1)) == pytest.approx(want, rel=1e-12)

    def test_bad_partition(self):
        with pytest.raises(ValueError):
            harris_factor(3, (2, 2))
        with pytest.raises(ValueError):
            harris_factor(3, (4, -1))


class TestCheckHarris:
    def test_hand_case(self):
        rep = check_harris(Z1Z2, (1, 1), [(1, 1), (1, -1)], supnorm_bound=1.0)
        assert rep.value == pytest.approx(0.0, abs=1e-15)
        assert rep.bound == pytest.approx(2.0)
        assert rep.passed

    def test_single_block_reduces_to_evaluation(self):
        rng = np.random.default_rng(4)
        P = random_homogeneous(3, 2, "complex-gaussian", seed=3)
        z = random_torus_point(rng, 2)
        from polybh.torusnorm import certified_upper

        rep = check_harris(P, (3,), [z], certified_upper(P))
        assert rep.factor == pytest.approx(1.0)
        assert rep.value == pytest.approx(abs(evaluate(P, z)), rel=1e-12)
        assert rep.passed

    def test_never_fails_with_certified_bound(self):
        from polybh.torusnorm import certified_upper

        rng = np.random.default_rng(77)
        for case in range(40):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            P = random_homogeneous(m, n, "complex-gaussian", seed=case)
            blocks = int(rng.integers(1, m + 1))
            partition = rng.multinomial(m, [1 / blocks] * blocks).tolist()
            points = [random_torus_point(rng, n) for _ in partition]
            rep = check_harris(P, partition, points, certified_upper(P))
            assert rep.passed, (m, n, partition, rep)

    def test_point_outside_polydisc_rejected(self):
        with pytest.raises(ValueError):
            check_harris(Z1Z2, (1, 1), [(1.1, 0), (0, 1)], 1.0)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_harris(Z1Z2, (1, 1), [(bad, 0), (0, 1)], 1.0)

    def test_partition_point_count_mismatch(self):
        with pytest.raises(ValueError):
            check_harris(Z1Z2, (1, 1), [(1, 0)], 1.0)


class TestDenseTensor:
    def test_to_dense_symmetry_and_values(self):
        P = HomogeneousPolynomial(2, 2, {(1, 2): 1.0, (1, 1): 3.0})
        T = polarize(P).to_dense()
        assert T[0, 0] == pytest.approx(3.0)
        assert T[0, 1] == pytest.approx(0.5)
        assert T[1, 0] == pytest.approx(0.5)
        assert T[1, 1] == 0.0

    def test_dense_total_matches_class_sum(self):
        P = random_homogeneous(3, 3, "complex-gaussian", seed=9)
        B = polarize(P)
        T = B.to_dense()
        for j in enumerate_J(3, 3):
            want = B.coeff(j) * multiplicity(j)
            got = sum(T[tuple(v - 1 for v in i)] for i in set(permutations(j)))
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestEntryCap:
    def test_to_dense_cap(self, monkeypatch):
        B = polarize(Z1Z2)  # the table and its indices: (m + 1) n^m = 12 entries
        monkeypatch.setattr(polarization, "DENSE_ENTRIES_MAX", 12)
        assert B.to_dense()[0, 1] == 0.5
        monkeypatch.setattr(polarization, "DENSE_ENTRIES_MAX", 11)
        with pytest.raises(BudgetExceededError, match="cap is 11"):
            B.to_dense()

    def test_evaluate_form_cap(self, monkeypatch):
        B = polarize(Z1Z2)  # the signs and the signed points: 2^m (m + n) = 16 entries
        monkeypatch.setattr(polarization, "DENSE_ENTRIES_MAX", 16)
        assert evaluate_form(B, [(1, 0), (0, 1)]) == pytest.approx(0.5)
        monkeypatch.setattr(polarization, "DENSE_ENTRIES_MAX", 15)
        with pytest.raises(BudgetExceededError, match="cap is 15"):
            evaluate_form(B, [(1, 0), (0, 1)])

    @pytest.mark.parametrize("m, n, call", [
        (7, 10, lambda B, points: B.to_dense()),  # 8 * 10^7 table and index entries
        (26, 2, lambda B, points: evaluate_form(B, points)),  # a 2^26 x 26 sign table
    ], ids=["to_dense", "evaluate_form"])
    def test_refused_before_allocating(self, m, n, call):
        B = polarize(HomogeneousPolynomial(m, n, {(1,) * m: 1.0}))
        points = [[1.0] + [0.0] * (n - 1)] * m
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="cap is"):
                call(B, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
