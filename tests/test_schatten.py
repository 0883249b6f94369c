"""Quantum-sampling Schatten-2 estimator tests."""

import math

import numpy as np
import pytest

from helpers import binomial_upper_quantile, exactness_grid, random_mixture
from qsnorm import (
    Circuit,
    DenseUnitary,
    GateOp,
    MixedOperation,
    SchattenEstimate,
    apply_circuit,
    derive_seed,
    difference_mixture,
    estimate_difference_norm,
    exact_schatten2,
    haar_random_unitary,
    mixed_operation_matrix,
    quantum_schatten2_estimate,
    sample_budget_schatten2,
    sample_thetas,
    sampling_circuit,
    schatten2_estimate_from_thetas,
    zero_state,
)
from qsnorm.sampler import probe_rows

SQRT2_INV = 1 / math.sqrt(2)


class TestSamplingCircuit:
    def test_three_qubit_gate_list(self):
        """Angles are 4 theta, 8 theta, 16 theta on qubits 0, 1, 2."""
        theta = 0.21
        circuit = sampling_circuit(3, theta)
        assert circuit.ops == (
            GateOp("ry", (0,), (4 * theta,)),
            GateOp("ry", (1,), (8 * theta,)),
            GateOp("ry", (2,), (16 * theta,)),
        )

    def test_zero_angle_acts_as_identity(self):
        state = apply_circuit(zero_state(4), sampling_circuit(4, 0.0))
        np.testing.assert_allclose(state.amplitudes, zero_state(4).amplitudes, atol=1e-15)

    def test_prepares_probe_vector(self):
        """Amplitudes of S(theta)|0...0> equal the probe vector."""
        rng = np.random.default_rng(71)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            theta = float(rng.uniform(-math.pi, math.pi))
            state = apply_circuit(zero_state(n), sampling_circuit(n, theta))
            np.testing.assert_allclose(state.amplitudes, probe_rows([theta], n, 1 << n)[0], atol=1e-12)


class TestQuantumEstimate:
    def test_single_unitary_is_exactly_one(self):
        mixed = MixedOperation(((1.0, DenseUnitary(2, haar_random_unitary(2, 0))),))
        estimate = quantum_schatten2_estimate(mixed, 20, seed=1)
        assert estimate.value == 1.0
        assert not estimate.clamped

    def test_identical_terms_cancel(self):
        circuit = Circuit(1, (GateOp("h", (0,)),))
        mixed = MixedOperation(((SQRT2_INV, circuit), (-SQRT2_INV, circuit)))
        estimate = quantum_schatten2_estimate(mixed, 10, seed=2)
        assert estimate.value == pytest.approx(0.0, abs=1e-7)

    def test_identity_minus_x_mixture(self):
        """||(I - X)/sqrt(2)|| = 1; 1000 angles land within 0.05 nearly always."""
        mixed = MixedOperation(
            ((SQRT2_INV, Circuit(1)), (-SQRT2_INV, Circuit(1, (GateOp("x", (0,)),))))
        )
        hits = sum(
            abs(quantum_schatten2_estimate(mixed, 1000, seed=s).value - 1.0) <= 0.05
            for s in range(40)
        )
        assert hits >= 38

    def test_report_invariants(self):
        rng = np.random.default_rng(72)
        mixed = random_mixture(3, 3, rng)
        estimate = quantum_schatten2_estimate(mixed, 50, seed=3)
        assert estimate.per_sample_values.shape == (50,)
        mean = math.fsum(estimate.per_sample_values) / 50
        assert estimate.value == math.sqrt(max(0.0, mean))
        weight = sum(abs(c) for c, _ in mixed.terms)
        assert estimate.value <= weight + 1e-6

    def test_prefix_property(self):
        """Per-angle values extend when m grows, by the (seed, i) contract."""
        mixed = random_mixture(2, 2, np.random.default_rng(73))
        short = quantum_schatten2_estimate(mixed, 10, seed=4)
        long = quantum_schatten2_estimate(mixed, 40, seed=4)
        np.testing.assert_array_equal(short.per_sample_values, long.per_sample_values[:10])

    def test_prefixes_of_one_call_equal_calls_on_prefixes(self):
        """fig2 reduces prefixes of one call's values; at n = 6 (256-row
        chunks) each prefix gives the estimate of its own call, bit for bit."""
        u1, u2 = (DenseUnitary(6, haar_random_unitary(6, seed)) for seed in (11, 12))
        mixed = difference_mixture(u1, u2)
        thetas = sample_thetas(13, 300)
        values = schatten2_estimate_from_thetas(mixed, thetas).per_sample_values
        for m in (1, 10, 255, 256, 257, 300):
            own = schatten2_estimate_from_thetas(mixed, thetas[:m])
            reduced = SchattenEstimate.from_values(values[:m])
            assert (reduced.value, reduced.clamped) == (own.value, own.clamped)
            np.testing.assert_array_equal(reduced.per_sample_values, own.per_sample_values)

    def test_seed_determinism(self):
        mixed = random_mixture(2, 3, np.random.default_rng(74))
        a = quantum_schatten2_estimate(mixed, 25, seed=5)
        b = quantum_schatten2_estimate(mixed, 25, seed=5)
        assert a.value == b.value
        np.testing.assert_array_equal(a.per_sample_values, b.per_sample_values)

    def test_grid_exhaustive_matches_exact_norm(self):
        """On the exactness grid the estimator reproduces the dense oracle."""
        rng = np.random.default_rng(75)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            mixed = random_mixture(n, int(rng.integers(1, 4)), rng)
            estimate = schatten2_estimate_from_thetas(mixed, exactness_grid(n))
            assert abs(estimate.value - exact_schatten2(mixed_operation_matrix(mixed))) <= 1e-9

    def test_term_permutation_invariance_with_fixed_angles(self):
        mixed = random_mixture(3, 4, np.random.default_rng(76))
        shuffled = MixedOperation(tuple(mixed.terms[i] for i in (3, 1, 0, 2)))
        thetas = sample_thetas(6, 30)
        assert (
            schatten2_estimate_from_thetas(mixed, thetas).value
            == schatten2_estimate_from_thetas(shuffled, thetas).value
        )

    def test_empty_angle_list_rejected(self):
        mixed = random_mixture(2, 2, np.random.default_rng(77))
        with pytest.raises(ValueError, match="empty"):
            schatten2_estimate_from_thetas(mixed, np.array([]))


class TestBudgetCalibration:
    """The Schatten-2 budget's promise as a promise: at
    sample_budget_schatten2(EPSILON, DELTA) angles, an estimate lands within
    EPSILON of the exact norm with probability at least 1 - DELTA.

    Over TRIALS seeded runs the failure count may exceed the (1 - ALPHA)
    quantile of Binomial(TRIALS, DELTA) only with probability ALPHA. The
    mixture (I - CNOT)/2 has norm 1/2 and per-angle values spread over
    [0, 0.88]; one estimate in two misses EPSILON at m = 1 and about one in
    seven at m = 3."""

    EPSILON, DELTA, TRIALS, ALPHA = 0.25, 0.01, 200, 1e-3

    def test_success_rate_at_budget_is_at_least_one_minus_delta(self):
        mixed = MixedOperation(((0.5, Circuit(2)), (-0.5, Circuit(2, (GateOp("cnot", (0, 1)),)))))
        exact = exact_schatten2(mixed_operation_matrix(mixed))
        m = sample_budget_schatten2(self.EPSILON, self.DELTA)
        within = sum(
            abs(quantum_schatten2_estimate(mixed, m, seed=derive_seed(1301, t)).value - exact) <= self.EPSILON
            for t in range(self.TRIALS)
        )
        assert within >= self.TRIALS - binomial_upper_quantile(self.TRIALS, self.DELTA, self.ALPHA)


class TestDifferenceNorm:
    def test_equal_circuits_give_zero(self):
        circuit = Circuit(2, (GateOp("cnot", (0, 1)),))
        estimate = estimate_difference_norm(circuit, circuit, 10, seed=1)
        assert estimate == pytest.approx(0.0, abs=1e-7)

    def test_identity_vs_x(self):
        """||I - X|| = sqrt(2): eigenvalues of I - X are {0, 2}, sqrt(4/2)."""
        estimate = estimate_difference_norm(Circuit(1), Circuit(1, (GateOp("x", (0,)),)), 1000, seed=7)
        assert abs(estimate - math.sqrt(2)) <= 0.05

    def test_identity_vs_minus_identity(self):
        """A global phase of pi is distance 2 away: every singular value is 2."""
        minus = Circuit(1, (GateOp("globalphase", (), (math.pi,)),))
        estimate = estimate_difference_norm(Circuit(1), minus, 5, seed=8)
        assert estimate == pytest.approx(2.0, abs=1e-12)

    def test_register_mismatch_rejected(self):
        with pytest.raises(ValueError):
            estimate_difference_norm(Circuit(1), Circuit(2), 5)

    def test_difference_mixture_halves_the_squared_distance(self):
        u1, u2 = Circuit(1), Circuit(1, (GateOp("x", (0,)),))
        mixed = difference_mixture(u1, u2)
        assert mixed.terms == ((SQRT2_INV, u1), (-SQRT2_INV, u2))
        assert exact_schatten2(mixed_operation_matrix(mixed)) ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_against_dense_oracle_on_grid(self):
        rng = np.random.default_rng(78)
        from helpers import random_circuit

        for _ in range(5):
            n = int(rng.integers(1, 4))
            u1, u2 = random_circuit(n, 6, rng), random_circuit(n, 6, rng)
            mixed = MixedOperation(((SQRT2_INV, u1), (-SQRT2_INV, u2)))
            grid_value = math.sqrt(2) * schatten2_estimate_from_thetas(mixed, exactness_grid(n)).value
            from qsnorm import circuit_matrix

            exact = exact_schatten2(circuit_matrix(u1) - circuit_matrix(u2))
            assert abs(grid_value - exact) <= 1e-9
