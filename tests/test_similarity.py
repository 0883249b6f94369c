"""Similarity bounds, fidelity statistics, and the decision procedure."""

import math

import numpy as np
import pytest

from helpers import binomial_upper_quantile, random_circuit, random_mixture
from qsnorm import (
    Circuit,
    DenseUnitary,
    GateOp,
    MixedOperation,
    StateVector,
    apply_circuit,
    decide_similarity,
    derive_seed,
    derived_rng,
    estimate_tau,
    exact_schatten2,
    exactness_grid,
    fidelity,
    haar_fidelities,
    haar_random_state,
    haar_random_unitary,
    mixed_operation_matrix,
    rotation_perturbed_pair,
    similarity_bound_mixed,
    similarity_bound_unitary,
    similarity_slack,
    zero_state,
)
from qsnorm import similarity
from qsnorm.qsim import MATRIX_QUBIT_CAP, DenseUnitary, apply_operation_amplitudes
from qsnorm.schatten import schatten2_estimate_from_thetas

SQRT2_INV = 1 / math.sqrt(2)


class TestFidelity:
    def test_self_fidelity(self):
        psi = haar_random_state(3, np.random.default_rng(0))
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        zero = zero_state(1)
        one = StateVector(1, np.array([0, 1], dtype=complex))
        assert fidelity(zero, one) == 0.0

    def test_plus_state_against_zero(self):
        plus = apply_circuit(zero_state(1), Circuit(1, (GateOp("h", (0,)),)))
        assert fidelity(zero_state(1), plus) == pytest.approx(0.5, abs=1e-12)

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(zero_state(1), zero_state(2))


class TestHaarRandomState:
    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            psi = haar_random_state(4, rng)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_overlap_moment_with_basis_state(self):
        """Haar mean of |<0...0|psi>|^2 is 1/N within 3 standard errors."""
        rng = np.random.default_rng(2)
        samples = np.array([abs(haar_random_state(3, rng).amplitudes[0]) ** 2 for _ in range(10_000)])
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 1 / 8) <= 3 * stderr

    def test_determinism(self):
        a = haar_random_state(2, np.random.default_rng(3)).amplitudes
        b = haar_random_state(2, np.random.default_rng(3)).amplitudes
        np.testing.assert_array_equal(a, b)

    @staticmethod
    def per_state_formula(n, rng):
        dim = 1 << n
        a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return a / np.linalg.norm(a)

    @pytest.mark.parametrize("n, num_states", [(1, 3000), (3, 700), (6, 1000), (10, 10)])
    def test_chunked_states_equal_the_per_state_formula(self, n, num_states, monkeypatch):
        """The states haar_fidelities applies are the per-state formula from
        derived_rng(seed, i), bit for bit; num_states leaves the last chunk
        part-filled. Chunks are drawn into one buffer and normalized at once,
        so this pins numpy's sequential Gaussian fill and the way
        np.linalg.norm sums a complex vector."""
        drawn = []

        def record(states, op):
            drawn.append(states.copy())
            return apply_operation_amplitudes(states, op)

        monkeypatch.setattr(similarity, "apply_operation_amplitudes", record)
        haar_fidelities(Circuit(n), Circuit(n), num_states, seed=11)
        expected = np.array([self.per_state_formula(n, derived_rng(11, i)) for i in range(num_states)])
        np.testing.assert_array_equal(np.concatenate(drawn[::2]), expected)
        np.testing.assert_array_equal(np.concatenate(drawn[1::2]), expected)

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_single_state_equals_the_per_state_formula(self, n):
        for key in range(5):
            np.testing.assert_array_equal(
                haar_random_state(n, derived_rng(12, key)).amplitudes, self.per_state_formula(n, derived_rng(12, key))
            )


class TestSimilarityBoundUnitary:
    def test_reference_point(self):
        assert similarity_bound_unitary(0.1, 0.2) == pytest.approx(0.026120387496374145, abs=1e-12)

    def test_half_delta(self):
        assert similarity_bound_unitary(0.3, 0.5) == pytest.approx(0.3 / (1 + math.sqrt(2)), abs=1e-12)

    def test_delta_to_one_limit(self):
        assert similarity_bound_unitary(0.25, 1 - 1e-12) == pytest.approx(0.25, rel=1e-5)

    def test_monotone_in_epsilon_and_delta(self):
        eps_grid = np.linspace(0.01, 1.5, 25)
        values = [similarity_bound_unitary(float(e), 0.3) for e in eps_grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        delta_grid = np.linspace(0.05, 0.95, 25)
        values = [similarity_bound_unitary(0.2, float(d)) for d in delta_grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            similarity_bound_unitary(0.0, 0.5)
        with pytest.raises(ValueError):
            similarity_bound_unitary(0.1, 1.0)


class TestSimilarityBoundMixed:
    def test_tau_one_reduces(self):
        eps, delta = 0.3, 0.25
        expected = math.sqrt(eps**2 / (2 * (eps + (1 / delta - 1))))
        assert similarity_bound_mixed(eps, delta, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_no_guarantee_region(self):
        """tau = 0.9 at eps = 0.1: the variance term swamps eps^2."""
        assert similarity_bound_mixed(0.1, 0.2, 0.9) is None

    def test_delta_to_one_limit(self):
        """The bound tends to sqrt(eps / (2 tau)) as delta approaches 1."""
        eps, tau = 0.1, 0.8
        value = similarity_bound_mixed(eps, 1 - 1e-12, tau)
        assert value == pytest.approx(math.sqrt(eps / (2 * tau)), rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            similarity_bound_mixed(0.1, 0.2, 0.0)
        with pytest.raises(ValueError):
            similarity_bound_mixed(0.1, 0.2, 1.5)


class TestEstimateTau:
    def test_unitary_pair_is_exactly_one(self):
        u1 = MixedOperation(((1.0, random_circuit(2, 5, np.random.default_rng(4))),))
        u2 = MixedOperation(((1.0, random_circuit(2, 5, np.random.default_rng(5))),))
        assert estimate_tau(u1, u2, 10, seed=1) == 1.0

    def test_half_identity_pair(self):
        """||0.5 I||^2 = 0.25 for each side, so tau is exactly 1/4."""
        half = MixedOperation(((0.5, Circuit(1)),))
        assert estimate_tau(half, half, 7, seed=2) == pytest.approx(0.25, abs=1e-12)

    def test_matches_dense_oracle_on_grid(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            n = int(rng.integers(1, 4))
            u1, u2 = random_mixture(n, 2, rng), random_mixture(n, 3, rng)
            grid = exactness_grid(n)
            v1 = schatten2_estimate_from_thetas(u1, grid).value
            v2 = schatten2_estimate_from_thetas(u2, grid).value
            tau_grid = (v1**2 + v2**2) / 2
            m1, m2 = mixed_operation_matrix(u1), mixed_operation_matrix(u2)
            dim = m1.shape[0]
            dense = (np.trace(m1 @ m1.conj().T) + np.trace(m2 @ m2.conj().T)).real / (2 * dim)
            assert abs(tau_grid - dense) <= 1e-9

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            estimate_tau(
                MixedOperation(((1.0, Circuit(1)),)),
                MixedOperation(((1.0, Circuit(2)),)),
                5,
            )


class TestMonteCarloSimilarity:
    def test_identical_operations(self):
        circuit = random_circuit(3, 6, np.random.default_rng(7))
        assert (haar_fidelities(circuit, circuit, 200, seed=1) >= 0.99).all()

    def test_orthogonalizing_pair(self):
        """|<psi|X|psi>|^2 is rarely near 1, so I vs X almost never passes."""
        frac = np.mean(haar_fidelities(Circuit(1), Circuit(1, (GateOp("x", (0,)),)), 2000, seed=2) >= 0.99)
        assert frac <= 0.02

    def test_guaranteed_fraction_at_inverted_bound(self):
        """eps = (1 + sqrt(8)) * distance with delta = 0.2 keeps >= 80% above."""
        for k, distance in enumerate((0.05, 0.2, 0.4)):
            u1, u2 = rotation_perturbed_pair(4, distance, seed=k)
            eps = (1 + math.sqrt(8)) * exact_schatten2(u1.matrix - u2.matrix)
            frac = np.mean(haar_fidelities(u1, u2, 500, seed=k) >= 1 - eps)
            assert frac >= 0.8

    def test_needs_states(self):
        with pytest.raises(ValueError):
            haar_fidelities(Circuit(1), Circuit(1), 0)

    @pytest.mark.parametrize("num_states", [2.5, True])
    def test_state_count_must_be_an_integer(self, num_states):
        with pytest.raises(TypeError, match="num_states must be an integer"):
            haar_fidelities(Circuit(1), Circuit(1), num_states)

    def test_register_mismatch_rejected_before_any_state(self, monkeypatch):
        """Operations on different registers used to give a similarity of 1.0."""

        def no_state(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(similarity, "derived_rngs", no_state)
        with pytest.raises(ValueError, match="registers"):
            haar_fidelities(Circuit(1), Circuit(2), 5)
        with pytest.raises(ValueError, match="registers"):
            haar_fidelities(DenseUnitary(2, np.eye(4)), Circuit(1), 3)

    def test_batched_fidelities_match_per_state_loop(self):
        """Each Haar state's fidelity comes from the same derived_rng(seed, i)
        draw and equals ``fidelity`` bit for bit, for dense and gate
        operations. The reference applies each operation to the stacked
        states: a dense matrix applied to one state can round differently in
        the last bit, which test_qsim bounds."""
        u1, u2 = rotation_perturbed_pair(3, 0.3, seed=5)
        gates = random_circuit(3, 8, np.random.default_rng(6))
        states = np.stack([haar_random_state(3, derived_rng(9, i)).amplitudes for i in range(40)])
        for first, second in ((u1, u2), (gates, u2)):
            pairs = zip(apply_operation_amplitudes(states, first), apply_operation_amplitudes(states, second))
            expected = [fidelity(StateVector(3, a), StateVector(3, b)) for a, b in pairs]
            np.testing.assert_array_equal(haar_fidelities(first, second, 40, seed=9), expected)


class TestSimilaritySlack:
    def test_reference_points(self):
        """Quartic branch at zero estimate: (2 ln 40 / m)^(1/4)."""
        assert similarity_slack(100_000, 0.05, 0.0) == pytest.approx(0.0926789521247125, abs=1e-12)
        assert similarity_slack(1_000_000, 0.05, 0.0) == pytest.approx(0.05211720475506375, abs=1e-12)

    def test_monotone_decreasing_in_m(self):
        values = [similarity_slack(m, 0.05, 0.3) for m in (10, 100, 1000, 10_000, 100_000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_second_branch_engages_for_large_estimates(self):
        base = 2 * math.log(2 / 0.05) / 1000
        assert similarity_slack(1000, 0.05, 2.0) == pytest.approx(math.sqrt(base) / 2.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            similarity_slack(0, 0.05, 0.1)
        with pytest.raises(ValueError):
            similarity_slack(10, 1.0, 0.1)

    @pytest.mark.parametrize("m", [2.5, True])
    def test_non_integer_sample_count_rejected(self, m):
        with pytest.raises(TypeError, match="m must be an integer"):
            similarity_slack(m, 0.05, 0.1)


class TestDecideSimilarity:
    def test_identical_circuits_accepted_with_loose_request(self):
        circuit = Circuit(1, (GateOp("h", (0,)),))
        verdict = decide_similarity(circuit, circuit, epsilon=1.0, delta=0.2, delta_hat=0.05, m=2000, seed=1)
        assert verdict.estimate == pytest.approx(0.0, abs=1e-7)
        assert verdict.similar
        assert verdict.threshold == pytest.approx(similarity_bound_unitary(1.0, 0.2), abs=1e-15)

    def test_tight_threshold_needs_many_samples(self):
        """At eps=0.1, delta=0.2 even a zero estimate fails below ~1.6e7 angles."""
        assert similarity_slack(100_000, 0.05, 0.0) > similarity_bound_unitary(0.1, 0.2)

    def test_distant_pair_rejected(self):
        verdict = decide_similarity(
            Circuit(1), Circuit(1, (GateOp("x", (0,)),)), epsilon=0.1, delta=0.2, delta_hat=0.05, m=500, seed=2
        )
        assert not verdict.similar
        assert verdict.estimate >= 1.0

    def test_verdict_consistency(self):
        verdict = decide_similarity(
            Circuit(1), Circuit(1, (GateOp("z", (0,)),)), epsilon=1.5, delta=0.5, delta_hat=0.1, m=300, seed=3
        )
        assert verdict.similar == (verdict.estimate + verdict.slack_term <= verdict.threshold)

    def test_nan_epsilon_rejected(self):
        """NaN used to pass every check and give threshold = nan."""
        with pytest.raises(ValueError, match="epsilon"):
            decide_similarity(Circuit(1), Circuit(1), epsilon=math.nan, delta=0.2, delta_hat=0.1, m=10)

    def test_epsilon_cap(self):
        with pytest.raises(ValueError):
            decide_similarity(Circuit(1), Circuit(1), epsilon=2.5, delta=0.2, delta_hat=0.1, m=10)


class TestVerdictCalibration:
    """The verdict's promise as a promise, over seeded rotation-perturbed
    pairs on 1-3 qubits: a pair just farther apart than the similarity bound
    is called similar at most at rate delta_hat, and a pair well inside it
    is called similar at a fixed minimum rate."""

    EPSILON, DELTA, DELTA_HAT, M, TRIALS = 1.5, 0.5, 0.05, 400, 200
    # The false-verdict count may exceed the (1 - ALPHA) quantile of
    # Binomial(TRIALS, DELTA_HAT) only with probability ALPHA.
    ALPHA = 1e-3
    MIN_POWER = 0.9

    def similar_count(self, distance, shots, seed):
        similar = 0
        for t in range(self.TRIALS):
            u1, u2 = rotation_perturbed_pair(1 + t % 3, distance, derive_seed(seed, t))
            verdict = decide_similarity(
                u1, u2, self.EPSILON, self.DELTA, self.DELTA_HAT, self.M, shots, derive_seed(seed, t, 1)
            )
            similar += verdict.similar
        return similar

    @pytest.mark.parametrize("shots", [0, 10])
    def test_false_similar_rate_at_most_delta_hat(self, shots):
        """With shots, dropping the slack gives 66 false verdicts of 200."""
        distance = 1.01 * similarity_bound_unitary(self.EPSILON, self.DELTA)
        false_similar = self.similar_count(distance, shots, seed=1201)
        assert false_similar <= binomial_upper_quantile(self.TRIALS, self.DELTA_HAT, self.ALPHA)

    def test_pairs_well_inside_the_bound_are_similar(self):
        """A decider that never says "similar" would pass the test above."""
        distance = similarity_bound_unitary(self.EPSILON, self.DELTA) / 4
        assert self.similar_count(distance, 0, seed=1202) >= self.MIN_POWER * self.TRIALS


class TestFidelityChain:
    def test_pointwise_lower_bounds(self):
        """F >= (1 - load/2)^2 >= 1 - load, load = sum s_i^2 |<v_i|psi>|^2 with
        v_i the right-singular vectors of U1 - U2."""
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(2, 5))
            u1 = haar_random_unitary(n, 2 * trial)
            u2 = haar_random_unitary(n, 2 * trial + 1)
            _, svals, vh = np.linalg.svd(u1 - u2)
            for _ in range(5):
                psi = haar_random_state(n, rng)
                load = float(np.sum(svals**2 * np.abs(vh @ psi.amplitudes) ** 2))
                value = fidelity(
                    apply_circuit(psi, DenseUnitary(n, u1)), apply_circuit(psi, DenseUnitary(n, u2))
                )
                assert value - (1 - load / 2) ** 2 >= -1e-10
                assert (1 - load / 2) ** 2 - (1 - load) >= -1e-10

    def test_mean_fidelity_bound(self):
        """Haar mean fidelity >= 1 - distance^2, up to 3 standard errors."""
        rng = np.random.default_rng(9)
        u1, u2 = rotation_perturbed_pair(5, 0.3, seed=4)
        values = np.array(
            [
                fidelity(apply_circuit(psi, u1), apply_circuit(psi, u2))
                for psi in (haar_random_state(5, rng) for _ in range(1000))
            ]
        )
        distance = exact_schatten2(u1.matrix - u2.matrix)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert values.mean() >= 1 - distance**2 - 3 * stderr

    def test_mixed_pair_lower_bound(self):
        """For mixtures, F >= (<psi|(U1^dag U1 + U2^dag U2)|psi>/2 - load/2)^2."""
        rng = np.random.default_rng(10)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            u1, u2 = random_mixture(n, 2, rng), random_mixture(n, 3, rng)
            m1, m2 = mixed_operation_matrix(u1), mixed_operation_matrix(u2)
            _, svals, vh = np.linalg.svd(m1 - m2)
            for _ in range(5):
                psi = haar_random_state(n, rng).amplitudes
                out1, out2 = m1 @ psi, m2 @ psi
                value = abs(np.vdot(out1, out2)) ** 2
                sizes = (np.vdot(out1, out1) + np.vdot(out2, out2)).real / 2
                load = float(np.sum(svals**2 * np.abs(vh @ psi) ** 2))
                assert value - (sizes - load / 2) ** 2 >= -1e-10


class TestRotationPerturbedPair:
    def test_exact_distance(self):
        for k, distance in enumerate((0.02, 0.1, 0.5, 1.0)):
            u1, u2 = rotation_perturbed_pair(6, distance, seed=k)
            assert exact_schatten2(u1.matrix - u2.matrix) == pytest.approx(distance, abs=1e-10)

    def test_both_factors_unitary(self):
        u1, u2 = rotation_perturbed_pair(3, 0.2, seed=5)
        for mat in (u1.matrix, u2.matrix):
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(8), atol=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            rotation_perturbed_pair(3, 0.0, seed=0)
        with pytest.raises(ValueError):
            rotation_perturbed_pair(3, 1.5, seed=0)

    @pytest.mark.parametrize("n", [0, -1, MATRIX_QUBIT_CAP + 1])
    def test_qubit_count_domain(self, n):
        """n = 0 used to raise ZeroDivisionError; only the CLI checked n."""
        with pytest.raises(ValueError, match="qubit count"):
            rotation_perturbed_pair(n, 0.1, 1)
