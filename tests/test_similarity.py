"""Similarity bounds, fidelity statistics, and the decision procedure."""

import math

import numpy as np
import pytest

from helpers import binomial_upper_quantile, exactness_grid, haar_state, random_circuit, random_mixture
from qsnorm import (
    Circuit,
    DenseUnitary,
    GateOp,
    MixedOperation,
    apply_circuit,
    decide_similarity,
    derive_seed,
    derived_rng,
    estimate_tau,
    exact_schatten2,
    haar_fidelities,
    haar_random_unitary,
    mixed_operation_matrix,
    rotation_perturbed_pair,
    similarity_bound_mixed,
    similarity_bound_unitary,
    similarity_slack,
)
from qsnorm import qsim, similarity
from qsnorm.qsim import MATRIX_QUBIT_CAP, DenseUnitary, apply_operation_amplitudes, row_overlaps
from qsnorm.sampler import KEY_BLOCK, derived_rngs
from qsnorm.schatten import schatten2_estimate_from_thetas

SQRT2_INV = 1 / math.sqrt(2)


def haar_rows(n, rngs, count):
    """``count`` states drawn by the package's one Haar path, state r from
    the r-th generator of ``rngs``."""
    return similarity._haar_amplitudes(n, rngs, np.empty((count, 1 << n), dtype=complex))


class TestHaarRandomState:
    def test_unit_norm(self):
        states = haar_rows(4, [np.random.default_rng(1)] * 50, 50)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 1e-12

    def test_overlap_moment_with_basis_state(self):
        """Haar mean of |<0...0|psi>|^2 is 1/N within 3 standard errors."""
        samples = np.abs(haar_rows(3, [np.random.default_rng(2)] * 10_000, 10_000)[:, 0]) ** 2
        stderr = samples.std(ddof=1) / math.sqrt(samples.size)
        assert abs(samples.mean() - 1 / 8) <= 3 * stderr

    def test_determinism(self):
        a = haar_rows(2, [np.random.default_rng(3)], 1)
        b = haar_rows(2, [np.random.default_rng(3)], 1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n, num_states", [(1, 3000), (3, 700), (6, 1000), (10, 10)])
    def test_chunked_states_equal_the_per_state_formula(self, n, num_states, monkeypatch):
        """The states haar_fidelities applies are the per-state formula from
        derived_rng(seed, i), bit for bit; num_states leaves the last chunk
        part-filled. Chunks are drawn into the applier's input batch and
        normalized at once, so this pins numpy's sequential Gaussian fill,
        the way np.linalg.norm sums a complex vector and its division by
        the norm. Each chunk is recorded as it enters the applier, and the
        two empty circuits' images of it are that chunk again."""
        drawn, images = [], []

        def recording(ops, count, n, fill):
            def record(chunk, x):
                fill(chunk, x)
                drawn.append(x.copy())

            run = qsim.batch_applier(ops, count, n, record)

            def walk():
                for chunk, x, result in run():
                    images.append([image.copy() for image in result])
                    yield chunk, x, result

            return walk

        monkeypatch.setattr(similarity, "batch_applier", recording)
        haar_fidelities(Circuit(n), Circuit(n), num_states, seed=11)
        expected = np.array([haar_state(n, derived_rng(11, i)).amplitudes for i in range(num_states)])
        np.testing.assert_array_equal(np.concatenate(drawn), expected)
        for op in range(2):
            np.testing.assert_array_equal(np.concatenate([chunk[op] for chunk in images]), expected)

    def test_rows_are_the_generators_normal_draws(self):
        """Each Gaussian row _haar_amplitudes draws, in haar_fidelities'
        chunks, is ``derived_rng(seed, i).standard_normal(2^(n+1))``, byte
        for byte, over more states than one KEY_BLOCK of keys; a chunk of k
        rows takes exactly k generators from the stream. Each generator is
        a proxy whose ``standard_normal(out=)`` delegates and then records
        the row it filled."""
        n, num_states = 3, KEY_BLOCK + 76
        rows, taken = [], []

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *, out):
                self.rng.standard_normal(out=out)
                rows.append(out.tobytes())

        def stream():
            for rng in derived_rngs(14, num_states):
                taken.append(rng)
                yield Recording(rng)

        proxies = stream()

        def fill(chunk, x):
            similarity._haar_amplitudes(n, proxies, x)
            assert len(taken) == len(rows) == chunk.stop

        for _ in qsim.batch_applier([Circuit(n)], num_states, n, fill)():
            pass
        assert len(rows) == num_states
        for i, row in enumerate(rows):
            assert row == derived_rng(14, i).standard_normal(2 << n).tobytes(), i

    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_single_state_equals_the_per_state_formula(self, n):
        """A one-row chunk, as a one-state run or a one-row tail draws it,
        keeps the formula's bits too."""
        for key in range(5):
            np.testing.assert_array_equal(
                haar_rows(n, [derived_rng(12, key)], 1)[0], haar_state(n, derived_rng(12, key)).amplitudes
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

    def test_subnormal_delta_gives_a_positive_threshold(self):
        """1/delta overflows at delta = 5e-324, which used to give a factor
        of inf and a threshold of 0.0. The threshold is
        0.1 / (1 + sqrt(2 (1 - delta) / delta)), about 1.57e-163."""
        threshold = similarity_bound_unitary(0.1, 5e-324)
        assert math.isclose(threshold, 0.1 * math.sqrt(5e-324) / math.sqrt(2.0), rel_tol=1e-12, abs_tol=0.0)
        assert threshold == pytest.approx(1.5717e-163, rel=1e-4, abs=0.0)
        assert similarity.similarity_factor(1e-300) == 1.0 + math.sqrt(2.0 * (1.0 / 1e-300 - 1.0))

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

    def test_subnormal_delta_gives_a_finite_bound(self):
        """1/delta overflows at delta = 5e-324, and at tau = 1 the spread
        used to meet tau - tau^4 = 0 as inf * 0, giving nan. The bound
        matches the formula evaluated at 50 digits, and at tau = 0.9 and
        0.5 there is still no guarantee."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            eps, delta, tau = mpmath.mpf(0.1), mpmath.mpf(5e-324), mpmath.mpf(1)
            spread = 1 / delta - 1
            want = mpmath.sqrt((eps**2 - spread * (tau - tau**4)) / (2 * tau * (eps + spread * tau**2)))
        value = similarity_bound_mixed(0.1, 5e-324, 1.0)
        assert math.isfinite(value)
        assert math.isclose(value, float(want), rel_tol=1e-12, abs_tol=0.0)
        assert value == pytest.approx(1.5717e-163, rel=1e-4, abs=0.0)
        assert similarity_bound_mixed(0.1, 5e-324, 0.9) is None
        assert similarity_bound_mixed(0.1, 5e-324, 0.5) is None

    @pytest.mark.parametrize("epsilon, delta, tau", [
        (1e300, 0.2, 1.0), (1e300, 0.2, 0.5), (1e300, 5e-324, 1.0), (1e300, 5e-324, 0.5),
        (1.4e154, 0.2, 1.0), (1.4e154, 5e-324, 0.5),
    ])
    def test_huge_epsilon_gives_the_bound(self, epsilon, delta, tau):
        """epsilon**2 overflows above about 1.3e154 and used to raise
        OverflowError. The bound matches the formula evaluated at 50 digits,
        or is None where its radicand is negative, for an ordinary and a
        subnormal delta."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            eps, d, t = mpmath.mpf(epsilon), mpmath.mpf(delta), mpmath.mpf(tau)
            spread = 1 / d - 1
            numerator = eps**2 - spread * (t - t**4)
            want = None if numerator < 0 else float(mpmath.sqrt(numerator / (2 * t * (eps + spread * t**2))))
        value = similarity_bound_mixed(epsilon, delta, tau)
        if want is None:
            assert value is None
        else:
            assert math.isclose(value, want, rel_tol=1e-12, abs_tol=0.0)

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

    def test_register_above_state_cap_rejected_before_any_state(self, monkeypatch):
        """Two empty 21-qubit circuits used to allocate 2^21-amplitude
        batches, draw a state and give a similarity of 1.0."""

        def no_state(*args):
            raise AssertionError("a state was drawn")

        monkeypatch.setattr(similarity, "derived_rngs", no_state)
        monkeypatch.setattr(similarity, "batch_applier", no_state)
        with pytest.raises(ValueError, match=r"statevector qubit count 21 outside \[1, 20\]"):
            haar_fidelities(Circuit(21), Circuit(21), 1)

    def test_batched_fidelities_match_per_state_loop(self):
        """Each Haar state's fidelity comes from the same derived_rng(seed, i)
        draw and equals |<a|b>|^2 from ``np.vdot`` bit for bit, for dense and gate
        operations. The reference applies each operation to the stacked
        states: a dense matrix applied to one state can round differently in
        the last bit, which test_qsim bounds."""
        u1, u2 = rotation_perturbed_pair(3, 0.3, seed=5)
        gates = random_circuit(3, 8, np.random.default_rng(6))
        states = np.stack([haar_state(3, derived_rng(9, i)).amplitudes for i in range(40)])
        for first, second in ((u1, u2), (gates, u2)):
            pairs = zip(apply_operation_amplitudes(states, first), apply_operation_amplitudes(states, second))
            expected = [float(abs(np.vdot(a, b)) ** 2) for a, b in pairs]
            np.testing.assert_array_equal(haar_fidelities(first, second, 40, seed=9), expected)

    def test_reused_arrays_give_the_allocating_path_bits(self):
        """At n = 10 a chunk holds 16 states, so 33 states make two full
        chunks and a 1-row tail, all applied into the arrays made for the
        first one. Depth-20 gate circuits give the fidelities of the
        allocating gate path, which makes fresh arrays for every gate."""
        rng = np.random.default_rng(41)
        u1, u2 = random_circuit(10, 20, rng), random_circuit(10, 20, rng)
        assert qsim.chunk_rows(10) == 16 and 33 == 2 * 16 + 1
        states = np.stack([haar_state(10, derived_rng(13, i)).amplitudes for i in range(33)])
        overlaps = row_overlaps(apply_operation_amplitudes(states, u1), apply_operation_amplitudes(states, u2))
        expected = [abs(z) ** 2 for z in overlaps.tolist()]
        np.testing.assert_array_equal(haar_fidelities(u1, u2, 33, seed=13), expected)


class TestSimilaritySlack:
    def test_reference_points(self):
        """Quartic branch at zero estimate: (2 ln 40 / m)^(1/4)."""
        assert similarity_slack(100_000, 0.05, 0.0) == pytest.approx(0.0926789521247125, abs=1e-12)
        assert similarity_slack(1_000_000, 0.05, 0.0) == pytest.approx(0.05211720475506375, abs=1e-12)

    def test_subnormal_delta_hat_gives_a_finite_slack(self):
        """2/delta_hat overflows at delta_hat = 5e-324, which used to give
        an infinite slack; ln(2 / 5e-324) is about 745.13."""
        m = 1_000_000
        log_ratio = math.log(2.0) - math.log(5e-324)
        assert log_ratio == pytest.approx(745.13, abs=0.01)
        assert similarity_slack(m, 5e-324, 0.0) == (2.0 * log_ratio / m) ** 0.25
        assert similarity_slack(m, 1e-300, 0.0) == (2.0 * math.log(2.0 / 1e-300) / m) ** 0.25

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
                psi = haar_state(n, rng)
                load = float(np.sum(svals**2 * np.abs(vh @ psi.amplitudes) ** 2))
                out1, out2 = (apply_circuit(psi, DenseUnitary(n, u)).amplitudes for u in (u1, u2))
                value = abs(np.vdot(out1, out2)) ** 2
                assert value - (1 - load / 2) ** 2 >= -1e-10
                assert (1 - load / 2) ** 2 - (1 - load) >= -1e-10

    def test_mean_fidelity_bound(self):
        """Haar mean fidelity >= 1 - distance^2, up to 3 standard errors."""
        rng = np.random.default_rng(9)
        u1, u2 = rotation_perturbed_pair(5, 0.3, seed=4)
        values = np.array(
            [
                abs(np.vdot(apply_circuit(psi, u1).amplitudes, apply_circuit(psi, u2).amplitudes)) ** 2
                for psi in (haar_state(5, rng) for _ in range(1000))
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
                psi = haar_state(n, rng).amplitudes
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
