"""Interference-test and mixture quadratic-form tests."""

import math
import os
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binomial_upper_quantile, circuit_probability, random_circuit, random_mixture
from qsnorm import (
    Circuit,
    GateOp,
    MixedOperation,
    adjoint,
    circuit_matrix,
    derived_rng,
    estimate_difference_norm,
    hadamard_shot_budget,
    measurement_budget_mixed,
    mixed_operation_matrix,
    mixed_quadratic_form,
    sample_thetas,
    sampling_circuit,
)
from qsnorm import qsim
from qsnorm.hadamard import ReductionPlan, quadratic_form_values
from qsnorm.sampler import probe_rows

SQRT2_INV = 1 / math.sqrt(2)
# One-qubit probe angles: x(pi/8) = |+> and x(pi/4) = |1>.
PLUS, ONE = math.pi / 8, math.pi / 4
IDENTITY, Z, S = Circuit(1), Circuit(1, (GateOp("z", (0,)),)), Circuit(1, (GateOp("s", (0,)),))


def _dense_mixture(n):
    """0.5 U1 + 0.4i U2 for two Haar-random DenseUnitary terms on n qubits."""
    return MixedOperation(tuple(
        (coeff, qsim.DenseUnitary(n, qsim.haar_random_unitary(n, seed))) for coeff, seed in ((0.5, 1), (0.4j, 2))
    ))


def _plus_prep():
    return Circuit(1, (GateOp("h", (0,)),))


def _test_values(u1, u2, part, thetas, shots=0, seed=0):
    """<x|M M^dag|x> for M = (U1/2, -U2/2), or (U1/2, -i U2/2) for the
    imaginary part, from the kernel on adjoint(M): per angle, Pr(1) of the
    test with prep S(theta) and chain (U2^dagger, U1), or its shot estimate
    ones/shots."""
    mixture = MixedOperation(((0.5, u1), (-0.5 if part == "real" else -0.5j, u2)))
    return mixed_quadratic_form(adjoint(mixture), thetas, shots, seed)


class TestHadamardProbability:
    """Known test probabilities, read off the batched kernel."""

    def test_identity_real_part(self):
        values = _test_values(IDENTITY, IDENTITY, "real", sample_thetas(1, 5))
        np.testing.assert_allclose(values, 0.0, rtol=0, atol=1e-15)

    def test_sigma_z_on_plus_state(self):
        """<+|Z|+> = 0, so Pr(1) = 1/2."""
        assert _test_values(Z, IDENTITY, "real", [PLUS])[0] == pytest.approx(0.5, abs=1e-15)

    def test_phase_gate_imaginary_part(self):
        """<1|S|1> = i, so the imaginary-part test sees Pr(1) = 0."""
        assert _test_values(S, IDENTITY, "imaginary", [ONE])[0] == pytest.approx(0.0, abs=1e-15)

    def test_controlled_chain_order(self):
        """The oracle's chain (A, B) evaluates <psi|B A|psi>, first listed
        applied first."""
        prep = _plus_prep()
        a, b = S, Circuit(1, (GateOp("h", (0,)),))
        psi = np.array([SQRT2_INV, SQRT2_INV])
        expected = (1 - (psi.conj() @ circuit_matrix(b) @ circuit_matrix(a) @ psi).real) / 2
        assert circuit_probability(prep, (a, b), "real") == pytest.approx(expected, abs=1e-14)

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            MixedOperation(((0.5, _plus_prep()), (0.5, Circuit(2))))


class TestFullCircuitOracle:
    def test_identity_gives_zero(self):
        assert circuit_probability(_plus_prep(), (IDENTITY,), "real") == pytest.approx(0.0, abs=1e-15)

    def test_agrees_with_analytic_path(self):
        """The literal circuit gives (1 - Re or Im <psi|V|psi>)/2 from dense
        matrices."""
        rng = np.random.default_rng(61)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            prep = random_circuit(n, 5, rng)
            ops = tuple(random_circuit(n, 4, rng) for _ in range(int(rng.integers(1, 3))))
            psi = circuit_matrix(prep)[:, 0]
            chain = np.eye(1 << n)
            for op in ops:
                chain = circuit_matrix(op) @ chain
            z = np.vdot(psi, chain @ psi)
            for part, value in (("real", z.real), ("imaginary", z.imag)):
                assert abs(circuit_probability(prep, ops, part) - (1.0 - value) / 2.0) <= 1e-10

    def test_imaginary_part_phase_example(self):
        prep = Circuit(1, (GateOp("x", (0,)),))
        assert circuit_probability(prep, (S,), "imaginary") == pytest.approx(0.0, abs=1e-14)


class TestShotEstimate:
    def test_zero_probability_is_noiseless(self):
        values = _test_values(IDENTITY, IDENTITY, "real", sample_thetas(2, 20), shots=100)
        assert np.all(values == 0.0)

    def test_estimate_matches_p1_hat(self):
        """A shot value of the (U1/2, -U2/2) mixture is the fraction of ones."""
        ones = 500 * _test_values(Z, IDENTITY, "real", np.full(20, PLUS), shots=500, seed=1)
        np.testing.assert_allclose(ones, np.round(ones), rtol=0, atol=1e-9)
        assert 0 < ones.min() and ones.max() < 500

    def test_seed_determinism(self):
        """One seed gives the same draws; another seed gives other draws."""
        thetas = np.full(20, PLUS)
        first = _test_values(Z, IDENTITY, "real", thetas, shots=500, seed=7)
        np.testing.assert_array_equal(first, _test_values(Z, IDENTITY, "real", thetas, shots=500, seed=7))
        assert np.any(first != _test_values(Z, IDENTITY, "real", thetas, shots=500, seed=8))

    def test_error_scaling_with_shots(self):
        """Mean |estimate - truth| falls like shots^(-1/2) (log-log slope);
        30 copies of one angle draw 30 independent shot estimates."""
        rz = Circuit(1, (GateOp("rz", (0,), (0.7,)),))
        thetas = np.full(30, 0.45)
        truth = _test_values(rz, IDENTITY, "real", thetas[:1])[0]
        levels = [100, 1000, 10_000, 100_000]
        means = [
            np.mean(np.abs(_test_values(rz, IDENTITY, "real", thetas, shots=shots, seed=3 + level) - truth))
            for level, shots in enumerate(levels)
        ]
        slope = np.polyfit(np.log10(levels), np.log10(means), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestBudgets:
    def test_shot_budget_reference_point(self):
        assert hadamard_shot_budget(0.1, 0.05) == 738

    def test_mixed_budget_reference_point(self):
        """ceil(32 * 2^4 * ln(320) / 0.01) for K=2, eps=0.1, delta=0.05."""
        assert measurement_budget_mixed(0.1, 0.05, 2) == 295_339

    def test_mixed_budget_defined_for_k1(self):
        assert measurement_budget_mixed(0.1, 0.05, 1) == math.ceil(32 * math.log(80) / 0.01)

    def test_mixed_budget_k4_scaling(self):
        """Doubling K multiplies the budget by 16 up to the log factor."""
        ratio = measurement_budget_mixed(0.1, 0.05, 4) / measurement_budget_mixed(0.1, 0.05, 2)
        assert 16.0 <= ratio <= 16.0 * 1.5

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            measurement_budget_mixed(0.0, 0.05, 2)
        with pytest.raises(ValueError):
            measurement_budget_mixed(0.1, 0.05, 0)

    @pytest.mark.parametrize("num_terms", [2.5, True])
    def test_mixed_budget_needs_integer_term_count(self, num_terms):
        """2.5 terms used to give 690183 shots and True the 1-term budget."""
        with pytest.raises(TypeError, match="num_terms must be an integer"):
            measurement_budget_mixed(0.1, 0.1, num_terms)


class TestMixedBudgetCalibration:
    """The mixture budget's promise as a promise: with
    measurement_budget_mixed(EPSILON, DELTA, 2) shots split evenly over the
    K(K-1) = 2 cross tests, a shot-mode value lands within EPSILON of the
    analytic one with probability at least 1 - DELTA.

    The mixture (I/2, -e^(i pi/4) Y_0/2) on n = 2 runs a real- and an
    imaginary-part test per angle, both at the hardest p = 1/2, since
    <x|Y_0|x> = 0 for a real probe x. Each angle draws its shots from its own
    generator, so over ANGLES angles the miss count may exceed the
    (1 - ALPHA) quantile of Binomial(ANGLES, DELTA) only with probability
    ALPHA. The budget is loose: a value's standard deviation is
    0.5 / sqrt(shots per test), so about 60 shots per test, not the 147,670
    the budget gives, already reach the bound."""

    EPSILON, DELTA, ANGLES, ALPHA = 0.1, 0.05, 200, 1e-3

    def test_values_at_budget_land_within_epsilon(self):
        k = 2
        mixed = MixedOperation(((0.5, Circuit(2)), (-0.5 * np.exp(1j * math.pi / 4), Circuit(2, (GateOp("y", (0,)),)))))
        thetas = sample_thetas(1307, self.ANGLES)
        exact = mixed_quadratic_form(mixed, thetas)
        assert np.all(exact == 0.5)  # both tests at p = 1/2
        shots = math.ceil(measurement_budget_mixed(self.EPSILON, self.DELTA, k) / (k * (k - 1)))
        values = mixed_quadratic_form(mixed, thetas, shots_per_test=shots, seed=1307)
        misses = int(np.count_nonzero(np.abs(values - exact) > self.EPSILON))
        assert misses <= binomial_upper_quantile(self.ANGLES, self.DELTA, self.ALPHA)


class TestMixedQuadraticForm:
    def test_single_unitary_is_exactly_one(self):
        mixed = MixedOperation(((1.0, random_circuit(3, 6, np.random.default_rng(0))),))
        assert np.all(mixed_quadratic_form(mixed, sample_thetas(4, 5)) == 1.0)

    def test_two_term_difference_identity(self):
        """(U1 - U2)/sqrt(2) collapses to 1 - Re<x|U1 U2^dag|x>."""
        rng = np.random.default_rng(62)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            u1, u2 = random_circuit(n, 5, rng), random_circuit(n, 5, rng)
            mixed = MixedOperation(((SQRT2_INV, u1), (-SQRT2_INV, u2)))
            theta = float(rng.uniform(-math.pi, math.pi))
            x = probe_rows([theta], n, 1 << n)[0]
            direct = 1.0 - (x @ circuit_matrix(u1) @ circuit_matrix(u2).conj().T @ x).real
            assert abs(mixed_quadratic_form(adjoint(mixed), [theta])[0] - direct) <= 1e-10

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(63)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            mixed = random_mixture(n, int(rng.integers(1, 5)), rng)
            theta = float(rng.uniform(-math.pi, math.pi))
            mat = mixed_operation_matrix(mixed)
            x = probe_rows([theta], n, 1 << n)[0]
            dense = (x @ (mat @ mat.conj().T) @ x).real
            assert abs(mixed_quadratic_form(adjoint(mixed), [theta])[0] - dense) <= 1e-9

    def test_value_is_nonnegative(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            mixed = random_mixture(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
            assert mixed_quadratic_form(mixed, [rng.uniform(-math.pi, math.pi)])[0] >= -1e-9

    def test_term_permutation_is_bit_exact(self):
        rng = np.random.default_rng(65)
        mixed = random_mixture(3, 4, rng)
        shuffled = MixedOperation(tuple(mixed.terms[i] for i in (2, 0, 3, 1)))
        thetas = sample_thetas(66, 10)
        np.testing.assert_array_equal(mixed_quadratic_form(mixed, thetas), mixed_quadratic_form(shuffled, thetas))

    @pytest.mark.parametrize("n, num_terms", [(3, 3), (4, 4)])
    def test_unordered_pairs_equal_ordered_pair_reference(self, n, num_terms):
        """Each unordered pair's doubled cross term gives, bit for bit, the
        value of summing every ordered pair's np.vdot term in one fsum. The
        weights multiply whole arrays of overlaps, as in the kernel, because
        numpy's complex product of arrays can round differently in the last
        bit from that of scalars."""
        rng = np.random.default_rng(74 + num_terms)
        mixed = random_mixture(n, num_terms, rng)
        coeffs = [c for c, _ in mixed.terms]
        thetas = sample_thetas(75, 20)
        probes = list(probe_rows(thetas, n, 1 << n).astype(complex))
        back = [[qsim.apply_operation_amplitudes(x, adjoint(op)) for x in probes] for _, op in mixed.terms]
        terms = [np.full(thetas.size, abs(c) ** 2) for c in coeffs]
        for a, b in permutations(range(num_terms), 2):
            overlaps = np.array([np.vdot(u, v) for u, v in zip(back[a], back[b])])
            terms.append((coeffs[a] * coeffs[b].conjugate() * overlaps).real)
        expected = [math.fsum(row) for row in zip(*terms)]
        np.testing.assert_array_equal(mixed_quadratic_form(adjoint(mixed), thetas), expected)

    def test_shot_mode_approaches_analytic_value(self):
        rng = np.random.default_rng(67)
        mixed = random_mixture(2, 3, rng)
        theta = 0.83
        exact = mixed_quadratic_form(mixed, [theta])[0]
        sampled = mixed_quadratic_form(mixed, [theta], shots_per_test=200_000, seed=8)[0]
        assert abs(sampled - exact) <= 0.05

    def test_shot_mode_determinism(self):
        mixed = random_mixture(2, 3, np.random.default_rng(68))
        a = mixed_quadratic_form(mixed, [0.5], shots_per_test=100, seed=9)
        b = mixed_quadratic_form(mixed, [0.5], shots_per_test=100, seed=9)
        assert a == b

    def test_batched_values_are_reference_test_probabilities(self):
        """With coefficients (1/2, -1/2) the value at an angle is Pr(1) of the
        literal real-part test circuit with prep S(theta) and chain
        (U2^dag, U1); with (1/2, -i/2) it is Pr(1) of the imaginary-part test."""
        rng = np.random.default_rng(69)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            u1, u2 = random_circuit(n, 6, rng), random_circuit(n, 6, rng)
            thetas = sample_thetas(int(rng.integers(1000)), 7)
            for part in ("real", "imaginary"):
                for theta, value in zip(thetas, _test_values(u1, u2, part, thetas)):
                    p1 = circuit_probability(sampling_circuit(n, float(theta)), (adjoint(u2), u1), part)
                    assert abs(value - p1) <= 1e-12

    def test_shot_values_match_reference_shot_tests(self):
        """Each angle's shot value is the weighted sum of the shot estimates
        1 - 2 ones/shots, with the ones drawn at the literal circuit's Pr(1)
        in pair then real-before-imaginary order from derived_rng(seed, i, 1)."""
        rng = np.random.default_rng(70)
        mixed = random_mixture(3, 3, rng)
        thetas = sample_thetas(71, 12)
        values = mixed_quadratic_form(adjoint(mixed), thetas, shots_per_test=40, seed=5)
        coeffs = [c for c, _ in mixed.terms]
        for i, theta in enumerate(thetas):
            draws = derived_rng(5, i, 1)
            terms = [abs(c) ** 2 for c in coeffs]
            prep = sampling_circuit(3, float(theta))
            for k1 in range(3):
                for k2 in range(k1 + 1, 3):
                    weight = coeffs[k1] * coeffs[k2].conjugate()
                    chain = (adjoint(mixed.terms[k2][1]), mixed.terms[k1][1])
                    for part, scale in (("real", 2.0 * weight.real), ("imaginary", -2.0 * weight.imag)):
                        ones = draws.binomial(40, circuit_probability(prep, chain, part))
                        terms.append(scale * (1.0 - 2.0 * ones / 40))
            assert abs(values[i] - math.fsum(terms)) <= 1e-12

    @staticmethod
    def chunking_cases() -> list:
        """1300 angles on a circuit mixture at n = 3 (default 512-row
        chunks), and 40 angles on a depth-20 circuit mixture at n = 10 and on
        a dense mixture at n = 9 (16-row chunks)."""
        rng = np.random.default_rng(74)
        return [
            (random_mixture(3, 3, np.random.default_rng(72)), sample_thetas(73, 1300)),
            (random_mixture(10, 3, rng, depth=20), sample_thetas(75, 40)),
            (_dense_mixture(9), sample_thetas(75, 40)),
        ]

    @pytest.mark.parametrize("shots", [0, 30])
    def test_rows_do_not_depend_on_chunking(self, monkeypatch, shots):
        """Per-angle values are bit-identical for any chunk size, and a
        prefix of the angles gives a prefix of the values. A CHUNK_CEILING of
        two rows' or one row's bytes gives chunks of that many rows on the
        chunking cases, where later chunks reuse the first one's arrays; in
        one-row chunks every row of the dense mixture is the first row of a
        DENSE_ROWS-row product."""
        cases = self.chunking_cases()
        mixed, thetas = cases[0]
        whole = mixed_quadratic_form(mixed, thetas, shots, seed=6)
        np.testing.assert_array_equal(mixed_quadratic_form(mixed, thetas[:700], shots, seed=6), whole[:700])
        for mixed, thetas in cases:
            whole = mixed_quadratic_form(mixed, thetas, shots, seed=6)
            for rows in (2, 1):
                monkeypatch.setattr(qsim, "CHUNK_CEILING", rows * (16 << mixed.n))
                assert qsim.chunk_rows(mixed.n) == rows
                np.testing.assert_array_equal(mixed_quadratic_form(mixed, thetas, shots, seed=6), whole)
            monkeypatch.undo()

    @pytest.mark.parametrize("shots", [0, 30])
    def test_rows_do_not_depend_on_the_chunk_ceiling(self, monkeypatch, shots):
        """chunk_rows gives fewer rows than both WIDE_ROWS and CHUNK_BYTES
        only under a lower CHUNK_CEILING. There, 3-row chunks ending in a
        1-row tail, where later chunks reuse the first one's arrays, give
        the bits of the default chunks on the chunking cases."""
        for mixed, thetas in self.chunking_cases():
            whole = mixed_quadratic_form(mixed, thetas, shots, seed=6)
            monkeypatch.setattr(qsim, "CHUNK_CEILING", 3 * (16 << mixed.n))
            assert qsim.chunk_rows(mixed.n) == 3 and thetas.size % 3 == 1
            np.testing.assert_array_equal(mixed_quadratic_form(mixed, thetas, shots, seed=6), whole)
            monkeypatch.undo()

    @pytest.mark.parametrize("n", [2, 4])
    def test_dense_prefix_gives_a_prefix_of_the_values(self, n):
        """Every prefix of 3073 angles that ends in a one-row chunk (of
        1024-row chunks at n = 2, 256-row at n = 4) gives a prefix of a
        dense mixture's values, bit for bit, on three angle sets: a lone
        row is the first of a two-row product, which rounds as a longer one
        does, where a one-row matmul would round otherwise."""
        mixed = _dense_mixture(n)
        for seed in (76, 77, 78):
            thetas = sample_thetas(seed, 3073)
            whole = mixed_quadratic_form(mixed, thetas)
            for m in range(1, thetas.size + 1, qsim.chunk_rows(n)):
                np.testing.assert_array_equal(
                    mixed_quadratic_form(mixed, thetas[:m]), whole[:m], err_msg=f"seed={seed} m={m}"
                )

    def test_chunking_holds_with_one_blas_thread(self):
        """The suite runs with the default BLAS threads, under which the
        chunking test passed while one thread showed a one-row dense
        product rounding otherwise; the chunking and prefix tests above run
        again with one thread."""
        tests = Path(__file__).resolve()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent.parent / "src"), env.get("PYTHONPATH")]))
        names = [
            "test_rows_do_not_depend_on_chunking",
            "test_rows_do_not_depend_on_the_chunk_ceiling",
            "test_dense_prefix_gives_a_prefix_of_the_values",
        ]
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *(f"{tests}::TestMixedQuadraticForm::{name}" for name in names)],
            capture_output=True, text=True, env=env, cwd=tests.parent.parent, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]

    def test_qubit_cap_checked_before_allocation(self):
        """A 21-qubit request fails at once instead of building probe rows."""
        with pytest.raises(ValueError, match="qubit count 21"):
            mixed_quadratic_form(MixedOperation(((1.0, Circuit(21)),)), [0.1])
        with pytest.raises(ValueError, match="qubit count 21"):
            estimate_difference_norm(Circuit(21), Circuit(21), 1)

    @pytest.mark.parametrize("shots", [2.5, True])
    def test_non_integer_shots_rejected(self, shots):
        """2.5 shots used to draw 2 and divide by 2.5, giving values in
        {0, 0.8, 1.6} for (I - X)/sqrt(2) instead of {0, 1, 2}."""
        mixed = MixedOperation(((SQRT2_INV, Circuit(1)), (-SQRT2_INV, Circuit(1, (GateOp("x", (0,)),)))))
        with pytest.raises(TypeError, match="shots_per_test must be an integer"):
            mixed_quadratic_form(mixed, sample_thetas(1, 20), shots)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shots", [0, 10])
    def test_non_finite_angle_rejected_before_any_work(self, monkeypatch, bad, shots):
        """A NaN angle used to give a NaN value. The whole angle set is
        checked once, so a bad angle in the last chunk is caught before the
        first chunk's probe rows are built."""
        mixed = random_mixture(3, 2, np.random.default_rng(3))
        thetas = np.append(sample_thetas(5, 1200), bad)

        def no_rows(*args):
            raise AssertionError("probe rows were built")

        monkeypatch.setattr("qsnorm.hadamard.probe_rows", no_rows)
        with pytest.raises(ValueError, match="angles must be finite"):
            mixed_quadratic_form(mixed, thetas, shots)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            mixed_quadratic_form(random_mixture(1, 2, np.random.default_rng(2)), [0.1], shots_per_test=-1)


def per_row_fsum(coeffs, images):
    """The reduction's analytic values as the per-row reference: for each
    point and row, math.fsum of the squares |a_k|^2 and the cross terms
    2 Re(conj(a_a) a_b <U_a x|U_b x>), each point's overlaps taken on its
    own. An image is (rows, N), shared by every point, or (B, rows, N)."""
    squares = [abs(c) ** 2 for c in coeffs]
    points = max(len(image) for image in images if image.ndim == 3)
    values = []
    for b in range(points):
        own = [image if image.ndim == 2 else image[b] for image in images]
        crosses = [
            (2.0 * (coeffs[a].conjugate() * coeffs[c] * qsim.row_overlaps(own[a], own[c])).real).tolist()
            for a, c in combinations(range(len(coeffs)), 2)
        ]
        values.append([math.fsum(squares + [cross[i] for cross in crosses]) for i in range(len(own[0]))])
    return values


def complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestReductionSum:
    """The analytic reduction sums a value's terms as one IEEE add when
    there is at most one cross term and the squares sum exactly, and with
    one fsum per row otherwise; both give the per-row fsum's bits."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        magnitude=st.floats(2.0**-10, 1.0),
        phase=st.floats(-math.pi, math.pi),
        turn=st.sampled_from([1, -1, 1j, -1j]),
        case=st.sampled_from(["random", "cancel", "tiny"]),
        delta=st.floats(2.0**-70, 2.0**-45),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equal_magnitudes_give_the_per_row_fsum(self, magnitude, phase, turn, case, delta, shape, seed):
        """Equal |a_k| make S = 2|a_0|^2 exact. "cancel" makes the cross term
        -S exactly (a real a_1 = -a_0, identical basis-state images), and
        "tiny" makes it about delta S, around and below ulp(S)."""
        points, rows, n = shape
        rng = np.random.default_rng(seed)
        a0 = magnitude * complex(math.cos(phase), math.sin(phase))
        if case == "random":
            vx, ux = complex_normal(rng, rows, 1 << n), complex_normal(rng, points, rows, 1 << n)
        else:
            vx = np.zeros((rows, 1 << n), dtype=complex)
            vx[:, 0] = 1.0
            ux = np.broadcast_to(vx, (points, rows, 1 << n)).copy()
            if case == "cancel":
                a0, turn = complex(magnitude, 0.0), -1
            else:
                ux[..., 0] = delta * rng.choice([-1.0, 1.0], size=(points, rows))
                ux[..., 1] += 1.0
        coeffs = [a0, a0 * turn]
        values = quadratic_form_values(ReductionPlan(coeffs), [(slice(0, rows), [vx, ux])], rows, 0, 0)
        assert values.shape == (points, rows)
        assert values.tolist() == per_row_fsum(coeffs, [vx, ux])
        if case == "cancel":
            assert not values.any()

    @pytest.mark.parametrize("coeffs", [[0.1, -0.7j], [0.4, -0.3j, 0.2 + 0.1j]])
    def test_other_mixtures_give_the_per_row_fsum(self, coeffs):
        """Unequal weights whose squares do not sum exactly, and three terms
        (three cross terms), take one fsum per row. For the two-term
        mixture the one IEEE add S + cross would differ in some rows."""
        rng = np.random.default_rng(31)
        vx, ux = complex_normal(rng, 64, 4), complex_normal(rng, 9, 64, 4)
        images = [vx, ux, complex_normal(rng, 64, 4)][:len(coeffs)]
        chunks = [(slice(0, 32), [i[..., :32, :] for i in images]), (slice(32, 64), [i[..., 32:, :] for i in images])]
        values = quadratic_form_values(ReductionPlan(coeffs), chunks, 64, 0, 0)
        assert values.tolist() == per_row_fsum(coeffs, images)
        squares = [abs(c) ** 2 for c in coeffs]
        total = math.fsum(squares)
        if len(coeffs) == 2:
            assert math.fsum([total, *(-sq for sq in squares)]) != 0.0
            cross = 2.0 * (coeffs[0].conjugate() * coeffs[1] * qsim.row_overlaps(vx, ux)).real
            assert ((total + cross) != values).any()

    @pytest.mark.parametrize("shots", [0, 20])
    def test_block_equals_one_call_per_point(self, shots):
        """A (B, rows, N) block gives each point's values of a call on that
        point alone, in analytic and in shot mode, over two chunks."""
        rng = np.random.default_rng(32)
        coeffs = [SQRT2_INV, -SQRT2_INV]
        vx, ux = complex_normal(rng, 40, 8), complex_normal(rng, 5, 40, 8)

        def chunks(block):
            return [(slice(0, 25), [vx[:25], block[..., :25, :]]), (slice(25, 40), [vx[25:], block[..., 25:, :]])]

        values = quadratic_form_values(ReductionPlan(coeffs), chunks(ux), 40, shots, 7)
        assert values.shape == (5, 40)
        for point, row in zip(ux, values):
            np.testing.assert_array_equal(quadratic_form_values(ReductionPlan(coeffs), chunks(point), 40, shots, 7), row)
