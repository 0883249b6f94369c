"""Probe-vector and classical-estimator tests.

The grid oracle: probe second moments are trig polynomials of frequency
below the exactness grid size, so grid averages must equal expectations to
rounding; every statistical claim is checked against that quadrature.
"""

import ast
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import exactness_grid, sqrt_error_propagation_holds
from qsnorm import (
    classical_schatten2_estimate,
    classical_trace_estimate,
    derive_seed,
    derived_rng,
    frequency_ladder,
    haar_random_unitary,
    sample_budget_schatten2,
    sample_budget_trace,
    sample_thetas,
)
from qsnorm import sampler
from qsnorm.sampler import KEY_BLOCK, check_eps_delta, derived_rngs, probe_rows, uniform_angles


class TestFrequencyLadder:
    def test_values(self):
        np.testing.assert_array_equal(frequency_ladder(4), [2, 4, 8, 16])

    @pytest.mark.parametrize("n", range(1, 11))
    def test_signed_subset_sums_never_vanish(self, n):
        """Every signed sum of a nonempty frequency subset is a nonzero integer."""
        ladder = frequency_ladder(n)
        for signs in product((-1, 0, 1), repeat=n):
            if any(signs):
                assert int(np.dot(signs, ladder)) != 0


class TestProbeVector:
    def test_single_qubit_quarter_turn(self):
        """omega_1 = 2, so theta = pi/4 gives (cos pi/2, sin pi/2) = (0, 1)."""
        np.testing.assert_allclose(probe_rows([math.pi / 4], 1, 2)[0], [0, 1], atol=1e-15)

    def test_zero_angle_hits_first_basis_vector(self):
        np.testing.assert_allclose(probe_rows([0.0], 2, 4)[0], [1, 0, 0, 0], atol=1e-15)

    def test_entry_ordering_cos_first(self):
        """Entries follow (cc, cs, sc, ss) with frequencies (2, 4)."""
        theta = 0.37
        c1, s1 = math.cos(2 * theta), math.sin(2 * theta)
        c2, s2 = math.cos(4 * theta), math.sin(4 * theta)
        np.testing.assert_allclose(
            probe_rows([theta], 2, 4)[0], [c1 * c2, c1 * s2, s1 * c2, s1 * s2], atol=1e-15
        )

    def test_unit_norm_at_full_size(self):
        rng = np.random.default_rng(7)
        for theta in rng.uniform(-math.pi, math.pi, 20):
            assert abs(np.linalg.norm(probe_rows([float(theta)], 4, 16)[0]) - 1.0) <= 1e-12

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            probe_rows([0.1], 2, 2)
        with pytest.raises(ValueError):
            probe_rows([0.1], 2, 5)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_grid_second_moments_are_identity_over_size(self, n):
        """Grid average of x_j x_k equals delta_jk / N."""
        size = 1 << n
        rows = probe_rows(exactness_grid(n), n, size)
        moments = rows.T @ rows / rows.shape[0]
        np.testing.assert_allclose(moments, np.eye(size) / size, atol=1e-9)

    def test_truncated_size_moments(self):
        """Dropping trailing entries keeps E[x_j x_k] = delta_jk / size."""
        rows = probe_rows(exactness_grid(2), 2, 3)
        moments = rows.T @ rows / rows.shape[0]
        np.testing.assert_allclose(moments, np.eye(3) / 3, atol=1e-9)

    def test_projection_onto_any_unit_vector(self):
        """Grid average of |<x|w>|^2 is 1/N for arbitrary unit w."""
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            size = 1 << n
            w = rng.standard_normal(size) + 1j * rng.standard_normal(size)
            w /= np.linalg.norm(w)
            rows = probe_rows(exactness_grid(n), n, size)
            mean = np.mean(np.abs(rows @ w.conj()) ** 2)
            assert abs(mean - 1.0 / size) <= 1e-9


class TestClassicalTraceEstimate:
    def test_identity_is_exact_for_any_angles(self):
        thetas = np.random.default_rng(1).uniform(-math.pi, math.pi, 7)
        assert classical_trace_estimate(np.eye(8), thetas) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_on_nine_point_grid(self):
        """The integrand is cos(4 theta); nine equally spaced points kill it."""
        thetas = np.linspace(-math.pi, math.pi, 9, endpoint=False)
        assert abs(classical_trace_estimate(np.diag([1.0, -1.0]), thetas)) <= 1e-12

    def test_random_unitary_on_17_point_grid(self):
        """Max integrand frequency 2(2+4) = 12 < 17, so the grid is exact."""
        thetas = np.linspace(-math.pi, math.pi, 17, endpoint=False)
        for seed in range(5):
            mat = haar_random_unitary(2, seed)
            estimate = classical_trace_estimate(mat, thetas)
            assert abs(estimate - np.trace(mat) / 4) <= 1e-10

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classical_trace_estimate(np.eye(2), np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        """A NaN angle used to give (nan+nanj)."""
        with pytest.raises(ValueError, match="angles must be finite"):
            classical_trace_estimate(np.eye(2), [0.1, bad])
        with pytest.raises(ValueError, match="angles must be finite"):
            classical_schatten2_estimate(np.eye(2), [bad])

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            classical_trace_estimate(np.zeros((2, 3)), np.array([0.1]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
    def test_non_finite_matrix_rejected_before_probe_rows(self, bad, monkeypatch):
        """A NaN entry used to give (nan+nanj) and an inf entry a Schatten-2
        estimate of 0.0."""

        def no_rows(*args):
            raise AssertionError("probe rows were built")

        monkeypatch.setattr(sampler, "probe_rows", no_rows)
        mat = np.array([[bad, 0], [0, 1]])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            classical_trace_estimate(mat, [0.1])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            classical_schatten2_estimate(mat, [0.1])

    def test_concentration_at_budgeted_samples(self):
        """369 angles hold a 6-qubit unitary trace to 0.05 in >= 95 of 100 runs."""
        mat = haar_random_unitary(6, 99)
        truth = np.trace(mat) / 64
        m = sample_budget_trace(0.05, 0.05)
        hits = sum(
            abs(classical_trace_estimate(mat, sample_thetas(derive_seed(11, rep), m)) - truth) <= 0.05
            for rep in range(100)
        )
        assert hits >= 95


class TestClassicalSchatten2Estimate:
    def test_unitary_gives_one(self):
        thetas = np.random.default_rng(2).uniform(-math.pi, math.pi, 5)
        assert classical_schatten2_estimate(haar_random_unitary(3, 4), thetas) == pytest.approx(1.0, abs=1e-12)

    def test_zero_matrix(self):
        assert classical_schatten2_estimate(np.zeros((4, 4)), np.array([0.3])) == 0.0

    def test_x_minus_identity_on_grid(self):
        thetas = np.linspace(-math.pi, math.pi, 9, endpoint=False)
        mat = np.array([[0, 1], [1, 0]], dtype=complex) - np.eye(2)
        assert classical_schatten2_estimate(mat, thetas) == pytest.approx(math.sqrt(2), abs=1e-10)

    def test_rectangular_input(self):
        """N is the row count; grid average recovers sqrt(Tr(AA^dag)/N)."""
        rng = np.random.default_rng(3)
        mat = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
        exact = math.sqrt(np.trace(mat @ mat.conj().T).real / 4)
        estimate = classical_schatten2_estimate(mat, exactness_grid(2))
        assert estimate == pytest.approx(exact, abs=1e-9)

    def test_empty_sample_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            classical_schatten2_estimate(np.eye(2), np.array([]))


class TestBudgets:
    def test_trace_budget_reference_point(self):
        assert sample_budget_trace(0.05, 0.05) == 369

    def test_trace_budget_weakest_request(self):
        assert sample_budget_trace(1.0, 0.99) == 1

    def test_halving_epsilon_quadruples_m(self):
        coarse = sample_budget_trace(0.02, 0.1)
        fine = sample_budget_trace(0.01, 0.1)
        assert abs(fine - 4 * coarse) <= 4

    def test_schatten_budget_reference_point(self):
        assert sample_budget_schatten2(0.1, 0.05, norm_hint=1.0) == 185

    def test_schatten_budget_small_hint_uses_epsilon_branch(self):
        """min(eps^-2, hint^-2) picks eps^-2 = 100 when the hint is tiny."""
        assert (
            sample_budget_schatten2(0.1, 0.05, norm_hint=0.01)
            == sample_budget_schatten2(0.1, 0.05, norm_hint=0.0)
        )

    def test_schatten_budget_crossover_at_hint_equal_epsilon(self):
        at_eps = sample_budget_schatten2(0.1, 0.05, norm_hint=0.1)
        assert at_eps == sample_budget_schatten2(0.1, 0.05, norm_hint=0.05)
        assert sample_budget_schatten2(0.1, 0.05, norm_hint=0.5) < at_eps

    @pytest.mark.parametrize("eps,delta", [(0.0, 0.1), (-1, 0.1), (0.1, 0.0), (0.1, 1.0)])
    def test_domain_violations(self, eps, delta):
        with pytest.raises(ValueError):
            sample_budget_trace(eps, delta)
        with pytest.raises(ValueError):
            sample_budget_schatten2(eps, delta)

    @pytest.mark.parametrize(
        "hint, match", [(-1.0, "nonnegative"), (math.inf, "finite"), (math.nan, "finite")]
    )
    def test_schatten_budget_rejects_negative_or_non_finite_hint(self, hint, match):
        """An infinite hint used to give a budget of 0 angles and a NaN hint
        the unknown-norm budget."""
        with pytest.raises(ValueError, match=f"norm_hint must be {match}"):
            sample_budget_schatten2(0.1, 0.05, norm_hint=hint)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_epsilon_rejected(self, eps):
        """NaN used to pass, because nan <= 0 is False; the budgets then
        failed only by accident, inside ceil() or at a zero sample count."""
        with pytest.raises(ValueError, match="epsilon"):
            check_eps_delta(eps, 0.1)

    def test_budget_requires_positive_m(self):
        """A sample count is checked where the angles are drawn."""
        with pytest.raises(ValueError, match="at least one sample"):
            sample_thetas(0, 0)

    @pytest.mark.parametrize("m", [True, 2.5, "3"])
    def test_budget_requires_integer_m(self, m):
        """m=True used to run one angle and m=2.5 to fail inside range()."""
        with pytest.raises(TypeError, match="m must be an integer"):
            sample_thetas(0, m)

    def test_budget_stores_numpy_integer_as_int(self):
        """Every budget is a plain int, and a numpy integer count is accepted."""
        assert type(sample_budget_trace(0.05, 0.05)) is int
        assert type(sample_budget_schatten2(0.1, 0.05)) is int
        assert sample_thetas(0, np.int64(4)).tobytes() == sample_thetas(0, 4).tobytes()


class TestSqrtErrorPropagation:
    def test_exact_square(self):
        assert sqrt_error_propagation_holds(0.25, 0.5, 0.1)

    def test_boundary_case_large_s(self):
        """|0.3 - 0.25| = 0.05 = eps*s, and |sqrt(0.3) - 0.5| stays below eps."""
        assert sqrt_error_propagation_holds(0.3, 0.5, 0.1)
        assert abs(math.sqrt(0.3) - 0.5) <= 0.1

    def test_small_s_branch(self):
        """s below eps uses the eps^2 allowance: |0 - 0.0025| <= 0.01."""
        assert sqrt_error_propagation_holds(0.0, 0.05, 0.1)
        assert abs(0.0 - 0.05) <= 0.1

    def test_implication_on_random_triples(self):
        """Hypothesis-satisfying triples always keep the rooted error within eps."""
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            s = float(rng.uniform(0, 2))
            eps = float(rng.uniform(1e-3, 1))
            bound = eps * max(eps, s)
            m_hat = float(rng.uniform(max(0.0, s * s - bound), s * s + bound))
            assert sqrt_error_propagation_holds(m_hat, s, eps)
            assert abs(math.sqrt(m_hat) - s) <= eps + 1e-12


class TestSeedContract:
    def test_derived_rng_is_reproducible(self):
        a = derived_rng(5, 3).uniform(size=4)
        b = derived_rng(5, 3).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        assert derived_rng(5, 3).uniform() != derived_rng(5, 4).uniform()
        assert derived_rng(5, 3).uniform() != derived_rng(5, 3, 1).uniform()

    def test_theta_prefix_property(self):
        """theta_i depends only on (seed, i), so longer draws extend shorter ones."""
        np.testing.assert_array_equal(sample_thetas(9, 10), sample_thetas(9, 50)[:10])

    def test_thetas_lie_in_range(self):
        thetas = sample_thetas(2, 200)
        assert np.all(thetas >= -math.pi) and np.all(thetas <= math.pi)

    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)


def per_key_thetas(seed: int, m: int) -> np.ndarray:
    """The scalar reference: one SeedSequence and Generator per angle."""
    return np.array([derived_rng(seed, i).uniform(-math.pi, math.pi) for i in range(m)])


class TestVectorizedSeeding:
    """``sample_thetas`` and ``derived_rngs`` compute numpy's SeedSequence and
    PCG64 seeding for a block of keys at once. These tests pin them to
    numpy's own per-key derivation, and fail if numpy's seeding changes."""

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100])
    def test_thetas_equal_per_key_loop_at_word_boundaries(self, seed):
        m = KEY_BLOCK + 200
        assert sample_thetas(seed, m).tobytes() == per_key_thetas(seed, m).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**140), m=st.integers(1, 12))
    def test_thetas_equal_per_key_loop(self, seed, m):
        assert sample_thetas(seed, m).tobytes() == per_key_thetas(seed, m).tobytes()

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5])
    def test_generators_equal_per_key_streams(self, seed):
        """Binomial draws by inversion (n p <= 30) and by BTPE, then normals."""
        count = KEY_BLOCK + 100
        for i, rng in enumerate(derived_rngs(seed, count, 1)):
            ref = derived_rng(seed, i, 1)
            for trials, p in ((40, 0.3), (1000, 0.45)):
                assert rng.binomial(trials, p, 3).tolist() == ref.binomial(trials, p, 3).tolist()
            assert rng.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()
        assert i == count - 1

    def test_no_buffered_half_reaches_the_next_key(self):
        """Three uint32 draws leave half of a 64-bit output buffered in the
        PCG64; the next key's stream must not start with it. A state write
        that kept ``has_uint32`` and ``uinteger`` failed every other key."""
        count = 6
        for i, rng in enumerate(derived_rngs(3, count)):
            ref = derived_rng(3, i)
            draws = rng.integers(2**32, size=3, dtype=np.uint32), ref.integers(2**32, size=3, dtype=np.uint32)
            assert draws[0].tolist() == draws[1].tolist(), i
            assert rng.standard_normal(2).tobytes() == ref.standard_normal(2).tobytes(), i
        assert i == count - 1

    def test_a_state_that_reads_back_otherwise_raises(self, monkeypatch):
        """With the halves of each 128-bit word swapped, the first key's
        state reads back otherwise, and no generator is yielded."""

        def swapped(state_hi, state_lo, inc_hi, inc_lo):
            return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)

        monkeypatch.setattr(sampler, "_state_words", swapped)
        with pytest.raises(RuntimeError, match=f"numpy {re.escape(np.__version__)} "):
            next(derived_rngs(5, 3))

    def test_only_the_sampler_reaches_into_numpy(self):
        """The PCG64 state write, which its read-back check guards, is the
        package's one reach past numpy's public API: only sampler imports
        ctypes, and no module names PyDLL, CDLL or np.random._generator."""
        importers, reaches = set(), set()
        for path in sorted(Path(sampler.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    names = [ast.unparse(node)]
                else:
                    continue
                for name in names:
                    if isinstance(node, (ast.Import, ast.ImportFrom)) and name.split(".")[0] == "ctypes":
                        importers.add(path.stem)
                    if {"PyDLL", "CDLL"} & set(name.split(".")) or "random._generator" in name:
                        reaches.add(f"{path.stem}: {name}")
        assert importers == {"sampler"}
        assert reaches == set()

    @pytest.mark.parametrize("count", [1, 4, 7])
    def test_uniform_angles_equal_unkeyed_stream(self, count):
        """``uniform_angles`` steps the unkeyed stream of ``derived_rng(seed)``
        itself; its angles are that Generator's uniform(-pi, pi, count)."""
        for seed in [*range(200), 2**31 - 2, 2**40 + 7, 2**64 + 3]:
            want = derived_rng(seed).uniform(-math.pi, math.pi, count)
            assert uniform_angles(seed, count).tobytes() == want.tobytes(), seed

    def test_negative_seed_rejected(self):
        for draw in (lambda: derived_rng(-1, 0), lambda: sample_thetas(-1, 5), lambda: next(derived_rngs(-1, 5))):
            with pytest.raises(ValueError, match="non-negative"):
                draw()

    @pytest.mark.parametrize("seed", [2.5, 2.9, True, np.float64(2.0)])
    def test_non_integer_seed_rejected(self, seed):
        """Seeds used to be truncated with int(), so sample_thetas(2.5, 3)
        equalled sample_thetas(2, 3)."""
        draws = (
            lambda: sample_thetas(seed, 3),
            lambda: derive_seed(seed),
            lambda: derived_rng(seed),
            lambda: derived_rng(1, seed),
            lambda: next(derived_rngs(seed, 3)),
        )
        for draw in draws:
            with pytest.raises(TypeError, match="seed must be an integer"):
                draw()

    def test_numpy_integer_seed_accepted(self):
        assert sample_thetas(np.int64(7), 3).tobytes() == sample_thetas(7, 3).tobytes()
        assert derive_seed(np.uint32(7), np.int8(1)) == derive_seed(7, 1)

    def test_keys_stay_below_one_seed_word(self):
        """A key is one SeedSequence word; refused before anything is allocated."""
        with pytest.raises(ValueError, match="keys per seed"):
            sample_thetas(0, 2**32 + 1)
        with pytest.raises(ValueError, match="keys per seed"):
            next(derived_rngs(0, 2**32 + 1))
