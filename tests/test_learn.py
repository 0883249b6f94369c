"""Circuit-learning tests: objective, gradients, optimizer, roots."""

import math

import numpy as np
import pytest

from helpers import circuit_probability, random_circuit
from qsnorm import (
    Ansatz,
    Circuit,
    CircuitFormatError,
    GateOp,
    LearnConfig,
    ParamSlot,
    adjoint,
    ansatz_from_dict,
    ansatz_to_dict,
    circuit_matrix,
    derive_seed,
    derived_rng,
    exact_schatten2,
    exactness_grid,
    finite_diff_gradient,
    learn_circuit,
    loss,
    sample_thetas,
    sampling_circuit,
)


def two_qubit_ansatz() -> Ansatz:
    template = Circuit(2, (
        GateOp("ry", (0,), (ParamSlot(0),)),
        GateOp("ry", (1,), (ParamSlot(1),)),
        GateOp("cnot", (0, 1)),
        GateOp("ry", (0,), (ParamSlot(2),)),
        GateOp("ry", (1,), (ParamSlot(3),)),
    ))
    return Ansatz(template)


def single_ry_ansatz() -> Ansatz:
    return Ansatz(Circuit(1, (GateOp("ry", (0,), (ParamSlot(0),)),)))


class TestAnsatz:
    def test_bind_fills_slots(self):
        ansatz = two_qubit_ansatz()
        bound = ansatz.bind(np.array([0.1, 0.2, 0.3, 0.4]))
        assert bound.ops[0] == GateOp("ry", (0,), (0.1,))
        assert bound.ops[4] == GateOp("ry", (1,), (0.4,))

    def test_bind_checks_length(self):
        with pytest.raises(ValueError):
            two_qubit_ansatz().bind(np.array([0.1, 0.2]))

    def test_bind_repeated_doubles_ops(self):
        ansatz = Ansatz(single_ry_ansatz().template, repeat=2)
        bound = ansatz.bind_repeated(np.array([0.5]))
        assert bound.ops == (GateOp("ry", (0,), (0.5,)), GateOp("ry", (0,), (0.5,)))

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError, match="slot must be nonnegative"):
            ParamSlot(-1)

    def test_num_params_is_highest_slot_plus_one(self):
        template = Circuit(2, (
            GateOp("ry", (0,), (ParamSlot(3),)),
            GateOp("rz", (1,), (0.5,)),
            GateOp("ry", (1,), (ParamSlot(1),)),
        ))
        assert Ansatz(template).num_params == 4
        assert Ansatz(Circuit(1, (GateOp("h", (0,)),))).num_params == 0

    @pytest.mark.parametrize("index", [1.5, True, "1"])
    def test_non_integer_slot_rejected(self, index):
        with pytest.raises(TypeError, match="slot must be an integer"):
            ParamSlot(index)

    @pytest.mark.parametrize("repeat", [2.5, True, "2"])
    def test_non_integer_repeat_rejected(self, repeat):
        with pytest.raises(TypeError, match="repeat must be an integer"):
            Ansatz(single_ry_ansatz().template, repeat=repeat)


class TestLoss:
    def test_zero_at_exact_match(self):
        ansatz = two_qubit_ansatz()
        xi = np.array([0.3, -0.8, 1.2, 0.5])
        target = ansatz.bind(xi)
        thetas = sample_thetas(1, 32)
        assert abs(loss(ansatz, xi, target, thetas)) <= 1e-12

    def test_four_at_global_phase_flip(self):
        """Negating the target costs the maximum: 2 - 2(-1) = 4."""
        ansatz = single_ry_ansatz()
        xi = np.array([0.7])
        flipped = Circuit(1, ansatz.bind(xi).ops + (GateOp("globalphase", (), (math.pi,)),))
        assert loss(ansatz, xi, flipped, sample_thetas(2, 16)) == pytest.approx(4.0, abs=1e-12)

    def test_grid_mode_equals_squared_distance(self):
        """On the exactness grid the objective is ||U(xi) - V||^2 exactly."""
        rng = np.random.default_rng(81)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            template_ops = []
            slots = 0
            for op in random_circuit(n, 6, rng).ops:
                if op.kind in ("rx", "ry", "rz", "phase", "globalphase"):
                    template_ops.append(GateOp(op.kind, op.qubits, (ParamSlot(slots),)))
                    slots += 1
                else:
                    template_ops.append(op)
            if slots == 0:
                template_ops.append(GateOp("ry", (0,), (ParamSlot(0),)))
                slots = 1
            ansatz = Ansatz(Circuit(n, tuple(template_ops)))
            xi = rng.uniform(-math.pi, math.pi, slots)
            target = random_circuit(n, 6, rng)
            value = loss(ansatz, xi, target, exactness_grid(n))
            exact = exact_schatten2(circuit_matrix(ansatz.bind(xi)) - circuit_matrix(target)) ** 2
            assert abs(value - exact) <= 1e-9

    def test_reordering_angles_is_bit_exact(self):
        ansatz = two_qubit_ansatz()
        xi = np.array([0.4, 0.1, -0.9, 0.6])
        target = random_circuit(2, 5, np.random.default_rng(82))
        thetas = sample_thetas(3, 40)
        shuffled = thetas[np.random.default_rng(83).permutation(40)]
        assert loss(ansatz, xi, target, thetas) == loss(ansatz, xi, target, shuffled)

    def test_matrix_path_matches_interference_path(self):
        """The objective equals the mean of the per-angle values of the
        literal real-part test circuits."""
        ansatz = two_qubit_ansatz()
        xi = np.array([0.2, -0.4, 0.8, 1.1])
        target = random_circuit(2, 6, np.random.default_rng(84))
        thetas = sample_thetas(4, 8)
        chain = (ansatz.bind_repeated(xi), adjoint(target))
        per_angle = [1.0 - 2.0 * circuit_probability(sampling_circuit(2, float(t)), chain, "real") for t in thetas]
        direct = 2.0 - 2.0 * math.fsum(per_angle) / len(per_angle)
        assert abs(loss(ansatz, xi, target, thetas) - direct) <= 1e-12

    def test_shot_mode_matches_per_angle_shot_tests(self):
        """With shots, angle i's term is the real-part shot estimate with
        chain (U(xi), V^dag), drawn from derived_rng(seed, i, 1)."""
        ansatz = two_qubit_ansatz()
        xi = np.array([0.5, -0.3, 0.9, -1.2])
        target = random_circuit(2, 6, np.random.default_rng(85))
        thetas = sample_thetas(5, 16)
        chain = (ansatz.bind_repeated(xi), adjoint(target))
        p1 = [circuit_probability(sampling_circuit(2, float(t)), chain, "real") for t in thetas]
        per_angle = [1.0 - 2.0 * derived_rng(13, i, 1).binomial(50, p) / 50 for i, p in enumerate(p1)]
        direct = 2.0 - 2.0 * math.fsum(per_angle) / len(per_angle)
        assert abs(loss(ansatz, xi, target, thetas, shots=50, seed=13) - direct) <= 1e-12

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            loss(single_ry_ansatz(), np.array([0.1]), Circuit(2), sample_thetas(1, 4))

    def test_empty_angle_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss(single_ry_ansatz(), np.array([0.1]), Circuit(1), thetas=[])


class TestFiniteDiffGradient:
    def test_constant_function(self):
        grad = finite_diff_gradient(lambda x: 3.5, np.zeros(4), 1e-3)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_sine_derivative(self):
        grad = finite_diff_gradient(lambda x: math.sin(x[0]), np.array([0.0]), 1e-4)
        assert grad[0] == pytest.approx(1.0, abs=1e-8)

    def test_step_refinement_is_stable(self):
        """A 10x smaller step changes the estimate by under 1e-4 relative."""
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([1.1]))
        thetas = sample_thetas(5, 16)
        xi = np.array([0.3])

        def objective(x):
            return loss(ansatz, x, target, thetas)

        coarse = finite_diff_gradient(objective, xi, 1e-3)[0]
        fine = finite_diff_gradient(objective, xi, 1e-4)[0]
        assert abs(coarse - fine) <= 1e-4 * max(1.0, abs(fine))

    def test_matches_refined_oracle(self):
        """Richardson-refined reference pins the gradient to 1e-5."""
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([0.9]))
        thetas = sample_thetas(6, 16)
        xi = np.array([-0.4])

        def objective(x):
            return loss(ansatz, x, target, thetas)

        h = 1e-4
        coarse = finite_diff_gradient(objective, xi, h)[0]
        finer = finite_diff_gradient(objective, xi, h / 2)[0]
        refined = (4 * finer - coarse) / 3
        value = finite_diff_gradient(objective, xi, 1e-3)[0]
        assert abs(value - refined) <= 1e-5

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda x: 0.0, np.zeros(1), 0.0)


class TestLearnCircuit:
    def test_immediate_convergence_with_loose_tolerance(self):
        """tol = 4 accepts the random initialization without any step."""
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([0.2]))
        result = learn_circuit(ansatz, target, LearnConfig(m=8, tol=4.0, seed=1))
        assert result.converged and len(result.cost_history) == 1

    def test_realizable_target_converges(self):
        ansatz = two_qubit_ansatz()
        for seed in (0, 1):
            hidden = np.random.default_rng(1000 + seed).uniform(-math.pi, math.pi, 4)
            target = ansatz.bind(hidden)
            result = learn_circuit(ansatz, target, LearnConfig(m=64, eta=0.3, max_iters=500, tol=1e-3, seed=seed))
            assert result.converged
            assert result.final_cost <= 1e-3

    def test_unreachable_target_reports_nonconvergence(self):
        """An Rz-only family cannot produce H; the flag says so, no exception."""
        ansatz = Ansatz(Circuit(1, (GateOp("rz", (0,), (ParamSlot(0),)),)))
        target = Circuit(1, (GateOp("h", (0,)),))
        result = learn_circuit(ansatz, target, LearnConfig(m=16, max_iters=30, tol=1e-4, seed=2))
        assert not result.converged
        assert result.final_cost > 1e-4
        assert len(result.cost_history) == 31

    def test_history_bookkeeping(self):
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([2.0]))
        result = learn_circuit(ansatz, target, LearnConfig(m=16, max_iters=50, tol=1e-9, seed=3))
        assert result.final_cost == result.cost_history[-1]
        assert len(result.cost_history) <= 51

    def test_determinism(self):
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([1.3]))
        config = LearnConfig(m=16, max_iters=20, tol=0.0, seed=4)
        a = learn_circuit(ansatz, target, config)
        b = learn_circuit(ansatz, target, config)
        np.testing.assert_array_equal(a.xi, b.xi)
        assert a.cost_history == b.cost_history


class TestLearnConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["eta", "fd_eps", "tol"])
    def test_non_finite_settings_rejected(self, field, value):
        """A NaN tolerance used to stop learning after 0 iterations."""
        with pytest.raises(ValueError, match="finite"):
            LearnConfig(**{field: value})

    @pytest.mark.parametrize("value", [True, False, 2.5, "3"])
    @pytest.mark.parametrize("field", ["m", "max_iters", "shots_per_test", "seed"])
    def test_integer_settings_rejected_unless_integers(self, field, value):
        """LearnConfig(m=True, max_iters=True, shots_per_test=False) used to
        construct."""
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            LearnConfig(**{field: value})

    def test_numpy_integer_settings_stored_as_int(self):
        config = LearnConfig(m=np.int64(8), max_iters=np.int32(5), shots_per_test=np.uint8(0), seed=np.int64(3))
        assert all(type(getattr(config, f)) is int for f in ("m", "max_iters", "shots_per_test", "seed"))


class TestLearnSquareRoot:
    def test_phase_root(self):
        """Squaring diag(1, e^(i xi)) gives diag(1, e^(2i xi)): xi tends to phi/2."""
        phi = 0.9
        target = Circuit(1, (GateOp("phase", (0,), (phi,)),))
        ansatz = Ansatz(Circuit(1, (GateOp("phase", (0,), (ParamSlot(0),)),)), repeat=2)
        result = learn_circuit(ansatz, target, LearnConfig(m=64, eta=0.3, max_iters=1000, tol=1e-8, seed=1))
        assert result.converged and result.final_cost <= 1e-6
        folded = (result.xi[0] - phi / 2) % math.pi
        assert min(folded, math.pi - folded) <= 1e-3

    def test_identity_root_is_reachable(self):
        ansatz = Ansatz(Circuit(1, (GateOp("rz", (0,), (ParamSlot(0),)),)), repeat=2)
        assert abs(loss(ansatz, np.array([0.0]), Circuit(1), sample_thetas(2, 16))) <= 1e-12

    def test_phase_rotation_family_contains_s_and_its_root(self):
        """e^(i pi/4) Rz(pi/2) is the phase gate diag(1, i); the half-angle
        parameters give its square root under repeat = 2."""
        template = Circuit(1, (GateOp("globalphase", (), (ParamSlot(0),)), GateOp("rz", (0,), (ParamSlot(1),))))
        s_gate = Circuit(1, (GateOp("s", (0,)),))
        base = Ansatz(template, repeat=1)
        direct = loss(base, np.array([math.pi / 4, math.pi / 2]), s_gate, exactness_grid(1))
        assert abs(direct) < 1e-12
        doubled = Ansatz(template, repeat=2)
        rooted = loss(doubled, np.array([math.pi / 8, math.pi / 4]), s_gate, exactness_grid(1))
        assert abs(rooted) < 1e-12


class TestShotNoiseGradient:
    def test_common_random_numbers_cancel_at_optimum(self):
        """Shared shot seeds make both sides of every difference identical at
        a realizable optimum, so the estimator is exactly zero."""
        ansatz = single_ry_ansatz()
        xi_star = np.array([0.7])
        target = ansatz.bind(xi_star)
        thetas = sample_thetas(42, 16)
        for shots in (100, 1000, 10_000):
            def objective(x, s=shots):
                return loss(ansatz, x, target, thetas, shots=s, seed=99)

            np.testing.assert_array_equal(finite_diff_gradient(objective, xi_star, 0.5), np.zeros(1))

    def test_independent_draws_scale_with_shots(self):
        """With per-call seeds the noise magnitude falls like shots^(-1/2)."""
        ansatz = single_ry_ansatz()
        xi_star = np.array([0.7])
        target = ansatz.bind(xi_star)
        thetas = sample_thetas(42, 16)
        levels = [100, 1000, 10_000]
        means = []
        for shots in levels:
            magnitudes = []
            for rep in range(30):
                calls = [0]

                def objective(x, rep=rep, s=shots, calls=calls):
                    calls[0] += 1
                    return loss(ansatz, x, target, thetas, shots=s, seed=derive_seed(7, rep, calls[0]))

                magnitudes.append(abs(finite_diff_gradient(objective, xi_star, 0.5)[0]))
            means.append(np.mean(magnitudes))
        slope = np.polyfit(np.log10(levels), np.log10(means), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestAnsatzDocuments:
    def test_round_trip(self):
        ansatz = Ansatz(
            Circuit(2, (
                GateOp("ry", (0,), (ParamSlot(0),)),
                GateOp("rz", (1,), (0.25,)),
                GateOp("cnot", (0, 1)),
            )),
            repeat=3,
        )
        again = ansatz_from_dict(ansatz_to_dict(ansatz))
        assert again == ansatz

    def test_documented_form(self):
        doc = {
            "n": 1,
            "ops": [
                {"gate": "globalphase", "qubits": [], "params": [{"slot": 0}]},
                {"gate": "rz", "qubits": [0], "params": [{"slot": 1}]},
            ],
            "repeat": 2,
        }
        ansatz = ansatz_from_dict(doc)
        assert ansatz.num_params == 2 and ansatz.repeat == 2
        assert ansatz.template.ops[1].params == (ParamSlot(1),)

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": [{"slot": -1}]}]},
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": [{"slots": 0}]}]},
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": ["x"]}]},
            {"n": 1, "ops": [], "repeat": 1, "extra": True},
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": [{"slot": 0}], "bogus": 1}]},
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": [math.nan]}]},
            {"n": 1, "ops": [], "repeat": 2.7},
            {"n": 1, "ops": [], "repeat": "2"},
            {"n": 1, "ops": [{"gate": "rz", "qubits": [0], "params": [{"slot": True}]}]},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(CircuitFormatError):
            ansatz_from_dict(doc)
