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
    LearnObjective,
    ParamSlot,
    adjoint,
    ansatz_from_dict,
    circuit_matrix,
    derive_seed,
    derived_rng,
    difference_mixture,
    exact_schatten2,
    exactness_grid,
    finite_diff_gradient,
    learn_circuit,
    loss,
    mixed_quadratic_form,
    sample_thetas,
    sampling_circuit,
)
from qsnorm import learn
from qsnorm.qsim import CHUNK_CEILING, GATES, row_chunks
from qsnorm.qsim import _apply_gateop as apply_gateop


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


def random_ansatz(n: int, depth: int, rng: np.random.Generator, repeat: int = 1) -> Ansatz:
    """A random circuit whose one-angle gates each get their own slot; a
    circuit without one gets a trailing ry slot."""
    template_ops = []
    slots = 0
    for op in random_circuit(n, depth, rng).ops:
        if op.kind in ("rx", "ry", "rz", "phase", "globalphase"):
            template_ops.append(GateOp(op.kind, op.qubits, (ParamSlot(slots),)))
            slots += 1
        else:
            template_ops.append(op)
    if slots == 0:
        template_ops.append(GateOp("ry", (0,), (ParamSlot(0),)))
    return Ansatz(Circuit(n, tuple(template_ops)), repeat)


class TestAnsatz:
    def test_bind_fills_slots(self):
        ansatz = two_qubit_ansatz()
        bound = ansatz.bind(np.array([0.1, 0.2, 0.3, 0.4]))
        assert bound.ops[0] == GateOp("ry", (0,), (0.1,))
        assert bound.ops[4] == GateOp("ry", (1,), (0.4,))

    def test_bind_checks_length(self):
        with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(2,\)"):
            two_qubit_ansatz().bind(np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(1, 4\)"):
            two_qubit_ansatz().bind_repeated(np.zeros((1, 4)))

    def test_bind_equals_checked_construction(self):
        """Binding gives the circuit the GateOp and Circuit constructors
        build from the same values."""
        template = Circuit(2, (
            GateOp("globalphase", (), (ParamSlot(2),)),
            GateOp("rz", (1,), (0.25,)),
            GateOp("ry", (0,), (ParamSlot(0),)),
            GateOp("cnot", (0, 1)),
            GateOp("h", (1,)),
            GateOp("phase", (1,), (ParamSlot(0),)),
            GateOp("rx", (1,), (ParamSlot(1),)),
        ))
        ansatz = Ansatz(template, repeat=2)
        rng = np.random.default_rng(87)
        for _ in range(20):
            xi = rng.uniform(-10.0, 10.0, 3)
            checked = Circuit(2, tuple(
                GateOp(op.kind, op.qubits, tuple(
                    float(xi[p.index]) if isinstance(p, ParamSlot) else float(p) for p in op.params
                ))
                for op in template.ops
            ))
            assert ansatz.bind(xi) == checked
            assert ansatz.bind_repeated(xi) == Circuit(2, checked.ops * 2)
            assert all(type(p) is float for op in ansatz.bind(xi).ops for p in op.params)

    @pytest.mark.parametrize("xi", [np.array([1 + 2j]), np.array([0.5 + 0j]), [1j]])
    def test_bind_rejects_complex_parameters(self, xi):
        """bind(np.array([1+2j])) used to return ry(1.0), dropping the
        imaginary part with only a ComplexWarning."""
        with pytest.raises(ValueError, match="real"):
            single_ry_ansatz().bind(xi)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_bind_rejects_non_finite_parameters(self, bad):
        with pytest.raises(ValueError, match="finite"):
            two_qubit_ansatz().bind(np.array([0.1, bad, 0.3, 0.4]))
        with pytest.raises(ValueError, match="finite"):
            two_qubit_ansatz().bind_repeated(np.array([0.1, 0.2, 0.3, bad]))

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
            ansatz = random_ansatz(n, 6, rng)
            xi = rng.uniform(-math.pi, math.pi, ansatz.num_params)
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

    @pytest.mark.parametrize("shots", [0, 20])
    def test_applies_both_circuits_as_given(self, monkeypatch, shots):
        """The kernel applies V and U(xi) themselves, so no gate is daggered."""

        def no_dagger(self):
            raise AssertionError(f"{self.kind} was daggered")

        ansatz, target = two_qubit_ansatz(), random_circuit(2, 6, np.random.default_rng(86))
        monkeypatch.setattr(GateOp, "dagger", no_dagger)
        assert 0.0 <= loss(ansatz, np.array([0.3, -0.7, 1.2, 0.4]), target, sample_thetas(6, 8), shots, seed=2) <= 4.0

    def test_register_mismatch(self):
        with pytest.raises(ValueError):
            loss(single_ry_ansatz(), np.array([0.1]), Circuit(2), sample_thetas(1, 4))

    def test_empty_angle_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss(single_ry_ansatz(), np.array([0.1]), Circuit(1), thetas=[])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_angle_rejected(self, bad):
        """An inf angle used to give a NaN loss."""
        with pytest.raises(ValueError, match="angles must be finite"):
            loss(single_ry_ansatz(), np.array([0.1]), Circuit(1), thetas=[0.3, bad])


class TestLearnObjective:
    @pytest.mark.parametrize("n", [2, 7])
    @pytest.mark.parametrize("repeat", [1, 2])
    @pytest.mark.parametrize("shots", [0, 20])
    def test_equals_kernel_on_difference_mixture_bit_for_bit(self, n, repeat, shots):
        """Keeping the first chunk's probe rows and V x across calls changes
        no bit of the objective; at n = 7, 64 angles make two chunks, so the
        rebuilt chunk is covered too."""
        rng = np.random.default_rng(88 + 10 * n + repeat)
        ansatz, target = random_ansatz(n, 8, rng, repeat), random_circuit(n, 8, rng)
        thetas = sample_thetas(9, 64)
        assert len(list(row_chunks(64, n))) == (1 if n == 2 else 2)
        objective = LearnObjective(ansatz, target, thetas, shots, seed=5)
        points = rng.uniform(-math.pi, math.pi, (20, ansatz.num_params))
        expected = []
        for xi in points:
            mixed = difference_mixture(target, ansatz.bind_repeated(xi))
            expected.append(2.0 * math.fsum(mixed_quadratic_form(mixed, thetas, shots, 5)) / 64)
            assert objective(xi) == expected[-1]
            assert loss(ansatz, xi, target, thetas, shots, 5) == expected[-1]
        # One block of all 20 points: at n = 2 that is two passes of 16 and
        # 4 points, at n = 7 one pass per point.
        assert objective.block(points).tolist() == expected

    @pytest.mark.parametrize("shots", [0, 20])
    def test_zero_slot_ansatz_block(self, shots):
        """With no slots the block is one empty row, shape (1, 0)."""
        rng = np.random.default_rng(90)
        ansatz = Ansatz(random_circuit(2, 8, rng), repeat=2)
        target = random_circuit(2, 8, rng)
        assert ansatz.num_params == 0
        thetas = sample_thetas(9, 64)
        mixed = difference_mixture(target, ansatz.bind_repeated(np.zeros(0)))
        expected = 2.0 * math.fsum(mixed_quadratic_form(mixed, thetas, shots, 5)) / 64
        objective = LearnObjective(ansatz, target, thetas, shots, seed=5)
        assert objective.block(np.zeros((1, 0))).tolist() == [expected]
        assert objective(np.zeros(0)) == expected

    def test_block_checks_its_shape_and_values(self):
        objective = LearnObjective(two_qubit_ansatz(), Circuit(2), sample_thetas(1, 4))
        with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(3,\)"):
            objective.block(np.zeros(3))
        with pytest.raises(ValueError, match=r"expected 4 parameters, got shape \(2, 3\)"):
            objective.block(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="finite"):
            objective.block(np.array([[0.1, 0.2, math.nan, 0.4]]))
        with pytest.raises(ValueError, match="real"):
            objective.block(np.array([[0.1, 0.2, 1j, 0.4]]))

    def test_memory_is_one_chunk(self, monkeypatch):
        """At n = 12 a chunk is the four rows of 2^12 amplitudes that fill
        CHUNK_CEILING; the objective keeps no array larger than that,
        whatever the angle count, and a block call tiles and applies gates
        to no larger array, whatever the block size."""
        rng = np.random.default_rng(89)
        ansatz, target = random_ansatz(12, 6, rng), random_circuit(12, 6, rng)
        objective = LearnObjective(ansatz, target, sample_thetas(1, 64))
        arrays = [v for v in vars(objective).values() if isinstance(v, np.ndarray)]
        assert arrays and max(a.nbytes for a in arrays) <= CHUNK_CEILING
        assert 0.0 <= objective(rng.uniform(-math.pi, math.pi, ansatz.num_params)) <= 4.0
        sizes = []

        def recording(amps, op, n, entries=None):
            out = apply_gateop(amps, op, n, entries)
            sizes.extend((amps.nbytes, out.nbytes))
            return out

        monkeypatch.setattr(learn, "_apply_gateop", recording)
        values = objective.block(rng.uniform(-math.pi, math.pi, (5, ansatz.num_params)))
        assert values.shape == (5,) and ((0.0 <= values) & (values <= 4.0)).all()
        assert sizes and max(sizes) <= CHUNK_CEILING

    def test_signed_zero_angles_keep_their_own_matrices(self):
        """A slot's matrix is built once per distinct angle in a block, and
        0.0 and -0.0 are distinct: rx(-0.0) differs from rx(0.0) in the
        sign of its zero entries. A block holding both gives each point the
        stack entry, U x and value of a call on that point alone."""
        ansatz = Ansatz(Circuit(2, (
            GateOp("h", (0,)),
            GateOp("rx", (0,), (ParamSlot(0),)),
            GateOp("cnot", (0, 1)),
            GateOp("ry", (1,), (ParamSlot(1),)),
        )))
        objective = LearnObjective(ansatz, Circuit(2, (GateOp("h", (1,)),)), sample_thetas(3, 64))
        points = [[0.0, 0.3], [-0.0, 0.3], [0.0, -0.3], [-0.0, -0.3]]
        stack = learn._slot_stack(ansatz.template.ops[1], points)
        for entry, (angle, _) in zip(stack, points):
            np.testing.assert_array_equal(entry.view(np.uint64), GATES["rx"].matrix(angle).view(np.uint64))
        assert (stack[0].view(np.uint64) != stack[1].view(np.uint64)).any()
        (_, (_, block)), = objective._chunk_images(points)
        for xi, images in zip(points, block):
            (_, (_, alone)), = objective._chunk_images([xi])
            np.testing.assert_array_equal(images.view(np.uint64), alone[0].view(np.uint64))
        values = objective.block(np.array(points))
        assert values.tolist() == [objective(np.array(xi)) for xi in points]

    def test_checks_when_built(self):
        with pytest.raises(ValueError, match="different registers: n=2 vs n=1"):
            LearnObjective(single_ry_ansatz(), Circuit(2), sample_thetas(1, 4))
        wide = Ansatz(Circuit(21, (GateOp("ry", (0,), (ParamSlot(0),)),)))
        with pytest.raises(ValueError, match=r"statevector qubit count 21 outside \[1, 20\]"):
            LearnObjective(wide, Circuit(21), sample_thetas(1, 4))
        with pytest.raises(ValueError, match="shots must be nonnegative"):
            LearnObjective(single_ry_ansatz(), Circuit(1), sample_thetas(1, 4), shots=-1)


class TestFiniteDiffGradient:
    def test_constant_function(self):
        grad = finite_diff_gradient(lambda xs: [3.5 for x in xs], np.zeros(4), 1e-3)
        np.testing.assert_array_equal(grad, np.zeros(4))

    def test_sine_derivative(self):
        grad = finite_diff_gradient(lambda xs: [math.sin(x[0]) for x in xs], np.array([0.0]), 1e-4)
        assert grad[0] == pytest.approx(1.0, abs=1e-8)

    def test_step_refinement_is_stable(self):
        """A 10x smaller step changes the estimate by under 1e-4 relative."""
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([1.1]))
        thetas = sample_thetas(5, 16)
        xi = np.array([0.3])

        def objective(xs):
            return [loss(ansatz, x, target, thetas) for x in xs]

        coarse = finite_diff_gradient(objective, xi, 1e-3)[0]
        fine = finite_diff_gradient(objective, xi, 1e-4)[0]
        assert abs(coarse - fine) <= 1e-4 * max(1.0, abs(fine))

    def test_matches_refined_oracle(self):
        """Richardson-refined reference pins the gradient to 1e-5."""
        ansatz = single_ry_ansatz()
        target = ansatz.bind(np.array([0.9]))
        thetas = sample_thetas(6, 16)
        xi = np.array([-0.4])

        def objective(xs):
            return [loss(ansatz, x, target, thetas) for x in xs]

        h = 1e-4
        coarse = finite_diff_gradient(objective, xi, h)[0]
        finer = finite_diff_gradient(objective, xi, h / 2)[0]
        refined = (4 * finer - coarse) / 3
        value = finite_diff_gradient(objective, xi, 1e-3)[0]
        assert abs(value - refined) <= 1e-5

    def test_positive_step_required(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda xs: [0.0 for x in xs], np.zeros(1), 0.0)

    @pytest.mark.parametrize("fd_eps", [math.nan, math.inf])
    def test_finite_step_required(self, fd_eps):
        """A NaN or infinite step used to give an all-NaN gradient."""
        with pytest.raises(ValueError, match="positive and finite"):
            finite_diff_gradient(lambda xs: [0.0 for x in xs], np.zeros(1), fd_eps)


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

    @pytest.mark.parametrize("shots", [0, 20])
    def test_equals_one_call_per_point_bit_for_bit(self, shots):
        """Evaluating each step's point and its 2P shifts as one block gives
        the cost history and xi of a loop that calls the objective once per
        point, bit for bit."""
        ansatz = two_qubit_ansatz()
        target = ansatz.bind(np.random.default_rng(1001).uniform(-math.pi, math.pi, 4))
        config = LearnConfig(m=64, eta=0.3, max_iters=25, tol=1e-3, shots_per_test=shots, seed=6)
        objective = LearnObjective(ansatz, target, sample_thetas(config.seed, config.m), shots, config.seed)
        xi = derived_rng(config.seed).uniform(-math.pi, math.pi, ansatz.num_params)
        history = [objective(xi)]
        while history[-1] > config.tol and len(history) <= config.max_iters:
            grad = np.empty_like(xi)
            for j in range(xi.size):
                shifted = xi.copy()
                shifted[j] = xi[j] + config.fd_eps
                upper = objective(shifted)
                shifted[j] = xi[j] - config.fd_eps
                grad[j] = (upper - objective(shifted)) / (2.0 * config.fd_eps)
            xi = xi - config.eta * grad
            history.append(objective(xi))
        result = learn_circuit(ansatz, target, config)
        assert len(history) > 2
        assert result.cost_history == history
        assert all(type(cost) is float for cost in result.cost_history)
        np.testing.assert_array_equal(result.xi.view(np.uint64), xi.view(np.uint64))

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
            def objective(xs, s=shots):
                return [loss(ansatz, x, target, thetas, shots=s, seed=99) for x in xs]

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

                def call(x, rep=rep, s=shots, calls=calls):
                    calls[0] += 1
                    return loss(ansatz, x, target, thetas, shots=s, seed=derive_seed(7, rep, calls[0]))

                def objective(xs):
                    return [call(x) for x in xs]

                magnitudes.append(abs(finite_diff_gradient(objective, xi_star, 0.5)[0]))
            means.append(np.mean(magnitudes))
        slope = np.polyfit(np.log10(levels), np.log10(means), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestAnsatzDocuments:
    def test_round_trip(self):
        """A document and the ansatz it describes agree gate for gate."""
        doc = {
            "n": 2,
            "ops": [
                {"gate": "ry", "qubits": [0], "params": [{"slot": 0}]},
                {"gate": "rz", "qubits": [1], "params": [0.25]},
                {"gate": "cnot", "qubits": [0, 1]},
            ],
            "repeat": 3,
        }
        ansatz = Ansatz(
            Circuit(2, (
                GateOp("ry", (0,), (ParamSlot(0),)),
                GateOp("rz", (1,), (0.25,)),
                GateOp("cnot", (0, 1)),
            )),
            repeat=3,
        )
        assert ansatz_from_dict(doc) == ansatz

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
