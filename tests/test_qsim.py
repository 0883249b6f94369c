"""Simulator tests: gate algebra, circuit application, oracles, documents."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from qsnorm import (
    Circuit,
    CircuitFormatError,
    DenseUnitary,
    GateOp,
    MixedOperation,
    ParamSlot,
    StateVector,
    adjoint,
    ansatz_from_dict,
    apply_circuit,
    circuit_from_dict,
    circuit_matrix,
    difference_mixture,
    estimate_tau,
    exact_schatten2,
    fidelity,
    haar_fidelities,
    haar_random_state,
    haar_random_unitary,
    mixed_operation_from_dict,
    mixed_operation_matrix,
    zero_state,
)
from qsnorm.qsim import GATES, _apply_gateop, apply_operation_amplitudes

SQRT2_INV = 1 / math.sqrt(2)
ONE_QUBIT_KINDS = sorted(kind for kind, row in GATES.items() if row.qubits == 1)

# Generated documents for the parser property test.

_NUMBERS = st.one_of(st.integers(-4, 4), st.floats(allow_nan=True, allow_infinity=True))
_COEFFS = st.one_of(st.floats(-0.25, 0.25), st.sampled_from([math.nan, math.inf, -math.inf]))
_SLOTS = st.integers(0, 3).map(lambda k: {"slot": k})


def _gate_entries(param):
    """Gate entries of the right arity on 3 qubits, sometimes with an unknown key."""

    def entry(kind):
        nq, npar = GATES[kind].qubits, GATES[kind].params
        return st.fixed_dictionaries(
            {
                "gate": st.just(kind),
                "qubits": st.permutations([0, 1, 2]).map(lambda qs: list(qs[:nq])),
                "params": st.lists(param, min_size=npar, max_size=npar),
            },
            optional={"bogus": st.just(0)},
        )

    return st.sampled_from(sorted(GATES)).flatmap(entry)


def _circuit_docs(param=_NUMBERS):
    return st.fixed_dictionaries({"n": st.just(3), "ops": st.lists(_gate_entries(param), max_size=4)})


DOCUMENTS = {
    "circuit": _circuit_docs(),
    "mixture": st.fixed_dictionaries({
        "terms": st.lists(
            st.fixed_dictionaries({"coeff": st.lists(_COEFFS, min_size=2, max_size=2), "circuit": _circuit_docs()}),
            min_size=1,
            max_size=2,
        )
    }),
    "ansatz": _circuit_docs(st.one_of(_NUMBERS, _SLOTS)).map(lambda doc: {**doc, "repeat": 1}),
}


def _check_circuit(circuit, doc, param=float):
    """``circuit`` has the register and, gate for gate, the kinds, qubits and
    parameters of ``doc``; ``param`` maps a document parameter to its value."""
    entries = doc.get("ops", [])
    assert circuit.n == doc["n"] and len(circuit.ops) == len(entries)
    for op, entry in zip(circuit.ops, entries):
        assert (op.kind, op.qubits) == (entry["gate"], tuple(entry.get("qubits", [])))
        assert op.params == tuple(param(p) for p in entry.get("params", []))


def _check_mixture(mixed, doc):
    assert len(mixed.terms) == len(doc["terms"])
    for (coeff, circuit), term in zip(mixed.terms, doc["terms"]):
        assert coeff == complex(*term["coeff"])
        _check_circuit(circuit, term["circuit"])


def _check_ansatz(ansatz, doc):
    assert ansatz.repeat == doc.get("repeat", 1)
    _check_circuit(ansatz.template, doc, lambda p: ParamSlot(p["slot"]) if isinstance(p, dict) else float(p))


# Per document kind: its parser, and a check of a parsed object against the document.
PARSERS = {
    "circuit": (circuit_from_dict, _check_circuit),
    "mixture": (mixed_operation_from_dict, _check_mixture),
    "ansatz": (ansatz_from_dict, _check_ansatz),
}


def _random_circuit_doc(n, depth, rng):
    """A well-formed circuit document of ``depth`` random gates on ``n`` qubits."""
    kinds = [kind for kind in sorted(GATES) if GATES[kind].qubits <= n]
    ops = []
    for kind in rng.choice(kinds, depth).tolist():
        row = GATES[kind]
        qubits = rng.permutation(n)[: row.qubits].tolist()
        ops.append({"gate": kind, "qubits": qubits, "params": rng.uniform(-4, 4, row.params).tolist()})
    return {"n": n, "ops": ops}


def _keys_and_numbers(doc):
    keys, numbers = set(), []
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            keys.update(item)
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, float):
            numbers.append(item)
    return keys, numbers


class TestGateMatrices:
    def test_pauli_and_clifford_definitions(self):
        from qsnorm.qsim import gate_matrix

        np.testing.assert_allclose(gate_matrix(GateOp("x", (0,))), [[0, 1], [1, 0]])
        np.testing.assert_allclose(gate_matrix(GateOp("y", (0,))), [[0, -1j], [1j, 0]])
        np.testing.assert_allclose(gate_matrix(GateOp("z", (0,))), [[1, 0], [0, -1]])
        np.testing.assert_allclose(gate_matrix(GateOp("h", (0,))), np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        np.testing.assert_allclose(gate_matrix(GateOp("s", (0,))), [[1, 0], [0, 1j]])

    def test_rotation_definitions(self):
        from qsnorm.qsim import gate_matrix

        t = 0.83
        c, s = math.cos(t / 2), math.sin(t / 2)
        np.testing.assert_allclose(gate_matrix(GateOp("ry", (0,), (t,))), [[c, -s], [s, c]], atol=1e-15)
        np.testing.assert_allclose(gate_matrix(GateOp("rx", (0,), (t,))), [[c, -1j * s], [-1j * s, c]], atol=1e-15)
        np.testing.assert_allclose(
            gate_matrix(GateOp("rz", (0,), (t,))),
            [[np.exp(-1j * t / 2), 0], [0, np.exp(1j * t / 2)]],
            atol=1e-15,
        )

    @pytest.mark.parametrize("kind", sorted(GATES))
    def test_declared_form_matches_the_zero_pattern(self, kind):
        """At every angle a "diagonal" or "anti-diagonal" matrix is zero
        exactly off that diagonal and a "cnot" one off the permutation; a
        "dense" one has no zero, so no cheaper form would do."""
        from qsnorm.qsim import gate_matrix

        row = GATES[kind]
        rng = np.random.default_rng(17)
        for _ in range(8):
            mat = gate_matrix(GateOp(kind, tuple(range(row.qubits)), tuple(rng.uniform(-4, 4, row.params))))
            identity = np.eye(len(mat), dtype=bool)
            nonzero = {
                "diagonal": identity,
                "anti-diagonal": identity[::-1],
                "cnot": np.eye(4, dtype=bool)[[0, 1, 3, 2]],
                "dense": np.ones_like(identity),
            }[row.form]
            np.testing.assert_array_equal(mat != 0, nonzero)

    def test_readme_lists_every_gate_kind(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        listed = re.search(r"^Gates: `([^`]*)`", readme, re.MULTILINE).group(1).split()
        assert sorted(listed) == sorted(GATES)

    def test_cnot_matrix(self):
        """Control on the first listed qubit, target flipped when control is 1."""
        mat = circuit_matrix(Circuit(2, (GateOp("cnot", (0, 1)),)))
        np.testing.assert_allclose(mat, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], atol=1e-15)


class TestApplyCircuit:
    def test_h_on_zero(self):
        state = apply_circuit(zero_state(1), Circuit(1, (GateOp("h", (0,)),)))
        np.testing.assert_allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV], atol=1e-15)

    def test_empty_circuit_is_identity(self):
        psi = haar_random_state(3, np.random.default_rng(5))
        out = apply_circuit(psi, Circuit(3))
        np.testing.assert_array_equal(out.amplitudes, psi.amplitudes)

    def test_ry_pi_flips_zero(self):
        state = apply_circuit(zero_state(1), Circuit(1, (GateOp("ry", (0,), (math.pi,)),)))
        np.testing.assert_allclose(state.amplitudes, [0, 1], atol=1e-15)

    def test_qubit0_is_most_significant(self):
        """X on qubit 0 of two qubits sends |00> to |10> = index 0b10."""
        state = apply_circuit(zero_state(2), Circuit(2, (GateOp("x", (0,)),)))
        np.testing.assert_allclose(state.amplitudes, [0, 0, 1, 0], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_circuit(zero_state(2), Circuit(3))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            circuit = random_circuit(n, 8, rng)
            psi = haar_random_state(n, rng)
            out = apply_circuit(psi, circuit)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_apply_agrees_with_matrix_product(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            circuit = random_circuit(n, 8, rng)
            psi = haar_random_state(n, rng)
            direct = apply_circuit(psi, circuit).amplitudes
            via_matrix = circuit_matrix(circuit) @ psi.amplitudes
            np.testing.assert_allclose(direct, via_matrix, atol=1e-10)

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
    def test_single_qubit_gate_at_every_position_matches_kron(self, kind):
        """A gate on qubit q of n acts as I_(2^q) (x) G (x) I_(2^(n-q-1)) on
        every row of a batch, real or complex, at every q."""
        from qsnorm.qsim import gate_matrix

        n = 5
        rng = np.random.default_rng(15)
        complex_rows = rng.standard_normal((3, 1 << n)) + 1j * rng.standard_normal((3, 1 << n))
        for rows in (complex_rows, complex_rows.real.copy()):
            for q in range(n):
                gate = GateOp(kind, (q,), (0.37,) if GATES[kind].params else ())
                full = np.kron(np.kron(np.eye(1 << q), gate_matrix(gate)), np.eye(1 << (n - q - 1)))
                np.testing.assert_allclose(_apply_gateop(rows, gate, n), rows @ full.T, atol=1e-14)

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
    def test_single_qubit_gate_has_the_bits_of_the_dense_formula(self, kind):
        """Skipping the zero entries of a diagonal or anti-diagonal gate
        changes at most the sign of an exact zero: after ``+ 0.0`` every
        amplitude has the bits of mat[r, 0] * low + mat[r, 1] * high, at every
        qubit, for 1, 4 and 16 complex rows."""
        from qsnorm.qsim import gate_matrix

        n = 6
        rng = np.random.default_rng(16)
        for count in (1, 4, 16):
            rows = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
            for q in range(n):
                gate = GateOp(kind, (q,), tuple(rng.uniform(-4, 4, GATES[kind].params)))
                mat = gate_matrix(gate)
                halves = rows.reshape(-1, 2, 1 << (n - q - 1))
                low, high = halves[:, 0], halves[:, 1]
                dense = np.empty(halves.shape, dtype=complex)
                dense[:, 0] = mat[0, 0] * low + mat[0, 1] * high
                dense[:, 1] = mat[1, 0] * low + mat[1, 1] * high
                got = _apply_gateop(rows, gate, n) + 0.0
                want = dense.reshape(rows.shape) + 0.0
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=f"q={q}")

    def test_dense_unitary_application(self):
        mat = haar_random_unitary(2, 3)
        psi = haar_random_state(2, np.random.default_rng(4))
        out = apply_circuit(psi, DenseUnitary(2, mat))
        np.testing.assert_allclose(out.amplitudes, mat @ psi.amplitudes, atol=1e-14)

    def test_batch_equals_row_by_row(self):
        """Gates act on the last axis, so a stack of states is transformed
        exactly as its rows would be one at a time."""
        rng = np.random.default_rng(14)
        batch = rng.standard_normal((2, 5, 8)) + 1j * rng.standard_normal((2, 5, 8))
        rows = batch.reshape(10, 8)
        gates = [
            GateOp("cnot", (2, 0)),
            GateOp("cnot", (0, 1)),
            GateOp("globalphase", (), (0.3,)),
            GateOp("h", (1,)),
            GateOp("t", (2,)),
            GateOp("rx", (0,), (0.7,)),
        ]
        for gate in gates:
            one_by_one = np.array([_apply_gateop(row, gate, 3) for row in rows])
            np.testing.assert_array_equal(_apply_gateop(batch, gate, 3).reshape(10, 8), one_by_one)
        dense = DenseUnitary(3, haar_random_unitary(3, 5))
        one_by_one = np.array([apply_operation_amplitudes(row, dense) for row in rows])
        np.testing.assert_allclose(apply_operation_amplitudes(rows, dense), one_by_one, atol=1e-14)


class TestAdjoint:
    def test_h_is_self_adjoint(self):
        assert adjoint(Circuit(1, (GateOp("h", (0,)),))).ops == (GateOp("h", (0,)),)

    def test_s_dagger(self):
        assert adjoint(Circuit(1, (GateOp("s", (0,)),))).ops == (GateOp("sdg", (0,)),)

    def test_rotation_chain_reversed_and_negated(self):
        circuit = Circuit(1, (GateOp("rz", (0,), (0.3,)), GateOp("rx", (0,), (0.7,))))
        dagger = adjoint(circuit)
        assert dagger.ops == (GateOp("rx", (0,), (-0.7,)), GateOp("rz", (0,), (-0.3,)))
        product = circuit_matrix(dagger) @ circuit_matrix(circuit)
        np.testing.assert_allclose(product, np.eye(2), atol=1e-12)

    def test_adjoint_matrix_is_conjugate_transpose(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            circuit = random_circuit(n, 8, rng)
            np.testing.assert_allclose(
                circuit_matrix(adjoint(circuit)),
                circuit_matrix(circuit).conj().T,
                atol=1e-10,
            )

    def test_dense_unitary_adjoint(self):
        mat = haar_random_unitary(2, 9)
        np.testing.assert_array_equal(adjoint(DenseUnitary(2, mat)).matrix, mat.conj().T)


class TestCircuitMatrix:
    def test_empty_circuit_is_identity(self):
        np.testing.assert_array_equal(circuit_matrix(Circuit(3)), np.eye(8))

    def test_x_squared_is_identity(self):
        circuit = Circuit(1, (GateOp("x", (0,)), GateOp("x", (0,))))
        np.testing.assert_allclose(circuit_matrix(circuit), np.eye(2), atol=1e-15)

    def test_random_circuits_are_unitary(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            mat = circuit_matrix(random_circuit(n, 10, rng))
            np.testing.assert_allclose(mat @ mat.conj().T, np.eye(1 << n), atol=1e-10)

    def test_qubit_cap(self):
        with pytest.raises(ValueError, match=re.escape("qubit count 11 outside [1, 10]")):
            circuit_matrix(Circuit(11))

    def test_mixture_matrix_cap_checked_before_allocation(self):
        """An 11-qubit mixture used to allocate its 64 MiB sum before the
        first term's circuit_matrix refused it."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("qubit count 11 outside [1, 10]")):
                mixed_operation_matrix(MixedOperation(((1.0, Circuit(11)),)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestHaarRandomUnitary:
    def test_unitarity(self):
        for seed in range(5):
            mat = haar_random_unitary(3, seed)
            assert np.max(np.abs(mat @ mat.conj().T - np.eye(8))) <= 1e-10

    def test_seed_determinism(self):
        np.testing.assert_array_equal(haar_random_unitary(2, 123), haar_random_unitary(2, 123))

    @pytest.mark.parametrize("n", [0, -1, 11])
    def test_qubit_count_outside_range_rejected(self, n):
        """n = -1 used to fail in numpy's shift ("negative shift count") and
        n = 0 to return a 1 x 1 matrix."""
        with pytest.raises(ValueError, match=f"qubit count {n} outside"):
            haar_random_unitary(n, 0)

    def test_trace_second_moment(self):
        """Haar average of |Tr U|^2 is 1; Monte Carlo oracle at n=2."""
        values = [abs(np.trace(haar_random_unitary(2, seed))) ** 2 for seed in range(1000)]
        assert abs(np.mean(values) - 1.0) <= 0.1


class TestExactNorms:
    def test_schatten2_identity(self):
        for dim in (2, 8, 16):
            assert exact_schatten2(np.eye(dim)) == pytest.approx(1.0, abs=1e-12)

    def test_schatten2_x_minus_identity(self):
        """Singular values of sigma_x - I are {0, 2}: sqrt(4/2) = sqrt(2)."""
        mat = np.array([[0, 1], [1, 0]], dtype=complex) - np.eye(2)
        svals = np.linalg.svd(mat, compute_uv=False)
        np.testing.assert_allclose(sorted(svals), [0, 2], atol=1e-12)
        assert exact_schatten2(mat) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_schatten2_zero(self):
        assert exact_schatten2(np.zeros((4, 4))) == 0.0

    def test_schatten2_of_unitaries_is_one(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            mat = circuit_matrix(random_circuit(n, 8, rng))
            assert abs(exact_schatten2(mat) - 1.0) <= 1e-10

    def test_schatten2_matches_svd_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            mat = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
            svals = np.linalg.svd(mat, compute_uv=False)
            assert exact_schatten2(mat) == pytest.approx(math.sqrt(np.sum(svals**2) / 8), rel=1e-12)



class TestValidation:
    def test_unknown_gate_kind(self):
        with pytest.raises(ValueError):
            GateOp("cz", (0, 1))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            GateOp("h", (0, 1))
        with pytest.raises(ValueError):
            GateOp("rz", (0,))

    def test_duplicate_qubits(self):
        with pytest.raises(ValueError):
            GateOp("cnot", (1, 1))

    @pytest.mark.parametrize("qubit", [1.9, True, "1", np.float64(1.0)])
    def test_non_integer_qubit_rejected(self, qubit):
        """The constructor used to coerce these with int(), to qubit 1."""
        with pytest.raises(TypeError, match="a gate qubit must be an integer"):
            GateOp("h", (qubit,))

    def test_numpy_integer_qubit_accepted(self):
        op = GateOp("cnot", (np.int64(1), np.uint8(0)))
        assert op.qubits == (1, 0)
        assert all(type(q) is int for q in op.qubits)

    @pytest.mark.parametrize("n", [2.7, True, "3"])
    def test_non_integer_register_rejected(self, n):
        with pytest.raises(TypeError, match="n must be an integer"):
            Circuit(n)

    @pytest.mark.parametrize("n", [1.0, True, "1"])
    def test_dense_and_state_registers_must_be_integers(self, n):
        """DenseUnitary(True, ...) used to keep n = True and DenseUnitary(1.0,
        ...) to fail in Python's shift."""
        with pytest.raises(TypeError, match="n must be an integer"):
            DenseUnitary(n, np.eye(2))
        with pytest.raises(TypeError, match="n must be an integer"):
            StateVector(n, np.ones(2))

    @pytest.mark.parametrize(
        "make", [Circuit, lambda n: DenseUnitary(n, np.eye(1)), lambda n: StateVector(n, np.ones(1))]
    )
    def test_empty_register_rejected(self, make):
        """DenseUnitary(0, np.eye(1)) and StateVector(0, ...) used to construct."""
        with pytest.raises(ValueError, match="qubit count 0 outside"):
            make(0)

    def test_numpy_integer_register_stored_as_int(self):
        assert type(StateVector(np.int64(1), np.ones(2)).n) is int
        assert type(DenseUnitary(np.uint8(1), np.eye(2)).n) is int
        assert type(Circuit(np.int32(2)).n) is int

    @pytest.mark.parametrize(
        "call",
        [
            lambda: apply_circuit(zero_state(2), Circuit(1)),
            lambda: MixedOperation(((0.5, Circuit(2)), (0.5, Circuit(1)))),
            lambda: difference_mixture(Circuit(2), Circuit(1)),
            lambda: fidelity(zero_state(2), zero_state(1)),
            lambda: haar_fidelities(Circuit(2), Circuit(1), 3),
            lambda: estimate_tau(
                MixedOperation(((1.0, Circuit(2)),)), MixedOperation(((1.0, Circuit(1)),)), 1
            ),
        ],
    )
    def test_register_mismatch_message(self, call):
        with pytest.raises(ValueError, match=re.escape("operations act on different registers: n=2 vs n=1")):
            call()

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(1, (GateOp("x", (1,)),))

    def test_statevector_shape(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3, dtype=complex))

    def test_mixture_needs_terms(self):
        with pytest.raises(ValueError):
            MixedOperation(())

    def test_mixture_rejects_mismatched_registers(self):
        with pytest.raises(ValueError):
            MixedOperation(((0.5, Circuit(1)), (0.5, Circuit(2))))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_rejected(self, value):
        with pytest.raises(ValueError, match="finite"):
            GateOp("ry", (0,), (value,))
        with pytest.raises(ValueError, match="finite"):
            MixedOperation(((complex(0.5, value), Circuit(1)),))

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.full((2, 2), math.nan), "finite"),
            (np.array([[1, 0], [0, math.inf]]), "finite"),
            (3 * np.eye(2), "not unitary"),
            (np.array([[1, 1e-8], [0, 1]]), "not unitary"),
        ],
    )
    def test_dense_unitary_rejects_non_finite_and_non_unitary(self, matrix, match):
        """A one-term mixture of DenseUnitary(1, 3 I) or of a NaN matrix used
        to estimate a norm of 1.0."""
        with pytest.raises(ValueError, match=match):
            DenseUnitary(1, matrix)

    def test_mixture_weight_cap(self):
        MixedOperation(((SQRT2_INV, Circuit(1)), (-SQRT2_INV, Circuit(1))))
        with pytest.raises(ValueError):
            MixedOperation(((1.0, Circuit(1)), (-1.0, Circuit(1))))


class TestDocuments:
    def test_documented_example_loads(self):
        doc = {
            "n": 3,
            "ops": [
                {"gate": "ry", "qubits": [0], "params": [1.5707963267948966]},
                {"gate": "cnot", "qubits": [0, 1]},
            ],
        }
        circuit = circuit_from_dict(doc)
        assert circuit.n == 3
        assert circuit.ops[0] == GateOp("ry", (0,), (1.5707963267948966,))
        assert circuit.ops[1] == GateOp("cnot", (0, 1))

    def test_circuit_round_trip(self):
        """Random circuit documents, over every gate kind, parse to circuits
        with the document's fields."""
        rng = np.random.default_rng(51)
        for _ in range(20):
            doc = _random_circuit_doc(int(rng.integers(1, 5)), 6, rng)
            _check_circuit(circuit_from_dict(doc), doc)

    def test_mixture_round_trip(self):
        rng = np.random.default_rng(52)
        doc = {
            "terms": [
                {"coeff": [0.5, 0.1], "circuit": _random_circuit_doc(2, 4, rng)},
                {"coeff": [-0.2, 0], "circuit": _random_circuit_doc(2, 4, rng)},
            ]
        }
        _check_mixture(mixed_operation_from_dict(doc), doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"ops": []},
            {"n": 2, "ops": [{"qubits": [0]}]},
            {"n": 2, "ops": [{"gate": "h", "qubits": [0], "weird": 1}]},
            {"n": 2, "ops": [{"gate": "nope", "qubits": [0]}]},
            {"n": 2, "ops": [{"gate": "ry", "qubits": [0], "params": ["x"]}]},
            {"n": 2, "extra": 1},
            {"n": 2, "ops": [{"gate": "ry", "qubits": [0], "params": [math.nan]}]},
            {"n": 2.7},
            {"n": "3"},
            {"n": True},
            {"n": 2, "ops": [{"gate": "h", "qubits": [1.9]}]},
            {"n": 2, "ops": [{"gate": "h", "qubits": ["1"]}]},
            {"n": 2, "ops": [{"gate": "h", "qubits": [True]}]},
            {"n": 2, "ops": [{"gate": "ry", "qubits": [0], "params": [True]}]},
        ],
    )
    def test_malformed_circuit_documents(self, doc):
        with pytest.raises(CircuitFormatError):
            circuit_from_dict(doc)

    @pytest.mark.parametrize("coeff", [[math.nan, 0.0], [0.5, math.inf], [True, False]])
    def test_mixture_loader_rejects_non_finite_coefficients(self, coeff):
        doc = {"terms": [{"coeff": coeff, "circuit": {"n": 1, "ops": []}}]}
        with pytest.raises(CircuitFormatError, match="finite"):
            mixed_operation_from_dict(doc)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from(sorted(DOCUMENTS)).flatmap(lambda kind: st.tuples(st.just(kind), DOCUMENTS[kind])))
    def test_parsers_accept_exactly_finite_well_formed_documents(self, case):
        """A gate, mixture or ansatz document with a non-finite number or an
        unknown gate key is rejected as malformed; any other document parses
        to an object with the document's fields."""
        kind, doc = case
        parse, check = PARSERS[kind]
        keys, numbers = _keys_and_numbers(doc)
        if "bogus" in keys or not all(math.isfinite(v) for v in numbers):
            with pytest.raises(CircuitFormatError):
                parse(doc)
        else:
            check(parse(doc), doc)

    def test_mixture_loader_enforces_unit_weight(self):
        doc = {
            "terms": [
                {"coeff": [0.8, 0.0], "circuit": {"n": 1, "ops": []}},
                {"coeff": [0.4, 0.0], "circuit": {"n": 1, "ops": []}},
            ]
        }
        with pytest.raises(ValueError, match="exceeds 1"):
            mixed_operation_from_dict(doc)
