"""Simulator tests: gate algebra, circuit application, oracles, documents."""

import ast
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsnorm
from helpers import REFERENCE_MATRICES, formula_angles, haar_state, random_circuit, random_mixture
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
    haar_fidelities,
    haar_random_unitary,
    mixed_operation_from_dict,
    mixed_operation_matrix,
    zero_state,
)
from qsnorm import qsim
from qsnorm.qsim import (
    CHUNK_CEILING,
    GATES,
    LONG_RUN,
    _gate_calls,
    apply_operation_amplitudes,
    batch_applier,
    chunk_rows,
    same_register,
)

SQRT2_INV = 1 / math.sqrt(2)
ONE_QUBIT_KINDS = sorted(kind for kind, row in GATES.items() if row.qubits == 1)


def copying(rows: np.ndarray):
    """A batch_applier fill that copies each chunk's rows of ``rows``."""
    return lambda chunk, x: np.copyto(x, rows[chunk])


def drawing(rng: np.random.Generator):
    """A batch_applier fill that draws complex normal rows into each chunk."""
    return lambda chunk, x: np.copyto(x, rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))


def chunk_of(monkeypatch, rows: int, n: int) -> None:
    """Set CHUNK_CEILING so that a chunk of 2^n amplitudes holds ``rows`` rows."""
    monkeypatch.setattr(qsim, "CHUNK_CEILING", rows * (16 << n))
    assert chunk_rows(n) == rows


def dense_formula(entries: np.ndarray, block: np.ndarray, n: int, q: int) -> np.ndarray:
    """mat[r, 0] * low + mat[r, 1] * high for a gate on qubit q, applied to
    member b of a (B, rows, 2^n) block with mat = entries[b], from
    contiguous copies of the halves."""
    halves = block.reshape(block.shape[0], -1, 2, 1 << (n - q - 1))
    low, high = (np.ascontiguousarray(halves[:, :, r]) for r in (0, 1))
    mat = entries[..., None, None]
    dense = np.empty(halves.shape, dtype=complex)
    for r in (0, 1):
        dense[:, :, r] = mat[:, r, 0] * low + mat[:, r, 1] * high
    return dense.reshape(block.shape)


def reference_gate(rows: np.ndarray, gate: GateOp, n: int) -> np.ndarray:
    """``gate`` applied to (rows, 2^n) amplitudes without the kernel: the
    dense formula for a one-qubit gate, the index permutation for cnot, and
    amplitude times entry for globalphase."""
    from qsnorm.qsim import gate_matrix

    if gate.kind == "cnot":
        control, target = (1 << (n - q - 1) for q in gate.qubits)
        index = np.arange(1 << n)
        return np.ascontiguousarray(rows[:, np.where(index & control, index ^ target, index)])
    if not gate.qubits:
        return rows * gate_matrix(gate)[0, 0]
    return dense_formula(gate_matrix(gate)[None], rows[None], n, gate.qubits[0])[0]


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

    @pytest.mark.parametrize("kind", sorted(k for k in GATES if GATES[k].params))
    def test_array_formulas_have_the_bits_of_the_scalar_ones(self, kind):
        """A formula called on an array of angles gives the (..., 2, 2)
        stack ((..., 1, 1) for globalphase) whose entries have the bits of
        the scalar reference at each angle, over 120,012 angles that include
        +-0.0 (whose matrices differ in the sign of zero entries), +-pi,
        subnormals and +-1e15, also as a (B, S) array. A scalar call keeps
        the reference's shape and bits."""
        angles = formula_angles()
        reference = np.array([REFERENCE_MATRICES[kind](a) for a in angles.tolist()])
        stack = GATES[kind].matrix(angles)
        assert stack.shape == reference.shape and stack.dtype == complex
        np.testing.assert_array_equal(stack.view(np.uint64), reference.view(np.uint64))
        grid = GATES[kind].matrix(angles.reshape(-1, 12))
        np.testing.assert_array_equal(grid.reshape(reference.shape).view(np.uint64), reference.view(np.uint64))
        for a, expected in zip(angles[-1000:].tolist(), reference[-1000:]):
            matrix = GATES[kind].matrix(a)
            assert matrix.shape == expected.shape and matrix.dtype == complex
            np.testing.assert_array_equal(matrix.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kind", sorted(k for k in GATES if not GATES[k].params))
    def test_fixed_matrices_have_the_bits_of_the_reference(self, kind):
        expected = REFERENCE_MATRICES[kind]()
        matrix = GATES[kind].matrix()
        assert matrix.shape == expected.shape and matrix.dtype == complex
        np.testing.assert_array_equal(matrix.view(np.uint64), expected.view(np.uint64))

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
        psi = haar_state(3, np.random.default_rng(5))
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
            psi = haar_state(n, rng)
            out = apply_circuit(psi, circuit)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_apply_agrees_with_matrix_product(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            circuit = random_circuit(n, 8, rng)
            psi = haar_state(n, rng)
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
                got = apply_operation_amplitudes(rows, Circuit(n, (gate,)))
                np.testing.assert_allclose(got, rows @ full.T, atol=1e-14)

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
    def test_single_qubit_gate_has_the_bits_of_the_dense_formula(self, kind):
        """Skipping the zero entries of a diagonal or anti-diagonal gate, and
        applying short runs one offset at a time, changes at most the sign of
        an exact zero: after ``+ 0.0`` every amplitude has the bits of
        mat[r, 0] * low + mat[r, 1] * high, at every qubit of n = 2, 6 and 10
        (runs of 1 to 512 amplitudes), for 1, 3, 4 and 16 complex rows. The
        reference multiplies contiguous copies of the halves, so it does not
        share the kernel's loop shape."""
        from qsnorm.qsim import gate_matrix

        rng = np.random.default_rng(16)
        for n in (2, 6, 10):
            for count in (1, 3, 4, 16):
                rows = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
                for q in range(n):
                    gate = GateOp(kind, (q,), tuple(rng.uniform(-4, 4, GATES[kind].params)))
                    got = apply_operation_amplitudes(rows, Circuit(n, (gate,))) + 0.0
                    want = dense_formula(gate_matrix(gate)[None], rows[None], n, q)[0] + 0.0
                    np.testing.assert_array_equal(
                        got.view(np.uint64), want.view(np.uint64), err_msg=f"n={n} count={count} q={q}"
                    )

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS)
    def test_per_row_entries_have_the_bits_of_the_dense_formula(self, kind):
        """A (B, 2, 2) stack of entries replayed by a batch_applier gives,
        after ``+ 0.0``, the bits of each member's dense formula on
        contiguous halves, at every qubit of n = 2 and 10, for 1, 3 and 16
        rows: on the input broadcast over the block, and on a block whose
        members differ, made by an ry stack at random angles. The applier
        returns that block as the image of the ry alone, so a call that read
        another member's amplitudes would show."""
        rng = np.random.default_rng(20)
        row = GATES[kind]
        for n in (2, 10):
            for count in (1, 3, 16):
                rows = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
                for q in range(n):
                    entries = np.stack([row.matrix(*rng.uniform(-4, 4, row.params)) for _ in range(4)])
                    spread = np.stack([GATES["ry"].matrix(a) for a in rng.uniform(-4, 4, 4)])
                    template = GateOp(kind, (q,), (ParamSlot(0),) * row.params)
                    ry = GateOp("ry", (int(rng.integers(n)),), (ParamSlot(1),))
                    ops = [Circuit(n, (template,)), Circuit(n, (ry,)), Circuit(n, (ry, template))]
                    run = batch_applier(ops, count, n, copying(rows), [[entries], [spread], [spread, entries]])
                    (_, _, (on_input, block, after)), = run()
                    assert len({member.tobytes() for member in block}) == 4
                    for got, src in ((on_input, np.broadcast_to(rows, block.shape)), (after, block)):
                        want = dense_formula(entries, src, n, q) + 0.0
                        np.testing.assert_array_equal(
                            (got + 0.0).view(np.uint64), want.view(np.uint64), err_msg=f"n={n} count={count} q={q}"
                        )

    @pytest.mark.parametrize("kind", ONE_QUBIT_KINDS + ["globalphase"])
    def test_per_row_entries_have_the_bits_of_scalar_applications(self, kind, monkeypatch):
        """A (B, 2, 2) stack of entries ((B, 1, 1) for globalphase), refilled
        in place by the fill before each chunk's replay of one
        batch_applier, gives bit for bit B applications of the scalar gates
        at the new angles, at every qubit of n = 1..4, on 3-row chunks and a
        shorter one, walked twice. A fixed gate of the same kind goes
        first, and meets either the input broadcast over the
        block or, after an ry stack at random angles refilled alike, a block
        whose members differ. Calls compiled on a copy of a stack or of the
        input would replay the first angles or rows, and a call that read
        another member's amplitudes would give that member's bits."""
        from qsnorm.qsim import gate_matrix

        rng = np.random.default_rng(17)
        row = GATES[kind]
        for n in range(1, 5):
            for q in range(n) if row.qubits else [None]:
                qubits = () if q is None else (q,)
                fixed = GateOp(kind, qubits, tuple(rng.uniform(-4, 4, row.params)))
                entries = np.empty((5,) + (1 << row.qubits,) * 2, dtype=complex)
                spread = np.empty((5, 2, 2), dtype=complex)
                template = GateOp(kind, qubits, (ParamSlot(0),) * row.params)
                ry = GateOp("ry", (int(rng.integers(n)),), (ParamSlot(1),))
                ops = [Circuit(n, (fixed, template)), Circuit(n, (ry, fixed, template))]
                mats = [[gate_matrix(fixed), entries], [spread, gate_matrix(fixed), entries]]
                angles, turns = [], []

                def refill(chunk, rows):
                    angles[:] = rng.uniform(-4, 4, (5, row.params)).tolist()
                    turns[:] = rng.uniform(-4, 4, 5).tolist()
                    entries[...] = [row.matrix(*a) for a in angles]
                    spread[...] = [GATES["ry"].matrix(t) for t in turns]
                    rows[...] = rng.standard_normal(rows.shape) + 1j * rng.standard_normal(rows.shape)

                chunk_of(monkeypatch, 3, n)
                run, sizes = batch_applier(ops, 5, n, refill, mats), []
                for _, rows, images in itertools.chain(run(), run()):
                    sizes.append(len(rows))
                    for got, prefix in zip(images, ([()] * 5, [(GateOp("ry", ry.qubits, (t,)),) for t in turns])):
                        want = np.stack([
                            apply_operation_amplitudes(rows, Circuit(n, (*first, fixed, GateOp(kind, qubits, tuple(a)))))
                            for first, a in zip(prefix, angles)
                        ])
                        np.testing.assert_array_equal(
                            got.view(np.uint64), want.view(np.uint64), err_msg=f"n={n} q={q} prefix={bool(prefix[0])}"
                        )
                assert sizes == [3, 2, 3, 2]

    @pytest.mark.parametrize("n", [3, 10])
    def test_replay_writes_only_the_images(self, n, monkeypatch):
        """Gates run in place on a circuit's image, so a replay never writes
        its input batch. For each gate form, a circuit that starts with that
        form (so its first gate reads the input) and then holds every form
        on every qubit (cnot on both orders of neighbours) leaves the
        input's bytes as they were, on a full 8-row chunk and a shorter
        one. Each image equals the product with circuit_matrix, and has the
        bits of applying its gates one at a time, where no gate runs in
        place."""
        rng = np.random.default_rng(24)
        kinds = {"dense": "ry", "anti-diagonal": "y", "diagonal": "rz", "cnot": "cnot", "globalphase": "globalphase"}
        assert set(kinds) == {row.form for row in GATES.values()} | {"globalphase"}

        def gate(kind, q):
            qubits = (q, (q + 1) % n) if kind == "cnot" else (q,)[:GATES[kind].qubits]
            return GateOp(kind, qubits, tuple(rng.uniform(-4, 4, GATES[kind].params)))

        body = [gate(kind, q) for q in range(n) for kind in kinds.values()]
        body += [GateOp("cnot", ((q + 1) % n, q)) for q in range(n)]
        firsts = [gate(kind, n // 2) for kind in kinds.values()]
        ops = [Circuit(n, (first, *body)) for first in firsts]
        later = circuit_matrix(Circuit(n, body))
        matrices = [later @ circuit_matrix(Circuit(n, (first,))) for first in firsts]
        before = []

        def fill(chunk, rows):
            batch = rows.base
            batch[...] = rng.standard_normal(batch.shape) + 1j * rng.standard_normal(batch.shape)
            before.append(batch.tobytes())

        chunk_of(monkeypatch, 8, n)
        for chunk, rows, images in batch_applier(ops, 11, n, fill)():
            assert rows.base.shape == (8, 1 << n) and rows.base.tobytes() == before[-1]
            for op, matrix, image in zip(ops, matrices, images):
                np.testing.assert_allclose(image, rows @ matrix.T, atol=1e-12)
                want = rows
                for g in op.ops:
                    want = apply_operation_amplitudes(want, Circuit(n, (g,)))
                np.testing.assert_array_equal(image.view(np.uint64), want.view(np.uint64))
        assert len(before) == 2

    def test_buffered_operation_has_the_bits_of_gate_by_gate_application(self):
        """Circuits of odd, even and zero depth, and a dense unitary, applied
        through one batch_applier, whose arrays every batch reuses, give the
        bits of applying their gates one at a time (and of the plain
        product, of 16 rows: a one-row matmul rounds otherwise), on full
        chunks and on a 1-row tail of 17 rows walked twice, and so does
        apply_operation_amplitudes. Each chunk's images are spoilt with NaN
        once checked, so a replay that skips an amplitude would show."""
        n = 10
        rng = np.random.default_rng(19)
        ops = [random_circuit(n, depth, rng) for depth in (0, 1, 2, 7, 20)]
        ops.append(DenseUnitary(n, haar_random_unitary(n, 20)))
        run, sizes = batch_applier(ops, 17, n, drawing(rng)), []
        for _, rows, images in itertools.chain(run(), run()):
            count = len(rows)
            sizes.append(count)
            for op, got in zip(ops, images):
                want = rows
                if isinstance(op, DenseUnitary):
                    want = (np.concatenate((rows, np.ones((16 - count, 1 << n)))) @ op.matrix.T)[:count]
                for gate in getattr(op, "ops", ()):
                    want = apply_operation_amplitudes(want, Circuit(n, (gate,)))
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
                got.fill(np.nan)
                got = apply_operation_amplitudes(rows, op)
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        assert sizes == [16, 1, 16, 1]

    def test_gate_calls_are_compiled_once_per_applier(self, monkeypatch):
        """A batch_applier compiles each gate once, when it is made, however
        many chunks it then walks: with chunks of 3 rows, a walk over 7 rows
        of a depth-20 circuit at n = 10 makes one _gate_calls call per gate.
        The fill sees the chunks [0:3], [3:6] and [6:7] in order, each time
        with a view of one input batch that has the chunk's row count. Each
        chunk's images have the bits of a fresh applier made for that many
        rows, although the short last chunk also replays its stale rows."""
        n = 10
        rng = np.random.default_rng(25)
        op = random_circuit(n, 20, rng)
        compiled, seen = [], []

        def counting(gate, *args):
            compiled.append(gate)
            return _gate_calls(gate, *args)

        def recording(chunk, x):
            seen.append((chunk, x))
            x[...] = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)

        monkeypatch.setattr(qsim, "_gate_calls", counting)
        chunk_of(monkeypatch, 3, n)
        walk = [(chunk, x.copy(), image.copy()) for chunk, x, (image,) in batch_applier([op], 7, n, recording)()]
        assert compiled == list(op.ops)
        chunks = [slice(0, 3), slice(3, 6), slice(6, 7)]
        assert [chunk for chunk, _ in seen] == [chunk for chunk, _, _ in walk] == chunks
        batch = seen[0][1].base
        assert batch.shape == (3, 1 << n)
        for chunk, x in seen:
            assert x.base is batch and x.shape == (chunk.stop - chunk.start, 1 << n)
        for _, rows, short in walk:
            (_, _, (want,)), = batch_applier([op], len(rows), n, copying(rows))()
            assert short.shape == want.shape == rows.shape
            np.testing.assert_array_equal(short.view(np.uint64), want.view(np.uint64))

    def test_one_shot_memory_is_the_output_and_one_chunk(self):
        """apply_operation_amplitudes walks its rows in chunks and copies each
        chunk's image out, so on 1024 rows at n = 10 through a depth-20
        circuit it holds the output and one chunk's arrays (input, image,
        three half-chunk scratch arrays and a half-chunk temporary that an
        in-place product of interleaved halves makes), not an applier
        sized to all the rows: tracemalloc's peak is at most the rows'
        bytes, four chunks and a quarter chunk of small change. The rows
        have the bits of applying the circuit to each 16-row chunk alone."""
        rng = np.random.default_rng(26)
        op = random_circuit(10, 20, rng)
        rows = rng.standard_normal((1024, 1 << 10)) + 1j * rng.standard_normal((1024, 1 << 10))
        tracemalloc.start()
        try:
            out = apply_operation_amplitudes(rows, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows.nbytes + 4 * CHUNK_CEILING + CHUNK_CEILING // 4
        for start in (0, 496, 1008):
            alone = apply_operation_amplitudes(rows[start:start + 16], op)
            np.testing.assert_array_equal(out[start:start + 16].view(np.uint64), alone.view(np.uint64))

    @pytest.mark.parametrize("n", [2, 6, 10])
    def test_dense_state_has_the_bits_of_its_row_in_a_chunk(self, n, monkeypatch):
        """apply_circuit of one state through a DenseUnitary gives the bits
        of that state's row inside a 16-row chunk of a batch_applier, and
        so does a 1-row tail of the same applier that holds row 5 again: a
        lone row is the first of a two-row product, which rounds as a longer
        one does."""
        op = DenseUnitary(n, haar_random_unitary(n, 22))
        rng = np.random.default_rng(23)
        rows = rng.standard_normal((17, 1 << n)) + 1j * rng.standard_normal((17, 1 << n))
        rows[16] = rows[5]
        chunk_of(monkeypatch, 16, n)
        walk = batch_applier([op], 17, n, copying(rows))()
        chunk = next(walk)[2][0].copy()
        tail = next(walk)[2][0]
        for i in (0, 5, 15):
            got = apply_circuit(StateVector(n, rows[i]), op).amplitudes
            np.testing.assert_array_equal(got.view(np.uint64), chunk[i].view(np.uint64), err_msg=f"row {i}")
        np.testing.assert_array_equal(tail[0].view(np.uint64), chunk[5].view(np.uint64))

    @pytest.mark.parametrize("kind", sorted(GATES))
    def test_buffered_gate_has_the_bits_of_the_allocating_one(self, kind):
        """A gate replayed on a batch_applier's arrays has the bits of
        apply_operation_amplitudes, which allocates its own arrays, for
        every kind on every qubit (every ordered pair for cnot) at n = 10,
        on a 16-row chunk and a 1-row tail that reuse the same dirty arrays:
        the walk's first chunk leaves NaN in every array."""
        n, row = 10, GATES[kind]
        rng = np.random.default_rng(18)
        placements = [(q, t) for q in range(n) for t in range(n) if q != t] if row.qubits == 2 else (
            [(q,) for q in range(n)] if row.qubits else [()]
        )
        for qubits in placements:
            op = Circuit(n, (GateOp(kind, qubits, tuple(rng.uniform(-4, 4, row.params))),))
            rows = rng.standard_normal((33, 1 << n)) + 1j * rng.standard_normal((33, 1 << n))
            rows[:16] = np.nan + 1j * np.nan
            for chunk, x, (got,) in batch_applier([op], 33, n, copying(rows))():
                if chunk.start:
                    want = apply_operation_amplitudes(x, op)
                    where = f"{qubits} {chunk}"
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=where)

    @pytest.mark.parametrize("kind", sorted(GATES))
    def test_replayed_gates_have_the_bits_of_the_allocating_ones(self, kind, monkeypatch):
        """One batch_applier over a one-gate circuit per placement (every
        qubit, every ordered pair for cnot) replays, on full 8-row chunks
        and 3-row tails of two walks that reuse the same dirty arrays, the
        bits of applying each gate with apply_operation_amplitudes, which
        allocates its own arrays, at n = 2, 6 and 10. Both share the compiled
        formulas, so the images are also checked against reference_gate,
        which does not: after ``+ 0.0`` (skipped zero entries may flip the
        sign of an exact zero) they have its bits."""
        rng, row = np.random.default_rng(21), GATES[kind]
        for n in (2, 6, 10):
            placements = [(q, t) for q in range(n) for t in range(n) if q != t] if row.qubits == 2 else (
                [(q,) for q in range(n)] if row.qubits else [()]
            )
            ops = [Circuit(n, (GateOp(kind, qubits, tuple(rng.uniform(-4, 4, row.params))),)) for qubits in placements]
            chunk_of(monkeypatch, 8, n)
            run = batch_applier(ops, 11, n, drawing(rng))
            for _, rows, images in itertools.chain(run(), run()):
                for op, got in zip(ops, images):
                    gate, where = op.ops[0], f"n={n} {op.ops[0].qubits} {len(rows)}"
                    want = apply_operation_amplitudes(rows, op)
                    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64), err_msg=where)
                    reference = reference_gate(rows, gate, n) + 0.0
                    np.testing.assert_array_equal((got + 0.0).view(np.uint64), reference.view(np.uint64), err_msg=where)
                    got.fill(np.nan)

    def test_diagonal_entry_rows_stay_within_the_tile(self):
        """At the 20-qubit cap a diagonal gate is one multiply by an entry
        row of at most 2 * LONG_RUN amplitudes, on every qubit: runs longer
        than LONG_RUN meet a (2, 1) column, shorter runs a row of twice its
        length, so the row does not grow with the register. A (B, 2, 2)
        stack meets its column at every run, a view of the stack, so the
        calls see it refilled."""
        from qsnorm.qsim import gate_matrix

        n = 20
        src, dest = np.empty((1, 1 << n), dtype=complex), np.empty((1, 1 << n), dtype=complex)
        for kind in sorted(k for k, row in GATES.items() if row.form == "diagonal" and row.qubits):
            for q in range(n):
                gate = GateOp(kind, (q,), (0.3,) * GATES[kind].params)
                matrix = gate_matrix(gate)
                (function, (entry_row, _, _)), = _gate_calls(gate, n, matrix, src, dest, None)
                assert function is np.multiply, (kind, q)
                assert entry_row.size == (2 if 1 << (n - q - 1) > LONG_RUN else 2 * LONG_RUN), (kind, q)
                stack = matrix[None].copy()
                (_, (entry_row, _, _)), = _gate_calls(gate, n, stack, src[None], dest[None], None)
                assert entry_row.shape == (1, 1, 2, 1) and np.shares_memory(entry_row, stack), (kind, q)

    def test_only_batch_applier_compiles_gate_calls(self):
        """Every gate reaches numpy through the calls that batch_applier
        compiles and replays: no other function of the package calls
        _gate_calls."""
        callers = set()
        for path in sorted(Path(qsnorm.__file__).parent.glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                for node in ast.walk(top):
                    if isinstance(node, ast.Call) and "_gate_calls" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
        assert callers == {"qsim.batch_applier"}

    def test_chunk_rows(self):
        """A chunk holds as many rows as fit in CHUNK_CEILING bytes, and one
        row from 14 qubits up to the 20-qubit cap, where one row is larger."""
        rows = {n: chunk_rows(n) for n in range(1, 21)}
        assert rows == {1: 8192, 2: 4096, 3: 2048, 4: 1024, 5: 512, 6: 256, 7: 128, 8: 64,
                        9: 32, 10: 16, 11: 8, 12: 4, 13: 2, **{n: 1 for n in range(14, 21)}}
        for n in range(1, 21):
            assert rows[n] * (16 << n) == CHUNK_CEILING or rows[n] == 1
        walk = batch_applier([Circuit(10)], 40, 10, lambda chunk, x: None)()
        assert [chunk for chunk, _, _ in walk] == [slice(0, 16), slice(16, 32), slice(32, 40)]

    def test_dense_unitary_application(self):
        mat = haar_random_unitary(2, 3)
        psi = haar_state(2, np.random.default_rng(4))
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
        for circuit in (Circuit(3, (gate,)) for gate in gates):
            one_by_one = np.array([apply_operation_amplitudes(row, circuit) for row in rows])
            np.testing.assert_array_equal(apply_operation_amplitudes(batch, circuit).reshape(10, 8), one_by_one)
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

    def test_dense_unitary_adjoint(self, monkeypatch):
        """The adjoint's matrix is matrix.conj().T bit for bit, built without
        checking it again, while the constructor still checks its input."""
        mat = haar_random_unitary(2, 9)
        unitary = DenseUnitary(2, mat)

        def no_check(self):
            raise AssertionError("the adjoint was checked again")

        monkeypatch.setattr(DenseUnitary, "__post_init__", no_check)
        dagger = adjoint(unitary)
        monkeypatch.undo()
        assert type(dagger) is DenseUnitary and dagger.n == 2
        def bits(a):
            return np.ascontiguousarray(a).view(np.uint64)

        np.testing.assert_array_equal(bits(dagger.matrix), bits(mat.conj().T))
        np.testing.assert_array_equal(bits(adjoint(dagger).matrix), bits(mat))
        with pytest.raises(ValueError, match="not unitary"):
            DenseUnitary(2, 2 * dagger.matrix)
        with pytest.raises(ValueError, match="finite"):
            DenseUnitary(2, np.where(np.eye(4) == 1, math.nan, dagger.matrix))

    def test_mixture_adjoint_is_conjugate_transpose_and_an_involution(self):
        """adjoint of sum_k a_k U_k is sum_k conj(a_k) U_k^dag, and taking it
        twice gives back equal coefficients and equal gates: the angles are
        negated twice and the partner kinds swap back."""
        rng = np.random.default_rng(22)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            mixed = random_mixture(n, int(rng.integers(1, 5)), rng)
            np.testing.assert_allclose(
                mixed_operation_matrix(adjoint(mixed)),
                mixed_operation_matrix(mixed).conj().T,
                atol=1e-10,
            )
            assert adjoint(adjoint(mixed)).terms == mixed.terms


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
            lambda: same_register(zero_state(2), zero_state(1)),
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

    @pytest.mark.parametrize("value", [np.float32("inf"), np.float32("nan"), np.float16("-inf"), np.longdouble("nan")])
    def test_non_finite_numpy_angles_rejected(self, value):
        """A numpy float that is not a Python float used to pass the check:
        rz(inf) then gave NaN per-angle values, which the Schatten estimate
        reported as 0.0."""
        with pytest.raises(ValueError, match="finite"):
            GateOp("rz", (0,), (value,))

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
