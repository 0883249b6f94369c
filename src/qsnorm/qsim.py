"""Dense statevector simulation of small gate circuits.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index, i.e. the
  amplitude at index ``0b100`` of a 3-qubit state is the one where qubit 0
  is |1> and qubits 1, 2 are |0>.
* Angles are radians, amplitudes are complex128.
* Dense matrices are only materialized for small systems
  (``MATRIX_QUBIT_CAP``); statevectors have their own cap
  (``STATE_QUBIT_CAP``).

Circuits, gates and statevectors are immutable values; applying a circuit
always produces a fresh state, so instances can be shared freely across
threads.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

MATRIX_QUBIT_CAP = 10
STATE_QUBIT_CAP = 20
ATOL = 1e-10  # largest |U U^dag - I| entry a DenseUnitary may have
CHUNK_BYTES = 1 << 16  # per (rows, 2^n) batch below WIDE_QUBITS, see chunk_rows
WIDE_QUBITS = 9  # from this register width on, a batch holds WIDE_ROWS rows
WIDE_ROWS = 16
CHUNK_CEILING = 1 << 18  # most bytes of any batch array, unless one row is larger

_SQRT2_INV = 1.0 / math.sqrt(2.0)


def require_int(value, what: str) -> int:
    """``value`` as an int if it is an integer, numpy integers included; a
    float, a string or a boolean raises TypeError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def require_qubits(n, cap: float = math.inf, what: str = "qubit count") -> int:
    """``n`` as a register size: an integer in [1, cap]. Every type that
    holds a register checks its size here; code about to allocate a state or
    a matrix passes STATE_QUBIT_CAP or MATRIX_QUBIT_CAP as ``cap``."""
    n = require_int(n, "n")
    if not 1 <= n <= cap:
        raise ValueError(f"{what} {n} outside [1, {cap}]")
    return n


def same_register(*operands) -> int:
    """The qubit count ``n`` that all operands share; ValueError if two differ."""
    n = operands[0].n
    for op in operands[1:]:
        if op.n != n:
            raise ValueError(f"operations act on different registers: n={n} vs n={op.n}")
    return n


@dataclass(frozen=True)
class GateKind:
    """One row of ``GATES``: the qubits and angles a gate takes, its matrix
    as a function of the angles, the matrix's form, which picks how
    ``_apply_gateop`` applies it, and the kind of its adjoint (None: the
    same kind), which takes the negated angles.

    The form is "diagonal" or "anti-diagonal" when the matrix is zero off
    that diagonal at every angle, "cnot" for the controlled-X permutation,
    and "dense" otherwise."""

    qubits: int
    params: int
    matrix: Callable[..., np.ndarray]
    form: str
    adjoint: str | None = None


# Every gate kind is declared here and only here.
GATES = {
    "x": GateKind(1, 0, lambda: np.array([[0, 1], [1, 0]], dtype=complex), "anti-diagonal"),
    "y": GateKind(1, 0, lambda: np.array([[0, -1j], [1j, 0]], dtype=complex), "anti-diagonal"),
    "z": GateKind(1, 0, lambda: np.array([[1, 0], [0, -1]], dtype=complex), "diagonal"),
    "h": GateKind(1, 0, lambda: np.array(
        [[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex
    ), "dense"),
    "s": GateKind(1, 0, lambda: np.array([[1, 0], [0, 1j]], dtype=complex), "diagonal", "sdg"),
    "sdg": GateKind(1, 0, lambda: np.array([[1, 0], [0, -1j]], dtype=complex), "diagonal", "s"),
    "t": GateKind(1, 0, lambda: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex), "diagonal", "tdg"),
    "tdg": GateKind(1, 0, lambda: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex), "diagonal", "t"),
    "phase": GateKind(1, 1, lambda a: np.array([[1, 0], [0, np.exp(1j * a)]], dtype=complex), "diagonal"),
    "rx": GateKind(1, 1, lambda a: np.array(
        [[math.cos(a / 2), -1j * math.sin(a / 2)], [-1j * math.sin(a / 2), math.cos(a / 2)]], dtype=complex
    ), "dense"),
    "ry": GateKind(1, 1, lambda a: np.array(
        [[math.cos(a / 2), -math.sin(a / 2)], [math.sin(a / 2), math.cos(a / 2)]], dtype=complex
    ), "dense"),
    "rz": GateKind(1, 1, lambda a: np.array(
        [[np.exp(-1j * (a / 2)), 0], [0, np.exp(1j * (a / 2))]], dtype=complex
    ), "diagonal"),
    "cnot": GateKind(2, 0, lambda: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ), "cnot"),
    "globalphase": GateKind(0, 1, lambda a: np.array([[np.exp(1j * a)]], dtype=complex), "diagonal"),
}


class CircuitFormatError(ValueError):
    """Raised when a circuit or mixture document is malformed."""


@dataclass(frozen=True)
class GateOp:
    """One gate: a kind from ``GATES``, its qubits and its angles."""

    kind: str
    qubits: tuple = ()
    params: tuple = ()

    def __post_init__(self):
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", tuple(require_int(q, "a gate qubit") for q in self.qubits))
        object.__setattr__(self, "params", tuple(self.params))
        if kind not in GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        row = GATES[kind]
        if len(self.qubits) != row.qubits:
            raise ValueError(f"{kind} takes {row.qubits} qubit(s), got {self.qubits}")
        if len(self.params) != row.params:
            raise ValueError(f"{kind} takes {row.params} parameter(s), got {self.params}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{kind} qubits must be distinct, got {self.qubits}")
        if any(isinstance(p, numbers.Real) and not math.isfinite(p) for p in self.params):
            raise ValueError(f"{kind} parameters must be finite, got {self.params}")

    def dagger(self) -> "GateOp":
        """The Hermitian conjugate of this gate."""
        partner = GATES[self.kind].adjoint
        if partner is None and not self.params:
            return self
        return GateOp(partner or self.kind, self.qubits, tuple(-p for p in self.params))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n`` qubits; acts by left-multiplication."""

    n: int
    ops: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", require_qubits(self.n))
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if any(q >= self.n or q < 0 for q in op.qubits):
                raise ValueError(f"{op.kind} on qubits {op.qubits} out of range for n={self.n}")

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class DenseUnitary:
    """A unitary given directly as a finite 2^n x 2^n matrix whose
    ``U U^dag`` is the identity to within ATOL in every entry.

    Interchangeable with :class:`Circuit` everywhere an operation is
    applied, adjointed or materialized; used for e.g. QR-sampled random
    unitaries that have no gate decomposition.
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", require_qubits(self.n))
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (1 << self.n, 1 << self.n):
            raise ValueError(f"matrix shape {mat.shape} does not match n={self.n}")
        if not np.isfinite(mat).all():
            raise ValueError("DenseUnitary matrix entries must be finite")
        deviation = np.abs(mat @ mat.conj().T - np.eye(mat.shape[0])).max()
        if deviation > ATOL:
            raise ValueError(f"DenseUnitary matrix is not unitary: max |U U^dag - I| = {deviation:.3g}")
        object.__setattr__(self, "matrix", mat)


Operation = Union[Circuit, DenseUnitary]


@dataclass(frozen=True)
class StateVector:
    """Complex amplitude vector of length 2^n over ``n`` qubits."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", require_qubits(self.n))
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"amplitude vector shape {amps.shape} does not match n={self.n}")
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n: int) -> StateVector:
    """The all-zeros basis state |0...0>."""
    n = require_qubits(n, STATE_QUBIT_CAP, "statevector qubit count")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def gate_matrix(op: GateOp) -> np.ndarray:
    """The defining matrix of a gate (2x2, 4x4 for cnot, 1x1 for globalphase)."""
    return GATES[op.kind].matrix(*op.params)


def _apply_gateop(
    amps: np.ndarray,
    op: GateOp,
    n: int,
    entries: np.ndarray | None = None,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """``op`` applied along the last axis of ``amps``, its matrix acting on
    every row. ``entries`` is that matrix, if the caller built it already,
    or a (B, 2, 2) stack ((B, 1, 1) for globalphase) that applies entry b to
    block member ``amps[b]`` of (B, rows, 2^n).

    The result is written to ``out`` (amps' shape, C-contiguous, apart from
    amps) and the products to ``scratch``, two flat arrays of at least
    amps.size // 2 entries; either one is allocated when not given. The
    bits are the same either way."""
    form = GATES[op.kind].form
    if form == "cnot":
        control, target = op.qubits
        view = amps.reshape(amps.shape[:-1] + (2,) * n)
        out = np.empty(amps.shape, dtype=amps.dtype) if out is None else out
        dest = out.reshape(view.shape)
        dest[...] = view
        i10 = [slice(None)] * n
        i11 = [slice(None)] * n
        i10[control], i10[target] = 1, 0
        i11[control], i11[target] = 1, 1
        dest[(Ellipsis, *i10)] = view[(Ellipsis, *i11)]
        dest[(Ellipsis, *i11)] = view[(Ellipsis, *i10)]
        return out
    if entries is None:
        entries = gate_matrix(op)
    if entries.ndim == 2:
        mat, block = entries, ()
    else:
        # mat[i, j] is a (B, 1, 1) column that broadcasts over each member's rows.
        mat, block = entries.transpose(1, 2, 0)[..., None, None], entries.shape[:1]
    if not op.qubits:
        # A gate on no qubits scales every amplitude, amplitude first: numpy's
        # complex product can round differently with its operands swapped.
        return np.multiply(amps, mat[0, 0], out=out)
    # Split the amplitudes whose qubit-q bit is 0 (low half) from those
    # where it is 1 (high half). Elementwise products of the halves cost
    # about the same for every q; an einsum over the same view slows down
    # ninefold as 2^(n-q-1) shrinks. A diagonal or anti-diagonal gate skips
    # the products with its zero entries, which changes at most the sign of
    # an exact zero. Every product keeps the dense formula's form, entry
    # times half into a contiguous array, so the other bits stay those of
    # the two-term sum; only exact copies and sums write the strided halves
    # of the result.
    halves = amps.reshape(block + (-1, 2, 1 << (n - op.qubits[0] - 1)))
    out = np.empty(amps.shape, dtype=complex) if out is None else out
    dest = out.reshape(halves.shape)
    low, high = halves[..., 0, :], halves[..., 1, :]
    first = second = None
    if scratch is not None:
        first, second = (s[:low.size].reshape(low.shape) for s in scratch)
    if form == "diagonal":
        dest[..., 0, :] = np.multiply(mat[0, 0], low, out=first)
        dest[..., 1, :] = np.multiply(mat[1, 1], high, out=first)
    elif form == "anti-diagonal":
        dest[..., 0, :] = np.multiply(mat[0, 1], high, out=first)
        dest[..., 1, :] = np.multiply(mat[1, 0], low, out=first)
    else:
        np.add(np.multiply(mat[0, 0], low, out=first), np.multiply(mat[0, 1], high, out=second), out=dest[..., 0, :])
        np.add(np.multiply(mat[1, 0], low, out=first), np.multiply(mat[1, 1], high, out=second), out=dest[..., 1, :])
    return out


class GateWork:
    """Arrays that :func:`apply_operation_amplitudes` reuses on batches of
    up to ``rows`` rows of 2^n amplitudes: a spare batch that a circuit's
    gates alternate with the output through, and the two half-batch
    scratch arrays of each gate's products."""

    def __init__(self, rows: int, n: int):
        self.spare = np.empty((rows, 1 << n), dtype=complex)
        self.scratch = np.empty((2, rows << n >> 1), dtype=complex)


def gate_matrices(op: Operation) -> list:
    """Each gate's matrix of a circuit, built once for many applications
    (None for cnot, which needs none); empty for a dense unitary."""
    if isinstance(op, DenseUnitary):
        return []
    return [None if GATES[gate.kind].form == "cnot" else gate_matrix(gate) for gate in op.ops]


def apply_operation_amplitudes(
    amps: np.ndarray,
    op: Operation,
    out: np.ndarray | None = None,
    work: GateWork | None = None,
    matrices: list | None = None,
) -> np.ndarray:
    """Apply a circuit or dense unitary along the last axis of an amplitude
    array, so a ``(rows, 2^n)`` stack is transformed row by row.

    By default every gate allocates its result. A caller that applies many
    operations to many batches passes ``out``, a C-contiguous array of
    amps' shape that receives the result, and a :class:`GateWork` for at
    least as many rows, so that no gate allocates; ``matrices``, from
    :func:`gate_matrices`, saves building each gate's matrix again. The
    bits are the same either way."""
    if isinstance(op, DenseUnitary):
        return np.matmul(amps, op.matrix.T, out=out)
    targets, scratch = (None, None), None
    if out is not None:
        # The last gate writes to out, the one before it to the spare batch, and so on back.
        targets, scratch = (out, work.spare[:len(out)]), work.scratch
    result = amps
    for i, (gate, entries) in enumerate(zip(op.ops, matrices or gate_matrices(op))):
        result = _apply_gateop(result, gate, op.n, entries, targets[(len(op.ops) - 1 - i) % 2], scratch)
    if out is None or result is out:
        return result
    np.copyto(out, result)  # a circuit with no gates
    return out


def batch_applier(ops: list, rows: int, n: int) -> Callable[[np.ndarray], list]:
    """A function that applies each of ``ops`` to a batch of at most ``rows``
    rows of 2^n amplitudes and returns the list of their images. The
    images, one :class:`GateWork` and each gate's matrix are made once,
    here, and every batch reuses them, so a caller is done with one batch's
    images before it applies the next."""
    matrices = [gate_matrices(op) for op in ops]
    images, work = np.empty((len(ops), rows, 1 << n), dtype=complex), GateWork(rows, n)

    def apply(amps: np.ndarray) -> list:
        return [
            apply_operation_amplitudes(amps, op, out, work, mats)
            for op, out, mats in zip(ops, images[:, :len(amps)], matrices)
        ]

    return apply


def chunk_rows(n: int) -> int:
    """Rows per kernel batch of 2^n amplitudes. Below WIDE_QUBITS a batch
    holds CHUNK_BYTES; from WIDE_QUBITS on it holds WIDE_ROWS rows, to
    spread each gate call's fixed cost over more rows, but no more than
    CHUNK_CEILING bytes. A batch is never less than one row."""
    row_bytes = 16 << n
    if n < WIDE_QUBITS:
        return max(1, CHUNK_BYTES // row_bytes)
    return max(1, min(WIDE_ROWS, CHUNK_CEILING // row_bytes))


def row_chunks(rows: int, n: int) -> Iterator[slice]:
    """Slices of ``range(rows)`` of :func:`chunk_rows` rows each, the last one shorter."""
    step = chunk_rows(n)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def row_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i|b_i> for each row i of two (..., rows, N) batches, taken as
    stacked (1, N) @ (N, 1) products, which round like np.vdot. Leading
    axes broadcast, so one (rows, N) batch meets each batch of a
    (B, rows, N) block in one call, with the bits of B separate calls."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def apply_circuit(state: StateVector, c: Operation) -> StateVector:
    """Apply ``c`` to ``state``; returns a fresh state, norm preserved."""
    return StateVector(same_register(state, c), apply_operation_amplitudes(state.amplitudes, c))


def adjoint(c: Operation | MixedOperation) -> Operation | MixedOperation:
    """The Hermitian conjugate: gates daggered, order reversed, a mixture's coefficients conjugated."""
    if isinstance(c, MixedOperation):
        return MixedOperation(tuple((coeff.conjugate(), adjoint(op)) for coeff, op in c.terms))
    if isinstance(c, DenseUnitary):
        # The conjugate transpose of a checked unitary is one: skip the n x n check.
        dagger = object.__new__(DenseUnitary)
        dagger.__dict__.update(n=c.n, matrix=c.matrix.conj().T)
        return dagger
    return Circuit(c.n, tuple(op.dagger() for op in reversed(c.ops)))


def circuit_matrix(c: Operation) -> np.ndarray:
    """Materialize the full 2^n x 2^n matrix of an operation."""
    require_qubits(c.n, MATRIX_QUBIT_CAP)
    # Row k of the batch is U|k>, i.e. column k of the matrix.
    columns = apply_operation_amplitudes(np.eye(1 << c.n, dtype=complex), c)
    return np.ascontiguousarray(columns.T)


def haar_random_unitary(n: int, seed: int) -> np.ndarray:
    """Draw a Haar-distributed 2^n x 2^n unitary.

    QR-decomposes a complex Ginibre matrix and absorbs the phases of R's
    diagonal into Q, which makes the distribution exactly Haar rather than
    merely unitary. Deterministic for a fixed seed.
    """
    n = require_qubits(n, MATRIX_QUBIT_CAP)
    rng = np.random.default_rng(seed)
    dim = 1 << n
    ginibre = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(ginibre)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def exact_schatten2(m: np.ndarray) -> float:
    """Normalized Schatten 2-norm: sqrt(sum of squared singular values / rows).

    Equals the Frobenius norm divided by sqrt(number of rows).
    """
    m = np.asarray(m, dtype=complex)
    return float(np.linalg.norm(m) / math.sqrt(m.shape[0]))


@dataclass(frozen=True)
class MixedOperation:
    """Coefficient-weighted sum of unitaries.

    Physical mixtures have total coefficient weight at most 1; the
    constructor allows up to sqrt(2) so the canonical difference
    (U1 - U2)/sqrt(2) of two unitaries is representable by the same type.
    The strict weight-1 cap is enforced where mixture documents are loaded.
    """

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(coeff), op) for coeff, op in self.terms)
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError("a mixed operation needs at least one term")
        same_register(*(op for _, op in terms))
        if not all(cmath.isfinite(coeff) for coeff, _ in terms):
            raise ValueError("mixture coefficients must be finite")
        weight = sum(abs(coeff) for coeff, _ in terms)
        if weight > math.sqrt(2.0) + 1e-12:
            raise ValueError(f"sum of coefficient magnitudes {weight} exceeds sqrt(2)")

    @property
    def n(self) -> int:
        return self.terms[0][1].n

    @property
    def num_terms(self) -> int:
        return len(self.terms)


def mixed_operation_matrix(mixed: MixedOperation) -> np.ndarray:
    """Dense matrix of the weighted sum; test/oracle helper."""
    require_qubits(mixed.n, MATRIX_QUBIT_CAP)
    total = np.zeros((1 << mixed.n, 1 << mixed.n), dtype=complex)
    for coeff, op in mixed.terms:
        total += coeff * circuit_matrix(op)
    return total


# --- JSON documents ---------------------------------------------------------
#
# Circuit document:  {"n": 3, "ops": [{"gate": "ry", "qubits": [0],
#                     "params": [1.5707963267948966]}, ...]}
# Mixture document:  {"terms": [{"coeff": [re, im], "circuit": {...}}, ...]}
# Gate names are lowercase, angles in radians.

def _is_finite_number(value) -> bool:
    """A JSON number that is finite; a JSON boolean is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _number_param(p) -> float:
    if not _is_finite_number(p):
        raise CircuitFormatError(f"gate params must be finite numbers, got {p!r}")
    return float(p)


def _gateop_from_dict(entry: dict, param=_number_param) -> GateOp:
    """Parse one gate entry; ``param`` converts each parameter."""
    if not isinstance(entry, dict) or "gate" not in entry:
        raise CircuitFormatError(f"gate entry must be an object with a 'gate' field, got {entry!r}")
    unknown = set(entry) - {"gate", "qubits", "params"}
    if unknown:
        raise CircuitFormatError(f"unknown gate entry keys {sorted(unknown)}")
    return GateOp(str(entry["gate"]), tuple(entry.get("qubits", [])), tuple(param(p) for p in entry.get("params", [])))


def circuit_from_dict(doc: dict, param=_number_param) -> Circuit:
    """Parse a circuit document; ``param`` converts each gate parameter."""
    if not isinstance(doc, dict) or "n" not in doc:
        raise CircuitFormatError("circuit document must be an object with an 'n' field")
    unknown = set(doc) - {"n", "ops"}
    if unknown:
        raise CircuitFormatError(f"unknown circuit keys {sorted(unknown)}")
    try:
        return Circuit(doc["n"], tuple(_gateop_from_dict(e, param) for e in doc.get("ops", [])))
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(str(exc)) from exc


def mixed_operation_from_dict(doc: dict) -> MixedOperation:
    if not isinstance(doc, dict) or "terms" not in doc or not isinstance(doc["terms"], list):
        raise CircuitFormatError("mixture document must be an object with a 'terms' list")
    unknown = set(doc) - {"terms"}
    if unknown:
        raise CircuitFormatError(f"unknown mixture keys {sorted(unknown)}")
    terms = []
    for entry in doc["terms"]:
        if not isinstance(entry, dict) or set(entry) != {"coeff", "circuit"}:
            raise CircuitFormatError(f"mixture term must have exactly 'coeff' and 'circuit', got {entry!r}")
        coeff = entry["coeff"]
        if not (isinstance(coeff, list) and len(coeff) == 2 and all(_is_finite_number(v) for v in coeff)):
            raise CircuitFormatError(f"coeff must be a [re, im] pair of finite numbers, got {coeff!r}")
        terms.append((complex(coeff[0], coeff[1]), circuit_from_dict(entry["circuit"])))
    if not terms:
        raise CircuitFormatError("mixture document has no terms")
    weight = sum(abs(coeff) for coeff, _ in terms)
    if weight > 1.0 + 1e-12:
        raise ValueError(f"sum of coefficient magnitudes {weight} exceeds 1")
    return MixedOperation(tuple(terms))
