"""Dense statevector simulation of small gate circuits.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state index, i.e. the
  amplitude at index ``0b100`` of a 3-qubit state is the one where qubit 0
  is |1> and qubits 1, 2 are |0>.
* Angles are radians, amplitudes are complex128.
* Dense matrices are only materialized for small systems
  (``MATRIX_QUBIT_CAP``); statevectors have their own cap
  (``STATE_QUBIT_CAP``).
* Operations act along the last axis, and a row's image has the same bits
  whatever rows it is applied with, so chunk sizes (``chunk_rows``) set
  throughput alone (checked with one BLAS build). Bits may still depend on
  the BLAS build and thread count: with OpenBLAS 0.3.31, through
  ``np.linalg.qr`` in ``haar_random_unitary`` and ``np.linalg.norm`` in
  ``exact_schatten2`` from 7 qubits on, and through the BLAS dot products
  of ``row_overlaps`` from rows of 2^14 amplitudes on. The product of a
  dense unitary (``_dense_call``) gave the same bits under one and two
  threads.

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
CHUNK_CEILING = 1 << 18  # bytes of a (rows, 2^n) batch array, unless one row is larger; see chunk_rows
DENSE_ROWS = 2  # fewest rows of a dense product, see _dense_call
SHORT_RUN = 4  # longest run of a gate's half that is applied one offset at a time
LONG_RUN = 64  # run of a diagonal gate's half from which a column of its entries is fast, see _gate_calls

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
    as a function of the angles, the matrix's form, which picks the calls
    ``_gate_calls`` compiles for it, and the kind of its adjoint (None: the
    same kind), which takes the negated angles.

    ``matrix`` takes each angle as a number, giving one matrix, or as
    arrays of one shape, giving the (..., 2, 2) stack ((..., 1, 1) for
    globalphase) of the matrices at each position, each with the bits of
    the call on that position's numbers.

    The form is "diagonal" or "anti-diagonal" when the matrix is zero off
    that diagonal at every angle, "cnot" for the controlled-X permutation,
    and "dense" otherwise."""

    qubits: int
    params: int
    matrix: Callable[..., np.ndarray]
    form: str
    adjoint: str | None = None


def _matrix(angles, rows: list) -> np.ndarray:
    """The complex matrix with the given rows, as a (..., k, k) stack over
    the shape of ``angles`` (one matrix for a number). Each entry is a
    number or an array of that shape; a literal 0 stays +0.0, where a zero
    computed as 0 * a would be -0.0 at negative angles."""
    out = np.empty(np.shape(angles) + (len(rows), len(rows)), dtype=complex)
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            out[..., i, j] = entry
    return out


def _rx(a):
    c, s = np.cos(a / 2), -1j * np.sin(a / 2)
    return _matrix(a, [[c, s], [s, c]])


def _ry(a):
    c, s = np.cos(a / 2), np.sin(a / 2)
    return _matrix(a, [[c, -s], [s, c]])


def _rz(a):
    half = a / 2
    return _matrix(a, [[np.exp(-1j * half), 0], [0, np.exp(1j * half)]])


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
    "phase": GateKind(1, 1, lambda a: _matrix(a, [[1, 0], [0, np.exp(1j * a)]]), "diagonal"),
    "rx": GateKind(1, 1, _rx, "dense"),
    "ry": GateKind(1, 1, _ry, "dense"),
    "rz": GateKind(1, 1, _rz, "diagonal"),
    "cnot": GateKind(2, 0, lambda: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ), "cnot"),
    "globalphase": GateKind(0, 1, lambda a: _matrix(a, [[np.exp(1j * a)]]), "diagonal"),
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


def _gate_calls(
    op: GateOp,
    n: int,
    entries: np.ndarray,
    src: np.ndarray,
    dest: np.ndarray,
    scratch: np.ndarray,
) -> list:
    """The calls, as (function, args) pairs run in order, that write ``op``
    applied along the last axis of ``src`` into ``dest``, a C-contiguous
    array of src's shape apart from it, or that apply it in place when
    ``src is dest``. This is the one place that holds each form's formula,
    right in both cases; the calls are made once per set of arrays and may
    be run again whenever src holds new amplitudes.

    ``entries`` is the gate's matrix (unused for cnot), or a (B, 2, 2)
    stack ((B, 1, 1) for globalphase) that applies entry b to block member
    ``src[b]`` of (B, rows, 2^n); the calls read it as a view, so they see
    a stack refilled in place. ``scratch`` is three flat arrays of at least
    src.size // 2 entries, which the dense, anti-diagonal and cnot forms
    use.

    Every product is one matrix entry times one amplitude, entry first (a
    gate on no qubits: amplitude first), as the dense formula has it:
    numpy's complex product can round differently with its operands
    swapped. The tests check that it rounds alike whether its operands are
    contiguous, strided or broadcast, so a form's shortcut keeps the dense
    formula's bits; skipping a zero entry changes at most the sign of an
    exact zero."""
    form = GATES[op.kind].form
    if form == "cnot":
        # Copy src unless in place, then swap the target's halves within the
        # control-1 half through two scratch quarters: a copy between two
        # views of one array would go through a hidden temporary.
        control, target = op.qubits
        out = dest.reshape(dest.shape[:-1] + (2,) * n)
        index = [slice(None)] * n
        index[control], index[target] = 1, 0
        q10 = out[(Ellipsis, *index)]
        index[target] = 1
        q11 = out[(Ellipsis, *index)]
        s0, s1 = (part[:q10.size].reshape(q10.shape) for part in scratch[:2])
        calls = [] if src is dest else [(np.copyto, (dest, src))]
        return calls + [(np.copyto, (s0, q10)), (np.copyto, (s1, q11)), (np.copyto, (q10, s1)), (np.copyto, (q11, s0))]
    block = entries.shape[:-2]
    if not op.qubits:
        scale = entries[..., 0, 0].reshape(block + (1, 1)) if block else entries[0, 0]
        return [(np.multiply, (src, scale, dest))]
    # Split the amplitudes whose qubit-q bit is 0 (low half) from those
    # where it is 1 (high half): each half is a run of 2^(n-q-1) amplitudes
    # in every block of 2^(n-q), and numpy runs one inner loop per run.
    run = 1 << (n - op.qubits[0] - 1)
    if form == "diagonal":
        # One product per amplitude with the entry of its half. Runs longer
        # than LONG_RUN meet a (2, 1) column of entries; shorter ones, whose
        # inner loops would be short, meet the entries repeated along a row
        # of 2 * LONG_RUN amplitudes, so the row never grows with n. That
        # row is a copy made here, so a stack, which its caller may refill,
        # meets its (B, 1, 2, 1) column, a view, at every run.
        diagonal = np.diagonal(entries, axis1=-2, axis2=-1)
        if run > LONG_RUN or block:
            shape, row = block + (-1, 2, run), diagonal.reshape(block + (1, 2, 1))
        else:
            tile = min(2 * LONG_RUN, 1 << n)
            row = np.tile(np.repeat(diagonal, run, axis=-1), tile // (2 * run))
            shape, row = block + (-1, tile), row.reshape(block + (1, tile))
        return [(np.multiply, (row, src.reshape(shape), dest.reshape(shape)))]
    halves, dest = src.reshape(block + (-1, 2, run)), dest.reshape(block + (-1, 2, run))
    # A stack's mat[i, j] is a (B, 1, 1) column that broadcasts over each member's rows.
    mat = entries.transpose(1, 2, 0)[..., None, None] if block else entries
    if 1 < run <= SHORT_RUN:
        # A product over a whole half with runs of 2 or 4 runs thousands of
        # short loops, at 2-4 times the cost of the same product at qubit 0,
        # so each offset j gets one strided pass instead, halves[..., 0, j]
        # against halves[..., 1, j]. Runs of 1 already merge into one loop,
        # and from runs of 8 on a pass per offset costs more than the whole
        # half. A (B, 1, 1) entry drops its last axis to line up with a
        # (B, K) slice.
        offsets, shape = range(run), halves.shape[:-2]
        mat = mat[..., 0] if block else mat
    else:
        offsets, shape = [slice(None)], halves.shape[:-2] + (run,)
    size = math.prod(shape)
    s0, s1, s2 = (part[:size].reshape(shape) for part in scratch)
    (m00, m01), (m10, m11) = mat[0], mat[1]
    calls = []
    for j in offsets:
        # Each half is read before it is written, so the calls may run in place.
        low, high, low_out, high_out = halves[..., 0, j], halves[..., 1, j], dest[..., 0, j], dest[..., 1, j]
        if form == "anti-diagonal":
            calls += [(np.multiply, (m01, high, s0)), (np.multiply, (m10, low, high_out)), (np.copyto, (low_out, s0))]
        else:
            calls += [
                (np.multiply, (m00, low, s0)), (np.multiply, (m01, high, s1)), (np.multiply, (m10, low, s2)),
                (np.add, (s0, s1, low_out)), (np.multiply, (m11, high, s0)), (np.add, (s2, s0, high_out)),
            ]
    return calls


def gate_matrices(op: Operation) -> list:
    """Each gate's matrix of a circuit, built once for many applications;
    empty for a dense unitary."""
    return [] if isinstance(op, DenseUnitary) else [gate_matrix(gate) for gate in op.ops]


def _dense_call(matrix: np.ndarray, batch: np.ndarray, image: np.ndarray) -> tuple:
    """The call that writes a dense unitary's image of every row of a
    (rows, 2^n) ``batch`` into ``image``: the one formula of a dense
    unitary. A batch has at least DENSE_ROWS rows, because numpy's
    ``matmul`` hands a one-row operand to BLAS's matrix-vector product
    (gemv), which rounds otherwise than the matrix-matrix product (gemm)
    that the same row meets among two or more rows. With OpenBLAS 0.3.31,
    under one and two threads, gemm gave each row the same bits for every
    row count tried, and under either thread count."""
    return np.matmul, (batch, matrix.T, image)


def apply_operation_amplitudes(amps: np.ndarray, op: Operation) -> np.ndarray:
    """Apply a circuit or dense unitary along the last axis of an amplitude
    array, so a ``(rows, 2^n)`` stack is transformed row by row: the rows
    go through one :func:`batch_applier` chunk by chunk, and each chunk's
    image is copied into a fresh output, so that the call holds the output
    and one chunk's arrays."""
    rows = np.reshape(amps, (-1, 1 << op.n))
    out = np.empty(rows.shape, dtype=complex)
    for chunk, _, (image,) in batch_applier([op], len(rows), op.n, lambda chunk, x: np.copyto(x, rows[chunk]))():
        out[chunk] = image
    return out.reshape(np.shape(amps))


def batch_applier(ops: list, count: int, n: int, fill: Callable, entries: list | None = None) -> Callable[[], Iterator]:
    """A function ``run`` that walks ``range(count)`` in slices of
    :func:`chunk_rows` rows of 2^n amplitudes. For each slice ``chunk``, in
    order, it calls ``fill(chunk, x)``, which writes the chunk's rows into
    ``x``, the leading rows of one input batch; applies each of ``ops``; and
    yields ``(chunk, x, images)``, each operation's image of those rows. A
    caller is done with one chunk's images before it asks for the next, and
    may call ``run`` again. The batch has ``min(chunk_rows(n), count)`` rows
    (at least DENSE_ROWS if an operation is a dense unitary); a shorter last
    chunk replays the rows past ``x`` too, which hold zeros or an earlier
    chunk's rows, so their images are finite and unread.

    ``entries`` holds each operation's gate entries (default:
    :func:`gate_matrices`). An operation whose entries include (B, 2, 2)
    stacks ((B, 1, 1) for globalphase) gets a (B, rows, 2^n) image, entry b
    acting on member b of the input broadcast over B; its other matrices
    are broadcast to the block. The calls read the entries themselves, so
    a caller may refill a stack in place between walks.

    The input, the images, three half-image scratch arrays and the calls of
    :func:`_gate_calls` and :func:`_dense_call` that apply ``ops`` to them
    are made once, here, and replayed for every chunk. A circuit's first
    gate writes the input's image into the circuit's image, and every
    later gate works there in place."""
    step = chunk_rows(n)
    rows = min(step, count)
    if any(isinstance(op, DenseUnitary) for op in ops):
        rows = max(rows, DENSE_ROWS)
    entries = [gate_matrices(op) for op in ops] if entries is None else entries
    batch = np.zeros((rows, 1 << n), dtype=complex)
    blocks = [np.broadcast_shapes(*(e.shape[:-2] for e in mats)) for mats in entries]
    images = [np.empty(block + batch.shape, dtype=complex) for block in blocks]
    scratch = np.empty((3, max(image.size for image in images) // 2), dtype=complex)
    calls = []
    for op, mats, image in zip(ops, entries, images):
        if isinstance(op, DenseUnitary):
            calls.append(_dense_call(op.matrix, batch, image))
            continue
        src = np.broadcast_to(batch, image.shape)
        if not op.ops:
            calls.append((np.copyto, (image, src)))
        for gate, mat in zip(op.ops, mats):
            # A stride-0 view keeps the block axis apart, so no reshape of
            # the broadcast input copies it.
            calls += _gate_calls(gate, n, np.broadcast_to(mat, image.shape[:-2] + mat.shape[-2:]), src, image, scratch)
            src = image

    def run() -> Iterator[tuple[slice, np.ndarray, list]]:
        for start in range(0, count, step):
            chunk = slice(start, min(start + step, count))
            x = batch[:chunk.stop - start]
            fill(chunk, x)
            for function, args in calls:
                function(*args)
            yield chunk, x, [image[..., :len(x), :] for image in images]

    return run


def chunk_rows(n: int) -> int:
    """Rows per kernel batch of 2^n amplitudes: as many as fit in
    CHUNK_CEILING bytes, so that each call's fixed cost is spread over as
    many rows as one cache-sized array holds, and never less than one row:
    256 rows at 6 qubits, 16 at 10 and one from 14 on. Each row's values
    have the same bits at any chunk size (for one BLAS build, see
    :func:`_dense_call`), so these sizes set throughput alone."""
    return max(1, CHUNK_CEILING // (16 << n))


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
