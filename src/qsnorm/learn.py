"""Sample-based circuit learning.

Learns parameters xi of an ansatz U(xi) so that it approximates a target
operation V by gradient descent on the sampled squared-distance objective

    f(xi) = 2 - (1/m) sum_i 2 Re<0| S^dag(theta_i) V^dag U(xi) S(theta_i) |0>

whose expectation over uniform angles equals ||U(xi) - V||^2 in the
normalized Schatten-2 sense. The angle set is drawn once up front, so the
objective is a fixed deterministic function of xi for a given seed; with
finite shots both sides of every central difference reuse the same shot
seeds (common random numbers). Only U(xi) changes between evaluations, so
a run prepares the objective once (:class:`LearnObjective`): it keeps the
first row chunk's probe rows and their images under V. Each gradient step
is one batched pass: f(xi) and the 2P central-difference shifts are one
(2P + 1, P) block, each gate of U is applied to every point at once, with
one matrix per distinct angle where a slot sets it, and one reduction
takes all the points' rows.

An ansatz applied ``repeat`` times learns roots: with repeat = 2 the loop
minimizes ||U(xi)^2 - V||^2. Ansatz templates can carry a global-phase
parameter because the objective is sensitive to a phase mismatch even
though states are not.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .hadamard import probe_chunk, quadratic_form_values, require_shots
from .qsim import (
    CHUNK_BYTES,
    GATES,
    STATE_QUBIT_CAP,
    Circuit,
    CircuitFormatError,
    GateOp,
    Operation,
    _apply_gateop,
    _number_param,
    apply_operation_amplitudes,
    circuit_from_dict,
    require_int,
    require_qubits,
    row_chunks,
)
from .sampler import check_thetas, derived_rng, sample_thetas
from .schatten import difference_mixture


@dataclass(frozen=True)
class ParamSlot:
    """Placeholder for parameter ``index`` >= 0 inside an ansatz template."""

    index: int

    def __post_init__(self):
        object.__setattr__(self, "index", require_int(self.index, "slot"))
        if self.index < 0:
            raise ValueError(f"slot must be nonnegative, got {self.index}")


@dataclass(frozen=True)
class Ansatz:
    """Circuit template whose rotation angles are free parameters.

    ``template`` is a circuit whose params may contain :class:`ParamSlot`
    markers; ``repeat`` applies the bound circuit that many times, which is
    how square roots are learned. ``num_params`` is the highest slot index
    plus one (0 without slots).
    """

    template: Circuit
    repeat: int = 1
    num_params: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "repeat", require_int(self.repeat, "repeat"))
        if self.repeat < 1:
            raise ValueError(f"repeat must be at least 1, got {self.repeat}")
        slots = [p.index for op in self.template.ops for p in op.params if isinstance(p, ParamSlot)]
        object.__setattr__(self, "num_params", max(slots, default=-1) + 1)

    @property
    def n(self) -> int:
        return self.template.n

    def bind(self, xi: np.ndarray) -> Circuit:
        """Fill the slots with values from xi (one application, no repeats);
        xi must have shape (num_params,) and hold real, finite numbers
        (ValueError)."""
        return Circuit(self.template.n, self._bound_ops(xi))

    def bind_repeated(self, xi: np.ndarray) -> Circuit:
        """The bound circuit applied ``repeat`` times."""
        return Circuit(self.template.n, self._bound_ops(xi) * self.repeat)

    def _bound_ops(self, xi: np.ndarray) -> tuple:
        values = _parameter_values(xi, self.num_params, 1)
        return tuple(GateOp(op.kind, op.qubits, _bound_params(op, values)) for op in self.template.ops)


def _parameter_values(xi, num_params: int, ndim: int) -> list:
    """``xi`` as (nested) lists of floats, if it is an ndim-dimensional array
    of rows of ``num_params`` real, finite numbers; ValueError otherwise."""
    values = np.asarray(xi)
    if values.ndim != ndim or values.shape[-1:] != (num_params,):
        raise ValueError(f"expected {num_params} parameters, got shape {values.shape}")
    if values.dtype.kind not in "biuf":
        raise ValueError(f"parameters must be real numbers, got dtype {values.dtype}")
    values = values.astype(float)
    if not np.isfinite(values).all():
        raise ValueError(f"parameters must be finite, got {values.tolist()}")
    return values.tolist()


def _bound_params(op: GateOp, values: list) -> tuple:
    """The angles of template gate ``op`` with its slots filled from ``values``."""
    return tuple(values[p.index] if isinstance(p, ParamSlot) else float(p) for p in op.params)


@dataclass(frozen=True)
class LearnConfig:
    """Optimizer settings; defaults converge in seconds on 2-qubit tasks."""

    m: int = 64
    eta: float = 0.1
    fd_eps: float = 1e-3
    max_iters: int = 1000
    tol: float = 1e-4
    shots_per_test: int = 0
    seed: int = 0

    def __post_init__(self):
        for name in ("m", "max_iters", "shots_per_test", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.m < 1 or self.eta <= 0 or self.fd_eps <= 0 or self.max_iters < 1:
            raise ValueError("m, eta, fd_eps and max_iters must all be positive")
        if self.tol < 0 or self.shots_per_test < 0:
            raise ValueError("tol and shots_per_test must be nonnegative")
        if not all(math.isfinite(v) for v in (self.eta, self.fd_eps, self.tol)):
            raise ValueError("eta, fd_eps and tol must be finite")


@dataclass
class LearnResult:
    xi: np.ndarray
    cost_history: list[float] = field(default_factory=list)
    converged: bool = False
    final_cost: float = math.inf


class LearnObjective:
    """The sampled objective f(xi) for one ansatz, target and angle set,
    prepared once so that each evaluation applies only U(xi) (with repeats).

    Building it checks that U and V share a register under
    ``STATE_QUBIT_CAP``, the shot count and the angles. It keeps the probe
    rows of the first row chunk and their images V x, at most
    ``CHUNK_CEILING`` each, so its memory does not grow with the angle count;
    any later chunk is rebuilt for each pass of points. Each term
    2 - 2 Re<V x|U x> = ||(V - U) x||^2 is twice the value of the difference
    mixture (V - U)/sqrt(2), which :func:`hadamard.quadratic_form_values`
    reduces from V x and the block of every point's U x. With shots > 0
    that runs the real-part test with state prep S(theta_i) and controlled
    chain (U(xi), V^dagger), drawing from ``derived_rng(seed, i, 1)`` at
    every point. Values lie in [0, 4]; an empty angle list raises
    ValueError. :meth:`block` evaluates many points in one batched pass; a
    call on one xi is a one-row block.
    """

    def __init__(self, ansatz: Ansatz, target: Operation, thetas: np.ndarray, shots: int = 0, seed: int = 0):
        # Every bound U(xi) has the template's register, so the mixture with
        # the template checks it and gives the coefficients once.
        mixed = difference_mixture(target, ansatz.template)
        self.n = require_qubits(mixed.n, STATE_QUBIT_CAP, "statevector qubit count")
        self.shots = require_shots(shots)
        self.thetas = check_thetas(thetas)
        self.ansatz, self.target, self.seed = ansatz, target, seed
        self._coeffs = [coeff for coeff, _ in mixed.terms]
        self._first = next(row_chunks(self.thetas.size, self.n))
        self._x = probe_chunk(self.thetas, self._first, self.n)
        self._vx = apply_operation_amplitudes(self._x, target)

    def __call__(self, xi: np.ndarray) -> float:
        return float(self.block(np.asarray(xi)[None])[0])

    def block(self, xis: np.ndarray) -> np.ndarray:
        """f at each row of the (B, P) array ``xis``. The points go in passes
        of as many as the first chunk's probe rows, tiled once per point,
        fit in ``CHUNK_BYTES``. U is applied to a whole pass gate by gate,
        in every row chunk, and one reduction takes the pass."""
        points = _parameter_values(xis, self.ansatz.num_params, 2)
        per_pass = max(1, CHUNK_BYTES // self._x.nbytes)
        costs = []
        for start in range(0, len(points), per_pass):
            values = quadratic_form_values(
                self._coeffs, self._chunk_images(points[start:start + per_pass]), self.thetas.size, self.shots, self.seed
            )
            costs += [2.0 * math.fsum(row) / len(row) for row in values.tolist()]
        return np.array(costs)

    def _chunk_images(self, points: list):
        """(chunk, [V x, the (len(points), rows, 2^n) block of U(xi) x]) for
        each row chunk; the first chunk's probe rows and V x are kept."""
        gates = [
            (op, _slot_stack(op, points) if any(isinstance(p, ParamSlot) for p in op.params) else None)
            for op in self.ansatz.template.ops
        ] * self.ansatz.repeat
        yield self._first, [self._vx, _apply_gates(self._x, gates, len(points), self.n)]
        for chunk in islice(row_chunks(self.thetas.size, self.n), 1, None):
            x = probe_chunk(self.thetas, chunk, self.n)
            yield chunk, [apply_operation_amplitudes(x, self.target), _apply_gates(x, gates, len(points), self.n)]


def _slot_stack(op: GateOp, points: list) -> np.ndarray:
    """The (len(points), 2, 2) stack of template gate ``op``'s scalar
    ``GATES`` matrix at each point's angles, each distinct angle's matrix
    built once. Angles are told apart by their bits: 0.0 == -0.0, but
    their matrices differ in the sign of zero entries."""
    matrix, built = GATES[op.kind].matrix, {}
    stack = []
    for xi in points:
        params = _bound_params(op, xi)
        key = struct.pack(f"{len(params)}d", *params)
        if key not in built:
            built[key] = matrix(*params)
        stack.append(built[key])
    return np.array(stack)


def _apply_gates(x: np.ndarray, gates: list, points: int, n: int) -> np.ndarray:
    """The (points, rows, 2^n) block of each point's U x, from the probe
    rows x and (gate, its stack of per-point entries or None) pairs."""
    out = np.broadcast_to(x, (points,) + x.shape)
    for op, entries in gates:
        out = _apply_gateop(out, op, n, entries)
    return out


def loss(
    ansatz: Ansatz,
    xi: np.ndarray,
    target: Operation,
    thetas: np.ndarray,
    shots: int = 0,
    seed: int = 0,
) -> float:
    """Sampled squared-distance objective between U(xi) (with repeats) and
    V: one call of a :class:`LearnObjective` built for these inputs."""
    return LearnObjective(ansatz, target, thetas, shots, seed)(xi)


def finite_diff_gradient(
    blockfn: Callable[[np.ndarray], np.ndarray],
    xi: np.ndarray,
    fd_eps: float,
) -> np.ndarray:
    """Central-difference gradient from one block of 2P shifted points.

    ``blockfn`` maps a (2P, P) array to its 2P values; rows 2j and 2j + 1
    are xi with coordinate j moved by +fd_eps and -fd_eps. It must be
    deterministic in each row (fixed angle set and shot seeds) so both
    sides of each difference share their randomness.
    """
    if not 0 < fd_eps < math.inf:
        raise ValueError(f"fd_eps must be positive and finite, got {fd_eps}")
    xi = np.asarray(xi, dtype=float)
    shifted = np.tile(xi, (2 * xi.size, 1))
    coords = np.arange(xi.size)
    shifted[2 * coords, coords] = xi + fd_eps
    shifted[2 * coords + 1, coords] = xi - fd_eps
    values = np.asarray(blockfn(shifted), dtype=float)
    return (values[0::2] - values[1::2]) / (2.0 * fd_eps)


def learn_circuit(ansatz: Ansatz, target: Operation, config: LearnConfig) -> LearnResult:
    """Gradient descent on the sampled objective.

    Angles are drawn once before the loop; xi starts uniform on [-pi, pi)
    per coordinate. Each step evaluates f(xi) and the gradient's 2P shifted
    points as one block. Stops when the cost reaches config.tol or after
    config.max_iters steps; non-convergence is reported via the flag, never
    raised.
    """
    objective = LearnObjective(
        ansatz, target, sample_thetas(config.seed, config.m), config.shots_per_test, config.seed
    )
    xi = derived_rng(config.seed).uniform(-math.pi, math.pi, ansatz.num_params)
    history = []

    def with_cost(shifted: np.ndarray) -> np.ndarray:
        values = objective.block(np.vstack((xi, shifted)))
        history.append(float(values[0]))
        return values[1:]

    while True:
        grad = finite_diff_gradient(with_cost, xi, config.fd_eps)
        if not (history[-1] > config.tol and len(history) <= config.max_iters):
            break
        xi = xi - config.eta * grad
    return LearnResult(
        xi=xi,
        cost_history=history,
        converged=history[-1] <= config.tol,
        final_cost=history[-1],
    )


# --- ansatz documents -------------------------------------------------------
#
# An ansatz document is a circuit document where any param may be
# {"slot": k} instead of a number, plus a top-level "repeat".

def ansatz_from_dict(doc: dict) -> Ansatz:
    if not isinstance(doc, dict):
        raise CircuitFormatError("ansatz document must be an object with an 'n' field")

    def slot_or_number(p):
        if not isinstance(p, dict):
            return _number_param(p)
        if set(p) != {"slot"}:
            raise CircuitFormatError(f"parameter object must be {{'slot': k}} with k >= 0, got {p!r}")
        return ParamSlot(p["slot"])

    template = circuit_from_dict({k: v for k, v in doc.items() if k != "repeat"}, slot_or_number)
    try:
        return Ansatz(template, repeat=doc.get("repeat", 1))
    except (TypeError, ValueError) as exc:
        raise CircuitFormatError(str(exc)) from exc
