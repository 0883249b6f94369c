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
(2P + 1, P) block, and U is applied to every point at once by replaying
calls compiled once per block size, whose slot gates read one matrix per
point, refilled in place by one call of each gate kind's formula on the
block's angles. One reduction, planned once per run, takes all the
points' rows.

An ansatz applied ``repeat`` times learns roots: with repeat = 2 the loop
minimizes ||U(xi)^2 - V||^2. Ansatz templates can carry a global-phase
parameter because the objective is sensitive to a phase mismatch even
though states are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .hadamard import ReductionPlan, quadratic_form_values, require_shots
from .qsim import (
    GATES,
    STATE_QUBIT_CAP,
    Circuit,
    CircuitFormatError,
    GateOp,
    Operation,
    _number_param,
    apply_operation_amplitudes,
    batch_applier,
    chunk_rows,
    circuit_from_dict,
    gate_matrix,
    require_int,
    require_qubits,
    row_chunks,
)
from .sampler import check_thetas, probe_rows, sample_thetas, uniform_angles
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
        values = _parameter_values(xi, self.num_params, 1).tolist()
        return tuple(GateOp(op.kind, op.qubits, _bound_params(op, values)) for op in self.template.ops)


def _parameter_values(xi, num_params: int, ndim: int) -> np.ndarray:
    """``xi`` as a float array, if it is an ndim-dimensional array of rows
    of ``num_params`` real, finite numbers; ValueError otherwise."""
    values = np.asarray(xi)
    if values.ndim != ndim or values.shape[-1:] != (num_params,):
        raise ValueError(f"expected {num_params} parameters, got shape {values.shape}")
    if values.dtype.kind not in "biuf":
        raise ValueError(f"parameters must be real numbers, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if not np.isfinite(values).all():
        raise ValueError(f"parameters must be finite, got {values.tolist()}")
    return values


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
    ``CHUNK_CEILING`` each; any later chunk is rebuilt for each pass of
    points. V x comes from :func:`qsim.apply_operation_amplitudes`, whose
    rows, a dense V's included, have the bits of the same rows in any
    chunk, so the values do not depend on the chunking. Each term
    2 - 2 Re<V x|U x> = ||(V - U) x||^2 is twice the value
    of the difference mixture (V - U)/sqrt(2), which
    :func:`hadamard.quadratic_form_values` reduces from V x and the block of
    every point's U x. With shots > 0 that runs the real-part test with
    state prep S(theta_i) and controlled chain (U(xi), V^dagger), drawing
    from ``derived_rng(seed, i, 1)`` at every point. Values lie in [0, 4];
    an empty angle list raises ValueError. The reduction's coefficient-only
    parts (:class:`hadamard.ReductionPlan`) are derived once, here.
    :meth:`block` evaluates many points in one batched pass; a call on one
    xi is a one-row block. U is applied by one :func:`qsim.batch_applier`
    per pass size B, kept, whose slot gates read (B, 2, 2) stacks ((B, 1,
    1) for globalphase) that each pass refills: the stacks of one gate
    kind are views of one array, filled by one call of that kind's
    ``GATES`` formula on the (B, gates) array of their angles. A pass's B
    points fill at most one chunk of ``CHUNK_CEILING`` bytes (see
    :meth:`block`), so one applier holds about 3B + 1 first chunks (input,
    image, spare batch, scratch), about three ``CHUNK_CEILING`` while a row
    fits in one, whatever the angle count; a learn run keeps at most two,
    for its passes of 2P + 1 points and their remainder."""

    def __init__(self, ansatz: Ansatz, target: Operation, thetas: np.ndarray, shots: int = 0, seed: int = 0):
        # Every bound U(xi) has the template's register, so the mixture with
        # the template checks it and gives the coefficients once.
        mixed = difference_mixture(target, ansatz.template)
        self.n = require_qubits(mixed.n, STATE_QUBIT_CAP, "statevector qubit count")
        self.shots = require_shots(shots)
        self.thetas = check_thetas(thetas)
        self.ansatz, self.target, self.seed = ansatz, target, seed
        self._plan = ReductionPlan([coeff for coeff, _ in mixed.terms])
        first = next(row_chunks(self.thetas.size, self.n))
        self._x = np.zeros((first.stop, 1 << self.n), dtype=complex)
        probe_rows(self.thetas[first], self.n, 1 << self.n, self._x)
        self._vx = apply_operation_amplitudes(self._x, target)
        self._appliers = {}

    def __call__(self, xi: np.ndarray) -> float:
        return float(self.block(np.asarray(xi)[None])[0])

    def block(self, xis: np.ndarray) -> np.ndarray:
        """f at each row of the (B, P) array ``xis``. The points go in passes
        of as many as the first chunk's probe rows, tiled once per point,
        fit in one chunk of :func:`qsim.chunk_rows` rows (``CHUNK_CEILING``
        bytes), and at least one. U is applied to a whole pass at once, in
        every row chunk, and one reduction takes the pass."""
        points = _parameter_values(xis, self.ansatz.num_params, 2)
        per_pass = chunk_rows(self.n) // len(self._x)
        m = self.thetas.size
        costs = []
        for start in range(0, len(points), per_pass):
            values = quadratic_form_values(
                self._plan, self._chunk_images(points[start:start + per_pass]), m, self.shots, self.seed
            )
            costs += [2.0 * math.fsum(row) / m for row in values.tolist()]
        return np.array(costs)

    def _chunk_images(self, points: np.ndarray):
        """(chunk, [V x, the (len(points), rows, 2^n) block of U(xi) x]) for
        each row chunk, from the applier for len(points) points with its
        stacks refilled from the (B, P) array ``points``; the first chunk's
        probe rows and V x are kept."""
        points = np.asarray(points, dtype=float)
        probes, apply, _, fills = self._applier(len(points))
        for fill in fills:
            _refill(*fill, points)
        # A later chunk overwrites the input, so each pass puts the kept rows back.
        probes[...] = self._x
        vx = self._vx
        for chunk in row_chunks(self.thetas.size, self.n):
            if chunk.start:
                x = probe_rows(self.thetas[chunk], self.n, 1 << self.n, probes[:chunk.stop - chunk.start])
                vx = apply_operation_amplitudes(x, self.target)
            ux = apply(chunk.stop - chunk.start)[0]
            if ux.ndim == 2:
                # A template without slots gives U x no point axis of its own.
                ux = np.broadcast_to(ux, (len(points),) + ux.shape)
            yield chunk, [vx, ux]

    def _applier(self, points: int) -> tuple:
        """The input, apply function, {slot gate: (points, 2, 2) stack} and
        refills of the applier of U for ``points`` points, made on first
        use. The stacks of one kind's slot gates are views of one
        (points, gates, 2, 2) array, refilled together: a refill is that
        array, the kind and the gates' slot indices."""
        if points not in self._appliers:
            ops = self.ansatz.template.ops
            kinds = {}
            # Every angled kind takes one angle, so a gate with a slot has only that slot.
            for op in dict.fromkeys(op for op in ops if op.params and isinstance(op.params[0], ParamSlot)):
                kinds.setdefault(op.kind, []).append(op)
            stacks, fills = {}, []
            for kind, group in kinds.items():
                size = 1 << GATES[kind].qubits
                stack = np.empty((points, len(group), size, size), dtype=complex)
                stacks.update((op, stack[:, s]) for s, op in enumerate(group))
                fills.append((stack, kind, np.array([op.params[0].index for op in group])))
            entries = [stacks[op] if op in stacks else gate_matrix(op) for op in ops] * self.ansatz.repeat
            probes, apply = batch_applier([Circuit(self.n, ops * self.ansatz.repeat)], len(self._x), self.n, [entries])
            self._appliers[points] = probes, apply, stacks, fills
        return self._appliers[points]


def _refill(stack: np.ndarray, kind: str, slots: np.ndarray, points: np.ndarray) -> None:
    """Write the ``GATES`` matrices of ``kind`` at each row of the (B, P)
    array ``points`` into the (B, gates, 2, 2) ``stack``, gate s at slot
    ``slots[s]``: one formula call on the (B, gates) array of those angles,
    whose matrices have the bits of the scalar call at each angle (-0.0
    included)."""
    stack[...] = GATES[kind].matrix(points[:, slots])


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
    shifted = np.repeat(xi[None], 2 * xi.size, axis=0)
    # Entry (2j, j) is flat entry j (2P + 1), and (2j + 1, j) is P past it.
    flat = shifted.reshape(-1)
    flat[::2 * xi.size + 1] = xi + fd_eps
    flat[xi.size::2 * xi.size + 1] = xi - fd_eps
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
    xi = uniform_angles(config.seed, ansatz.num_params)
    history = []
    points = np.empty((2 * xi.size + 1, xi.size))

    def with_cost(shifted: np.ndarray) -> np.ndarray:
        points[0], points[1:] = xi, shifted
        values = objective.block(points)
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
