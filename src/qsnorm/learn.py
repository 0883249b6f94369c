"""Sample-based circuit learning.

Learns parameters xi of an ansatz U(xi) so that it approximates a target
operation V by gradient descent on the sampled squared-distance objective

    f(xi) = 2 - (1/m) sum_i 2 Re<0| S^dag(theta_i) V^dag U(xi) S(theta_i) |0>

whose expectation over uniform angles equals ||U(xi) - V||^2 in the
normalized Schatten-2 sense. The angle set is drawn once up front, so the
objective is a fixed deterministic function of xi for a given seed; with
finite shots both sides of every central difference reuse the same shot
seeds (common random numbers).

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

from .hadamard import mixed_quadratic_form
from .qsim import (
    Circuit,
    CircuitFormatError,
    GateOp,
    Operation,
    _number_param,
    adjoint,
    circuit_from_dict,
    circuit_to_dict,
    require_int,
)
from .sampler import derived_rng, sample_thetas
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
        """Fill the slots with values from xi (one application, no repeats)."""
        xi = np.asarray(xi, dtype=float)
        if xi.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} parameters, got shape {xi.shape}")
        ops = []
        for op in self.template.ops:
            params = tuple(
                float(xi[p.index]) if isinstance(p, ParamSlot) else float(p) for p in op.params
            )
            ops.append(GateOp(op.kind, op.qubits, params))
        return Circuit(self.template.n, tuple(ops))

    def bind_repeated(self, xi: np.ndarray) -> Circuit:
        """The bound circuit applied ``repeat`` times."""
        once = self.bind(xi)
        return Circuit(once.n, once.ops * self.repeat)


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


def loss(
    ansatz: Ansatz,
    xi: np.ndarray,
    target: Operation,
    thetas: np.ndarray,
    shots: int = 0,
    seed: int = 0,
) -> float:
    """Sampled squared-distance objective between U(xi) (with repeats) and V.

    Each term 2 - 2 Re<x|V^dag U|x> equals 2 <x|D D^dag|x> for the mixture
    D = (V^dag - U^dag)/sqrt(2), so the objective is twice the mean of the
    per-angle values :func:`hadamard.mixed_quadratic_form` gives for D.
    With shots > 0 that kernel runs the real-part interference test with
    state prep S(theta_i) and controlled chain (U(xi), V^dagger), drawing
    from ``derived_rng(seed, i, 1)``. Values lie in [0, 4]; an empty angle
    list raises ValueError.
    """
    mixture = difference_mixture(adjoint(target), adjoint(ansatz.bind_repeated(xi)))
    values = mixed_quadratic_form(mixture, thetas, shots, seed)
    return 2.0 * math.fsum(values) / values.size


def finite_diff_gradient(
    lossfn: Callable[[np.ndarray], float],
    xi: np.ndarray,
    fd_eps: float,
) -> np.ndarray:
    """Central-difference gradient, one coordinate at a time.

    The loss function must be deterministic in xi (fixed angle set and shot
    seeds) so both sides of each difference share their randomness.
    """
    if fd_eps <= 0:
        raise ValueError(f"fd_eps must be positive, got {fd_eps}")
    xi = np.asarray(xi, dtype=float)
    grad = np.empty_like(xi)
    for j in range(xi.size):
        shifted = xi.copy()
        shifted[j] = xi[j] + fd_eps
        upper = lossfn(shifted)
        shifted[j] = xi[j] - fd_eps
        lower = lossfn(shifted)
        grad[j] = (upper - lower) / (2.0 * fd_eps)
    return grad


def learn_circuit(ansatz: Ansatz, target: Operation, config: LearnConfig) -> LearnResult:
    """Gradient descent on the sampled objective.

    Angles are drawn once before the loop; xi starts uniform on [-pi, pi)
    per coordinate. Stops when the cost reaches config.tol or after
    config.max_iters steps; non-convergence is reported via the flag, never
    raised.
    """
    thetas = sample_thetas(config.seed, config.m)

    def objective(x: np.ndarray) -> float:
        return loss(ansatz, x, target, thetas, shots=config.shots_per_test, seed=config.seed)

    xi = derived_rng(config.seed).uniform(-math.pi, math.pi, ansatz.num_params)
    history = [objective(xi)]
    while history[-1] > config.tol and len(history) <= config.max_iters:
        grad = finite_diff_gradient(objective, xi, config.fd_eps)
        xi = xi - config.eta * grad
        history.append(objective(xi))
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

def ansatz_to_dict(ansatz: Ansatz) -> dict:
    def slot_or_float(p):
        return {"slot": p.index} if isinstance(p, ParamSlot) else float(p)

    return {**circuit_to_dict(ansatz.template, slot_or_float), "repeat": ansatz.repeat}


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
