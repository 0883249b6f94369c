"""Fidelity-based similarity of quantum operations.

Two operations are called (epsilon, delta)-similar when a Haar-random pure
state processed by both yields fidelity at least 1 - epsilon with
probability at least 1 - delta. A small normalized Schatten-2 distance is
a sufficient condition:

    ||U1 - U2|| <= epsilon / (1 + sqrt(2(1/delta - 1)))

and the mixture version of the bound additionally involves tau, the mean
of <psi| (U~1 U~1^dag + U~2 U~2^dag) |psi> / 2 over Haar states. The
decision procedure combines the sampled distance estimate with a
confidence slack so the verdict itself holds with probability at least
1 - delta_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .qsim import (
    MATRIX_QUBIT_CAP,
    Circuit,
    DenseUnitary,
    GateOp,
    MixedOperation,
    Operation,
    StateVector,
    apply_operation_amplitudes,
    circuit_matrix,
    haar_random_unitary,
    require_int,
    require_qubits,
    row_chunks,
    row_overlaps,
    same_register,
)
from .sampler import check_eps_delta, derive_seed, derived_rngs
from .schatten import estimate_difference_norm, quantum_schatten2_estimate

ESTIMATE_FLOOR = 1e-6
TAU_FLOOR = 1e-12


@dataclass(frozen=True)
class SimilarityVerdict:
    """Decision record; similar iff estimate + slack_term <= threshold."""

    similar: bool
    epsilon: float
    delta: float
    delta_hat: float
    estimate: float
    slack_term: float
    threshold: float


def fidelity(psi1: StateVector, psi2: StateVector) -> float:
    """Squared overlap |<psi1|psi2>|^2 of two states on the same register."""
    same_register(psi1, psi2)
    return float(abs(np.vdot(psi1.amplitudes, psi2.amplitudes)) ** 2)


def _haar_amplitudes(n: int, rows: int, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """``rows`` Haar states as a (rows, 2^n) array; row r is drawn from the
    r-th generator of ``rngs`` before the next one is taken, so the reused
    generator of :func:`sampler.derived_rngs` may be passed.

    Row r is the normalized vector of complex standard Gaussians ``a / ||a||``
    with ``a = g.standard_normal(2^n) + 1j * g.standard_normal(2^n)``, bit
    for bit: numpy fills Gaussians sequentially, so one draw of 2 * 2^n is
    the two draws, and the squared norms are the stacked products of the
    strided real and imaginary views, which is how ``np.linalg.norm`` sums
    a complex vector.
    """
    dim = 1 << n
    g = np.empty((rows, 2 * dim))
    for row, rng in zip(g, rngs):  # g first: stops without taking a generator too many
        rng.standard_normal(out=row)
    amps = g[:, :dim] + 1j * g[:, dim:]
    re, im = amps.real, amps.imag
    sq = (re[:, None, :] @ re[:, :, None])[:, 0, 0] + (im[:, None, :] @ im[:, :, None])[:, 0, 0]
    return amps / np.sqrt(sq)[:, None]


def haar_random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Uniform pure state: normalized vector of complex standard Gaussians."""
    return StateVector(n, _haar_amplitudes(n, 1, [rng])[0])


def similarity_factor(delta: float) -> float:
    """1 + sqrt(2 (1/delta - 1)): epsilon over the distance below which two
    unitaries are (epsilon, delta)-similar."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return 1.0 + math.sqrt(2.0 * (1.0 / delta - 1.0))


def similarity_bound_unitary(epsilon: float, delta: float) -> float:
    """Distance below which two unitaries are (epsilon, delta)-similar:
    epsilon / (1 + sqrt(2 (1/delta - 1)))."""
    check_eps_delta(epsilon, delta)
    return epsilon / similarity_factor(delta)


def similarity_bound_mixed(epsilon: float, delta: float, tau: float) -> float | None:
    """Distance bound for mixtures, or None when no guarantee exists.

    Returns sqrt((eps^2 - (1/delta - 1)(tau - tau^4)) /
    (2 tau (eps + (1/delta - 1) tau^2))) when the radicand is nonnegative.
    Shrinking tau (operations far from unitary) weakens the bound until it
    disappears.
    """
    check_eps_delta(epsilon, delta)
    if not 0 < tau <= 1:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    spread = 1.0 / delta - 1.0
    numerator = epsilon**2 - spread * (tau - tau**4)
    if numerator < 0:
        return None
    return math.sqrt(numerator / (2.0 * tau * (epsilon + spread * tau**2)))


def estimate_tau(
    u1: MixedOperation,
    u2: MixedOperation,
    m: int,
    shots_per_test: int = 0,
    seed: int = 0,
) -> float:
    """Estimate tau = (||U~1||^2 + ||U~2||^2) / 2, clamped to (0, 1].

    Uses that the Haar mean of <psi|U~ U~^dag|psi> equals the squared
    normalized Schatten 2-norm, so each mixture is sized by the sampling
    pipeline independently.
    """
    same_register(u1, u2)
    v1 = quantum_schatten2_estimate(u1, m, shots_per_test, derive_seed(seed, 0)).value
    v2 = quantum_schatten2_estimate(u2, m, shots_per_test, derive_seed(seed, 1)).value
    return min(1.0, max(TAU_FLOOR, (v1**2 + v2**2) / 2.0))


def haar_fidelities(u1: Operation, u2: Operation, num_states: int, seed: int = 0) -> np.ndarray:
    """|<U1 psi_i|U2 psi_i>|^2 for Haar states psi_i drawn from
    ``derived_rng(seed, i)`` (through :func:`sampler.derived_rngs`); each
    operation acts on a chunk of states at once."""
    num_states = require_int(num_states, "num_states")
    if num_states < 1:
        raise ValueError(f"need at least one state, got {num_states}")
    n, fidelities = same_register(u1, u2), np.empty(num_states)
    rngs = derived_rngs(seed, num_states)
    for chunk in row_chunks(num_states, n):
        states = _haar_amplitudes(n, chunk.stop - chunk.start, rngs)
        overlaps = row_overlaps(apply_operation_amplitudes(states, u1), apply_operation_amplitudes(states, u2))
        fidelities[chunk] = [abs(z) ** 2 for z in overlaps.tolist()]
    return fidelities


def similarity_slack(m: int, delta_hat: float, estimate: float) -> float:
    """Confidence slack added to a sampled distance estimate:
    min((2 ln(2/delta_hat)/m)^(1/4), sqrt(2 ln(2/delta_hat)/m)/max(estimate, floor)).

    The second branch would use the true distance; the estimate stands in
    for it (floored), and the first branch dominates whenever the distance
    is small, where no truth is needed.
    """
    m = require_int(m, "m")
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    if not 0 < delta_hat < 1:
        raise ValueError(f"delta_hat must lie in (0, 1), got {delta_hat}")
    base = 2.0 * math.log(2.0 / delta_hat) / m
    return min(base**0.25, math.sqrt(base) / max(estimate, ESTIMATE_FLOOR))


def decide_similarity(
    u1: Operation,
    u2: Operation,
    epsilon: float,
    delta: float,
    delta_hat: float,
    m: int,
    shots_per_test: int = 0,
    seed: int = 0,
) -> SimilarityVerdict:
    """Decide (epsilon, delta)-similarity from m sampled angles.

    Declares the pair similar when the distance estimate plus its
    confidence slack stays below the unitary similarity bound; a positive
    verdict is then correct with probability at least 1 - delta_hat.
    """
    check_eps_delta(epsilon, delta)
    if epsilon > 2:
        raise ValueError(f"epsilon above 2 is vacuous for unit vectors, got {epsilon}")
    if not 0 < delta_hat < 1:
        raise ValueError(f"delta_hat must lie in (0, 1), got {delta_hat}")
    estimate = estimate_difference_norm(u1, u2, m, shots_per_test, seed)
    slack = similarity_slack(m, delta_hat, estimate)
    threshold = similarity_bound_unitary(epsilon, delta)
    return SimilarityVerdict(
        similar=bool(estimate + slack <= threshold),
        epsilon=epsilon,
        delta=delta,
        delta_hat=delta_hat,
        estimate=estimate,
        slack_term=slack,
        threshold=threshold,
    )


def check_distance(distance: float) -> None:
    """Reject a pair distance that no rotated copy can reach."""
    if not 0 < distance < math.sqrt(2.0):
        raise ValueError(f"distance must lie in (0, sqrt(2)), got {distance}")


def rotation_perturbed_pair(n: int, distance: float, seed: int) -> tuple[DenseUnitary, DenseUnitary]:
    """A Haar unitary and a rotated copy at an exact Schatten-2 distance.

    The copy is R U with R a layer of equal-angle y-rotations; by unitary
    invariance ||U - R U|| = ||I - R|| = sqrt(2 - 2 cos(a/2)^n), which is
    inverted for the rotation angle a. Valid for 0 < distance < sqrt(2) and
    1 <= n <= MATRIX_QUBIT_CAP.
    """
    require_qubits(n, MATRIX_QUBIT_CAP)
    check_distance(distance)
    angle = 2.0 * math.acos((1.0 - distance**2 / 2.0) ** (1.0 / n))
    u1 = haar_random_unitary(n, seed)
    layer = Circuit(n, tuple(GateOp("ry", (q,), (angle,)) for q in range(n)))
    u2 = circuit_matrix(layer) @ u1
    return DenseUnitary(n, u1), DenseUnitary(n, u2)
