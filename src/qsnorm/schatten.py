"""Schatten-2 norm estimation through the quantum sampling pipeline.

The sampling circuit S(theta) is a single layer of y-rotations at
geometrically laddered angles; S(theta)|0...0> has exactly the amplitudes
of the classical probe vector, so averaging the one-clean-qubit quadratic
form <x(theta)|U~ U~^dag|x(theta)> over uniform angles estimates the
squared normalized Schatten 2-norm of the mixture U~.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hadamard import mixed_quadratic_form
from .qsim import Circuit, GateOp, MixedOperation, Operation, adjoint, same_register
from .sampler import frequency_ladder, sample_thetas


@dataclass(frozen=True)
class SchattenEstimate:
    """Estimate report: value = sqrt(clamped mean of the per-angle values)."""

    value: float
    per_sample_values: np.ndarray
    clamped: bool

    @classmethod
    def from_values(cls, values: np.ndarray) -> "SchattenEstimate":
        """sqrt of the fsum mean of the per-angle ``values``, clamped at 0."""
        mean = math.fsum(values) / values.size
        return cls(value=math.sqrt(max(0.0, mean)), per_sample_values=values, clamped=mean < 0.0)


def sampling_circuit(n: int, theta: float) -> Circuit:
    """S(theta): Ry(2 w_i theta) on qubit i-1 with w_i = 2^i.

    The rotation angles are 4 theta, 8 theta, ..., 2^(n+1) theta, so the
    prepared amplitudes carry the ladder frequencies 2, 4, ..., 2^n that
    make the probe second moments unbiased.
    """
    ladder = frequency_ladder(n)
    ops = tuple(GateOp("ry", (i,), (2.0 * float(ladder[i]) * theta,)) for i in range(n))
    return Circuit(n, ops)


def schatten2_estimate_from_thetas(
    mixed: MixedOperation,
    thetas: np.ndarray,
    shots_per_test: int = 0,
    seed: int = 0,
) -> SchattenEstimate:
    """Estimate from explicit angles: <x|U~ U~^dag|x> = ||U~^dag x||^2, the kernel on adjoint(mixed)."""
    return SchattenEstimate.from_values(mixed_quadratic_form(adjoint(mixed), thetas, shots_per_test, seed))


def quantum_schatten2_estimate(
    mixed: MixedOperation,
    m: int,
    shots_per_test: int = 0,
    seed: int = 0,
) -> SchattenEstimate:
    """Draw m angles uniform on [-pi, pi] and average the quadratic form;
    deterministic given the seed."""
    thetas = sample_thetas(seed, m)
    return schatten2_estimate_from_thetas(mixed, thetas, shots_per_test, seed)


def difference_mixture(u1: Operation, u2: Operation) -> MixedOperation:
    """The mixture (U1 - U2)/sqrt(2): its squared norm is ||U1 - U2||^2 / 2.

    The coefficient budget of a mixture forbids weights (1, -1) directly,
    which is why the difference is scaled down by sqrt(2).
    """
    same_register(u1, u2)
    half = 1.0 / math.sqrt(2.0)
    return MixedOperation(((half, u1), (-half, u2)))


def estimate_difference_norm(
    u1: Operation,
    u2: Operation,
    m: int,
    shots_per_test: int = 0,
    seed: int = 0,
) -> float:
    """Estimate ||U1 - U2|| (normalized Schatten 2) in [0, 2]: the pipeline
    runs on :func:`difference_mixture` and its value is rescaled by sqrt(2).
    """
    base = quantum_schatten2_estimate(difference_mixture(u1, u2), m, shots_per_test, seed)
    return math.sqrt(2.0) * base.value
