"""Schatten-2 norm estimation through the quantum sampling pipeline.

The sampling circuit S(theta) is a single layer of y-rotations at
geometrically laddered angles; S(theta)|0...0> has exactly the amplitudes
of the classical probe vector, so averaging the one-clean-qubit quadratic
form <x(theta)|U~ U~^dag|x(theta)> over uniform angles estimates the
squared normalized Schatten 2-norm of the mixture U~.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hadamard import mixed_quadratic_form
from .qsim import Circuit, GateOp, MixedOperation, Operation, same_register
from .sampler import SampleBudget, frequency_ladder, sample_thetas


@dataclass(frozen=True)
class SchattenEstimate:
    """Estimate report: value = sqrt(clamped mean of the per-angle values)."""

    value: float
    m: int
    shots_per_test: int
    per_sample_values: np.ndarray
    seed: int
    clamped: bool = False


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
    """Estimate from an explicit angle set (grid mode, prefix reuse, tests)."""
    values = mixed_quadratic_form(mixed, thetas, shots_per_test, seed)
    mean = math.fsum(values) / values.size
    return SchattenEstimate(
        value=math.sqrt(max(0.0, mean)),
        m=values.size,
        shots_per_test=shots_per_test,
        per_sample_values=values,
        seed=seed,
        clamped=mean < 0.0,
    )


def quantum_schatten2_estimate(
    mixed: MixedOperation,
    budget: SampleBudget,
    shots_per_test: int = 0,
    seed: int = 0,
) -> SchattenEstimate:
    """Draw budget.m angles uniform on [-pi, pi] and average the quadratic
    form; deterministic given the seed."""
    thetas = sample_thetas(seed, budget.m)
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
    budget: SampleBudget,
    shots_per_test: int = 0,
    seed: int = 0,
) -> SchattenEstimate:
    """Estimate ||U1 - U2|| (normalized Schatten 2) in [0, 2].

    The pipeline runs on :func:`difference_mixture` and the result is
    rescaled by sqrt(2); per-sample values are rescaled by 2 to match.
    """
    base = quantum_schatten2_estimate(difference_mixture(u1, u2), budget, shots_per_test, seed)
    return replace(base, value=math.sqrt(2.0) * base.value, per_sample_values=2.0 * base.per_sample_values)
