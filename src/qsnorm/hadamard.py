"""Simulated one-clean-qubit interference tests.

A Hadamard test prepares |psi> on the data register, applies a chain of
operations controlled on a clean ancilla that is put into superposition,
and measures the ancilla: 1 - 2 Pr(1) equals Re<psi|V|psi>, or
Im<psi|V|psi> when an S-dagger is inserted after the first Hadamard.

Two evaluation paths are provided. The analytic path computes the exact
probability straight from statevectors; the full-circuit path simulates
the literal (n+1)-qubit circuit and takes the marginal of the ancilla.
They agree to rounding and cross-check each other in the tests. Shot mode
draws Bernoulli outcomes at the exact probability to reintroduce
measurement noise deliberately. The estimators run every test of a mixture
for a batch of angles at once, in :func:`mixed_quadratic_form`: one real-
and one imaginary-part test per unordered pair of terms, with the row-wise
overlaps of a whole chunk of probe rows taken by :func:`qsim.row_overlaps`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Literal

import numpy as np

from .qsim import (
    MixedOperation,
    Operation,
    STATE_QUBIT_CAP,
    adjoint,
    apply_operation_amplitudes,
    row_chunks,
    row_overlaps,
    zero_state,
)
from .sampler import check_eps_delta, derived_rngs, probe_rows

Part = Literal["real", "imaginary"]


@dataclass(frozen=True)
class HadamardTestSpec:
    """One interference test: state prep, controlled chain, which part, shots.

    ``shots == 0`` selects analytic (error-free measurement) mode.
    """

    state_prep: Operation
    controlled_ops: tuple
    part: Part = "real"
    shots: int = 0

    def __post_init__(self):
        object.__setattr__(self, "controlled_ops", tuple(self.controlled_ops))
        if self.part not in ("real", "imaginary"):
            raise ValueError(f"part must be 'real' or 'imaginary', got {self.part!r}")
        if self.shots < 0:
            raise ValueError(f"shots must be nonnegative, got {self.shots}")
        n = self.state_prep.n
        if any(op.n != n for op in self.controlled_ops):
            raise ValueError("all circuits of a test must share one qubit count")

    @property
    def n(self) -> int:
        return self.state_prep.n


@dataclass(frozen=True)
class ShotResult:
    """Outcome of a sampled test; estimate is always 1 - 2 p1_hat."""

    estimate: float
    shots_used: int
    p1_hat: float


def _overlap(spec: HadamardTestSpec) -> complex:
    psi = apply_operation_amplitudes(zero_state(spec.n).amplitudes, spec.state_prep)
    phi = psi
    for op in spec.controlled_ops:
        phi = apply_operation_amplitudes(phi, op)
    return complex(np.vdot(psi, phi))


def hadamard_probability(spec: HadamardTestSpec) -> float:
    """Exact Pr(ancilla = 1): (1 - Re<psi|V|psi>)/2, or Im for the
    imaginary-part test. Ignores ``spec.shots``."""
    z = _overlap(spec)
    value = z.real if spec.part == "real" else z.imag
    return min(1.0, max(0.0, (1.0 - value) / 2.0))


def hadamard_full_circuit_probability(spec: HadamardTestSpec) -> float:
    """Pr(ancilla = 1) from simulating the literal (n+1)-qubit circuit.

    The ancilla is qubit 0 of the enlarged register; the joint state is
    kept as two data-register rows indexed by the ancilla bit, and a
    controlled operation acts on the ancilla-1 row only.
    """
    n = spec.n
    if n + 1 > STATE_QUBIT_CAP:
        raise ValueError(f"full-circuit path needs n+1 <= {STATE_QUBIT_CAP}, got n={n}")
    dim = 1 << n
    rows = np.zeros((2, dim), dtype=complex)
    rows[0, 0] = 1.0
    rows[0] = apply_operation_amplitudes(rows[0], spec.state_prep)
    rows[1] = apply_operation_amplitudes(rows[1], spec.state_prep)
    # H on the ancilla
    rows = np.stack((rows[0] + rows[1], rows[0] - rows[1])) / math.sqrt(2)
    if spec.part == "imaginary":
        rows[1] *= -1j
    for op in spec.controlled_ops:
        rows[1] = apply_operation_amplitudes(rows[1], op)
    rows = np.stack((rows[0] + rows[1], rows[0] - rows[1])) / math.sqrt(2)
    return float(np.linalg.norm(rows[1]) ** 2)


def hadamard_shot_estimate(spec: HadamardTestSpec, rng: np.random.Generator) -> ShotResult:
    """Estimate 1 - 2 Pr(1) from ``spec.shots`` Bernoulli outcomes."""
    if spec.shots < 1:
        raise ValueError("shot estimation needs shots >= 1; use the analytic path for shots == 0")
    p1 = hadamard_probability(spec)
    ones = int(rng.binomial(spec.shots, p1))
    p1_hat = ones / spec.shots
    return ShotResult(estimate=1.0 - 2.0 * p1_hat, shots_used=spec.shots, p1_hat=p1_hat)


def hadamard_shot_budget(epsilon: float, delta: float) -> int:
    """Shots so one test is within epsilon with probability 1 - delta:
    ceil(2 ln(2/delta) / epsilon^2)."""
    check_eps_delta(epsilon, delta)
    return math.ceil(2.0 * math.log(2.0 / delta) / epsilon**2)


def measurement_budget_mixed(epsilon: float, delta: float, num_terms: int) -> int:
    """Total shots for the K-term quadratic form: ceil(32 K^4 ln(4 K^2/delta)/eps^2).

    Split evenly over the up-to K(K-1) cross tests, this holds each test to
    precision eps/(4 K^2) at confidence 1 - delta/(2 K^2), which is enough
    for the weighted sum because the coefficient weights are at most 2.
    """
    check_eps_delta(epsilon, delta)
    if num_terms < 1:
        raise ValueError(f"need at least one term, got {num_terms}")
    k = num_terms
    return math.ceil(32.0 * k**4 * math.log(4.0 * k**2 / delta) / epsilon**2)


def mixed_quadratic_form(
    mixed: MixedOperation,
    thetas: np.ndarray,
    shots_per_test: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """<x(theta_i)| U~ U~^dagger |x(theta_i)> per angle, for U~ = sum_k a_k U_k.

    Expands into sum_k |a_k|^2 plus, per unordered pair a < b, the cross
    term 2 Re(a_a conj(a_b) <U_a^dag x|U_b^dag x>); each chunk of probe rows
    gets every U_k^dag in one batched apply, then :func:`qsim.row_overlaps`.
    Analytic when ``shots_per_test`` is 0, with one fsum per angle; a
    swapped pair's overlap is the exact conjugate, so the result is
    permutation invariant bit for bit. Otherwise each pair runs the real-
    and imaginary-part Hadamard tests with chain (U_b^dagger, U_a), drawing
    ``shots_per_test`` outcomes each from ``derived_rng(seed, i, 1)``
    (through :func:`sampler.derived_rngs`).
    """
    n = mixed.n
    if n > STATE_QUBIT_CAP:
        raise ValueError(f"statevector qubit count {n} outside [1, {STATE_QUBIT_CAP}]")
    if shots_per_test < 0:
        raise ValueError(f"shots must be nonnegative, got {shots_per_test}")
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.size == 0:
        raise ValueError("empty sample list")
    coeffs = [coeff for coeff, _ in mixed.terms]
    squares = [abs(c) ** 2 for c in coeffs]
    back_ops = [adjoint(op) for _, op in mixed.terms]
    pairs = list(combinations(range(mixed.num_terms), 2))
    values = np.empty(thetas.size)
    # Lazy: analytic mode never advances it, so it makes no Generator.
    rngs = derived_rngs(seed, thetas.size, 1)
    for chunk in row_chunks(thetas.size, n):
        x = probe_rows(thetas[chunk], n, 1 << n).astype(complex)
        back = [apply_operation_amplitudes(x, op) for op in back_ops]
        overlaps = [row_overlaps(back[a], back[b]) for a, b in pairs]
        if shots_per_test == 0:
            terms = [np.full(x.shape[0], sq) for sq in squares]
            terms += [2.0 * (coeffs[a] * coeffs[b].conjugate() * ov).real for (a, b), ov in zip(pairs, overlaps)]
            values[chunk] = [math.fsum(row) for row in np.array(terms).T.tolist()]
            continue
        # (scale, Pr(ancilla = 1) per row) for each test, in drawing order.
        tests = []
        for (k1, k2), overlap in zip(pairs, overlaps):
            weight = coeffs[k1] * coeffs[k2].conjugate()
            if weight.real != 0.0:
                tests.append((2.0 * weight.real, np.clip((1.0 - overlap.real) / 2.0, 0.0, 1.0)))
            if weight.imag != 0.0:
                tests.append((-2.0 * weight.imag, np.clip((1.0 - overlap.imag) / 2.0, 0.0, 1.0)))
        for i, rng in zip(range(chunk.start, chunk.stop), rngs):
            terms = list(squares)
            for scale, p1 in tests:
                p1_hat = int(rng.binomial(shots_per_test, p1[i - chunk.start])) / shots_per_test
                terms.append(scale * (1.0 - 2.0 * p1_hat))
            values[i] = math.fsum(terms)
    return values
