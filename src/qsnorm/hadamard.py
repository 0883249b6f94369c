"""Simulated one-clean-qubit interference tests, run in batches.

A Hadamard test prepares |psi> on the data register, applies a chain of
operations controlled on a clean ancilla that is put into superposition,
and measures the ancilla: 1 - 2 Pr(1) equals Re<psi|V|psi>, or
Im<psi|V|psi> when an S-dagger is inserted after the first Hadamard.

The estimators run every test of a mixture for a batch of angles at once,
in :func:`mixed_quadratic_form`: one real- and one imaginary-part test per
unordered pair of terms, with the row-wise overlaps of a whole chunk of
probe rows taken by :func:`qsim.row_overlaps`. The analytic mode reads the
exact probability off those overlaps; shot mode draws Bernoulli outcomes at
it to reintroduce measurement noise deliberately. The tests check the
kernel against a simulation of the literal (n+1)-qubit circuit.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .qsim import (
    MixedOperation,
    STATE_QUBIT_CAP,
    adjoint,
    apply_operation_amplitudes,
    require_qubits,
    row_chunks,
    row_overlaps,
)
from .sampler import check_eps_delta, derived_rngs, probe_rows


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
    n = require_qubits(mixed.n, STATE_QUBIT_CAP, "statevector qubit count")
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
