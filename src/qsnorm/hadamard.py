"""Simulated one-clean-qubit interference tests, run in batches.

A Hadamard test prepares |psi> on the data register, applies a chain of
operations controlled on a clean ancilla that is put into superposition,
and measures the ancilla: 1 - 2 Pr(1) equals Re<psi|V|psi>, or
Im<psi|V|psi> when an S-dagger is inserted after the first Hadamard.

The estimators run every test of a mixture for a batch of angles at once.
:func:`mixed_quadratic_form` applies each term as given to a chunk of probe
rows; :func:`quadratic_form_values`, the one reduction, gives each
unordered pair of terms one real- and one imaginary-part test from the
overlaps :func:`qsim.row_overlaps` takes. The analytic mode reads the exact
probability off those overlaps; shot mode draws Bernoulli outcomes at it to
reintroduce measurement noise. The learning objective feeds the same
reduction a block of points' images at once, which it partly keeps
across calls. The tests check the
kernel against a simulation of the literal (n+1)-qubit circuit.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

import numpy as np

from .qsim import (
    MixedOperation,
    STATE_QUBIT_CAP,
    batch_applier,
    chunk_rows,
    require_int,
    require_qubits,
    row_chunks,
    row_overlaps,
)
from .sampler import check_eps_delta, check_thetas, derived_rngs, probe_rows


def hadamard_shot_budget(epsilon: float, delta: float) -> int:
    """Shots so one test is within epsilon with probability 1 - delta:
    ceil(2 ln(2/delta) / epsilon^2)."""
    check_eps_delta(epsilon, delta)
    return math.ceil(2.0 * math.log(2.0 / delta) / epsilon**2)


def measurement_budget_mixed(epsilon: float, delta: float, num_terms: int) -> int:
    """Total shots for the K-term quadratic form: ceil(32 K^4 ln(4 K^2/delta)/eps^2).

    Split evenly over the up-to K(K-1) cross tests, Hoeffding holds each
    test to eps sqrt(K(K-1))/(4 K^2) < eps/(4K) at confidence
    1 - delta/(2 K^2), and all of them at once with probability above
    1 - delta/2. Their scales 2|Re w| and 2|Im w| add up to at most
    2 sqrt(2) at coefficient weight sqrt(2), so the sum is within eps.
    """
    check_eps_delta(epsilon, delta)
    k = require_int(num_terms, "num_terms")
    if k < 1:
        raise ValueError(f"need at least one term, got {k}")
    return math.ceil(32.0 * k**4 * math.log(4.0 * k**2 / delta) / epsilon**2)


def require_shots(shots_per_test) -> int:
    """``shots_per_test`` as a nonnegative int; 0 selects the analytic mode."""
    shots_per_test = require_int(shots_per_test, "shots_per_test")
    if shots_per_test < 0:
        raise ValueError(f"shots must be nonnegative, got {shots_per_test}")
    return shots_per_test


def mixed_quadratic_form(
    mixed: MixedOperation,
    thetas: np.ndarray,
    shots_per_test: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """||W x(theta_i)||^2 per angle, for W = sum_k a_k U_k applied as given.

    Each chunk of probe rows gets every U_k in one batched apply, and
    :func:`quadratic_form_values` reduces the images; it documents the
    analytic and the shot mode. The arrays of :func:`qsim.batch_applier`
    are made once per call: each chunk's probe rows are built in its input
    batch, and the reduction is done with a chunk's images before the next
    chunk is built.
    """
    n = require_qubits(mixed.n, STATE_QUBIT_CAP, "statevector qubit count")
    shots_per_test = require_shots(shots_per_test)
    thetas = check_thetas(thetas)
    probes, apply = batch_applier([op for _, op in mixed.terms], min(chunk_rows(n), thetas.size), n)
    images = (
        (chunk, apply(len(probe_rows(thetas[chunk], n, 1 << n, probes[:chunk.stop - chunk.start]))))
        for chunk in row_chunks(thetas.size, n)
    )
    plan = ReductionPlan([coeff for coeff, _ in mixed.terms])
    return quadratic_form_values(plan, images, thetas.size, shots_per_test, seed)


class ReductionPlan:
    """What :func:`quadratic_form_values` derives from the coefficients a_k
    alone, once per coefficient list: the squares |a_k|^2 and their sum
    S = fsum(squares), the unordered pairs a < b with their weights
    conj(a_a) a_b, and whether each value is the one add S + cross."""

    def __init__(self, coeffs: list[complex]):
        self.squares = [abs(c) ** 2 for c in coeffs]
        self.pairs = list(combinations(range(len(coeffs)), 2))
        self.weights = [coeffs[a].conjugate() * coeffs[b] for a, b in self.pairs]
        self.total = math.fsum(self.squares)
        self.one_add = len(self.pairs) <= 1 and math.fsum([self.total, *(-s for s in self.squares)]) == 0.0


def quadratic_form_values(
    plan: ReductionPlan,
    images: Iterable[tuple[slice, list[np.ndarray]]],
    m: int,
    shots_per_test: int,
    seed: int,
) -> np.ndarray:
    """The values ||sum_k a_k U_k x_i||^2, for the coefficients ``plan``
    was made from, from ``(chunk, [U_k x for x in the chunk's probe rows])``
    pairs that cover range(m) in order.

    An image is a (rows, 2^n) batch or a (B, rows, 2^n) block that holds
    the batches of B points; a chunk's images broadcast against each other
    over that point axis (one V x beside a block of U x), and the result
    is (m,) or (B, m). The value expands into sum_k |a_k|^2 plus, per
    unordered pair a < b, the cross term 2 Re(conj(a_a) a_b <U_a x|U_b x>),
    with the overlaps of all of a chunk's rows, of every point, taken in one
    :func:`qsim.row_overlaps` call per pair.

    Analytic when ``shots_per_test`` is 0: a value is the correctly rounded
    sum fsum(squares + crosses). With at most one cross term and an exact
    S = fsum(squares) (fsum of S and the negated squares is 0), that equals
    the one IEEE sum S + cross, computed as a vector add over the chunk:
    both round the same exact number, sum(squares) + cross = S + cross, to
    nearest. The difference mixture's squares, 0.4999999999999999 twice,
    sum exactly; any other mixture gets one fsum per row. A swapped pair's
    overlap is the exact conjugate, so the result is permutation invariant
    bit for bit. Otherwise each pair runs the real- and imaginary-part
    Hadamard tests with chain (U_b, U_a^dagger), drawing ``shots_per_test``
    outcomes each from ``derived_rng(seed, i, 1)`` (through
    :func:`sampler.derived_rngs`, one stream per point).
    """
    squares, pairs, weights, total = plan.squares, plan.pairs, plan.weights, plan.total
    values = None
    for chunk, chunk_images in images:
        if values is None:
            values = np.empty(np.broadcast_shapes(*(image.shape[:-2] for image in chunk_images)) + (m,))
            flat = values.reshape(-1, m)
            if shots_per_test:
                rngs = [derived_rngs(seed, m, 1) for _ in flat]
        rows = values[..., chunk]
        # Each pair's overlaps keep the shape its two images broadcast to:
        # the one add broadcasts them into rows, the other paths to its shape.
        overlaps = [row_overlaps(chunk_images[a], chunk_images[b]) for a, b in pairs]
        if shots_per_test == 0:
            crosses = [2.0 * (weight * overlap).real for weight, overlap in zip(weights, overlaps)]
            if plan.one_add:
                rows[...] = total + crosses[0] if crosses else total
                continue
            crosses = [np.broadcast_to(cross, rows.shape) for cross in crosses]
            terms = np.stack([np.full(rows.shape, sq) for sq in squares] + crosses, axis=-1)
            rows[...] = np.reshape([math.fsum(row) for row in terms.reshape(-1, terms.shape[-1]).tolist()], rows.shape)
            continue
        # (scale, Pr(ancilla = 1) per point and row) for each test, in drawing order.
        tests = []
        for weight, overlap in zip(weights, overlaps):
            overlap = np.broadcast_to(overlap, rows.shape).reshape(flat.shape[0], -1)
            if weight.real != 0.0:
                tests.append((2.0 * weight.real, np.clip((1.0 - overlap.real) / 2.0, 0.0, 1.0)))
            if weight.imag != 0.0:
                tests.append((-2.0 * weight.imag, np.clip((1.0 - overlap.imag) / 2.0, 0.0, 1.0)))
        for point, (point_values, point_rngs) in enumerate(zip(flat, rngs)):
            for i, rng in zip(range(chunk.start, chunk.stop), point_rngs):
                terms = list(squares)
                for scale, p1 in tests:
                    p1_hat = int(rng.binomial(shots_per_test, p1[point, i - chunk.start])) / shots_per_test
                    terms.append(scale * (1.0 - 2.0 * p1_hat))
                point_values[i] = math.fsum(terms)
    return values
