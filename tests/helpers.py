"""Shared randomized constructors and the interference-test oracle for the
test suite."""

import math

import numpy as np

from qsnorm import Circuit, GateOp, MixedOperation
from qsnorm.qsim import apply_operation_amplitudes

FIXED_KINDS = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
PARAM_KINDS = ["rx", "ry", "rz", "phase"]


def random_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    ops = []
    for _ in range(depth):
        roll = rng.random()
        if roll < 0.4:
            ops.append(GateOp(str(rng.choice(FIXED_KINDS)), (int(rng.integers(n)),)))
        elif roll < 0.8:
            kind = str(rng.choice(PARAM_KINDS))
            ops.append(GateOp(kind, (int(rng.integers(n)),), (float(rng.uniform(-np.pi, np.pi)),)))
        elif roll < 0.9 and n >= 2:
            control, target = rng.choice(n, size=2, replace=False)
            ops.append(GateOp("cnot", (int(control), int(target))))
        else:
            ops.append(GateOp("globalphase", (), (float(rng.uniform(-np.pi, np.pi)),)))
    return Circuit(n, tuple(ops))


def random_mixture(n: int, num_terms: int, rng: np.random.Generator, depth: int = 6) -> MixedOperation:
    """Random mixture with complex coefficients of total weight below 1."""
    coeffs = rng.standard_normal(num_terms) + 1j * rng.standard_normal(num_terms)
    coeffs /= np.sum(np.abs(coeffs)) * float(rng.uniform(1.0, 2.0))
    return MixedOperation(tuple((complex(c), random_circuit(n, depth, rng)) for c in coeffs))


def binomial_upper_quantile(trials: int, p: float, alpha: float) -> int:
    """Smallest k with Pr(Binomial(trials, p) > k) <= alpha."""
    k, cdf = 0, (1.0 - p) ** trials
    while 1.0 - cdf > alpha:
        k += 1
        cdf += math.comb(trials, k) * p**k * (1.0 - p) ** (trials - k)
    return k


def circuit_probability(prep, chain, part: str) -> float:
    """Pr(ancilla = 1) of the Hadamard test with state prep ``prep`` and
    controlled ``chain`` (first listed applied first), from simulating the
    literal (n+1)-qubit circuit; ``part`` is "real" or "imaginary".

    The ancilla is qubit 0 of the enlarged register; the joint state is
    kept as two data-register rows indexed by the ancilla bit, and a
    controlled operation acts on the ancilla-1 row only.
    """
    rows = np.zeros((2, 1 << prep.n), dtype=complex)
    rows[0, 0] = 1.0
    rows = apply_operation_amplitudes(rows, prep)
    # H on the ancilla
    rows = np.stack((rows[0] + rows[1], rows[0] - rows[1])) / math.sqrt(2)
    if part == "imaginary":
        rows[1] *= -1j
    for op in chain:
        rows[1] = apply_operation_amplitudes(rows[1], op)
    rows = np.stack((rows[0] + rows[1], rows[0] - rows[1])) / math.sqrt(2)
    return float(np.linalg.norm(rows[1]) ** 2)
