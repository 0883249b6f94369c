"""Shared randomized constructors, the interference-test oracle, the
quadrature grid and the square-root error oracle for the test suite."""

import math
import resource

import numpy as np

from qsnorm import Circuit, GateOp, MixedOperation, StateVector
from qsnorm.qsim import apply_operation_amplitudes

FIXED_KINDS = ["h", "x", "y", "z", "s", "sdg", "t", "tdg"]
PARAM_KINDS = ["rx", "ry", "rz", "phase"]

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# The scalar gate formulas as qsim.GATES held them before its formulas took
# angle arrays: one matrix per call, built from Python numbers. The array
# formulas must keep their bits at every angle.
REFERENCE_MATRICES = {
    "x": lambda: np.array([[0, 1], [1, 0]], dtype=complex),
    "y": lambda: np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": lambda: np.array([[1, 0], [0, -1]], dtype=complex),
    "h": lambda: np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex),
    "s": lambda: np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": lambda: np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": lambda: np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": lambda: np.array([[1, 0], [0, np.exp(-1j * math.pi / 4)]], dtype=complex),
    "phase": lambda a: np.array([[1, 0], [0, np.exp(1j * a)]], dtype=complex),
    "rx": lambda a: np.array(
        [[math.cos(a / 2), -1j * math.sin(a / 2)], [-1j * math.sin(a / 2), math.cos(a / 2)]], dtype=complex
    ),
    "ry": lambda a: np.array([[math.cos(a / 2), -math.sin(a / 2)], [math.sin(a / 2), math.cos(a / 2)]], dtype=complex),
    "rz": lambda a: np.array([[np.exp(-1j * (a / 2)), 0], [0, np.exp(1j * (a / 2))]], dtype=complex),
    "cnot": lambda: np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    "globalphase": lambda a: np.array([[np.exp(1j * a)]], dtype=complex),
}


def formula_angles() -> np.ndarray:
    """120,012 angles for the formula bit tests: 60,000 uniform on
    [-pi, pi), 60,000 uniform on [-1e6, 1e6) and the edge values +-0.0,
    +-pi, +-pi/2, +-1e-300, +-5e-324 (the smallest subnormal) and +-1e15."""
    rng = np.random.default_rng(2024)
    edges = [0.0, math.pi, math.pi / 2, 1e-300, 5e-324, 1e15]
    return np.concatenate([
        rng.uniform(-math.pi, math.pi, 60_000),
        rng.uniform(-1e6, 1e6, 60_000),
        [sign * edge for edge in edges for sign in (1.0, -1.0)],
    ])


def exactness_grid(n: int) -> np.ndarray:
    """2^(n+2)+1 equally spaced angles on [-pi, pi).

    Equally spaced averaging integrates e^(i k theta) exactly unless k is a
    nonzero multiple of the grid size; the probe-vector second moments only
    involve |k| <= 2^(n+2) - 4, so grid averages equal expectations.
    """
    size = (1 << (n + 2)) + 1
    return np.linspace(-math.pi, math.pi, size, endpoint=False)


def sqrt_error_propagation_holds(m_hat: float, s: float, epsilon: float) -> bool:
    """Whether |m_hat - s^2| <= eps * max(eps, s).

    Whenever this holds (with m_hat >= 0), taking the square root keeps the
    error bounded: |sqrt(m_hat) - s| <= eps. The implication is exercised
    as a property test.
    """
    return abs(m_hat - s * s) <= epsilon * max(epsilon, s)


def haar_state(n: int, rng: np.random.Generator) -> StateVector:
    """A Haar-random state by the literal formula a / ||a||, with a the
    vector of complex standard Gaussians drawn from ``rng``: the reference
    the package's batched draw must match bit for bit."""
    dim = 1 << n
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n, a / np.linalg.norm(a))


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


def limit_address_space(headroom: int = 1 << 30) -> tuple:
    """Lower this process's soft address-space limit to its present size
    (read from /proc/self/statm) plus ``headroom`` bytes, and return the
    limit it replaced. A request that allocates a count-sized array then
    raises MemoryError at once instead of filling the host's memory."""
    with open("/proc/self/statm") as statm:
        size = int(statm.read().split()[0]) * resource.getpagesize()
    limit = resource.getrlimit(resource.RLIMIT_AS)
    hard = limit[1]
    soft = size + headroom if hard == resource.RLIM_INFINITY else min(size + headroom, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    return limit
