"""Classical randomized estimators for normalized traces and Schatten 2-norms.

The estimators probe a matrix with a random real vector x(theta) built from
a single uniform angle theta in [-pi, pi]. Entry i of x(theta) (bits of i
read most-significant-first) is

    sqrt(2^n / N) * prod_j  cos(w_j theta)  if bit j of i is 0
                            sin(w_j theta)  if bit j of i is 1

with the frequency ladder w_j = 2^j. Every signed subset sum of the ladder
is a nonzero integer, which makes the second moments of x exactly
E[x_j x_k] = delta_jk / N, so E <x|A|x> = Tr(A)/N. Because the integrands
are trig polynomials of frequency below 2^(n+2), averaging over
2^(n+2) + 1 equally spaced angles reproduces the expectations exactly;
that grid is the quadrature oracle used by the tests.

Sample budgets spell out the Hoeffding constants hidden behind the
asymptotic bounds so they are reproducible exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def frequency_ladder(n: int) -> np.ndarray:
    """Frequencies 2, 4, ..., 2^n; entry j-1 drives qubit j-1 / bit j."""
    if n < 1:
        raise ValueError(f"need at least one frequency, got n={n}")
    return 2 ** np.arange(1, n + 1, dtype=np.int64)


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator keyed by (seed, path); same key yields a bit-identical stream.

    This is the splittable-randomness contract: work item i of a run seeded
    with s always draws from ``derived_rng(s, i, ...)``, so results do not
    depend on evaluation order or thread count.
    """
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def derive_seed(seed: int, *path: int) -> int:
    """A child integer seed keyed by (seed, path), for nested pipelines."""
    ss = np.random.SeedSequence([int(seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_thetas(seed: int, m: int) -> np.ndarray:
    """m angles uniform on [-pi, pi], theta_i keyed by (seed, i)."""
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    return np.array([derived_rng(seed, i).uniform(-math.pi, math.pi) for i in range(m)])


def exactness_grid(n: int) -> np.ndarray:
    """2^(n+2)+1 equally spaced angles on [-pi, pi).

    Equally spaced averaging integrates e^(i k theta) exactly unless k is a
    nonzero multiple of the grid size; the probe-vector second moments only
    involve |k| <= 2^(n+2) - 4, so grid averages equal expectations.
    """
    size = (1 << (n + 2)) + 1
    return np.linspace(-math.pi, math.pi, size, endpoint=False)


def probe_rows(thetas: np.ndarray, n: int, size: int) -> np.ndarray:
    """Probe vectors x(theta), one row per angle; requires 2^(n-1) < size <= 2^n.

    Index 0 is the all-cosine entry; for size < 2^n the trailing entries of
    the full 2^n tensor product are dropped. The norm is 1 exactly when
    size = 2^n and 1 in expectation otherwise.
    """
    full = 1 << n
    if not (full // 2) < size <= full:
        raise ValueError(f"size {size} not in (2^{n - 1}, 2^{n}]")
    angles = np.asarray(thetas, dtype=float).reshape(-1, 1) * frequency_ladder(n)
    factors = np.stack((np.cos(angles), np.sin(angles)), axis=-1)
    rows = np.ones((angles.shape[0], 1))
    for j in range(n):
        rows = (rows[:, :, None] * factors[:, None, j, :]).reshape(angles.shape[0], -1)
    return math.sqrt(full / size) * rows[:, :size]


def probe_vector(theta: float, n: int, size: int) -> np.ndarray:
    """The length-``size`` probe vector x(theta): one row of :func:`probe_rows`."""
    return probe_rows([theta], n, size)[0]


def classical_trace_estimate(a: np.ndarray, thetas: np.ndarray) -> complex:
    """Mean of <x(theta_i)|A|x(theta_i)>; unbiased for Tr(A)/N.

    ``a`` must be square; unbiasedness additionally needs it unitarily
    diagonalizable, which is the caller's responsibility.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"trace estimation needs a square matrix, got shape {a.shape}")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("empty sample list")
    size = a.shape[0]
    n = max(1, math.ceil(math.log2(size)))
    rows = probe_rows(thetas, n, size)
    values = np.einsum("si,ij,sj->s", rows, a, rows)
    return complex(values.mean())


def classical_schatten2_estimate(a: np.ndarray, thetas: np.ndarray) -> float:
    """sqrt of the trace estimate of A A^dagger / N; radicand clamped at 0."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    thetas = np.asarray(thetas, dtype=float)
    if thetas.size == 0:
        raise ValueError("empty sample list")
    size = a.shape[0]
    n = max(1, math.ceil(math.log2(size)))
    rows = probe_rows(thetas, n, size)
    # <x|A A^dag|x> = ||A^dag x||^2, computed directly so it is real >= 0
    values = np.abs(rows @ a.conj()) ** 2
    radicand = max(0.0, float(values.sum(axis=1).mean()))
    return math.sqrt(radicand)


@dataclass(frozen=True)
class SampleBudget:
    """Number of probe angles promised to reach precision epsilon with
    failure probability delta."""

    m: int
    epsilon: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sample count must be positive, got {self.m}")


def check_eps_delta(epsilon: float, delta: float) -> None:
    """Reject a precision that is not positive and finite, or a confidence
    outside (0, 1); NaN fails both."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def sample_budget_trace(epsilon: float, delta: float) -> SampleBudget:
    """Angles needed for the normalized-trace estimate: ceil(ln(2/delta)/(4 eps^2)).

    Real and imaginary parts are each held to epsilon/sqrt(2), which is
    where the 1/4 constant comes from.
    """
    check_eps_delta(epsilon, delta)
    m = math.ceil(math.log(2.0 / delta) / (4.0 * epsilon**2))
    return SampleBudget(m=m, epsilon=epsilon, delta=delta)


def sample_budget_schatten2(epsilon: float, delta: float, norm_hint: float = 0.0) -> SampleBudget:
    """Angles for the Schatten-2 estimate:
    ceil(ln(2/delta)/(2 eps^2) * min(eps^-2, norm_hint^-2)).

    ``norm_hint`` is a prior guess of the norm being estimated; 0 means
    unknown, in which case the eps^-2 branch is used.
    """
    check_eps_delta(epsilon, delta)
    if norm_hint < 0:
        raise ValueError(f"norm_hint must be nonnegative, got {norm_hint}")
    if norm_hint == 0.0:
        factor = epsilon**-2
    else:
        factor = min(epsilon**-2, norm_hint**-2)
    m = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2) * factor)
    return SampleBudget(m=m, epsilon=epsilon, delta=delta)


def sqrt_error_propagation_holds(m_hat: float, s: float, epsilon: float) -> bool:
    """Whether |m_hat - s^2| <= eps * max(eps, s).

    Whenever this holds (with m_hat >= 0), taking the square root keeps the
    error bounded: |sqrt(m_hat) - s| <= eps. The implication is exercised
    as a property test.
    """
    return abs(m_hat - s * s) <= epsilon * max(epsilon, s)
