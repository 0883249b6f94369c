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

Randomness is keyed: item i of a run seeded with s draws from the numpy
generator ``derived_rng(s, i, ...)``, i.e. ``default_rng(SeedSequence([s,
i, ...]))``. Building one SeedSequence and one Generator per key costs tens
of microseconds, so the hot paths compute numpy's seeding arithmetic for a
block of keys at once, in uint32/uint64 arrays: :func:`sample_thetas` takes
each angle from the first PCG64 output, and :func:`derived_rngs` writes each
key's seeded PCG64 words straight into the C state of one reused Generator.
:func:`uniform_angles` steps the unkeyed stream of ``derived_rng(seed)`` for
a learn run's starting point. All three give the same bits as
``derived_rng``, which stays the scalar reference the tests compare against.

Sample budgets spell out the Hoeffding constants hidden behind the
asymptotic bounds so they are reproducible exactly.
"""

from __future__ import annotations

import ctypes
import math
from typing import Iterator

import numpy as np

from .qsim import require_int, require_qubits

# SeedSequence's hashing constants, from numpy/random/bit_generator.pyx.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier, as high and low 64-bit halves.
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_M32 = 0xFFFFFFFF
# Keys seeded in one vectorized pass; bounds the pass's scratch arrays.
KEY_BLOCK = 1024


class _PCG64State(ctypes.Structure):
    """numpy's ``pcg64_state`` (numpy/random/src/pcg64/pcg64.h), the struct
    at ``PCG64().ctypes.state_address``: a pointer to the 128-bit state and
    increment, four uint64 words that a little-endian host stores low half
    first, then the buffered half of a 64-bit output that ``random_raw``
    and the 32-bit draws leave behind."""

    _fields_ = [
        ("pcg_state", ctypes.POINTER(ctypes.c_uint64 * 4)),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


def frequency_ladder(n: int) -> np.ndarray:
    """Frequencies 2, 4, ..., 2^n; entry j-1 drives qubit j-1 / bit j."""
    return 2 ** np.arange(1, require_qubits(n) + 1, dtype=np.int64)


def derived_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator keyed by (seed, path); same key yields a bit-identical stream.

    This is the splittable-randomness contract: work item i of a run seeded
    with s always draws from ``derived_rng(s, i, ...)``, so results do not
    depend on evaluation order or thread count. It is the scalar reference
    for the vectorized derivation behind :func:`sample_thetas` and
    :func:`derived_rngs`, which the estimators use for many keys.
    """
    return np.random.default_rng(np.random.SeedSequence([require_int(v, "seed") for v in (seed, *path)]))


def _entropy_words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a nonnegative integer, least
    significant first."""
    value = require_int(value, "seed")
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over arrays: each call xors in, then multiplies
    by, the next constant of the sequence init * mult^k (mod 2^32)."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b, from 32-bit limbs."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = np.uint64(b & _M32), np.uint64(b >> 32)
    cross0, cross1 = a1 * b0, a0 * b1
    carry = ((a0 * b0) >> 32) + (cross0 & _M32) + (cross1 & _M32)
    return a1 * b1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32)


def _add128(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg64_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """PCG64's LCG step, state * MULT + inc (mod 2^128), in 64-bit halves."""
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + lo * np.uint64(_PCG_MULT_HI) + hi * np.uint64(_PCG_MULT_LO)
    return _add128(prod_hi, lo * np.uint64(_PCG_MULT_LO), inc_hi, inc_lo)


def _seeded_pcg64(seed: int, keys: range | None, suffix: tuple = ()) -> tuple[np.ndarray, ...]:
    """PCG64 (state_hi, state_lo, inc_hi, inc_lo) of ``derived_rng(seed, i,
    *suffix)`` for every i in ``keys``, as uint64 arrays; with ``keys``
    None, of the unkeyed ``derived_rng(seed)`` alone, in one lane.

    Follows numpy's SeedSequence (pool mixing, then ``generate_state(4,
    uint64)``) and PCG64's ``set_seed`` with every key in one array lane.
    """
    size = 1 if keys is None else len(keys)
    words = [np.full(size, w, np.uint32) for w in _entropy_words(seed)]
    if keys is not None:
        words.append(np.arange(keys.start, keys.stop, dtype=np.uint32))
    words += [np.full(size, w, np.uint32) for s in suffix for w in _entropy_words(s)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[k] if k < len(words) else np.zeros(size, np.uint32)) for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words cycling over the pool, paired little-endian.
    hashmix = _hasher(_INIT_B, _MULT_B)
    halves = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4))
    # set_seed: inc = 2 seq + 1; state = (inc + seed) * MULT + inc.
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    state_hi, state_lo = _pcg64_step(*_add128(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
    return state_hi, state_lo, inc_hi, inc_lo


def _key_blocks(count: int) -> Iterator[range]:
    """``range(count)`` in blocks of at most KEY_BLOCK keys; a key is one
    SeedSequence word, so it must stay below 2^32."""
    if count > 1 << 32:
        raise ValueError(f"at most 2^32 keys per seed, got {count}")
    return (range(start, min(start + KEY_BLOCK, count)) for start in range(0, count, KEY_BLOCK))


def derived_rngs(seed: int, count: int, *suffix: int) -> Iterator[np.random.Generator]:
    """For i in range(count), one reused Generator in the state of
    ``derived_rng(seed, i, *suffix)``; draw from it before advancing.

    The Generator is made on the first step. Each block of keys' words from
    :func:`_seeded_pcg64` is laid out once by :func:`_state_words`, and a
    key costs one 32-byte copy of its row into the PCG64's C state, through
    :class:`_PCG64State`, plus zeroing ``has_uint32`` and ``uinteger`` as
    the ``state`` setter does, so no buffered half of an output drawn under
    one key reaches the next. No SeedSequence is built and no 128-bit int is
    parsed per key. After the first key of each call, the ``state`` getter
    is read back and compared with that key's words, so a numpy whose struct
    differs raises RuntimeError rather than yielding wrong streams.
    """
    rng = np.random.default_rng(0)
    bit_generator = rng.bit_generator
    status = _PCG64State.from_address(bit_generator.ctypes.state_address)
    target = memoryview(status.pcg_state.contents).cast("B")
    checked = False
    for keys in _key_blocks(count):
        state_hi, state_lo, inc_hi, inc_lo = _seeded_pcg64(seed, keys, suffix)
        words = memoryview(_state_words(state_hi, state_lo, inc_hi, inc_lo)).cast("B")
        for start in range(0, words.nbytes, 32):
            target[:] = words[start : start + 32]
            status.has_uint32 = status.uinteger = 0
            if not checked:
                _check_written_state(bit_generator, state_hi, state_lo, inc_hi, inc_lo)
                checked = True
            yield rng


def _state_words(state_hi, state_lo, inc_hi, inc_lo) -> np.ndarray:
    """The keys' PCG64 words as (keys, 4) uint64 rows, in the order of
    ``_PCG64State.pcg_state``."""
    return np.stack([state_lo, state_hi, inc_lo, inc_hi], axis=1)


def _check_written_state(bit_generator, state_hi, state_lo, inc_hi, inc_lo) -> None:
    """RuntimeError unless the PCG64's ``state`` reads back as the first key
    of these words, unbuffered."""
    want = {
        "state": int(state_hi[0]) << 64 | int(state_lo[0]),
        "inc": int(inc_hi[0]) << 64 | int(inc_lo[0]),
    }
    state = bit_generator.state
    if state["state"] != want or state["has_uint32"] or state["uinteger"]:
        raise RuntimeError(
            f"numpy {np.__version__} lays out PCG64's state unlike qsnorm.sampler._PCG64State: "
            f"wrote {want}, read back {state}"
        )


def derive_seed(seed: int, *path: int) -> int:
    """A child integer seed keyed by (seed, path), for nested pipelines."""
    ss = np.random.SeedSequence([require_int(v, "seed") for v in (seed, *path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _uniform_outputs(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """``Generator.uniform(-pi, pi)`` of the PCG64 outputs of the stepped
    states (hi, lo)."""
    # XSL-RR output: xor the halves, rotate right by the top six bits.
    word, rot = hi ^ lo, hi >> 58
    word = word >> rot | word << ((64 - rot) & 63)
    # next_double, then Generator.uniform's low + (high - low) * u.
    unit = (word >> 11).astype(float) * 2.0**-53
    return -math.pi + (math.pi - -math.pi) * unit


def sample_thetas(seed: int, m: int) -> np.ndarray:
    """m angles uniform on [-pi, pi]: theta_i is
    ``derived_rng(seed, i).uniform(-pi, pi)``, computed for a block of keys
    at once from each key's first PCG64 output."""
    m = require_int(m, "m")
    if m < 1:
        raise ValueError(f"need at least one sample, got m={m}")
    blocks = _key_blocks(m)  # checks m before thetas is allocated
    thetas = np.empty(m)
    for keys in blocks:
        state_hi, state_lo, inc_hi, inc_lo = _seeded_pcg64(seed, keys)
        # The first output, computed here rather than drawn from derived_rngs:
        # same bits, at about a tenth of the cost per key.
        thetas[keys.start : keys.stop] = _uniform_outputs(*_pcg64_step(state_hi, state_lo, inc_hi, inc_lo))
    return thetas


def uniform_angles(seed: int, count: int) -> np.ndarray:
    """``derived_rng(seed).uniform(-pi, pi, count)``: count angles from the
    unkeyed stream of ``seed``, stepped here, so numpy.random is never
    imported (its first import costs more than the steps)."""
    hi, lo, inc_hi, inc_lo = _seeded_pcg64(seed, None)
    states = np.empty((2, count), np.uint64)
    for k in range(count):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        states[:, k] = hi[0], lo[0]
    return _uniform_outputs(*states)


def exactness_grid(n: int) -> np.ndarray:
    """2^(n+2)+1 equally spaced angles on [-pi, pi).

    Equally spaced averaging integrates e^(i k theta) exactly unless k is a
    nonzero multiple of the grid size; the probe-vector second moments only
    involve |k| <= 2^(n+2) - 4, so grid averages equal expectations.
    """
    size = (1 << (n + 2)) + 1
    return np.linspace(-math.pi, math.pi, size, endpoint=False)


def check_thetas(thetas) -> np.ndarray:
    """The probe angles as a 1-D float array; ValueError if there are none or
    one is not finite. Estimators check the whole angle set once, up front."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    if thetas.size == 0:
        raise ValueError("empty sample list")
    if not np.isfinite(thetas).all():
        raise ValueError("probe angles must be finite")
    return thetas


def probe_rows(thetas: np.ndarray, n: int, size: int, out: np.ndarray | None = None) -> np.ndarray:
    """Probe vectors x(theta), one row per angle; requires 2^(n-1) < size <= 2^n.

    Index 0 is the all-cosine entry; for size < 2^n the trailing entries of
    the full 2^n tensor product are dropped. The norm is 1 exactly when
    size = 2^n and 1 in expectation otherwise. Each entry is the product of
    its qubits' cosines and sines, multiplied in from qubit 0 on.

    ``out``, a complex (rows, 2^n) array whose imaginary part is zero,
    receives the rows in its real part when given, which needs size = 2^n
    (the scale sqrt(2^n / size) is then 1); a caller that builds many
    batches reuses one such buffer and allocates no rows.
    """
    full = 1 << n
    if not (full // 2) < size <= full:
        raise ValueError(f"size {size} not in (2^{n - 1}, 2^{n}]")
    if out is not None and size != full:
        raise ValueError(f"probe rows built in place need size 2^{n}, got {size}")
    angles = np.asarray(thetas, dtype=float).reshape(-1, 1) * frequency_ladder(n)
    cos, sin = np.cos(angles), np.sin(angles)
    rows = np.empty((angles.shape[0], full)) if out is None else out.real
    rows[:, 0] = 1.0
    for j in range(n):
        # The products of qubits 0..j-1 sit every `step` columns; each one
        # splits into its qubit-j cosine entry (in place) and sine entry.
        step = full >> j
        built = rows[:, ::step]
        np.multiply(built, sin[:, j:j + 1], out=rows[:, step >> 1::step])
        np.multiply(built, cos[:, j:j + 1], out=built)
    if out is not None:
        return out
    return math.sqrt(full / size) * rows[:, :size]


def _classical_probes(a: np.ndarray, thetas: np.ndarray, square: bool) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as a finite complex matrix (square if asked) and the probe rows
    of ``thetas`` at its row count N."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or square and a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a {'square ' if square else ''}matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    size = a.shape[0]
    return a, probe_rows(check_thetas(thetas), max(1, math.ceil(math.log2(size))), size)


def classical_trace_estimate(a: np.ndarray, thetas: np.ndarray) -> complex:
    """Mean of <x(theta_i)|A|x(theta_i)>; unbiased for Tr(A)/N.

    ``a`` must be square; unbiasedness additionally needs it unitarily
    diagonalizable, which is the caller's responsibility.
    """
    a, rows = _classical_probes(a, thetas, square=True)
    values = np.einsum("si,ij,sj->s", rows, a, rows)
    return complex(values.mean())


def classical_schatten2_estimate(a: np.ndarray, thetas: np.ndarray) -> float:
    """sqrt of the trace estimate of A A^dagger / N; radicand clamped at 0."""
    a, rows = _classical_probes(a, thetas, square=False)
    # <x|A A^dag|x> = ||A^dag x||^2, computed directly so it is real >= 0
    values = np.abs(rows @ a.conj()) ** 2
    radicand = max(0.0, float(values.sum(axis=1).mean()))
    return math.sqrt(radicand)


def check_eps_delta(epsilon: float, delta: float) -> None:
    """Reject a precision that is not positive and finite, or a confidence
    outside (0, 1); NaN fails both."""
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def sample_budget_trace(epsilon: float, delta: float) -> int:
    """Angles needed for the normalized-trace estimate: ceil(ln(2/delta)/(4 eps^2)).

    Real and imaginary parts are each held to epsilon/sqrt(2), which is
    where the 1/4 constant comes from.
    """
    check_eps_delta(epsilon, delta)
    return math.ceil(math.log(2.0 / delta) / (4.0 * epsilon**2))


def sample_budget_schatten2(epsilon: float, delta: float, norm_hint: float = 0.0) -> int:
    """Angles for the Schatten-2 estimate:
    ceil(ln(2/delta)/(2 eps^2) * min(eps^-2, norm_hint^-2)).

    ``norm_hint`` is a prior guess of the norm being estimated, nonnegative
    and finite; 0 means unknown, in which case the eps^-2 branch is used.
    """
    check_eps_delta(epsilon, delta)
    if norm_hint < 0:
        raise ValueError(f"norm_hint must be nonnegative, got {norm_hint}")
    if not math.isfinite(norm_hint):
        raise ValueError(f"norm_hint must be finite, got {norm_hint}")
    if norm_hint == 0.0:
        factor = epsilon**-2
    else:
        factor = min(epsilon**-2, norm_hint**-2)
    return math.ceil(math.log(2.0 / delta) / (2.0 * epsilon**2) * factor)


def sqrt_error_propagation_holds(m_hat: float, s: float, epsilon: float) -> bool:
    """Whether |m_hat - s^2| <= eps * max(eps, s).

    Whenever this holds (with m_hat >= 0), taking the square root keeps the
    error bounded: |sqrt(m_hat) - s| <= eps. The implication is exercised
    as a property test.
    """
    return abs(m_hat - s * s) <= epsilon * max(epsilon, s)
