"""Time the north-star layers in-process and write BENCH_<label>.json.

    PYTHONPATH=src python bench/layers.py --label after

Layers, each through the public function the CLI calls:

- ``sample_thetas`` (angle drawing): the probe angles of one run, at
  m = 10^2, 10^3, 10^4.
- ``probe_construction``: ``probe_rows`` for 1000 angles at n = 6, the
  probe rows of a fig2 run.
- ``operator_application``: ``apply_operation_amplitudes`` of a depth-20
  gate circuit on one kernel chunk of probe rows at n = 10 (``row_chunks``
  gives 16 rows of 2^10 amplitudes), each gate allocating its result:
  ``depth20`` alternates ry (a dense gate) and cnot, ``structured`` cycles
  through rz, t, s, z (diagonal gates), x and y (anti-diagonal gates).
- ``kernel_front``: shot-mode ``mixed_quadratic_form`` (100 shots per test)
  of a 3-term mixture of random depth-20 circuits at n = 10 over 500
  angles, the shape of the end-to-end estimate-shots workload, where the
  terms' gates are applied into the kernel's reused arrays.
- ``gate_construction``: ``adjoint`` of the same depth-20 circuit, which
  builds and validates one ``GateOp`` per gate.
- ``quadratic_form``: ``schatten2_estimate_from_thetas`` (the analytic
  ``mixed_quadratic_form`` and its mean) of the difference mixture of two
  n = 6 Haar unitaries over 1000 angles, the reduction a fig2 seed runs.
- ``learn_loss``: one ``loss`` call of the 2-qubit, 4-slot ry/cnot ansatz
  against a target bound from the same ansatz, at 64 angles, which prepares
  the objective and calls it once.
- ``learn_objective``: one call of a ``LearnObjective`` prepared for the
  same ansatz, target and angles, as each loss evaluation of a learn run.
- ``learn_step``: one ``LearnObjective.block`` call on the 2P + 1 = 9
  points of one gradient step (xi and its central-difference shifts) for
  the same objective, as each step of a learn run; a key is one (point,
  angle) pair.
- ``reduction``: ``quadratic_form_values`` on one learn block, the
  9-point (B, 64, 4) block of U x beside the 64 rows of V x from
  ``learn_step``, which each step reduces in one call; a key is one
  (point, angle) pair.
- ``haar_states``: ``haar_fidelities`` over 1000 Haar states at n = 6 with
  two empty circuits, so drawing the states is nearly all of the work.
- ``shot_generators`` (Bernoulli shot sampling): the shot branch of
  ``mixed_quadratic_form`` on a two-term one-qubit mixture over 1000 angles
  with one shot per test, so deriving each angle's generator is nearly all
  of the work.

Each layer is called once to warm up, then timed REPEATS times; the
record gives the median and quartiles in seconds, the median per key (an
angle, a probe row, a gate or a state) in microseconds, and the median
count of minor page faults per call (``ru_minflt`` of this process), which
counts the fresh memory a call touches. The file lands
in the repository root, next to the other BENCH_*.json files, and records the
host's usable CPU count (nproc). To compare two commits, run this script
against each one's ``src`` on the same host, alternating between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from qsnorm import (
    Ansatz,
    Circuit,
    DenseUnitary,
    GateOp,
    LearnObjective,
    MixedOperation,
    ParamSlot,
    adjoint,
    difference_mixture,
    haar_fidelities,
    haar_random_unitary,
    loss,
    sample_thetas,
    schatten2_estimate_from_thetas,
)
from qsnorm.hadamard import mixed_quadratic_form, quadratic_form_values
from qsnorm.qsim import apply_operation_amplitudes, row_chunks
from qsnorm.sampler import probe_rows

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15


def layers() -> dict:
    """name: (callable, the keys, angles, rows or states one call handles)."""
    cases = {f"sample_thetas.m{m}": (lambda m=m: sample_thetas(7, m), m) for m in (100, 1000, 10000)}
    thetas = sample_thetas(7, 1000)
    cases["probe_construction.n6.m1000"] = (lambda: probe_rows(thetas, 6, 1 << 6), 1000)
    chunk = next(row_chunks(thetas.size, 10))
    rows = probe_rows(thetas[chunk], 10, 1 << 10).astype(complex)
    circuit = Circuit(10, tuple(
        GateOp("ry", (k % 10,), (0.1 * k,)) if k % 2 else GateOp("cnot", (k % 10, (k + 1) % 10)) for k in range(20)
    ))
    cases["operator_application.n10.depth20"] = (lambda: apply_operation_amplitudes(rows, circuit), rows.shape[0])
    kinds = ["rz", "t", "s", "z", "x", "y"]
    structured = Circuit(10, tuple(
        GateOp(kinds[k % 6], (k % 10,), (0.1 * k,) if kinds[k % 6] == "rz" else ()) for k in range(20)
    ))
    cases["operator_application.n10.structured"] = (
        lambda: apply_operation_amplitudes(rows, structured), rows.shape[0]
    )
    rng = np.random.default_rng(7)
    fixed, angled = ("h", "x", "y", "z", "s", "sdg", "t", "tdg"), ("rx", "ry", "rz", "phase")

    def random_gate():
        roll = rng.random()
        if roll < 0.4:
            return GateOp(str(rng.choice(fixed)), (int(rng.integers(10)),))
        if roll < 0.8:
            return GateOp(str(rng.choice(angled)), (int(rng.integers(10)),), (float(rng.uniform(-np.pi, np.pi)),))
        if roll < 0.9:
            return GateOp("cnot", tuple(int(q) for q in rng.choice(10, size=2, replace=False)))
        return GateOp("globalphase", (), (float(rng.uniform(-np.pi, np.pi)),))

    terms = MixedOperation(tuple(
        (coeff, Circuit(10, tuple(random_gate() for _ in range(20)))) for coeff in (0.4, 0.3j, -0.2)
    ))
    angles500 = sample_thetas(7, 500)
    cases["kernel_front.n10.m500"] = (lambda: mixed_quadratic_form(terms, angles500, shots_per_test=100, seed=7), 500)
    cases["gate_construction.n10.depth20"] = (lambda: adjoint(circuit), len(circuit))
    pair = difference_mixture(*(DenseUnitary(6, haar_random_unitary(6, seed)) for seed in (1, 2)))
    cases["quadratic_form.n6.m1000"] = (lambda: schatten2_estimate_from_thetas(pair, thetas), 1000)
    ansatz = Ansatz(Circuit(2, (
        GateOp("ry", (0,), (ParamSlot(0),)),
        GateOp("ry", (1,), (ParamSlot(1),)),
        GateOp("cnot", (0, 1)),
        GateOp("ry", (0,), (ParamSlot(2),)),
        GateOp("ry", (1,), (ParamSlot(3),)),
    )))
    target = ansatz.bind(np.array([0.9, -1.4, 2.2, 0.3]))
    xi, angles = np.array([0.1, 0.5, -0.8, 1.7]), sample_thetas(7, 64)
    cases["learn_loss.n2.m64"] = (lambda: loss(ansatz, xi, target, angles), 64)
    objective = LearnObjective(ansatz, target, angles)
    cases["learn_objective.n2.m64"] = (lambda: objective(xi), 64)
    step = np.vstack((xi, xi + 1e-3 * np.eye(4), xi - 1e-3 * np.eye(4)))
    cases["learn_step.n2.m64"] = (lambda: objective.block(step), step.shape[0] * 64)
    x = probe_rows(angles, 2, 1 << 2).astype(complex)
    vx = apply_operation_amplitudes(x, target)
    ux = np.stack([apply_operation_amplitudes(x, ansatz.bind(point)) for point in step])
    coeffs = [coeff for coeff, _ in difference_mixture(target, ansatz.template).terms]
    cases["reduction.learn_block"] = (
        lambda: quadratic_form_values(coeffs, [(slice(0, 64), [vx, ux])], 64, 0, 0), ux.shape[0] * 64
    )
    cases["haar_states.n6.states1000"] = (lambda: haar_fidelities(Circuit(6), Circuit(6), 1000, seed=7), 1000)
    mixture = MixedOperation(((0.5, Circuit(1)), (0.5j, Circuit(1))))
    grid = np.linspace(-np.pi, np.pi, 1000)
    cases["shot_generators.m1000"] = (lambda: mixed_quadratic_form(mixture, grid, shots_per_test=1, seed=7), 1000)
    return cases


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure_layer(call, keys: int, repeats: int = REPEATS) -> dict:
    """Warm up, then time ``repeats`` (at least 2) calls and count their minor page faults."""
    call()
    seconds, faults = [], []
    for _ in range(repeats):
        faults_before, started = minor_faults(), time.perf_counter()
        call()
        seconds.append(time.perf_counter() - started)
        faults.append(minor_faults() - faults_before)
    q1, median, q3 = statistics.quantiles(seconds, n=4)
    return {
        "median_s": median,
        "q1_s": q1,
        "q3_s": q3,
        "keys": keys,
        "median_per_key_us": median / keys * 1e6,
        "minor_faults_per_call": statistics.median(faults),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--label", required=True, help="file name suffix, e.g. before or after")
    args = parser.parse_args()
    record = {
        "label": args.label,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": REPEATS,
        "layers": {},
    }
    for name, (call, keys) in layers().items():
        layer = record["layers"][name] = measure_layer(call, keys)
        print(
            f"{name}: median {layer['median_s'] * 1e3:.2f} ms ({layer['median_per_key_us']:.2f} us/key, "
            f"{layer['minor_faults_per_call']:g} minor faults/call)"
        )
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
