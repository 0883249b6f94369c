"""Time the north-star layers in-process and write BENCH_<label>.json.

    PYTHONPATH=src python bench/layers.py --label after

Layers, each through the public function the CLI calls:

- ``sample_thetas`` (angle drawing): the probe angles of one run, at
  m = 10^2, 10^3, 10^4.
- ``probe_construction``: ``probe_rows`` for 1000 angles at n = 6, the
  probe rows of a fig2 run.
- ``operator_application``: ``apply_operation_amplitudes`` of a depth-20
  gate circuit on one kernel chunk of probe rows at n = 10 (``chunk_rows``
  gives 16 rows of 2^10 amplitudes), through one ``batch_applier`` made
  for the call, whose walk is one chunk:
  ``depth20`` alternates ry (a dense gate) and cnot, ``structured`` cycles
  through rz, t, s, z (diagonal gates), x and y (anti-diagonal gates),
  and ``last_qubits`` applies ry, rz and y (one gate of each form) on each
  of qubits 7, 8 and 9, whose halves are runs of 4, 2 and 1 amplitudes.
- ``operator_application.n10.mixture``: the three depth-20 circuits of
  the ``kernel_front`` mixture applied to the probe rows of 500 angles,
  chunk by chunk through one ``batch_applier`` whose fill builds each
  chunk's probe rows, as the kernel applies them, without the reduction or
  shots; a key is one angle.
- ``kernel_front``: shot-mode ``mixed_quadratic_form`` (100 shots per test)
  of a 3-term mixture of random depth-20 circuits at n = 10 over 500
  angles, the shape of the end-to-end estimate-shots workload, where the
  terms' gates are applied into the kernel's reused arrays.
- ``kernel_front.n8.analytic``: analytic ``mixed_quadratic_form`` of a
  3-term mixture of random depth-20 circuits at n = 8 over 1000 angles, a
  width whose gate replay runs on 64-row chunks.
- ``kernel_front.n18.analytic.m4``: analytic
  ``schatten2_estimate_from_thetas``, as ``decide`` runs it, of the
  difference of two depth-20 circuits at n = 18 over 4 angles, the second
  the first with every angle moved by 0.05: a wide register, whose chunks
  are one row of 4 MiB.
- ``gate_construction``: ``adjoint`` of the same depth-20 circuit, which
  builds and validates one ``GateOp`` per gate.
- ``quadratic_form``: ``schatten2_estimate_from_thetas`` (the analytic
  ``mixed_quadratic_form`` and its mean) of the difference mixture of two
  n = 6 Haar unitaries over 1000 angles, and over the 10^4 angles of one
  fig2 seed at its largest m.
- ``learn_loss``: a ``LearnObjective`` of the 2-qubit, 4-slot ry/cnot
  ansatz against a target bound from the same ansatz, at 64 angles,
  prepared and called once, the cost of one loss value from scratch.
- ``learn_objective``: one call of a ``LearnObjective`` prepared for the
  same ansatz, target and angles, as each loss evaluation of a learn run.
- ``learn_step``: one ``LearnObjective.block`` call on the 2P + 1 = 9
  points of one gradient step (xi and its central-difference shifts) for
  the same objective, as each step of a learn run; a key is one (point,
  angle) pair.
- ``learn_refill``: refilling the slot stacks of that objective's 9-point
  applier for the same step's points, as each step does before it replays
  U; a key is one (point, slot gate) pair.
- ``reduction``: ``quadratic_form_values`` on one learn block, the
  9-point (B, 64, 4) block of U x beside the 64 rows of V x from
  ``learn_step``, which each step reduces in one call, with the
  coefficients' ``ReductionPlan`` made once, as the objective holds it; a
  key is one (point, angle) pair.
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
    sample_thetas,
    schatten2_estimate_from_thetas,
)
from qsnorm import learn
from qsnorm.hadamard import ReductionPlan, mixed_quadratic_form, quadratic_form_values
from qsnorm.qsim import apply_operation_amplitudes, batch_applier, chunk_rows
from qsnorm.sampler import probe_rows

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15


def layers() -> dict:
    """name: (callable, the keys, angles, rows or states one call handles)."""
    cases = {f"sample_thetas.m{m}": (lambda m=m: sample_thetas(7, m), m) for m in (100, 1000, 10000)}
    thetas = sample_thetas(7, 1000)
    cases["probe_construction.n6.m1000"] = (lambda: probe_rows(thetas, 6, 1 << 6), 1000)
    rows = probe_rows(thetas[:chunk_rows(10)], 10, 1 << 10).astype(complex)
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
    last = Circuit(10, tuple(
        GateOp(kind, (q,), params) for q in (7, 8, 9) for kind, params in (("ry", (0.3,)), ("rz", (0.3,)), ("y", ()))
    ))
    cases["operator_application.n10.last_qubits"] = (lambda: apply_operation_amplitudes(rows, last), rows.shape[0])
    rng = np.random.default_rng(7)
    fixed, angled = ("h", "x", "y", "z", "s", "sdg", "t", "tdg"), ("rx", "ry", "rz", "phase")

    def random_gate(n):
        roll = rng.random()
        if roll < 0.4:
            return GateOp(str(rng.choice(fixed)), (int(rng.integers(n)),))
        if roll < 0.8:
            return GateOp(str(rng.choice(angled)), (int(rng.integers(n)),), (float(rng.uniform(-np.pi, np.pi)),))
        if roll < 0.9:
            return GateOp("cnot", tuple(int(q) for q in rng.choice(n, size=2, replace=False)))
        return GateOp("globalphase", (), (float(rng.uniform(-np.pi, np.pi)),))

    def random_terms(n):
        return MixedOperation(tuple(
            (coeff, Circuit(n, tuple(random_gate(n) for _ in range(20)))) for coeff in (0.4, 0.3j, -0.2)
        ))

    terms = random_terms(10)
    angles500 = sample_thetas(7, 500)
    cases["operator_application.n10.mixture"] = (lambda: apply_mixture([op for _, op in terms.terms], angles500), 500)
    cases["kernel_front.n10.m500"] = (lambda: mixed_quadratic_form(terms, angles500, shots_per_test=100, seed=7), 500)
    terms8 = random_terms(8)
    cases["kernel_front.n8.analytic.m1000"] = (lambda: mixed_quadratic_form(terms8, thetas), 1000)
    wide = Circuit(18, tuple(random_gate(18) for _ in range(20)))
    moved = Circuit(18, tuple(GateOp(g.kind, g.qubits, tuple(p + 0.05 for p in g.params)) for g in wide.ops))
    wide_pair = difference_mixture(wide, moved)
    cases["kernel_front.n18.analytic.m4"] = (lambda: schatten2_estimate_from_thetas(wide_pair, thetas[:4]), 4)
    cases["gate_construction.n10.depth20"] = (lambda: adjoint(circuit), len(circuit))
    pair = difference_mixture(*(DenseUnitary(6, haar_random_unitary(6, seed)) for seed in (1, 2)))
    cases["quadratic_form.n6.m1000"] = (lambda: schatten2_estimate_from_thetas(pair, thetas), 1000)
    fig2_angles = sample_thetas(7, 10_000)
    cases["quadratic_form.n6.m10000"] = (lambda: schatten2_estimate_from_thetas(pair, fig2_angles), 10_000)
    ansatz = Ansatz(Circuit(2, (
        GateOp("ry", (0,), (ParamSlot(0),)),
        GateOp("ry", (1,), (ParamSlot(1),)),
        GateOp("cnot", (0, 1)),
        GateOp("ry", (0,), (ParamSlot(2),)),
        GateOp("ry", (1,), (ParamSlot(3),)),
    )))
    target = ansatz.bind(np.array([0.9, -1.4, 2.2, 0.3]))
    xi, angles = np.array([0.1, 0.5, -0.8, 1.7]), sample_thetas(7, 64)
    cases["learn_loss.n2.m64"] = (lambda: LearnObjective(ansatz, target, angles)(xi), 64)
    objective = LearnObjective(ansatz, target, angles)
    cases["learn_objective.n2.m64"] = (lambda: objective(xi), 64)
    step = np.vstack((xi, xi + 1e-3 * np.eye(4), xi - 1e-3 * np.eye(4)))
    cases["learn_step.n2.m64"] = (lambda: objective.block(step), step.shape[0] * 64)
    cases["learn_refill.n2.m64"] = (refill_case(objective, step), step.shape[0] * 4)
    x = probe_rows(angles, 2, 1 << 2).astype(complex)
    vx = apply_operation_amplitudes(x, target)
    ux = np.stack([apply_operation_amplitudes(x, ansatz.bind(point)) for point in step])
    coeffs = [coeff for coeff, _ in difference_mixture(target, ansatz.template).terms]
    plan = ReductionPlan(coeffs)
    cases["reduction.learn_block"] = (
        lambda: quadratic_form_values(plan, [(slice(0, 64), x, [vx, ux])], 64, 0, 0), ux.shape[0] * 64
    )
    cases["haar_states.n6.states1000"] = (lambda: haar_fidelities(Circuit(6), Circuit(6), 1000, seed=7), 1000)
    mixture = MixedOperation(((0.5, Circuit(1)), (0.5j, Circuit(1))))
    grid = np.linspace(-np.pi, np.pi, 1000)
    cases["shot_generators.m1000"] = (lambda: mixed_quadratic_form(mixture, grid, shots_per_test=1, seed=7), 1000)
    return cases


def refill_case(objective, points: np.ndarray):
    """A call that refills the slot stacks of ``objective``'s applier for
    ``points``, as one block call does before it replays U."""
    refills = objective._applier(len(points))[2]
    return lambda: [learn._refill(*refill, points) for refill in refills]


def apply_mixture(ops: list, thetas: np.ndarray, n: int = 10) -> None:
    """Apply each of ``ops`` to every chunk of the probe rows of ``thetas``
    through one ``batch_applier``, whose fill builds each chunk in its input
    batch."""
    for _ in batch_applier(ops, thetas.size, n, lambda chunk, x: probe_rows(thetas[chunk], n, 1 << n, x))():
        pass


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
