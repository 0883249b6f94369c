"""Time the north-star layers in-process and write BENCH_<label>.json.

    PYTHONPATH=src python bench/layers.py --label after

Layers, each through the public function the CLI calls:

- ``sample_thetas`` (angle drawing): the probe angles of one run, at
  m = 10^2, 10^3, 10^4.
- ``probe_construction``: ``probe_rows`` for 1000 angles at n = 6, the
  probe rows of a fig2 run.
- ``operator_application``: ``apply_operation_amplitudes`` of a depth-20
  gate circuit on one kernel chunk of probe rows at n = 10 (4 rows of
  2^10 amplitudes): ``depth20`` alternates ry (a dense gate) and cnot,
  ``structured`` cycles through rz, t, s, z (diagonal gates), x and y
  (anti-diagonal gates).
- ``gate_construction``: ``adjoint`` of the same depth-20 circuit, which
  builds and validates one ``GateOp`` per gate.
- ``quadratic_form``: the analytic ``mixed_quadratic_form`` of the
  difference mixture of two n = 6 Haar unitaries over 1000 angles, the
  reduction a fig2 estimate runs.
- ``haar_states``: ``haar_fidelities`` over 1000 Haar states at n = 6 with
  two empty circuits, so drawing the states is nearly all of the work.
- ``shot_generators`` (Bernoulli shot sampling): the shot branch of
  ``mixed_quadratic_form`` on a two-term one-qubit mixture over 1000 angles
  with one shot per test, so deriving each angle's generator is nearly all
  of the work.

Each layer is called once to warm up, then timed REPEATS times; the
record gives the median and quartiles in seconds and the median per key
(an angle, a probe row, a gate or a state) in microseconds. The file lands
in the repository root, next to the other BENCH_*.json files, and records the
host's usable CPU count (nproc). To compare two commits, run this script
against each one's ``src`` on the same host, alternating between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from qsnorm import (
    Circuit,
    DenseUnitary,
    GateOp,
    MixedOperation,
    adjoint,
    difference_mixture,
    haar_fidelities,
    haar_random_unitary,
    sample_thetas,
)
from qsnorm.hadamard import mixed_quadratic_form
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
    cases["gate_construction.n10.depth20"] = (lambda: adjoint(circuit), len(circuit))
    pair = difference_mixture(*(DenseUnitary(6, haar_random_unitary(6, seed)) for seed in (1, 2)))
    cases["quadratic_form.n6.m1000"] = (lambda: mixed_quadratic_form(pair, thetas), 1000)
    cases["haar_states.n6.states1000"] = (lambda: haar_fidelities(Circuit(6), Circuit(6), 1000, seed=7), 1000)
    mixture = MixedOperation(((0.5, Circuit(1)), (0.5j, Circuit(1))))
    grid = np.linspace(-np.pi, np.pi, 1000)
    cases["shot_generators.m1000"] = (lambda: mixed_quadratic_form(mixture, grid, shots_per_test=1, seed=7), 1000)
    return cases


def time_layer(call) -> list[float]:
    call()
    samples = []
    for _ in range(REPEATS):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return samples


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
        samples = time_layer(call)
        q1, median, q3 = statistics.quantiles(samples, n=4)
        record["layers"][name] = {
            "median_s": median,
            "q1_s": q1,
            "q3_s": q3,
            "keys": keys,
            "median_per_key_us": median / keys * 1e6,
        }
        print(f"{name}: median {median * 1e3:.2f} ms ({median / keys * 1e6:.2f} us/key)")
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
