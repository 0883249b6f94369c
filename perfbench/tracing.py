"""Per-layer tracing of the qsnorm package from outside it.

Each layer is a package module. ``install`` wraps the public functions listed
in ``LAYERS`` and rebinds every ``qsnorm.*`` module attribute that holds the
original (``from .x import y`` copies, the package's re-exports and the module
attribute that ``mixed_quadratic_form`` reads through its lazy import). A
wrapper records one span per call: name, start, end and parent span, kept in
memory in flat arrays and written by ``Tracer.dump`` when the invocation ends.
Counts are taken from the arguments and results at the same boundaries.

``self_times`` turns a dumped span file into per-function call counts and
self times, a span's duration minus the time its child spans cover, and
names the root spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

LAYERS = {
    "cli": ("main",),
    "qsim": ("apply_operation_amplitudes", "adjoint", "circuit_matrix", "haar_random_unitary"),
    "sampler": ("sample_thetas", "derived_rng", "probe_vector", "probe_rows"),
    "hadamard": ("mixed_quadratic_form", "hadamard_probability", "hadamard_shot_estimate"),
    "schatten": ("schatten2_estimate_from_thetas", "sampling_circuit"),
    "similarity": ("haar_random_state", "fidelity", "rotation_perturbed_pair"),
    "learn": ("loss", "finite_diff_gradient"),
}
FUNCTIONS = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

COUNTS = (
    "qsim.gates_applied",
    "qsim.amplitude_bytes",
    "sampler.probe_rows.rows",
    "hadamard.tests",
    "hadamard.shots_drawn",
    "schatten.clamped",
)


def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_apply(tracer, span, args, kwargs, result):
    amps = _arg(args, kwargs, 0, "amps")
    op = _arg(args, kwargs, 1, "op")
    gates = getattr(op, "ops", None)
    if gates is None:
        # Dense matvec: the matrix is read, the vector read and written.
        moved = op.matrix.nbytes + 2 * amps.nbytes
    else:
        # Each gate reads and writes the whole amplitude array.
        tracer.counts["qsim.gates_applied"] += len(gates)
        moved = 2 * amps.nbytes * len(gates)
    tracer.counts["qsim.amplitude_bytes"] += moved


def _count_probe_rows(tracer, span, args, kwargs, result):
    tracer.counts["sampler.probe_rows.rows"] += int(np.size(_arg(args, kwargs, 0, "thetas")))


def _count_probability(tracer, span, args, kwargs, result):
    # A shot estimate computes its probability through this function; the
    # test is counted once, at the shot-estimate boundary.
    parent = tracer.parent[span]
    if parent < 0 or tracer.names[tracer.name[parent]] != "hadamard.hadamard_shot_estimate":
        tracer.counts["hadamard.tests"] += 1


def _count_shot_estimate(tracer, span, args, kwargs, result):
    tracer.counts["hadamard.tests"] += 1
    tracer.counts["hadamard.shots_drawn"] += _arg(args, kwargs, 0, "spec").shots


def _count_clamped(tracer, span, args, kwargs, result):
    tracer.counts["schatten.clamped"] += int(result.clamped)


COUNTERS = {
    "qsim.apply_operation_amplitudes": _count_apply,
    "sampler.probe_rows": _count_probe_rows,
    "hadamard.hadamard_probability": _count_probability,
    "hadamard.hadamard_shot_estimate": _count_shot_estimate,
    "schatten.schatten2_estimate_from_thetas": _count_clamped,
}


class Tracer:
    """Span store for one invocation; spans are appended in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = [-1]

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        count = COUNTERS.get(name)
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(self.start)
            self.name.append(index)
            self.parent.append(open_spans[-1])
            self.end.append(0.0)
            open_spans.append(span)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self, span, args, kwargs, result)
                return result
            finally:
                self.end[span] = clock()
                open_spans.pop()

        return traced

    def dump(self, path: str, invocation: int) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            invocation=np.int64(invocation),
        )


def install(tracer: Tracer) -> None:
    """Wrap every listed function that the package defines and rebind it in
    every loaded ``qsnorm`` module. A listed function the package no longer
    defines is skipped, and its metrics read zero."""
    modules = [m for key, m in sys.modules.items() if key == "qsnorm" or key.startswith("qsnorm.")]
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"qsnorm.{layer}")
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue
            wrapper = tracer.wrap(f"{layer}.{name}", original)
            for loaded in modules:
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)


def self_times(path) -> tuple[dict, dict, list[str]]:
    """Per-function (calls, self seconds) from a span file, plus the names of
    its root spans, the spans without a parent."""
    with np.load(path) as spans:
        names = [str(n) for n in spans["names"]]
        name, parent = spans["name"], spans["parent"]
        duration = spans["end"] - spans["start"]
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=duration.size)
    own = duration - covered
    calls = np.bincount(name, minlength=len(names))
    seconds = np.bincount(name, weights=own, minlength=len(names))
    return (
        {n: int(calls[i]) for i, n in enumerate(names)},
        {n: float(seconds[i]) for i, n in enumerate(names)},
        [names[i] for i in name[~child]],
    )
