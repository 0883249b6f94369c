"""The four benchmark workloads: how one invocation's inputs are made from the
workload seed, which CLI arguments it runs, how much work it represents and
the oracle that checks its output.

Every input is a pure function of (workload seed, invocation index), so the
same seed always gives the same invocations. The oracles use the package's
exact (dense) routines and closed-form facts, never the estimators under test,
and their tolerances are fixed here.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# Failure probability allowed to each Hoeffding check. Small enough that no
# seed a benchmark run could plausibly draw fails a correct program.
HOEFFDING_DELTA = 1e-9

FIG2_M_LIST = (10, 100, 1000, 10000)
FIG2_N = 6

LEARN_SAMPLES = 64
LEARN_ETA = 0.1
LEARN_TOL = 1e-3
# Acceptance 09 allows 500 steps, and the steps a random target needs range
# from about 60 to 500, so a run's median would depend on which targets its
# seed drew. With a cap of 80 almost every invocation runs the same number of
# steps and the median follows the cost of a step; about one target in ten
# still converges before the cap.
LEARN_MAX_ITERS = 80
# A converged run's sampled objective is <= LEARN_TOL on 64 angles; its exact
# squared Schatten-2 distance to the target must then be small as well.
LEARN_EXACT_DISTANCE_TOL = 1e-2
# The reported cost is the objective at the returned parameters. The oracle
# recomputes it gate by gate from the sampled states, without the package's
# probe or matrix code, so the two differ only by rounding.
LEARN_COST_TOL = 1e-12

ESTIMATE_N = 10
ESTIMATE_TERMS = 3
ESTIMATE_DEPTH = 20
ESTIMATE_SHOTS = 100
ESTIMATE_SAMPLES = 500

SIMILARITY_N = 6
SIMILARITY_PAIRS = 20
SIMILARITY_STATES = 1000
SIMILARITY_DIST = (0.02, 0.5)
SIMILARITY_DELTA = 0.2
SIMILARITY_MIN_FRACTION = 0.8  # the acceptance-06 guarantee
SIMILARITY_DISTANCE_TOL = 1e-9

FIXED_GATES = ("h", "x", "y", "z", "s", "sdg", "t", "tdg")
ANGLE_GATES = ("rx", "ry", "rz", "phase")


@dataclass
class Invocation:
    """One CLI call: its arguments (without --out), its work units and what
    its oracle needs to know about the inputs."""

    index: int
    argv: list[str]
    work: float
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    # The traced functions this workload must call at this commit.
    exercises: frozenset
    make: Callable[[Path, int, int], Invocation]
    check: Callable[[Invocation, bytes, object], str | None]


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(index)])


def _cli_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _hoeffding(width: float, m: int) -> float:
    """Half-width of the two-sided Hoeffding interval for a mean of m values
    in a range of the given width."""
    return width * math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * m))


def _norm_bound(squared_bound: float, exact: float) -> float:
    """Error bound on sqrt(max(0, estimate)) from a bound on the estimate of
    exact^2: |sqrt(a) - s| <= min(sqrt(|a - s^2|), |a - s^2| / s)."""
    bound = math.sqrt(squared_bound)
    if exact > 0:
        bound = min(bound, squared_bound / exact)
    return bound


def _csv_rows(out: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out.decode())))


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


# --- fig2 -------------------------------------------------------------------

def _fig2_make(workdir: Path, seed: int, index: int) -> Invocation:
    cli_seed = _cli_seed(_rng(seed, index))
    argv = [
        "fig2", "--n", str(FIG2_N), "--seeds", "1",
        "--m-list", ",".join(map(str, FIG2_M_LIST)), "--seed", str(cli_seed),
    ]
    return Invocation(index, argv, work=float(sum(FIG2_M_LIST)), facts={"seed": cli_seed})


def _fig2_check(inv: Invocation, out: bytes, qs) -> str | None:
    rows = _csv_rows(out)
    if [int(r["m"]) for r in rows] != list(FIG2_M_LIST):
        return f"m column {[r['m'] for r in rows]} != {list(FIG2_M_LIST)}"
    errors = [float(r["mean_error"]) for r in rows]
    if not all(math.isfinite(e) and e >= 0 for e in errors):
        return f"errors not finite and nonnegative: {errors}"
    # The CLI's pair for its seed s and pair index 0.
    seed = inv.facts["seed"]
    u1 = qs.haar_random_unitary(FIG2_N, qs.derive_seed(seed, 0, 0))
    u2 = qs.haar_random_unitary(FIG2_N, qs.derive_seed(seed, 0, 1))
    exact = qs.exact_schatten2((u1 - u2) / math.sqrt(2.0))
    # Per-angle values <x|A A^dag|x> lie in [0, ||A||_op^2] and ||A||_op <= sqrt(2).
    m = FIG2_M_LIST[-1]
    bound = _norm_bound(_hoeffding(2.0, m), exact)
    if errors[-1] > bound:
        return f"error {errors[-1]} at m={m} exceeds Hoeffding bound {bound} (exact {exact})"
    return None


# --- learn ------------------------------------------------------------------

LEARN_ANSATZ = {
    "n": 2,
    "ops": [
        {"gate": "ry", "qubits": [0], "params": [{"slot": 0}]},
        {"gate": "ry", "qubits": [1], "params": [{"slot": 1}]},
        {"gate": "cnot", "qubits": [0, 1]},
        {"gate": "ry", "qubits": [0], "params": [{"slot": 2}]},
        {"gate": "ry", "qubits": [1], "params": [{"slot": 3}]},
    ],
    "repeat": 1,
}


def _learn_target(hidden: np.ndarray) -> dict:
    """The ansatz bound at the hidden angles: a realizable target."""
    ops = []
    for op in LEARN_ANSATZ["ops"]:
        entry = {"gate": op["gate"], "qubits": op["qubits"]}
        if "params" in op:
            entry["params"] = [float(hidden[p["slot"]]) for p in op["params"]]
        ops.append(entry)
    return {"n": LEARN_ANSATZ["n"], "ops": ops}


def _learn_make(workdir: Path, seed: int, index: int) -> Invocation:
    rng = _rng(seed, index)
    hidden = rng.uniform(-math.pi, math.pi, 4)
    cli_seed = _cli_seed(rng)
    ansatz = _write_json(workdir / f"ansatz-{index}.json", LEARN_ANSATZ)
    target = _write_json(workdir / f"target-{index}.json", _learn_target(hidden))
    argv = [
        "learn", "--ansatz", ansatz, "--target", target,
        "--samples", str(LEARN_SAMPLES), "--eta", str(LEARN_ETA), "--tol", str(LEARN_TOL),
        "--max-iters", str(LEARN_MAX_ITERS), "--seed", str(cli_seed),
    ]
    return Invocation(index, argv, work=1.0, facts={"seed": cli_seed, "hidden": hidden.tolist()})


def _learn_check(inv: Invocation, out: bytes, qs) -> str | None:
    report = json.loads(out)
    xi = np.asarray(report["xi"], dtype=float)
    if xi.shape != (4,) or not np.all(np.isfinite(xi)):
        return f"xi must be 4 finite numbers, got {report['xi']}"
    if not 0 <= report["iterations"] <= LEARN_MAX_ITERS:
        return f"iterations {report['iterations']} outside [0, {LEARN_MAX_ITERS}]"
    if report["converged"] != (report["final_cost"] <= LEARN_TOL):
        return f"converged={report['converged']} disagrees with final_cost {report['final_cost']}"
    ansatz = qs.ansatz_from_dict(LEARN_ANSATZ)
    target = ansatz.bind(np.asarray(inv.facts["hidden"]))
    fitted = ansatz.bind_repeated(xi)
    # The objective 2 - (2/m) sum_i Re<V x_i|U(xi) x_i>, with x_i = S(theta_i)|0>.
    overlaps = []
    for theta in qs.sample_thetas(inv.facts["seed"], LEARN_SAMPLES):
        x = qs.apply_circuit(qs.zero_state(LEARN_ANSATZ["n"]), qs.sampling_circuit(LEARN_ANSATZ["n"], float(theta)))
        overlaps.append(np.vdot(qs.apply_circuit(x, target).amplitudes, qs.apply_circuit(x, fitted).amplitudes).real)
    recomputed = 2.0 - 2.0 * math.fsum(overlaps) / LEARN_SAMPLES
    if abs(recomputed - report["final_cost"]) > LEARN_COST_TOL:
        return f"final_cost {report['final_cost']} != objective at xi {recomputed}"
    if report["converged"]:
        distance = qs.exact_schatten2(qs.circuit_matrix(ansatz.bind(xi)) - qs.circuit_matrix(target)) ** 2
        if distance > LEARN_EXACT_DISTANCE_TOL:
            return f"converged but exact squared distance {distance} > {LEARN_EXACT_DISTANCE_TOL}"
    return None


# --- estimate-shots -----------------------------------------------------------

def _random_circuit(rng: np.random.Generator) -> dict:
    ops = []
    for _ in range(ESTIMATE_DEPTH):
        roll = rng.random()
        if roll < 0.4:
            ops.append({"gate": str(rng.choice(FIXED_GATES)), "qubits": [int(rng.integers(ESTIMATE_N))]})
        elif roll < 0.8:
            ops.append({
                "gate": str(rng.choice(ANGLE_GATES)),
                "qubits": [int(rng.integers(ESTIMATE_N))],
                "params": [float(rng.uniform(-math.pi, math.pi))],
            })
        elif roll < 0.9:
            control, target = rng.choice(ESTIMATE_N, size=2, replace=False)
            ops.append({"gate": "cnot", "qubits": [int(control), int(target)]})
        else:
            ops.append({"gate": "globalphase", "qubits": [], "params": [float(rng.uniform(-math.pi, math.pi))]})
    return {"n": ESTIMATE_N, "ops": ops}


def _estimate_make(workdir: Path, seed: int, index: int) -> Invocation:
    # All invocations of a seed share one mixture, each with its own CLI seed,
    # so the dense oracle (about 2 s per mixture at n=10) runs once per run.
    # The mixture's stream [seed, 0, 1] is apart from the invocations' [seed, index].
    rng = np.random.default_rng([int(seed), 0, 1])
    coeffs = rng.standard_normal(ESTIMATE_TERMS) + 1j * rng.standard_normal(ESTIMATE_TERMS)
    # Complex coefficients of total weight in (0.5, 1], within the mixture cap.
    coeffs /= np.sum(np.abs(coeffs)) * float(rng.uniform(1.0, 2.0))
    doc = {"terms": [{"coeff": [c.real, c.imag], "circuit": _random_circuit(rng)} for c in coeffs]}
    cli_seed = _cli_seed(_rng(seed, index))
    mixed = _write_json(workdir / "mixture.json", doc)
    argv = [
        "estimate", "--mixed", mixed, "--shots", str(ESTIMATE_SHOTS),
        "--samples", str(ESTIMATE_SAMPLES), "--seed", str(cli_seed),
    ]
    return Invocation(index, argv, work=float(ESTIMATE_SAMPLES), facts={"seed": cli_seed, "mixture": doc})


@functools.lru_cache(maxsize=1)
def _exact_norm(mixture: str, qs) -> float:
    return qs.exact_schatten2(qs.mixed_operation_matrix(qs.mixed_operation_from_dict(json.loads(mixture))))


def _estimate_check(inv: Invocation, out: bytes, qs) -> str | None:
    report = json.loads(out)
    expected = {"m": ESTIMATE_SAMPLES, "shots_per_test": ESTIMATE_SHOTS, "seed": inv.facts["seed"]}
    for key, value in expected.items():
        if report[key] != value:
            return f"{key} = {report[key]}, expected {value}"
    mean = report["per_sample_mean"]
    if report["clamped"] != (mean < 0) or not math.isclose(report["value"], math.sqrt(max(0.0, mean)), rel_tol=1e-9, abs_tol=1e-12):
        return f"value {report['value']} inconsistent with per-sample mean {mean}"
    mixed = qs.mixed_operation_from_dict(inv.facts["mixture"])
    exact = _exact_norm(json.dumps(inv.facts["mixture"]), qs)
    # Each per-angle value is sum|a_k|^2 plus, per pair, 2 Re(w) r - 2 Im(w) i
    # with shot estimates r, i in [-1, 1]; its mean over angles and shots is exact^2.
    coeffs = [c for c, _ in mixed.terms]
    width = sum(
        4.0 * (abs((a * b.conjugate()).real) + abs((a * b.conjugate()).imag))
        for k, a in enumerate(coeffs) for b in coeffs[k + 1:]
    )
    bound = _norm_bound(_hoeffding(width, ESTIMATE_SAMPLES), exact)
    if abs(report["value"] - exact) > bound:
        return f"value {report['value']} differs from exact {exact} by more than {bound}"
    return None


# --- similarity ---------------------------------------------------------------

def _similarity_make(workdir: Path, seed: int, index: int) -> Invocation:
    cli_seed = _cli_seed(_rng(seed, index))
    argv = [
        "similarity", "--n", str(SIMILARITY_N), "--pairs", str(SIMILARITY_PAIRS),
        "--states", str(SIMILARITY_STATES), "--dist-min", str(SIMILARITY_DIST[0]),
        "--dist-max", str(SIMILARITY_DIST[1]), "--delta", str(SIMILARITY_DELTA), "--seed", str(cli_seed),
    ]
    return Invocation(index, argv, work=float(SIMILARITY_PAIRS * SIMILARITY_STATES), facts={"seed": cli_seed})


def _similarity_check(inv: Invocation, out: bytes, qs) -> str | None:
    rows = _csv_rows(out)
    if [int(r["pair_id"]) for r in rows] != list(range(SIMILARITY_PAIRS)):
        return f"expected pair ids 0..{SIMILARITY_PAIRS - 1}, got {[r['pair_id'] for r in rows]}"
    # rotation_perturbed_pair builds each pair at exactly the requested distance.
    distances = np.linspace(*SIMILARITY_DIST, SIMILARITY_PAIRS)
    for row, distance in zip(rows, distances):
        if abs(float(row["schatten"]) - distance) > SIMILARITY_DISTANCE_TOL:
            return f"pair {row['pair_id']}: schatten {row['schatten']} != exact {distance}"
        if not 0.0 <= float(row["mean_fidelity"]) <= 1.0 + 1e-12:
            return f"pair {row['pair_id']}: mean fidelity {row['mean_fidelity']} outside [0, 1]"
        if float(row["frac_above_threshold"]) < SIMILARITY_MIN_FRACTION:
            return f"pair {row['pair_id']}: fraction {row['frac_above_threshold']} < {SIMILARITY_MIN_FRACTION}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig2",
            "The paper's m^(-1/2) experiment: analytic Hadamard path on dense n=6 terms with many angles, "
            "so per-angle overhead in sampler, qsim.adjoint and hadamard dominates; no gates, shots or learn.",
            "quadratic-form evaluations",
            frozenset({
                "cli.main", "qsim.apply_operation_amplitudes", "qsim.adjoint", "qsim.haar_random_unitary",
                "sampler.sample_thetas", "sampler.derived_rng", "sampler.probe_vector",
                "hadamard.mixed_quadratic_form", "schatten.schatten2_estimate_from_thetas",
            }),
            _fig2_make,
            _fig2_check,
        ),
        Workload(
            "learn",
            "Acceptance-09 learning on realizable 2-qubit targets: the dense loss branch rebuilds probe_rows "
            "for one fixed angle set on every call, so all probe work is shared; bypasses hadamard and schatten.",
            "targets finished",
            frozenset({
                "cli.main", "qsim.apply_operation_amplitudes", "qsim.adjoint", "qsim.circuit_matrix",
                "sampler.sample_thetas", "sampler.derived_rng", "sampler.probe_vector", "sampler.probe_rows",
                "learn.loss", "learn.finite_diff_gradient",
            }),
            _learn_make,
            _learn_check,
        ),
        Workload(
            "estimate-shots",
            "Shot-mode Hadamard tests on a 3-term complex mixture of depth-20 circuits at n=10: gate-by-gate "
            "qsim application dominates, nothing is shared across angles and probe_vector is never called.",
            "probe angles",
            frozenset({
                "cli.main", "qsim.apply_operation_amplitudes", "qsim.adjoint", "sampler.sample_thetas",
                "sampler.derived_rng", "hadamard.mixed_quadratic_form", "hadamard.hadamard_probability",
                "hadamard.hadamard_shot_estimate", "schatten.schatten2_estimate_from_thetas",
                "schatten.sampling_circuit",
            }),
            _estimate_make,
            _estimate_check,
        ),
        Workload(
            "similarity",
            "The similarity scan defaults (n=6, 20 pairs, 1000 Haar states): the only workload on the "
            "similarity layer's Monte Carlo and its per-state derived_rng cost.",
            "Haar states",
            frozenset({
                "cli.main", "qsim.apply_operation_amplitudes", "qsim.circuit_matrix", "qsim.haar_random_unitary",
                "sampler.derived_rng", "similarity.haar_random_state", "similarity.fidelity",
                "similarity.rotation_perturbed_pair",
            }),
            _similarity_make,
            _similarity_check,
        ),
    )
}
