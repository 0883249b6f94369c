"""Acceptance suite: end-to-end checks at full experiment scale.

Each test prints one PASS line with the measured quantities (visible with
``pytest -s``); tolerances are fixed here, not tuned at runtime.
"""

import csv
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from helpers import (
    circuit_probability,
    exactness_grid,
    haar_state,
    random_circuit,
    random_mixture,
    sqrt_error_propagation_holds,
)
from qsnorm import (
    Ansatz,
    Circuit,
    GateOp,
    LearnConfig,
    LearnObjective,
    MixedOperation,
    ParamSlot,
    adjoint,
    apply_circuit,
    circuit_matrix,
    classical_trace_estimate,
    derive_seed,
    derived_rng,
    exact_schatten2,
    haar_random_unitary,
    hadamard_shot_budget,
    learn_circuit,
    mixed_operation_matrix,
    mixed_quadratic_form,
    rotation_perturbed_pair,
    sample_thetas,
    sampling_circuit,
)
from qsnorm import cli
from qsnorm.sampler import probe_rows

SQRT2_INV = 1 / math.sqrt(2)


def report(line: str) -> None:
    print(line, flush=True)


def test_01_probe_moment_exactness():
    """Grid averages of x_j x_k are delta_jk/N and grid trace estimates are
    exact, for n = 1..6, to 1e-9; runs in under 30 s."""
    start = time.perf_counter()
    worst_moment = 0.0
    worst_trace = 0.0
    for n in range(1, 7):
        size = 1 << n
        grid = exactness_grid(n)
        rows = probe_rows(grid, n, size)
        moments = rows.T @ rows / rows.shape[0]
        worst_moment = max(worst_moment, float(np.max(np.abs(moments - np.eye(size) / size))))
        for k in range(20):
            mat = haar_random_unitary(n, derive_seed(101, n, k))
            estimate = classical_trace_estimate(mat, grid)
            worst_trace = max(worst_trace, abs(estimate - np.trace(mat) / size))
    elapsed = time.perf_counter() - start
    report(f"acceptance 01 probe-moment exactness: PASS "
           f"(worst moment dev {worst_moment:.2e}, worst trace dev {worst_trace:.2e}, {elapsed:.1f}s)")
    assert worst_moment <= 1e-9
    assert worst_trace <= 1e-9
    assert elapsed < 30.0


def test_02_error_scaling_with_samples(tmp_path):
    """Error of the sampled norm of (U1 - U2)/sqrt(2) at n = 6, as the CLI's
    fig2 reports it over 30 seeds, falls like m^(-1/2): slope within
    -0.5 +- 0.15 and monotone over four decades; runs in under 5 min."""
    start = time.perf_counter()
    m_values = [10, 100, 1000, 10_000]
    out = tmp_path / "fig2.csv"
    argv = ["fig2", "--n", "6", "--seeds", "30", "--seed", "202", "--m-list", ",".join(map(str, m_values))]
    assert cli.main([*argv, "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(row["m"]) for row in rows] == m_values
    means = np.array([float(row["mean_error"]) for row in rows])
    slope = float(np.polyfit(np.log10(m_values), np.log10(means), 1)[0])
    monotone = bool(np.all(np.diff(means) < 0))
    elapsed = time.perf_counter() - start
    report(f"acceptance 02 error scaling: PASS (slope {slope:.3f}, "
           f"means {np.round(means, 5).tolist()}, {elapsed:.1f}s)")
    assert -0.65 <= slope <= -0.35
    assert monotone
    assert elapsed < 300.0


def test_03_mixture_expansion_equivalence():
    """Analytic quadratic form matches the dense <x|M M^dag|x> to 1e-9 over
    100 random mixtures, K <= 4, n <= 4."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        mixed = random_mixture(n, int(rng.integers(1, 5)), rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        mat = mixed_operation_matrix(mixed)
        x = probe_rows([theta], n, 1 << n)[0]
        dense = (x @ (mat @ mat.conj().T) @ x).real
        worst = max(worst, abs(mixed_quadratic_form(adjoint(mixed), [theta])[0] - dense))
    report(f"acceptance 03 mixture expansion equivalence: PASS (worst dev {worst:.2e})")
    assert worst <= 1e-9


def test_04_interference_cross_oracle():
    """The kernel's per-angle test probabilities and those of the literal
    (n+1)-qubit circuit with state prep S(theta) agree to 1e-10 on 1000
    random draws, each checked in both parts, n <= 5."""
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        u1, u2 = random_circuit(n, 6, rng), random_circuit(n, 5, rng)
        theta = float(rng.uniform(-math.pi, math.pi))
        prep = sampling_circuit(n, theta)
        # (U1/2, -U2/2) gives Pr(1) of the real-part test with chain
        # (U2^dag, U1); (U1/2, -i U2/2) that of the imaginary-part test.
        for part, c2 in (("real", -0.5), ("imaginary", -0.5j)):
            value = mixed_quadratic_form(adjoint(MixedOperation(((0.5, u1), (c2, u2)))), [theta])[0]
            worst = max(worst, abs(value - circuit_probability(prep, (adjoint(u2), u1), part)))
    report(f"acceptance 04 interference cross-oracle: PASS (worst dev {worst:.2e})")
    assert worst <= 1e-10


def test_05_shot_concentration():
    """738 shots (the eps=0.1, delta=0.05 budget) hold the estimate within
    0.1 of truth in at least 186 of 200 trials, at the hardest p = 1/2.

    The kernel runs one real-part test per angle for (I/2, -Y/2); as x is
    real, Re<x|Y|x> = 0, so p = 1/2 exactly at every angle, and each value
    is the fraction of ones, so the test's estimate is 1 - 2 value."""
    shots = hadamard_shot_budget(0.1, 0.05)
    assert shots == 738
    mixture = MixedOperation(((0.5, Circuit(1)), (-0.5, Circuit(1, (GateOp("y", (0,)),)))))
    values = mixed_quadratic_form(mixture, sample_thetas(505, 200), shots_per_test=shots, seed=505)
    hits = int(np.count_nonzero(np.abs(1.0 - 2.0 * values) <= 0.1))
    report(f"acceptance 05 shot concentration: PASS ({hits}/200 within 0.1)")
    assert hits >= 186


@pytest.fixture(scope="module")
def similarity_scan():
    """20 rotation-perturbed 6-qubit pairs spanning distances [0.02, 0.5],
    1000 Haar states each; timed against the 3-minute cap."""
    start = time.perf_counter()
    pairs = []
    for k, distance in enumerate(np.linspace(0.02, 0.5, 20)):
        u1, u2 = rotation_perturbed_pair(6, float(distance), derive_seed(606, k))
        exact = exact_schatten2(u1.matrix - u2.matrix)
        values = np.empty(1000)
        state_seed = derive_seed(606, k, 1)
        for i in range(1000):
            psi = haar_state(6, derived_rng(state_seed, i))
            values[i] = abs(np.vdot(apply_circuit(psi, u1).amplitudes, apply_circuit(psi, u2).amplitudes)) ** 2
        pairs.append((exact, values))
    return {"pairs": pairs, "elapsed": time.perf_counter() - start}


def test_06_similarity_threshold_fraction(similarity_scan):
    """At eps = (1 + sqrt(8)) * distance, at least 80% of Haar states reach
    fidelity 1 - eps, for every pair; scan runs in under 3 min."""
    factor = 1 + math.sqrt(8)
    fractions = [float((values >= 1 - factor * exact).mean()) for exact, values in similarity_scan["pairs"]]
    report(f"acceptance 06 similarity threshold fraction: PASS "
           f"(min fraction {min(fractions):.3f}, {similarity_scan['elapsed']:.1f}s)")
    assert min(fractions) >= 0.8
    assert similarity_scan["elapsed"] < 180.0


def test_07_mean_fidelity_bound(similarity_scan):
    """Mean fidelity >= 1 - distance^2 minus 3 standard errors, per pair."""
    worst_margin = math.inf
    for exact, values in similarity_scan["pairs"]:
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        worst_margin = min(worst_margin, float(values.mean() - (1 - exact**2 - 3 * stderr)))
    report(f"acceptance 07 mean fidelity bound: PASS (worst margin {worst_margin:.2e})")
    assert worst_margin >= 0.0


def test_08_sqrt_error_propagation():
    """10^4 hypothesis-satisfying triples produce zero violations of
    |sqrt(m_hat) - s| <= eps."""
    rng = np.random.default_rng(808)
    violations = 0
    for _ in range(10_000):
        s = float(rng.uniform(0, 2))
        eps = float(rng.uniform(1e-3, 1))
        bound = eps * max(eps, s)
        m_hat = float(rng.uniform(max(0.0, s * s - bound), s * s + bound))
        assert sqrt_error_propagation_holds(m_hat, s, eps)
        if abs(math.sqrt(m_hat) - s) > eps + 1e-12:
            violations += 1
    report(f"acceptance 08 sqrt error propagation: PASS ({violations} violations)")
    assert violations == 0


def _learning_ansatz() -> Ansatz:
    template = Circuit(2, (
        GateOp("ry", (0,), (ParamSlot(0),)),
        GateOp("ry", (1,), (ParamSlot(1),)),
        GateOp("cnot", (0, 1)),
        GateOp("ry", (0,), (ParamSlot(2),)),
        GateOp("ry", (1,), (ParamSlot(3),)),
    ))
    return Ansatz(template)


def test_09_learning_convergence():
    """Realizable 2-qubit targets, analytic mode, m = 64: cost <= 1e-3 within
    500 steps for at least 8 of 10 seeds; on the exactness grid the objective
    equals the squared distance to 1e-9; runs in under 2 min."""
    start = time.perf_counter()
    ansatz = _learning_ansatz()
    wins = 0
    worst_identity = 0.0
    for seed in range(10):
        hidden = derived_rng(909, seed).uniform(-math.pi, math.pi, 4)
        target = ansatz.bind(hidden)
        config = LearnConfig(m=64, eta=0.1, max_iters=500, tol=1e-3, seed=seed)
        result = learn_circuit(ansatz, target, config)
        wins += result.converged and result.final_cost <= 1e-3
        grid_loss = LearnObjective(ansatz, target, exactness_grid(2))(result.xi)
        exact = exact_schatten2(circuit_matrix(ansatz.bind(result.xi)) - circuit_matrix(target)) ** 2
        worst_identity = max(worst_identity, abs(grid_loss - exact))
    elapsed = time.perf_counter() - start
    report(f"acceptance 09 learning convergence: PASS ({wins}/10 converged, "
           f"worst objective/distance dev {worst_identity:.2e}, {elapsed:.1f}s)")
    assert wins >= 8
    assert worst_identity <= 1e-9
    assert elapsed < 120.0


def test_10_square_root_of_phase_gate():
    """Learning a square root of diag(1, i): the learned square lands within
    0.05 of the target, and the known closed-form parameters cost < 1e-12."""
    template = Circuit(1, (GateOp("globalphase", (), (ParamSlot(0),)), GateOp("rz", (0,), (ParamSlot(1),))))
    target = Circuit(1, (GateOp("s", (0,)),))
    target_matrix = circuit_matrix(target)

    base = Ansatz(template, repeat=1)
    direct = LearnObjective(base, target, exactness_grid(1))(np.array([math.pi / 4, math.pi / 2]))
    doubled = Ansatz(template, repeat=2)
    rooted = LearnObjective(doubled, target, exactness_grid(1))(np.array([math.pi / 8, math.pi / 4]))

    result = learn_circuit(doubled, target, LearnConfig(m=64, eta=0.1, max_iters=1000, tol=1e-6, seed=0))
    learned_distance = exact_schatten2(circuit_matrix(doubled.bind_repeated(result.xi)) - target_matrix)
    report(f"acceptance 10 square root learning: PASS (||U^2 - S|| {learned_distance:.2e}, "
           f"closed-form costs {direct:.2e} / {rooted:.2e})")
    assert direct < 1e-12
    assert rooted < 1e-12
    assert learned_distance <= 0.05


def test_11_cli_determinism(tmp_path):
    """Identical seeds give byte-identical outputs regardless of --threads."""
    mixture = tmp_path / "m.json"
    mixture.write_text(json.dumps({
        "terms": [
            {"coeff": [0.5, 0.0], "circuit": {"n": 2, "ops": [{"gate": "ry", "qubits": [0], "params": [0.4]}]}},
            {"coeff": [-0.5, 0.0], "circuit": {"n": 2, "ops": [{"gate": "cnot", "qubits": [0, 1]}]}},
        ]
    }))
    circuit = tmp_path / "c.json"
    circuit.write_text(json.dumps({"n": 1, "ops": [{"gate": "h", "qubits": [0]}]}))

    def run(args, out, threads):
        proc = subprocess.run(
            [sys.executable, "-m", "qsnorm", *args, "--out", str(out), "--threads", str(threads)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    estimate_args = ["estimate", "--mixed", str(mixture), "--samples", "300", "--shots", "25", "--seed", "42"]
    decide_args = [
        "decide", "--u1", str(circuit), "--u2", str(circuit), "--epsilon", "1.0",
        "--delta", "0.2", "--delta-hat", "0.05", "--samples", "500", "--seed", "42",
    ]
    pairs = []
    for name, args in (("estimate", estimate_args), ("decide", decide_args)):
        first = run(args, tmp_path / f"{name}_a.json", 1)
        second = run(args, tmp_path / f"{name}_b.json", 4)
        pairs.append(first == second)
        assert first == second
    report(f"acceptance 11 cli determinism: PASS (byte-identical: {pairs})")
