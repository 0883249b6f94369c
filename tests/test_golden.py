"""Golden outputs: the CLI's output bytes for fixed inputs and seeds.

Each case runs one subcommand in-process (a case of ``ONE_THREAD_CASES`` in
a subprocess under one BLAS thread) on the inputs in ``tests/golden/``
and compares every output file with the bytes recorded there, so any change
to a seeded random stream or to the arithmetic behind an output shows up
here. Each error case is one failing invocation; the tests of
``tests/test_cli.py`` run it in-process and compare its exit code and
stderr bytes with ``tests/golden/errors.json``. A change that moves output
bits or error text on purpose re-records the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from qsnorm import cli

GOLDEN = Path(__file__).parent / "golden"

# case name: (argv with {golden} for the input directory, output flags).
# Each output flag writes <case>.<flag suffix> next to the inputs.
CASES = {
    "fig2": (["fig2", "--n", "4", "--seeds", "3", "--m-list", "10,100,500", "--seed", "5"], {"--out": "csv"}),
    "similarity": (["similarity", "--n", "4", "--pairs", "3", "--states", "500", "--seed", "5"], {"--out": "csv"}),
    # 300 Haar states at n = 6 span two 256-row chunks.
    "similarity_n6": (["similarity", "--n", "6", "--pairs", "2", "--states", "300", "--seed", "5"], {"--out": "csv"}),
    "estimate": (["estimate", "--mixed", "{golden}/mixture.json", "--samples", "500", "--seed", "7"], {"--out": "json"}),
    "estimate_shots": (
        ["estimate", "--mixed", "{golden}/mixture.json", "--samples", "200", "--shots", "50", "--seed", "7"],
        {"--out": "json"},
    ),
    "decide": (
        ["decide", "--u1", "{golden}/u1.json", "--u2", "{golden}/u2.json", "--epsilon", "1.0",
         "--delta", "0.2", "--delta-hat", "0.05", "--samples", "500", "--seed", "3"],
        {"--out": "json"},
    ),
    "decide_shots": (
        ["decide", "--u1", "{golden}/u1.json", "--u2", "{golden}/u2.json", "--epsilon", "1.0",
         "--delta", "0.2", "--delta-hat", "0.05", "--samples", "200", "--shots", "40", "--seed", "3"],
        {"--out": "json"},
    ),
    "learn": (
        ["learn", "--ansatz", "{golden}/ansatz.json", "--target", "{golden}/target.json",
         "--max-iters", "40", "--tol", "1e-3", "--seed", "2"],
        {"--out": "json", "--history-out": "history.csv"},
    ),
    "learn_shots": (
        ["learn", "--ansatz", "{golden}/ansatz.json", "--target", "{golden}/target.json",
         "--samples", "32", "--shots", "20", "--max-iters", "5", "--seed", "2"],
        {"--out": "json", "--history-out": "history.csv"},
    ),
    "fig2_config": (["fig2", "--config", "{golden}/config_fig2.json"], {"--out": "csv"}),
    "estimate_config_override": (
        ["estimate", "--config", "{golden}/config_estimate.json", "--mixed", "{golden}/mixture.json",
         "--samples", "200"],
        {"--out": "json"},
    ),
}


def wide_cases(n: int, m: int, shot_m: int) -> dict:
    """estimate and decide, analytic over m angles and in shot mode over
    shot_m, on the stored depth-20 gate circuits of an n-qubit register."""
    mixed = ["estimate", "--mixed", f"{{golden}}/mixture_n{n}.json", "--seed", "7"]
    pair = ["decide", "--u1", f"{{golden}}/u1_n{n}.json", "--u2", f"{{golden}}/u2_n{n}.json", "--epsilon", "1.0",
            "--delta", "0.2", "--delta-hat", "0.05", "--seed", "3"]
    return {
        f"estimate_n{n}": ([*mixed, "--samples", str(m)], {"--out": "json"}),
        f"estimate_shots_n{n}": ([*mixed, "--samples", str(shot_m), "--shots", "50"], {"--out": "json"}),
        f"decide_n{n}": ([*pair, "--samples", str(m)], {"--out": "json"}),
        f"decide_shots_n{n}": ([*pair, "--samples", str(shot_m), "--shots", "40"], {"--out": "json"}),
    }


# Wider registers than the cases above, whose row chunks hold fewer rows;
# each angle count spans several chunks. Recorded under
# OPENBLAS_NUM_THREADS=1; two threads give the same bytes.
CASES.update(wide_cases(7, 300, 200))
CASES.update(wide_cases(9, 100, 80))
CASES.update(wide_cases(12, 40, 24))

# Cases whose bytes depend on the BLAS thread count: fig2's Haar unitaries
# come from np.linalg.qr and its exact distances from np.linalg.norm, whose
# bits differ between thread counts from n = 7 on. They are recorded and
# checked in a subprocess under OPENBLAS_NUM_THREADS=1.
ONE_THREAD_CASES = {
    "fig2_n7": (["fig2", "--n", "7", "--seeds", "2", "--m-list", "10,100", "--seed", "5"], {"--out": "csv"}),
}

# Inputs of the error cases, written into the working directory of the run
# and named relative to it, so that stderr holds no absolute path.
INPUTS = {
    "m.json": '{"terms": [{"coeff": [1.0, 0.0], "circuit": {"n": 1, "ops": []}}]}',
    "bad.json": "{not json",
    "heavy.json": '{"terms": [{"coeff": [0.8, 0.0], "circuit": {"n": 1, "ops": []}},'
                  ' {"coeff": [0.4, 0.0], "circuit": {"n": 1, "ops": []}}]}',
    "nan.json": '{"terms": [{"coeff": [NaN, 0], "circuit": {"n": 1, "ops": []}}]}',
    "big.json": '{"terms": [{"coeff": [0.5, 0.0], "circuit": {"n": 21, "ops": []}}]}',
    "u1.json": '{"n": 1, "ops": []}',
    "u2.json": '{"n": 2, "ops": []}',
    "n27.json": '{"n": 2.7, "ops": []}',
    "q1.json": '{"n": 2, "ops": [{"gate": "h", "qubits": ["1"]}]}',
    "ry.json": '{"n": 1, "ops": [{"gate": "ry", "qubits": [0], "params": [{"slot": 0}]}]}',
    "bogus.cfg": '{"samples": 5, "bogus": 1}',
    "threads.cfg": '{"mixed": "m.json", "threads": 2}',
    "float.cfg": '{"mixed": "m.json", "samples": 3.7}',
    "string.cfg": '{"mixed": "m.json", "samples": "12"}',
    "bool.cfg": '{"mixed": "m.json", "samples": true}',
    "nan.cfg": '{"u1": "u1.json", "u2": "u1.json", "epsilon": NaN, "delta": 0.2, "delta_hat": 0.05}',
    "sqrt.cfg": '{"sqrt": "false"}',
    "m_list.cfg": '{"m_list": "10,abc"}',
}
DECIDE = ["decide", "--u1", "u1.json", "--delta-hat", "0.05", "--samples", "10"]
LEARN = ["learn", "--ansatz", "ry.json", "--samples", "4", "--max-iters", "2"]
SIMILARITY = ["similarity", "--pairs", "2", "--states", "10"]
# error case name: argv. tests/test_cli.py checks each case with check_error.
ERRORS = {
    "estimate_negative_seed": ["estimate", "--mixed", "m.json", "--samples", "5", "--seed", "-1"],
    "estimate_negative_seed_shots": ["estimate", "--mixed", "m.json", "--samples", "5", "--shots", "5", "--seed", "-1"],
    "estimate_malformed_file": ["estimate", "--mixed", "bad.json"],
    "estimate_missing_file": ["estimate", "--mixed", "absent.json"],
    "estimate_overweight_mixture": ["estimate", "--mixed", "heavy.json"],
    "estimate_nan_coefficient": ["estimate", "--mixed", "nan.json", "--samples", "5"],
    "estimate_above_state_cap": ["estimate", "--mixed", "big.json", "--samples", "1"],
    "estimate_missing_setting": ["estimate"],
    "config_unknown_key": ["estimate", "--config", "bogus.cfg"],
    "config_threads_key": ["estimate", "--config", "threads.cfg", "--samples", "5"],
    "config_float_for_int": ["estimate", "--config", "float.cfg"],
    "config_string_for_int": ["estimate", "--config", "string.cfg"],
    "config_bool_for_int": ["estimate", "--config", "bool.cfg"],
    "config_nan": ["decide", "--config", "nan.cfg", "--samples", "10"],
    "decide_domain_violation": [*DECIDE, "--u2", "u1.json", "--epsilon", "0.1", "--delta", "1.5"],
    "decide_nan_epsilon": [*DECIDE, "--u2", "u1.json", "--epsilon", "nan", "--delta", "0.2"],
    "decide_coerced_register": [*DECIDE, "--u2", "n27.json", "--epsilon", "0.1", "--delta", "0.2"],
    "decide_coerced_qubit": [*DECIDE, "--u2", "q1.json", "--epsilon", "0.1", "--delta", "0.2"],
    "learn_sqrt_config_string": [*LEARN, "--target", "u1.json", "--config", "sqrt.cfg"],
    "learn_sqrt_needs_repeat_two": [*LEARN, "--target", "u1.json", "--sqrt"],
    "learn_nan_tol": [*LEARN, "--target", "u1.json", "--tol", "nan"],
    "learn_inf_eta": [*LEARN, "--target", "u1.json", "--eta", "inf"],
    "learn_inf_fd_eps": [*LEARN, "--target", "u1.json", "--fd-eps", "inf"],
    "learn_register_mismatch": [*LEARN, "--target", "u2.json"],
    "fig2_zero_seeds": ["fig2", "--n", "1", "--seeds", "0", "--m-list", "5", "--out", "out.csv"],
    "fig2_malformed_m_list": ["fig2", "--n", "1", "--seeds", "1", "--m-list", "10,abc"],
    "fig2_malformed_m_list_config": ["fig2", "--n", "1", "--seeds", "1", "--config", "m_list.cfg"],
    "fig2_nonpositive_m": ["fig2", "--n", "1", "--seeds", "1", "--m-list", "0,10"],
    "fig2_zero_qubits": ["fig2", "--n", "0", "--seeds", "1", "--m-list", "5"],
    "fig2_negative_qubits": ["fig2", "--n", "-2", "--seeds", "1", "--m-list", "5"],
    "fig2_unrecognized_argument": ["fig2", "--n", "1", "extra"],
    "similarity_bad_delta": [*SIMILARITY, "--n", "1", "--delta", "2.0"],
    "similarity_unreachable_distance": [*SIMILARITY, "--n", "1", "--dist-max", "3"],
    "similarity_zero_pairs": ["similarity", "--n", "1", "--pairs", "0", "--states", "10", "--out", "out.csv"],
    "similarity_zero_qubits": [*SIMILARITY, "--n=0"],
    "similarity_negative_qubits": [*SIMILARITY, "--n=-1"],
    "similarity_zero_states": ["similarity", "--n", "1", "--pairs", "2", "--states=0"],
    "unknown_command": ["frobnicate"],
}


def run_case(name: str, outdir: Path) -> dict[str, Path]:
    """Run one case, writing its outputs into ``outdir``; returns the
    expected file name of each output mapped to the path written. A case
    of ONE_THREAD_CASES runs ``python -m qsnorm`` in a subprocess under
    one BLAS thread; the others run in this process."""
    argv, outputs = {**CASES, **ONE_THREAD_CASES}[name]
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    written = {}
    for flag, suffix in outputs.items():
        written[f"{name}.{suffix}"] = outdir / f"{name}.{suffix}"
        argv += [flag, str(written[f"{name}.{suffix}"])]
    if name in CASES:
        assert cli.main(argv) == 0
        return written
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(GOLDEN.parent.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "qsnorm", *argv], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return written


def run_error(name: str, workdir: Path) -> dict:
    """Run one error case in ``workdir``, with its inputs written there and
    usage text wrapped at 80 columns; returns its exit code and stderr."""
    for file, text in INPUTS.items():
        (workdir / file).write_text(text)
    stderr = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stderr(stderr):
            code = cli.main(ERRORS[name])
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(previous)
    return {"exit": code, "stderr": stderr.getvalue()}


def check_error(name: str, workdir: Path) -> None:
    """Assert that an error case exits and writes stderr as recorded."""
    assert run_error(name, workdir) == json.loads((GOLDEN / "errors.json").read_text())[name]


@pytest.mark.parametrize("name", sorted(CASES) + sorted(ONE_THREAD_CASES))
def test_output_bytes_match_recording(name, tmp_path):
    for expected, path in run_case(name, tmp_path).items():
        assert path.read_bytes() == (GOLDEN / expected).read_bytes(), expected


if __name__ == "__main__":
    for case in [*CASES, *ONE_THREAD_CASES]:
        for expected in run_case(case, GOLDEN):
            print(f"recorded tests/golden/{expected}")
    with tempfile.TemporaryDirectory() as workdir:
        errors = {name: run_error(name, Path(workdir)) for name in ERRORS}
    # One case per line, so that a re-recording diffs case by case.
    lines = [f"{json.dumps(name)}: {json.dumps(errors[name], sort_keys=True)}" for name in sorted(errors)]
    (GOLDEN / "errors.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print("recorded tests/golden/errors.json")
