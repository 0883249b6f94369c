"""Golden outputs: the CLI's output bytes for fixed inputs and seeds.

Each case runs one subcommand in-process on the inputs in ``tests/golden/``
and compares every output file with the bytes recorded there, so any change
to a seeded random stream or to the arithmetic behind an output shows up
here. A change that moves output bits on purpose re-records the files with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

from pathlib import Path

import pytest

from qsnorm import cli

GOLDEN = Path(__file__).parent / "golden"

# case name: (argv with {golden} for the input directory, output flags).
# Each output flag writes <case>.<flag suffix> next to the inputs.
CASES = {
    "fig2": (["fig2", "--n", "4", "--seeds", "3", "--m-list", "10,100,500", "--seed", "5"], {"--out": "csv"}),
    "similarity": (["similarity", "--n", "4", "--pairs", "3", "--states", "500", "--seed", "5"], {"--out": "csv"}),
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
}


def run_case(name: str, outdir: Path) -> dict[str, Path]:
    """Run one case, writing its outputs into ``outdir``; returns the
    expected file name of each output mapped to the path written."""
    argv, outputs = CASES[name]
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in argv]
    written = {}
    for flag, suffix in outputs.items():
        written[f"{name}.{suffix}"] = outdir / f"{name}.{suffix}"
        argv += [flag, str(written[f"{name}.{suffix}"])]
    assert cli.main(argv) == 0
    return written


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_recording(name, tmp_path):
    for expected, path in run_case(name, tmp_path).items():
        assert path.read_bytes() == (GOLDEN / expected).read_bytes(), expected


if __name__ == "__main__":
    for case in CASES:
        for expected in run_case(case, GOLDEN):
            print(f"recorded tests/golden/{expected}")
