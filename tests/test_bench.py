"""Smoke tests of the benchmark scripts, which are not part of the package:
the layer timing script, the paired comparison run and the code line
counter, and every package name the end-to-end benchmark (``perfbench/``)
reads still exists."""

import ast
import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import qsnorm

ROOT = Path(__file__).resolve().parent.parent
LAYERS_SCRIPT = ROOT / "bench" / "layers.py"
PAIRS_SCRIPT = ROOT / "bench" / "pairs.py"
PERFBENCH = ROOT / "perfbench"


def load_script(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_layers_script():
    return load_script(LAYERS_SCRIPT, "bench_layers")


def test_every_layer_case_runs_once():
    """A renamed or re-signed function the script calls fails here, not only
    when someone next writes a BENCH_*.json."""
    cases = load_layers_script().layers()
    assert cases
    for name, (call, keys) in cases.items():
        call()
        assert isinstance(keys, int) and keys >= 1, name


def test_layer_record_counts_minor_faults():
    """Each layer's record gives the median minor page faults per call; a
    call that touches 40 MiB of fresh memory counts at least one."""
    module = load_layers_script()
    quiet = module.measure_layer(lambda: None, 1, repeats=2)
    touching = module.measure_layer(lambda: np.ones(5 << 20), 1, repeats=2)
    assert quiet["minor_faults_per_call"] >= 0
    assert touching["minor_faults_per_call"] >= 1
    assert set(quiet) == {"median_s", "q1_s", "q3_s", "keys", "median_per_key_us", "minor_faults_per_call"}


def test_every_layer_case_is_documented():
    """Each case's layer, the name before the first dot, is described in the
    script's docstring as a ``double-backquoted`` name."""
    module = load_layers_script()
    prefixes = {name.split(".", 1)[0] for name in module.layers()}
    assert sorted(p for p in prefixes if f"``{p}``" not in module.__doc__) == []


def test_perfbench_oracles_find_their_package_names():
    """The benchmark's output checks call ``qs.<name>`` and ``Ansatz``
    methods; a missing one would surface only as a lower success rate."""
    text = (PERFBENCH / "workloads.py").read_text()
    names = set(re.findall(r"\bqs\.(\w+)", text))
    assert names
    assert sorted(name for name in names if not hasattr(qsnorm, name)) == []
    methods = set(re.findall(r"\bansatz\.(\w+)\(", text))
    assert sorted(name for name in methods if not hasattr(qsnorm.Ansatz, name)) == []


def test_perfbench_traced_modules_import():
    """Every module the tracer wraps imports as ``qsnorm.<key>``. The file is
    parsed, not imported, so nothing under perfbench/ is written."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets)
    ]
    assert layers
    for key in layers:
        importlib.import_module(f"qsnorm.{key}")


def test_pairs_runs_the_checkout_against_itself():
    """Two learn invocations of this checkout against itself: each runs in
    both trees, writes the same bytes in both, and the summary gives every
    metric's medians, quartiles, ratio, win count and the claim rule's two
    tests, which follow from the wins and the medians. Nothing is written
    under perfbench/."""
    before = sorted(PERFBENCH.rglob("*"))
    proc = subprocess.run(
        [sys.executable, str(PAIRS_SCRIPT), "--workload", "learn", "--invocations", "2", "--control"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["control"] and result["base"] == result["head"] == str(ROOT)
    assert result["invocations"] == 2 and result["same_bytes"] == 2
    for metric in ("run_s", "setup_s", "peak_rss_mib"):
        row = result[metric]
        assert 0 < row["base"]["q1"] <= row["base"]["median"] <= row["base"]["q3"]
        assert 0 < row["head"]["median"] and row["ratio"] > 0 and row["pair_ratio"] > 0 and 0 <= row["head_lower"] <= 2
        assert row["nine_tenths_lower"] is (row["head_lower"] == 2)
        gap, spread = row["base"]["median"] - row["head"]["median"], row["base"]["q3"] - row["base"]["q1"]
        assert row["gap_exceeds_spread"] is (gap > spread)
    assert proc.stdout.count("claim rule: 9/10 lower ") == 3
    assert sorted(PERFBENCH.rglob("*")) == before


def test_loc_counts_code_lines_only(tmp_path):
    """The counter skips blank lines, comment lines and the docstrings of a
    module, class and function, and counts every line a token of code
    spans: the import, the class and def lines, the three lines of the
    tuple, the two lines of the string assigned to ``text``, the return
    and the string statement that is no docstring, 10 lines. Run on a
    file, it prints that count and the total."""
    snippet = '''"""A module docstring
over two lines."""

import math  # a comment


class Shape:
    """A class docstring."""

    sides = (
        4,
    )

    def area(self):
        """A function docstring."""
        # a comment line
        text = """a string that is
        not a docstring"""
        return math.pi


"a module-level string after the first statement"
'''
    script = ROOT / "bench" / "loc.py"
    assert load_script(script, "bench_loc").code_lines(snippet) == 10
    path = tmp_path / "snippet.py"
    path.write_text(snippet)
    proc = subprocess.run([sys.executable, str(script), str(path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["10", str(path), "10", "total"]
