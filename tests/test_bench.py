"""Smoke tests of the benchmark scripts, which are not part of the package:
the layer timing script runs, and every package name the end-to-end
benchmark (``perfbench/``) reads still exists."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import qsnorm

ROOT = Path(__file__).resolve().parent.parent
LAYERS_SCRIPT = ROOT / "bench" / "layers.py"
PERFBENCH = ROOT / "perfbench"


def load_layers_script():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_case_runs_once():
    """A renamed or re-signed function the script calls fails here, not only
    when someone next writes a BENCH_*.json."""
    cases = load_layers_script().layers()
    assert cases
    for name, (call, keys) in cases.items():
        call()
        assert isinstance(keys, int) and keys >= 1, name


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
