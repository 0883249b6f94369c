"""Smoke test of the layer timing script, which is not part of the package."""

import importlib.util
from pathlib import Path

LAYERS_SCRIPT = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_every_layer_case_runs_once():
    """A renamed or re-signed function the script calls fails here, not only
    when someone next writes a BENCH_*.json."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = module.layers()
    assert cases
    for name, (call, keys) in cases.items():
        call()
        assert isinstance(keys, int) and keys >= 1, name
