"""What the package exports: every name is used inside the package, read by
the end-to-end benchmark's output checks, or kept for a stated reason."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qsnorm"

# Exports that no package module and no benchmark oracle calls, with the
# reason each stays.
KEEP = {
    "classical_trace_estimate": "the paper's classical estimator; the package's only normalized-trace one",
    "classical_schatten2_estimate": "the paper's classical Schatten-2 estimator, beside the trace one",
    "sample_budget_trace": "the paper's stated sample budget for the trace estimate",
    "sample_budget_schatten2": "the paper's stated sample budget for the Schatten-2 estimate",
    "hadamard_shot_budget": "the paper's stated shot budget for one interference test",
    "measurement_budget_mixed": "the paper's stated measurement budget for a mixture",
    "derived_rng": "defines the seed contract that every keyed draw reproduces",
    "estimate_tau": "the paper's tau, which the mixture similarity bound takes",
    "similarity_bound_mixed": "the paper's stated similarity bound for mixtures",
}


def referenced_names(path: Path) -> set:
    """Every ``Name`` and ``Attribute`` in the module at ``path``."""
    tree = ast.parse(path.read_text())
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_export_is_reached_or_kept_for_a_reason():
    """A name only ``__init__`` mentions is either removed or given a reason
    in ``KEEP``; a ``KEEP`` entry goes once the name has a caller or is no
    longer exported."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exports = {alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set().union(*(referenced_names(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
    oracles = set(re.findall(r"\bqs\.(\w+)", (ROOT / "perfbench" / "workloads.py").read_text()))
    unreached = exports - used - oracles
    assert sorted(unreached - KEEP.keys()) == []
    assert sorted(KEEP.keys() - unreached) == []
