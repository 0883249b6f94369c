"""Cross-workload check of the tracing, run from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload once with ``--trace 1`` and fails unless every run is
correct (which includes the byte-identical and span-tree checks of a traced
run), every workload calls the functions its definition says it exercises, and
every per-function metric and every work count is non-zero on at least one
workload. A listed function that no workload reaches usually means a binding
of it that ``tracing.install`` missed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Zero on a healthy run: nothing clamps, and no output differs from the
# stored digests.
ZERO_WHEN_HEALTHY = {"schatten.clamped", "cli.outputs_changed"}
SEED = 1
SECONDS = 1


def main() -> int:
    problems = []
    metrics = {}
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
             "--seconds", str(SECONDS), "--trace", "1"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            problems.append(f"{name}: run.py exited {proc.returncode}: {proc.stderr[-400:]}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            problems.append(f"{name}: {result['failed']} of {result['attempted']} invocations failed")
        metrics[name] = {k: v["value"] for k, v in result["metrics"].items()}
        for function in sorted(workload.exercises):
            if metrics[name][f"{function}.calls"] == 0:
                problems.append(f"{name}: {function} was never called")

    if len(metrics) == len(WORKLOADS):
        names = [f"{f}.{kind}" for f in tracing.FUNCTIONS for kind in ("calls", "self_s")]
        names += [c for c in (*tracing.COUNTS, "learn.iterations", "learn.loss_calls_per_step") if c not in ZERO_WHEN_HEALTHY]
        for metric in names:
            if all(values[metric] == 0 for values in metrics.values()):
                problems.append(f"{metric} is zero on every workload")

    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print(f"selfcheck: {'FAIL' if problems else 'ok'} ({len(metrics)} workloads)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
