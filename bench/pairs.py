"""Compare two source trees on one benchmark workload, invocation by invocation.

    python bench/pairs.py --workload learn --base ../parent --invocations 40
    python bench/pairs.py --workload learn --control --invocations 40

Each tree is a qsnorm checkout (its package under ``src/``); ``--head``
defaults to this checkout and ``--base`` to ``--head``. ``--control`` runs
the base tree against itself, which shows how far two identical trees read
apart on this host.

Invocation i of the workload seed gets its inputs from
``perfbench/workloads.py``, once, and runs through ``perfbench/child.py`` in
a fresh interpreter per tree, as ``perfbench/run.py`` runs it; both files
are only read. The two trees' runs of one invocation are interleaved, the
base first at odd i and the head first at even i, so drift in the host's
speed falls on both alike. Every child gets one BLAS thread, as in
``run.py``. Per metric (``run_s``, ``setup_s``, ``peak_rss_mib``) the script
prints each tree's median and quartiles, the head-over-base ratio of the
medians, the median of the per-invocation ratios and the number of
invocations on which the head was lower, then whether each invocation wrote
the same bytes in both trees. The last line is the same as one JSON object.

Each metric's line ends with the claim rule for a gain (every metric here is
better lower): whether the head was lower in at least nine tenths of the
invocations, ties counting for neither, and whether the base's median
exceeds the head's by more than the base's quartile spread. The rule is
meant for whole benchmark runs; here it screens single invocations, whose
spread is wider, so it is a screen, not the benchmark's verdict.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
METRICS = ("run_s", "setup_s", "peak_rss_mib")
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    return env


def run_child(tree: Path, argv: list, out: Path, index: int) -> dict:
    """One invocation in a fresh interpreter: child.py's record, with
    ``setup_s`` measured from the spawn as run.py does, and the sha256 of
    the output file."""
    spec = {"src": str(tree / "src"), "argv": [*argv, "--out", str(out)], "spans": None, "invocation": index}
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: child exited {proc.returncode}: {proc.stderr[-400:]}")
    record = json.loads(lines[-1])
    if record["rc"] != 0:
        raise RuntimeError(f"{tree}: {' '.join(argv)} exited {record['rc']}: {proc.stderr[-400:]}")
    record["setup_s"] = record.pop("imported") - spawned
    record["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
    return record


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(base: list, head: list) -> dict:
    """Per metric: medians, quartiles, the head/base ratio of the medians,
    the median of the per-invocation ratios (which drift in the host's
    speed moves less), head wins and the two tests of the claim rule."""
    result = {}
    for metric in METRICS:
        b, h = [r[metric] for r in base], [r[metric] for r in head]
        (bq1, bmed, bq3), (hq1, hmed, hq3) = quartiles(b), quartiles(h)
        head_lower = sum(y < x for x, y in zip(b, h))
        result[metric] = {
            "base": {"median": bmed, "q1": bq1, "q3": bq3},
            "head": {"median": hmed, "q1": hq1, "q3": hq3},
            "ratio": hmed / bmed if bmed else float("nan"),
            "pair_ratio": statistics.median(y / x for x, y in zip(b, h)),
            "head_lower": head_lower,
            "nine_tenths_lower": head_lower >= 0.9 * len(b),
            "gap_exceeds_spread": bmed - hmed > bq3 - bq1,
        }
    result["same_bytes"] = sum(x["digest"] == y["digest"] for x, y in zip(base, head))
    result["invocations"] = len(base)
    return result


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", type=Path, help="base checkout (default: --head)")
    parser.add_argument("--head", type=Path, default=ROOT, help="head checkout (default: this one)")
    parser.add_argument("--control", action="store_true", help="run the base tree against itself")
    parser.add_argument("--invocations", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    # Reading the workloads must not leave bytecode under perfbench/.
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    base = (args.base or args.head).resolve()
    head = base if args.control else args.head.resolve()
    for tree in (base, head):
        if not (tree / "src" / "qsnorm" / "cli.py").is_file():
            parser.error(f"no qsnorm package under {tree / 'src'}")
    workload = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix="pairs-"))
    records = {"base": [], "head": []}
    try:
        for i in range(1, args.invocations + 1):
            inv = workload.make(work, args.seed, i)
            order = ("base", "head") if i % 2 else ("head", "base")
            for side in order:
                tree = base if side == "base" else head
                records[side].append(run_child(tree, inv.argv, work / f"{side}{i}.out", i))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"workload": workload.name, "seed": args.seed, "control": args.control,
              "base": str(base), "head": str(head), **summary(records["base"], records["head"])}
    n = result["invocations"]
    for metric in METRICS:
        row = result[metric]
        b, h = row["base"], row["head"]
        print(
            f"{metric:13s} base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]  "
            f"head {h['median']:.5g} [{h['q1']:.5g}, {h['q3']:.5g}]  "
            f"ratio {row['ratio']:.3f} (per pair {row['pair_ratio']:.3f})  head lower in {row['head_lower']} of {n}  "
            f"claim rule: 9/10 lower {'yes' if row['nine_tenths_lower'] else 'no'}, "
            f"gap > base spread {'yes' if row['gap_exceeds_spread'] else 'no'}"
        )
    print(f"same bytes in {result['same_bytes']} of {n} invocations")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
