"""End-to-end benchmark of the qsnorm command line.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 30 --trace 0

Run from the root of a qsnorm checkout; the package is imported from
``src/``. One client runs one CLI invocation at a time (a closed loop), each
in a fresh child interpreter (``child.py``), for ``--seconds`` seconds after
one discarded warm-up invocation (``qsnorm --help``). Every output is checked
by the workload's oracle (``workloads.py``) once the timed loop ends.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced invocations of the same inputs and prints the per-layer
metrics from the traced ones (``tracing.py``), the tracing overhead and how
many reference outputs differ from ``digests.json``. The last stdout line is
the result object; the line before it is the run record (machine, seed,
sample counts), which is also written under ``.perfbench_results/``.

``--record-digests`` rewrites ``digests.json`` from the checkout's current
outputs on the reference inputs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every child it starts. The products
# here are 64x64 or smaller and gain nothing from a second thread, and on a
# shared 2-core VM a thread that waits for a descheduled sibling makes the
# timings noisier. Set before numpy is imported, so the run record reports it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, Invocation, Workload  # noqa: E402

CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
# A run times at least this many invocations, however short --seconds is.
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 60
# Reference inputs whose outputs are compared with digests.json in a traced
# run; the first of them is that run's warm-up.
REFERENCE_SEED = 0
REFERENCE_COUNT = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s.p50": "s",
    "work_per_s": "work/s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
}
DERIVED_UNITS = {
    "learn.iterations": "count",
    "learn.loss_calls_per_step": "ratio",
    "learn.converged_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
    "cli.outputs_changed": "count",
}
PER_LAYER_UNITS = {
    **{f"{f}.{kind}": unit for f in tracing.FUNCTIONS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{c: ("bytes_computed" if c == "qsim.amplitude_bytes" else "count") for c in tracing.COUNTS},
    **DERIVED_UNITS,
}


class Runner:
    """Runs and checks invocations of one workload inside a work directory."""

    def __init__(self, workload: Workload, src: Path, work: Path, qs):
        self.workload = workload
        self.src = src
        self.work = work
        self.qs = qs

    def invocation(self, seed: int, index: int) -> Invocation:
        inputs = self.work / f"seed{seed}"
        inputs.mkdir(parents=True, exist_ok=True)
        return self.workload.make(inputs, seed, index)

    def call(self, inv: Invocation, tag: str, traced: bool = False) -> dict:
        out = self.work / f"{tag}.out"
        spans = str(self.work / f"{tag}.spans.npz") if traced else None
        spec = {"src": str(self.src), "argv": [*inv.argv, "--out", str(out)], "spans": spans, "invocation": inv.index}
        command = [sys.executable, str(CHILD), json.dumps(spec)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"tag": tag, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        lines = proc.stdout.strip().splitlines()
        try:
            record = json.loads(lines[-1])
        except (IndexError, ValueError):
            return {"tag": tag, "error": f"child exited {proc.returncode}: {proc.stderr[-400:]}"}
        record["tag"] = tag
        record["setup_s"] = record.pop("imported") - spawned
        record["out"] = str(out)
        if spans is not None:
            record["spans"] = spans
        if record["rc"] != 0:
            record["error"] = f"exit code {record['rc']}: {proc.stderr[-400:]}"
        return record

    def check(self, inv: Invocation, record: dict) -> None:
        """Run the oracle on a finished invocation; store the verdict and the
        digest of its output in the record."""
        if "error" in record:
            return
        out = Path(record["out"]).read_bytes()
        record["digest"] = hashlib.sha256(out).hexdigest()
        try:
            error = self.workload.check(inv, out, self.qs)
        except Exception as exc:  # any malformed output is a failed invocation
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            record["error"] = error


def machine_record() -> dict:
    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        libraries = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines() if "openblas" in line}
    except OSError:
        return None
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def timed_loop(runner: Runner, seed: int, seconds: float, traced: bool) -> list[tuple[Invocation, dict, dict | None]]:
    """Invocations 1, 2, ... of the seed for about ``seconds``; with
    ``traced`` each input runs untraced and then traced. Another input starts
    only if, at the median pace so far, it ends less than half an input past
    the deadline, so a run lasts ``seconds`` on average."""
    runs = []
    paces = []
    started = time.monotonic()
    index = 1
    while len(runs) < MIN_INVOCATIONS or time.monotonic() - started + statistics.median(paces) / 2 < seconds:
        begun = time.monotonic()
        inv = runner.invocation(seed, index)
        plain = runner.call(inv, f"run{index}")
        runs.append((inv, plain, runner.call(inv, f"run{index}.traced", traced=True) if traced else None))
        paces.append(time.monotonic() - begun)
        index += 1
    return runs


def end_to_end(records: list[dict], works: list[float]) -> tuple[dict, dict]:
    timed = [r for r in records if "run_s" in r]
    if not timed:
        raise RuntimeError("no invocation produced a timing")
    failed = sum("error" in r for r in records)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "run_s.p50": statistics.median(r["run_s"] for r in timed),
        "work_per_s": sum(w for r, w in zip(records, works) if "error" not in r) / sum(r["run_s"] for r in timed),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in timed),
        "success_rate": 1.0 - failed / len(records),
    }
    samples = {name: len(timed) for name in values}
    samples["success_rate"] = len(records)
    return values, samples


def per_layer(runs: list[tuple[Invocation, dict, dict]], reference: list[dict], learn: bool) -> tuple[dict, dict]:
    traced = [t for _, _, t in runs if "spans" in t and "error" not in t]
    if not traced:
        raise RuntimeError("no traced invocation succeeded")
    calls = dict.fromkeys(tracing.FUNCTIONS, 0)
    seconds = dict.fromkeys(tracing.FUNCTIONS, 0.0)
    counts = dict.fromkeys(tracing.COUNTS, 0)
    learn_runs = 0
    for record in traced:
        record_calls, record_seconds, _ = tracing.self_times(record["spans"])
        for name in record_calls:
            calls[name] += record_calls[name]
            seconds[name] += record_seconds[name]
        for name, value in record["counts"].items():
            counts[name] += value
        learn_runs += record_calls.get("learn.loss", 0) > 0
    n = len(traced)
    values = {f"{f}.calls": calls[f] / n for f in tracing.FUNCTIONS}
    values.update({f"{f}.self_s": seconds[f] / n for f in tracing.FUNCTIONS})
    values.update({c: counts[c] / n for c in tracing.COUNTS})

    steps = calls["learn.finite_diff_gradient"]
    values["learn.iterations"] = steps / n
    # Loss evaluations per gradient step, not counting each run's initial one.
    values["learn.loss_calls_per_step"] = (calls["learn.loss"] - learn_runs) / steps if steps else 0.0
    learned = [json.loads(Path(r["out"]).read_text()) for _, r, _ in runs if "error" not in r] if learn else []
    values["learn.converged_ratio"] = sum(rep["converged"] for rep in learned) / len(learned) if learned else 0.0
    pairs = [(p["run_s"], t["run_s"]) for _, p, t in runs if "error" not in p and "error" not in t]
    values["trace.overhead_ratio"] = statistics.median(t for _, t in pairs) / statistics.median(p for p, _ in pairs)
    values["cli.outputs_changed"] = sum(r.get("changed", True) for r in reference)

    samples = {name: n for name in values}
    samples["trace.overhead_ratio"] = len(pairs)
    samples["cli.outputs_changed"] = len(reference)
    samples["learn.converged_ratio"] = len(learned)
    return values, samples


def self_check(runs: list[tuple[Invocation, dict, dict]]) -> None:
    """Traced and untraced outputs are byte-identical, and a traced
    invocation's spans form one tree under a single ``cli.main`` span. The
    tree fails if ``cli.main`` was not rebound, or if a traced function ran
    outside it."""
    for _, plain, traced in runs:
        if "error" in traced or "error" in plain:
            continue
        if traced["digest"] != plain["digest"]:
            traced["error"] = "traced output differs from the untraced output"
            continue
        _, _, roots = tracing.self_times(traced["spans"])
        if roots != ["cli.main"]:
            traced["error"] = f"root spans {roots[:5]} (of {len(roots)}) are not exactly one cli.main span"


def print_shares(values: dict) -> None:
    total = sum(values[f"{f}.self_s"] for f in tracing.FUNCTIONS) or 1.0
    shares = sorted(((values[f"{f}.self_s"] / total, f) for f in tracing.FUNCTIONS), reverse=True)
    for share, name in shares:
        if share > 0:
            print(f"  {name:45s} {100 * share:5.1f}% of traced self time", file=sys.stderr)


def measure(workload: Workload, runner: Runner, seed: int, seconds: float, trace: bool) -> tuple[dict, list, dict]:
    """One benchmark run: returns the result object, all invocation records
    and the number of samples behind each metric."""
    if not trace:
        # A cold first start reads the interpreter, numpy and the package from
        # disk; printing the CLI's help pays that once, untimed.
        runner.call(Invocation(0, ["--help"], work=0.0), "warmup")
        runs = timed_loop(runner, seed, seconds, traced=False)
        for inv, record, _ in runs:
            runner.check(inv, record)
        records = [r for _, r, _ in runs]
        values, samples = end_to_end(records, [inv.work for inv, _, _ in runs])
        units = END_TO_END_UNITS
    else:
        stored = json.loads(DIGESTS.read_text())["workloads"].get(workload.name, [])
        reference = []
        for k in range(REFERENCE_COUNT):
            inv = runner.invocation(REFERENCE_SEED, k)
            record = runner.call(inv, f"reference{k}")
            runner.check(inv, record)
            record["changed"] = k >= len(stored) or record.get("digest") != stored[k]
            reference.append(record)
        runs = timed_loop(runner, seed, seconds, traced=True)
        for inv, plain, traced in runs:
            runner.check(inv, plain)
            runner.check(inv, traced)
        self_check(runs)
        records = reference + [r for run in runs for r in run[1:]]
        values, samples = per_layer(runs, reference, learn=workload.name == "learn")
        print_shares(values)
        units = PER_LAYER_UNITS
    failed = sum("error" in r for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return result, records, samples


def record_digests(src: Path, root: Path, qs) -> None:
    digests = {}
    for name, workload in WORKLOADS.items():
        work = root / ".perfbench_work" / f"digests-{name}-{os.getpid()}"
        try:
            runner = Runner(workload, src, work, qs)
            digests[name] = []
            for k in range(REFERENCE_COUNT):
                inv = runner.invocation(REFERENCE_SEED, k)
                record = runner.call(inv, f"reference{k}")
                runner.check(inv, record)
                if "error" in record:
                    raise SystemExit(f"{name} reference {k} failed: {record['error']}")
                digests[name].append(record["digest"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
    doc = {"seed": REFERENCE_SEED, "workloads": digests}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true", help="rewrite digests.json and exit")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "qsnorm" / "cli.py").is_file():
        print(f"run.py: no qsnorm package under {src}; run from the root of a qsnorm checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import qsnorm

    if args.record_digests:
        record_digests(src, root, qsnorm)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    try:
        result, records, samples = measure(
            workload, Runner(workload, src, work, qsnorm), args.seed, args.seconds, bool(args.trace)
        )
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run_record = {
        "workload": workload.name,
        "why": workload.why,
        "work_unit": workload.work_unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "samples": samples,
    }
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    detail = {**run_record, "result": result, "invocations": [{k: v for k, v in r.items() if k not in ("out", "spans")} for r in records]}
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    for record in records:
        if "error" in record:
            print(f"run.py: {record['tag']}: {record['error']}", file=sys.stderr)
    print(json.dumps(run_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
