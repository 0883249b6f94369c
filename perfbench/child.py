"""Run one qsnorm CLI invocation in this fresh interpreter.

    python3 child.py '{"src": "<dir holding qsnorm>", "argv": [...], "spans": null, "invocation": 0}'

Imports ``qsnorm.cli`` (the set-up every CLI call pays), optionally installs
the tracer, calls ``qsnorm.cli.main(argv)`` and prints one JSON line: the
monotonic time at which the import completed, the import and main durations,
the exit code and the peak RSS of this process. With a ``spans`` path the
invocation is traced and its spans are written there when main returns.
"""

import json
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    started = time.perf_counter()
    import qsnorm.cli

    imported = time.monotonic()
    import_s = time.perf_counter() - started

    import resource
    import traceback

    tracer = None
    if spec["spans"] is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    cli_main = qsnorm.cli.main
    started = time.perf_counter()
    cpu_started = time.process_time()
    try:
        rc = cli_main(spec["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        rc = -1
    run_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    record = {"imported": imported, "import_s": import_s, "run_s": run_s, "cpu_s": cpu_s, "rc": rc, "peak_rss_mib": peak_kib / 1024}
    if tracer is not None:
        tracer.dump(spec["spans"], spec["invocation"])
        record["counts"] = tracer.counts
    print(json.dumps(record))


if __name__ == "__main__":
    main()
