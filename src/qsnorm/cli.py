"""Command-line front end.

Subcommands
    estimate    Schatten-2 norm of a mixture file via the sampling pipeline
    fig2        estimation error vs sample count for random unitary pairs
    similarity  fidelity statistics for rotation-perturbed unitary pairs
    learn       gradient-descent circuit learning from ansatz/target files
    decide      similarity verdict for two circuit files

Every setting is declared once, in ``COMMANDS``, as a (name, type,
default, help) row. The rows give each subcommand its flags and their help
text, the keys a --config JSON file may hold, and the JSON type each key's
value must have. Settings merge as defaults < config file < explicit flags.
A flag and a config value pass through the same converter, so a float must
be finite either way.

Machine-readable results go to --out (or stdout); progress goes to stderr.
Every command honors --seed: identical invocations produce byte-identical
outputs for one BLAS build and BLAS thread count. --threads is accepted
everywhere and never read; the BLAS thread count (OPENBLAS_NUM_THREADS) can
move last bits from 7 qubits on, through np.linalg.qr and np.linalg.norm,
and from rows of 2^14 amplitudes on, through row_overlaps (see README).

Exit codes: 0 success, 1 domain or constraint violation, 2 I/O or parse
error, including a malformed flag or config value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .learn import LearnConfig, ansatz_from_dict, learn_circuit
from .qsim import (
    MATRIX_QUBIT_CAP,
    CircuitFormatError,
    DenseUnitary,
    circuit_from_dict,
    exact_schatten2,
    haar_random_unitary,
    mixed_operation_from_dict,
    require_qubits,
)
from .sampler import derive_seed, sample_thetas
from .schatten import SchattenEstimate, difference_mixture, quantum_schatten2_estimate, schatten2_estimate_from_thetas
from .similarity import (
    check_distance,
    decide_similarity,
    haar_fidelities,
    rotation_perturbed_pair,
    similarity_factor,
)


def finite(value) -> float:
    """A finite float, from flag text or a JSON number."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def int_list(text: str) -> list[int]:
    """Comma-separated integers, in ascending order."""
    return sorted(int(v) for v in text.split(","))


# The JSON type a config value needs, per setting type. A JSON boolean
# counts as a bool setting's value only, although Python's bool is an int.
JSON_TYPES = {int: int, finite: (int, float), str: str, bool: bool, int_list: str}


def _load_json(path: str):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"{path}: {exc}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_dump(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _merge_settings(args: argparse.Namespace, rows: tuple) -> dict:
    """Defaults < config file < explicit flags; config keys and types checked."""
    settings = {name: None if default is None else kind(default) for name, kind, default, _ in rows}
    kinds = {name: kind for name, kind, _, _ in rows}
    if args.config is not None:
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise CircuitFormatError(f"{args.config}: config must be a JSON object")
        unknown = set(doc) - set(kinds)
        if unknown:
            raise CircuitFormatError(f"{args.config}: unknown config keys {sorted(unknown)}")
        for key, value in doc.items():
            kind = kinds[key]
            try:
                if isinstance(value, bool) != (kind is bool) or not isinstance(value, JSON_TYPES[kind]):
                    raise TypeError(f"wrong JSON type {type(value).__name__}")
                settings[key] = kind(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise CircuitFormatError(f"{args.config}: bad value for {key!r}: {value!r} ({exc})") from exc
    settings.update((name, getattr(args, name)) for name in kinds if getattr(args, name) is not None)
    return settings


def _require(settings: dict, *keys: str) -> None:
    for key in keys:
        if settings[key] is None:
            raise CircuitFormatError(f"missing required setting --{key.replace('_', '-')}")


def cmd_estimate(cfg: dict) -> int:
    _require(cfg, "mixed")
    mixed = mixed_operation_from_dict(_load_json(cfg["mixed"]))
    est = quantum_schatten2_estimate(mixed, cfg["samples"], cfg["shots"], cfg["seed"])
    report = {
        "value": est.value,
        "m": cfg["samples"],
        "shots_per_test": cfg["shots"],
        "seed": cfg["seed"],
        "clamped": est.clamped,
        "per_sample_mean": float(np.mean(est.per_sample_values)),
        "per_sample_variance": float(np.var(est.per_sample_values)),
    }
    _write_text(cfg["out"], _json_dump(report))
    return 0


def cmd_fig2(cfg: dict) -> int:
    require_qubits(cfg["n"], MATRIX_QUBIT_CAP)
    m_values = cfg["m_list"]
    if m_values[0] < 1:
        raise ValueError(f"m values must be positive, got {m_values}")
    if cfg["seeds"] < 1:
        raise ValueError(f"need at least one seed, got {cfg['seeds']}")
    half = 1.0 / math.sqrt(2.0)
    errors = np.empty((cfg["seeds"], len(m_values)))
    for s in range(cfg["seeds"]):
        u1 = haar_random_unitary(cfg["n"], derive_seed(cfg["seed"], s, 0))
        u2 = haar_random_unitary(cfg["n"], derive_seed(cfg["seed"], s, 1))
        mixed = difference_mixture(DenseUnitary(cfg["n"], u1), DenseUnitary(cfg["n"], u2))
        exact = exact_schatten2(half * (u1 - u2))
        thetas = sample_thetas(derive_seed(cfg["seed"], s, 2), m_values[-1])
        values = schatten2_estimate_from_thetas(mixed, thetas).per_sample_values
        for j, m in enumerate(m_values):
            errors[s, j] = abs(SchattenEstimate.from_values(values[:m]).value - exact)
        print(f"fig2: seed {s + 1}/{cfg['seeds']} done", file=sys.stderr)
    rows = []
    for j, m in enumerate(m_values):
        column = errors[:, j]
        stderr = float(column.std(ddof=1) / math.sqrt(cfg["seeds"])) if cfg["seeds"] > 1 else 0.0
        rows.append([m, repr(float(column.mean())), repr(stderr)])
    _write_text(cfg["out"], _csv_dump(["m", "mean_error", "std_error"], rows))
    return 0


def cmd_similarity(cfg: dict) -> int:
    factor = similarity_factor(cfg["delta"])
    require_qubits(cfg["n"], MATRIX_QUBIT_CAP)
    if cfg["pairs"] < 1:
        raise ValueError(f"need at least one pair, got {cfg['pairs']}")
    if cfg["states"] < 1:
        raise ValueError(f"need at least one state, got {cfg['states']}")
    check_distance(cfg["dist_min"])
    check_distance(cfg["dist_max"])
    distances = np.linspace(cfg["dist_min"], cfg["dist_max"], cfg["pairs"])
    rows = []
    for k, dist in enumerate(distances):
        u1, u2 = rotation_perturbed_pair(cfg["n"], float(dist), derive_seed(cfg["seed"], k))
        schatten = exact_schatten2(u1.matrix - u2.matrix)
        epsilon = factor * schatten
        fidelities = haar_fidelities(u1, u2, cfg["states"], derive_seed(cfg["seed"], k, 1))
        frac = float((fidelities >= 1.0 - epsilon).mean())
        rows.append([k, repr(schatten), repr(float(fidelities.mean())), repr(frac)])
        print(f"similarity: pair {k + 1}/{cfg['pairs']} done", file=sys.stderr)
    _write_text(cfg["out"], _csv_dump(["pair_id", "schatten", "mean_fidelity", "frac_above_threshold"], rows))
    return 0


def cmd_learn(cfg: dict) -> int:
    _require(cfg, "ansatz", "target")
    ansatz = ansatz_from_dict(_load_json(cfg["ansatz"]))
    target = circuit_from_dict(_load_json(cfg["target"]))
    if cfg["sqrt"] and ansatz.repeat != 2:
        raise ValueError(f"square-root learning needs repeat == 2, got {ansatz.repeat}")
    config = LearnConfig(
        m=cfg["samples"],
        eta=cfg["eta"],
        fd_eps=cfg["fd_eps"],
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
        shots_per_test=cfg["shots"],
        seed=cfg["seed"],
    )
    result = learn_circuit(ansatz, target, config)
    print(
        f"learn: {'converged' if result.converged else 'stopped'} after "
        f"{len(result.cost_history) - 1} iterations at cost {result.final_cost:.3e}",
        file=sys.stderr,
    )
    report = {
        "xi": [float(v) for v in result.xi],
        "final_cost": result.final_cost,
        "converged": result.converged,
        "iterations": len(result.cost_history) - 1,
        "seed": cfg["seed"],
    }
    _write_text(cfg["out"], _json_dump(report))
    if cfg["history_out"] is not None:
        rows = [[i, repr(cost)] for i, cost in enumerate(result.cost_history)]
        _write_text(cfg["history_out"], _csv_dump(["iteration", "cost"], rows))
    return 0


def cmd_decide(cfg: dict) -> int:
    _require(cfg, "u1", "u2", "epsilon", "delta", "delta_hat")
    first = circuit_from_dict(_load_json(cfg["u1"]))
    second = circuit_from_dict(_load_json(cfg["u2"]))
    verdict = decide_similarity(
        first,
        second,
        epsilon=cfg["epsilon"],
        delta=cfg["delta"],
        delta_hat=cfg["delta_hat"],
        m=cfg["samples"],
        shots_per_test=cfg["shots"],
        seed=cfg["seed"],
    )
    report = {**dataclasses.asdict(verdict), "m": cfg["samples"], "shots_per_test": cfg["shots"], "seed": cfg["seed"]}
    _write_text(cfg["out"], _json_dump(report))
    return 0


# Settings every subcommand has, after its own.
COMMON = (
    ("seed", int, 0, "base seed; identical seeds give byte-identical output"),
    ("out", str, None, "output path (default: stdout)"),
)

# subcommand: (handler, summary, settings as (name, type, default, help)).
# The flag is the name with dashes; a str setting is a path.
COMMANDS = {
    "estimate": (cmd_estimate, "Schatten-2 norm of a mixture file", (
        ("mixed", str, None, "mixture JSON file"),
        ("samples", int, 1000, "number of probe angles"),
        ("shots", int, 0, "shots per interference test; 0 = analytic"),
    )),
    "fig2": (cmd_fig2, "estimation error vs sample count", (
        ("n", int, 6, "qubit count"),
        ("seeds", int, 30, "number of random pairs"),
        ("m_list", int_list, "10,100,1000,10000", "comma-separated sample counts"),
    )),
    "similarity": (cmd_similarity, "fidelity statistics for perturbed pairs", (
        ("n", int, 6, "qubit count"),
        ("pairs", int, 20, "number of pairs"),
        ("states", int, 1000, "Haar states per pair"),
        ("dist_min", finite, 0.02, "smallest pair distance"),
        ("dist_max", finite, 0.5, "largest pair distance"),
        ("delta", finite, 0.2, "similarity failure probability"),
    )),
    "learn": (cmd_learn, "learn a circuit from ansatz/target files", (
        ("ansatz", str, None, "ansatz JSON file"),
        ("target", str, None, "target circuit JSON file"),
        ("sqrt", bool, False, "learn a square root (needs repeat=2 ansatz)"),
        ("samples", int, 64, "probe angles m"),
        ("eta", finite, 0.1, "learning rate"),
        ("fd_eps", finite, 1e-3, "finite-difference step"),
        ("max_iters", int, 1000, "iteration cap"),
        ("tol", finite, 1e-4, "stop when cost falls below this"),
        ("shots", int, 0, "shots per test; 0 = analytic"),
        ("history_out", str, None, "CSV path for the cost history"),
    )),
    "decide": (cmd_decide, "similarity verdict for two circuit files", (
        ("u1", str, None, "first circuit JSON file"),
        ("u2", str, None, "second circuit JSON file"),
        ("epsilon", finite, None, "fidelity deficit epsilon"),
        ("delta", finite, None, "similarity failure probability delta"),
        ("delta_hat", finite, None, "verdict failure probability"),
        ("samples", int, 1000, "probe angles m"),
        ("shots", int, 0, "shots per test; 0 = analytic"),
    )),
}


THREADS_HELP = "accepted for compatibility and never read; OPENBLAS_NUM_THREADS can move last bits from 7 qubits on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsnorm", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (handler, summary, own) in COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        for name, kind, default, text in own + COMMON:
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                sub.add_argument(flag, action="store_true", default=None, help=text)
            else:
                suffix = "" if default is None else f" (default {default})"
                sub.add_argument(flag, type=kind, help=text + suffix)
        sub.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
        sub.add_argument("--config", help="JSON file of defaults; explicit flags override")
        sub.set_defaults(handler=handler, settings=own + COMMON)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(_merge_settings(args, args.settings))
    except (CircuitFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
