"""Command-line front end.

Subcommands
    estimate    Schatten-2 norm of a mixture file via the sampling pipeline
    fig2        estimation error vs sample count for random unitary pairs
    similarity  fidelity statistics for rotation-perturbed unitary pairs
    learn       gradient-descent circuit learning from ansatz/target files
    decide      similarity verdict for two circuit files

Machine-readable results go to --out (or stdout); progress goes to stderr.
Every command honors --seed: identical invocations produce byte-identical
outputs. --threads is accepted everywhere and never affects results. A
--config JSON file supplies defaults; explicit flags override it.

Exit codes: 0 success, 1 domain or constraint violation, 2 I/O or parse
error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .learn import LearnConfig, ansatz_from_dict, learn_circuit, learn_square_root
from .qsim import (
    CircuitFormatError,
    DenseUnitary,
    circuit_from_dict,
    exact_schatten2,
    haar_random_unitary,
    mixed_operation_from_dict,
)
from .sampler import derive_seed, sample_thetas
from .schatten import difference_mixture, schatten2_estimate_from_thetas
from .similarity import decide_similarity, haar_fidelities, rotation_perturbed_pair

DEFAULT_M_LIST = (10, 100, 1000, 10000)


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


def _merge_config(args: argparse.Namespace, schema: dict) -> dict:
    """Defaults < config file < explicit flags; unknown config keys rejected."""
    settings = {key: default for key, (default, _) in schema.items()}
    if getattr(args, "config", None) is not None:
        doc = _load_json(args.config)
        if not isinstance(doc, dict):
            raise CircuitFormatError(f"{args.config}: config must be a JSON object")
        unknown = set(doc) - set(schema)
        if unknown:
            raise CircuitFormatError(f"{args.config}: unknown config keys {sorted(unknown)}")
        for key, value in doc.items():
            try:
                settings[key] = schema[key][1](value)
            except (TypeError, ValueError) as exc:
                raise CircuitFormatError(f"{args.config}: bad value for {key!r}: {value!r}") from exc
    for key in schema:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            settings[key] = value
    return settings


def _json_bool(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _require(settings: dict, *keys: str) -> None:
    for key in keys:
        if settings[key] is None:
            raise CircuitFormatError(f"missing required setting --{key.replace('_', '-')}")


def cmd_estimate(args: argparse.Namespace) -> int:
    schema = {
        "mixed": (None, str),
        "samples": (1000, int),
        "shots": (0, int),
        "seed": (0, int),
        "out": (None, str),
    }
    cfg = _merge_config(args, schema)
    _require(cfg, "mixed")
    mixed = mixed_operation_from_dict(_load_json(cfg["mixed"]))
    thetas = sample_thetas(cfg["seed"], cfg["samples"])
    est = schatten2_estimate_from_thetas(mixed, thetas, cfg["shots"], cfg["seed"])
    report = {
        "value": est.value,
        "m": est.m,
        "shots_per_test": est.shots_per_test,
        "seed": est.seed,
        "clamped": est.clamped,
        "per_sample_mean": float(np.mean(est.per_sample_values)),
        "per_sample_variance": float(np.var(est.per_sample_values)),
    }
    _write_text(cfg["out"], _json_dump(report))
    return 0


def cmd_fig2(args: argparse.Namespace) -> int:
    schema = {
        "n": (6, int),
        "seeds": (30, int),
        "m_list": (",".join(map(str, DEFAULT_M_LIST)), str),
        "seed": (0, int),
        "out": (None, str),
    }
    cfg = _merge_config(args, schema)
    m_values = sorted(int(v) for v in str(cfg["m_list"]).split(","))
    if not m_values or m_values[0] < 1:
        raise ValueError(f"m values must be positive, got {cfg['m_list']!r}")
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
        for j, m in enumerate(m_values):
            est = schatten2_estimate_from_thetas(mixed, thetas[:m])
            errors[s, j] = abs(est.value - exact)
        print(f"fig2: seed {s + 1}/{cfg['seeds']} done", file=sys.stderr)
    rows = []
    for j, m in enumerate(m_values):
        column = errors[:, j]
        stderr = float(column.std(ddof=1) / math.sqrt(cfg["seeds"])) if cfg["seeds"] > 1 else 0.0
        rows.append([m, repr(float(column.mean())), repr(stderr)])
    _write_text(cfg["out"], _csv_dump(["m", "mean_error", "std_error"], rows))
    return 0


def cmd_similarity(args: argparse.Namespace) -> int:
    schema = {
        "n": (6, int),
        "pairs": (20, int),
        "states": (1000, int),
        "dist_min": (0.02, float),
        "dist_max": (0.5, float),
        "delta": (0.2, float),
        "seed": (0, int),
        "out": (None, str),
    }
    cfg = _merge_config(args, schema)
    if not 0 < cfg["delta"] < 1:
        raise ValueError(f"delta must lie in (0, 1), got {cfg['delta']}")
    factor = 1.0 + math.sqrt(2.0 * (1.0 / cfg["delta"] - 1.0))
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


def cmd_learn(args: argparse.Namespace) -> int:
    schema = {
        "ansatz": (None, str),
        "target": (None, str),
        "sqrt": (False, _json_bool),
        "samples": (64, int),
        "eta": (0.1, float),
        "fd_eps": (1e-3, float),
        "max_iters": (1000, int),
        "tol": (1e-4, float),
        "shots": (0, int),
        "seed": (0, int),
        "out": (None, str),
        "history_out": (None, str),
    }
    cfg = _merge_config(args, schema)
    _require(cfg, "ansatz", "target")
    ansatz = ansatz_from_dict(_load_json(cfg["ansatz"]))
    target = circuit_from_dict(_load_json(cfg["target"]))
    config = LearnConfig(
        m=cfg["samples"],
        eta=cfg["eta"],
        fd_eps=cfg["fd_eps"],
        max_iters=cfg["max_iters"],
        tol=cfg["tol"],
        shots_per_test=cfg["shots"],
        seed=cfg["seed"],
    )
    if cfg["sqrt"]:
        result = learn_square_root(target, ansatz, config)
    else:
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


def cmd_decide(args: argparse.Namespace) -> int:
    schema = {
        "u1": (None, str),
        "u2": (None, str),
        "epsilon": (None, float),
        "delta": (None, float),
        "delta_hat": (None, float),
        "samples": (1000, int),
        "shots": (0, int),
        "seed": (0, int),
        "out": (None, str),
    }
    cfg = _merge_config(args, schema)
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
    report = {
        "similar": verdict.similar,
        "epsilon": verdict.epsilon,
        "delta": verdict.delta,
        "delta_hat": verdict.delta_hat,
        "estimate": verdict.estimate,
        "slack_term": verdict.slack_term,
        "threshold": verdict.threshold,
        "m": cfg["samples"],
        "shots_per_test": cfg["shots"],
        "seed": cfg["seed"],
    }
    _write_text(cfg["out"], _json_dump(report))
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, help="base seed; identical seeds give byte-identical output")
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--threads", type=int, default=1, help="accepted for compatibility; never affects results")
    sub.add_argument("--config", help="JSON file of defaults; explicit flags override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsnorm", description=__doc__.strip().splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser("estimate", help="Schatten-2 norm of a mixture file")
    est.add_argument("--mixed", help="mixture JSON file")
    est.add_argument("--samples", type=int, help="number of probe angles (default 1000)")
    est.add_argument("--shots", type=int, help="shots per interference test; 0 = analytic (default)")
    _add_common(est)
    est.set_defaults(func=cmd_estimate)

    fig = commands.add_parser("fig2", help="estimation error vs sample count")
    fig.add_argument("--n", type=int, help="qubit count (default 6)")
    fig.add_argument("--seeds", type=int, help="number of random pairs (default 30)")
    fig.add_argument("--m-list", dest="m_list", help="comma-separated sample counts (default 10,100,1000,10000)")
    _add_common(fig)
    fig.set_defaults(func=cmd_fig2)

    sim = commands.add_parser("similarity", help="fidelity statistics for perturbed pairs")
    sim.add_argument("--n", type=int, help="qubit count (default 6)")
    sim.add_argument("--pairs", type=int, help="number of pairs (default 20)")
    sim.add_argument("--states", type=int, help="Haar states per pair (default 1000)")
    sim.add_argument("--dist-min", dest="dist_min", type=float, help="smallest pair distance (default 0.02)")
    sim.add_argument("--dist-max", dest="dist_max", type=float, help="largest pair distance (default 0.5)")
    sim.add_argument("--delta", type=float, help="similarity failure probability (default 0.2)")
    _add_common(sim)
    sim.set_defaults(func=cmd_similarity)

    lrn = commands.add_parser("learn", help="learn a circuit from ansatz/target files")
    lrn.add_argument("--ansatz", help="ansatz JSON file")
    lrn.add_argument("--target", help="target circuit JSON file")
    lrn.add_argument("--sqrt", action="store_true", default=None, help="learn a square root (needs repeat=2 ansatz)")
    lrn.add_argument("--samples", type=int, help="probe angles m (default 64)")
    lrn.add_argument("--eta", type=float, help="learning rate (default 0.1)")
    lrn.add_argument("--fd-eps", dest="fd_eps", type=float, help="finite-difference step (default 1e-3)")
    lrn.add_argument("--max-iters", dest="max_iters", type=int, help="iteration cap (default 1000)")
    lrn.add_argument("--tol", type=float, help="stop when cost falls below this (default 1e-4)")
    lrn.add_argument("--shots", type=int, help="shots per test; 0 = analytic (default)")
    lrn.add_argument("--history-out", dest="history_out", help="CSV path for the cost history")
    _add_common(lrn)
    lrn.set_defaults(func=cmd_learn)

    dec = commands.add_parser("decide", help="similarity verdict for two circuit files")
    dec.add_argument("--u1", help="first circuit JSON file")
    dec.add_argument("--u2", help="second circuit JSON file")
    dec.add_argument("--epsilon", type=float, help="fidelity deficit epsilon")
    dec.add_argument("--delta", type=float, help="similarity failure probability delta")
    dec.add_argument("--delta-hat", dest="delta_hat", type=float, help="verdict failure probability")
    dec.add_argument("--samples", type=int, help="probe angles m (default 1000)")
    dec.add_argument("--shots", type=int, help="shots per test; 0 = analytic (default)")
    _add_common(dec)
    dec.set_defaults(func=cmd_decide)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
