"""Command-line interface tests: file handling, exit codes, determinism."""

import contextlib
import csv
import io
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import limit_address_space
from qsnorm import cli
from qsnorm.cli import COMMANDS, COMMON, COUNT_CAP
from test_golden import check_error

IDENTITY_MIXTURE = {"terms": [{"coeff": [1.0, 0.0], "circuit": {"n": 1, "ops": []}}]}
RY_ANSATZ = {"n": 1, "ops": [{"gate": "ry", "qubits": [0], "params": [{"slot": 0}]}]}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qsnorm", *map(str, args)],
        capture_output=True,
        text=True,
    )


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def request_files(workdir):
    """Each command's required settings as flags, over small documents in
    ``workdir``: a 1-qubit identity mixture, an h circuit for both decide
    operands, and a repeat-2 ry ansatz, so that --sqrt may be given too."""
    circuit = write_json(workdir / "c.json", {"n": 1, "ops": [{"gate": "h", "qubits": [0]}]})
    return {
        "estimate": ("--mixed", write_json(workdir / "m.json", IDENTITY_MIXTURE)),
        "fig2": (),
        "similarity": (),
        "learn": ("--ansatz", write_json(workdir / "a.json", {**RY_ANSATZ, "repeat": 2}), "--target", circuit),
        "decide": ("--u1", circuit, "--u2", circuit, "--epsilon", 0.1, "--delta", 0.2, "--delta-hat", 0.05),
    }


@contextlib.contextmanager
def address_space_limit():
    """This process under :func:`helpers.limit_address_space`, restored on exit."""
    limit = limit_address_space()
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limit)


class TestEstimate:
    def test_identity_mixture(self, tmp_path):
        mixture = write_json(tmp_path / "m.json", IDENTITY_MIXTURE)
        out = tmp_path / "r.json"
        result = run_cli("estimate", "--mixed", mixture, "--samples", 50, "--seed", 7, "--out", out)
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["value"] == 1.0
        assert report["m"] == 50 and report["seed"] == 7 and not report["clamped"]

    def test_stdout_default(self, tmp_path):
        mixture = write_json(tmp_path / "m.json", IDENTITY_MIXTURE)
        result = run_cli("estimate", "--mixed", mixture, "--samples", 5)
        assert result.returncode == 0
        assert json.loads(result.stdout)["value"] == 1.0

    def test_byte_identical_reruns_across_threads(self, tmp_path):
        mixture = write_json(
            tmp_path / "m.json",
            {
                "terms": [
                    {"coeff": [0.5, 0.0], "circuit": {"n": 2, "ops": [{"gate": "h", "qubits": [0]}]}},
                    {"coeff": [-0.5, 0.0], "circuit": {"n": 2, "ops": [{"gate": "cnot", "qubits": [0, 1]}]}},
                ]
            },
        )
        outputs = []
        for threads, name in ((1, "a.json"), (4, "b.json")):
            out = tmp_path / name
            result = run_cli(
                "estimate", "--mixed", mixture, "--samples", 200, "--shots", 30,
                "--seed", 11, "--threads", threads, "--out", out,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", ["estimate_negative_seed", "estimate_negative_seed_shots"], ids=["0", "5"])
    def test_negative_seed_exits_1(self, tmp_path, case):
        """Analytic (0 shots) and shot mode (5 shots) reject a negative seed alike."""
        check_error(case, tmp_path)

    def test_malformed_file_exits_2(self, tmp_path):
        check_error("estimate_malformed_file", tmp_path)

    def test_missing_file_exits_2(self, tmp_path):
        check_error("estimate_missing_file", tmp_path)

    def test_overweight_mixture_exits_1(self, tmp_path):
        check_error("estimate_overweight_mixture", tmp_path)

    def test_nan_coefficient_exits_2(self, tmp_path):
        """A NaN weight used to pass the weight check and print 0.0."""
        check_error("estimate_nan_coefficient", tmp_path)

    def test_register_above_state_cap_exits_1(self, tmp_path):
        check_error("estimate_above_state_cap", tmp_path)

    @pytest.mark.parametrize("command", ["estimate", "decide", "learn"])
    def test_shots_beyond_a_c_long_exits_1(self, tmp_path, command):
        """--shots 2**63 used to replay a chunk and then end in a raw
        OverflowError traceback from numpy's binomial draw."""
        result = run_cli(command, *request_files(tmp_path)[command], "--shots", 2**63)
        assert result.returncode == 1 and result.stdout == ""
        assert "Traceback" not in result.stderr
        assert result.stderr.splitlines() == [
            "error: shots must be at most 2**63 - 1, the binomial draw's range, got 9223372036854775808"
        ]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        mixture = write_json(tmp_path / "m.json", IDENTITY_MIXTURE)
        config = write_json(tmp_path / "cfg.json", {"mixed": mixture, "samples": 5, "seed": 2})
        result = run_cli("estimate", "--config", config, "--samples", 9)
        assert result.returncode == 0
        assert json.loads(result.stdout)["m"] == 9

    def test_unknown_config_key_exits_2(self, tmp_path):
        check_error("config_unknown_key", tmp_path)

    def test_accepted_config_keys(self):
        """Every setting has a flag and a config key; --threads and --config have no key."""
        expected = {
            "estimate": {"mixed", "samples", "shots"},
            "fig2": {"n", "seeds", "m_list"},
            "similarity": {"n", "pairs", "states", "dist_min", "dist_max", "delta"},
            "learn": {"ansatz", "target", "sqrt", "samples", "eta", "fd_eps", "max_iters", "tol", "shots",
                      "history_out"},
            "decide": {"u1", "u2", "epsilon", "delta", "delta_hat", "samples", "shots"},
        }
        keys = {command: {row[0] for row in rows + COMMON} for command, (_, _, rows) in COMMANDS.items()}
        assert keys == {command: names | {"seed", "out"} for command, names in expected.items()}

    def test_threads_is_not_a_config_key(self, tmp_path):
        check_error("config_threads_key", tmp_path)

    @pytest.mark.parametrize(
        "case", ["config_float_for_int", "config_string_for_int", "config_bool_for_int"], ids=["3.7", "12", "True"]
    )
    def test_config_value_needs_its_json_type(self, tmp_path, case):
        """int() used to turn 3.7 into 3, "12" into 12 and true into 1."""
        check_error(case, tmp_path)

    def test_config_nan_exits_2(self, tmp_path):
        check_error("config_nan", tmp_path)

    def test_config_of_defaults_matches_no_config(self, tmp_path):
        ansatz = write_json(tmp_path / "a.json", RY_ANSATZ)
        target = write_json(tmp_path / "t.json", {"n": 1, "ops": [{"gate": "ry", "qubits": [0], "params": [0.9]}]})
        defaults = {
            "ansatz": ansatz, "target": target, "sqrt": False, "samples": 64, "eta": 0.1, "fd_eps": 1e-3,
            "max_iters": 1000, "tol": 1e-4, "shots": 0, "seed": 0,
        }
        config = write_json(tmp_path / "cfg.json", defaults)
        plain = run_cli("learn", "--ansatz", ansatz, "--target", target)
        configured = run_cli("learn", "--config", config)
        assert plain.returncode == 0, plain.stderr
        assert configured.stdout == plain.stdout


class TestDecide:
    def test_identical_circuits_similar(self, tmp_path):
        doc = {"n": 1, "ops": [{"gate": "h", "qubits": [0]}]}
        u1 = write_json(tmp_path / "u1.json", doc)
        u2 = write_json(tmp_path / "u2.json", doc)
        out = tmp_path / "v.json"
        result = run_cli(
            "decide", "--u1", u1, "--u2", u2, "--epsilon", 1.0, "--delta", 0.2,
            "--delta-hat", 0.05, "--samples", 2000, "--seed", 3, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        verdict = json.loads(out.read_text())
        assert verdict["similar"] is True
        for key in ("epsilon", "delta", "delta_hat", "estimate", "slack_term", "threshold", "m", "seed"):
            assert key in verdict

    def test_distant_pair_not_similar(self, tmp_path):
        u1 = write_json(tmp_path / "u1.json", {"n": 1, "ops": []})
        u2 = write_json(tmp_path / "u2.json", {"n": 1, "ops": [{"gate": "x", "qubits": [0]}]})
        result = run_cli(
            "decide", "--u1", u1, "--u2", u2, "--epsilon", 0.1, "--delta", 0.2,
            "--delta-hat", 0.05, "--samples", 300,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["similar"] is False

    def test_domain_violation_exits_1(self, tmp_path):
        check_error("decide_domain_violation", tmp_path)

    def test_coerced_document_integer_exits_2(self, tmp_path):
        """int() used to read a circuit's "n": 2.7 as 2 and "qubits": ["1"] as [1]."""
        check_error("decide_coerced_register", tmp_path)
        check_error("decide_coerced_qubit", tmp_path)

    def test_nan_epsilon_exits_2(self, tmp_path):
        """A NaN epsilon used to exit 0 with "threshold": NaN."""
        check_error("decide_nan_epsilon", tmp_path)

    @pytest.mark.parametrize("delta, delta_hat", [(0.2, 5e-324), (5e-324, 0.05)], ids=["delta_hat", "delta"])
    def test_subnormal_probability_writes_strict_json(self, tmp_path, delta, delta_hat):
        """A subnormal delta_hat used to write "slack_term": Infinity, and a
        subnormal delta "threshold": 0.0."""
        circuit = write_json(tmp_path / "c.json", {"n": 1, "ops": [{"gate": "h", "qubits": [0]}]})
        result = run_cli(
            "decide", "--u1", circuit, "--u2", circuit, "--epsilon", 0.1, "--delta", delta,
            "--delta-hat", delta_hat, "--samples", 10,
        )
        assert result.returncode == 0, result.stderr

        def reject(constant):
            raise ValueError(f"non-finite constant {constant}")

        verdict = json.loads(result.stdout, parse_constant=reject)
        assert math.isfinite(verdict["slack_term"]) and verdict["threshold"] > 0.0

    def test_non_finite_value_is_not_written(self):
        """Output is strict JSON: a non-finite value raises, so the CLI
        exits 1 with one error line rather than writing Infinity or NaN."""
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_dump({"value": math.inf})


class TestLearn:
    def test_realizable_single_qubit_target(self, tmp_path):
        ansatz = write_json(tmp_path / "a.json", RY_ANSATZ)
        target = write_json(tmp_path / "t.json", {"n": 1, "ops": [{"gate": "ry", "qubits": [0], "params": [0.9]}]})
        out = tmp_path / "res.json"
        history = tmp_path / "hist.csv"
        result = run_cli(
            "learn", "--ansatz", ansatz, "--target", target, "--samples", 16,
            "--eta", 0.3, "--max-iters", 200, "--tol", 1e-6, "--seed", 1,
            "--out", out, "--history-out", history,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["converged"] is True and report["final_cost"] <= 1e-6
        rows = list(csv.reader(history.read_text().splitlines()))
        assert rows[0] == ["iteration", "cost"]
        assert len(rows) - 1 == report["iterations"] + 1

    def test_history_is_crlf_terminated(self, tmp_path):
        ansatz = write_json(tmp_path / "a.json", RY_ANSATZ)
        target = write_json(tmp_path / "t.json", {"n": 1, "ops": []})
        history = tmp_path / "hist.csv"
        result = run_cli(
            "learn", "--ansatz", ansatz, "--target", target, "--samples", 8,
            "--max-iters", 5, "--tol", 4.0, "--out", tmp_path / "r.json", "--history-out", history,
        )
        assert result.returncode == 0
        assert history.read_bytes().count(b"\r\n") >= 2

    def test_sqrt_learns_root_of_phase_gate(self, tmp_path):
        ansatz = write_json(
            tmp_path / "a.json",
            {
                "n": 1,
                "ops": [
                    {"gate": "globalphase", "qubits": [], "params": [{"slot": 0}]},
                    {"gate": "rz", "qubits": [0], "params": [{"slot": 1}]},
                ],
                "repeat": 2,
            },
        )
        target = write_json(tmp_path / "t.json", {"n": 1, "ops": [{"gate": "s", "qubits": [0]}]})
        out = tmp_path / "res.json"
        result = run_cli(
            "learn", "--ansatz", ansatz, "--target", target, "--sqrt",
            "--samples", 64, "--max-iters", 1000, "--tol", 1e-6, "--seed", 0, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(out.read_text())
        assert report["converged"] is True and report["final_cost"] <= 1e-3

    def test_sqrt_config_needs_a_json_boolean(self, tmp_path):
        """The string "false" is not a boolean, so it must not turn --sqrt on."""
        check_error("learn_sqrt_config_string", tmp_path)

    def test_sqrt_needs_repeat_two(self, tmp_path):
        check_error("learn_sqrt_needs_repeat_two", tmp_path)

    @pytest.mark.parametrize(
        "case", ["learn_nan_tol", "learn_inf_eta", "learn_inf_fd_eps"], ids=["--tol-nan", "--eta-inf", "--fd-eps-inf"]
    )
    def test_non_finite_float_flag_exits_2(self, tmp_path, case):
        """--tol nan used to exit 0 after 0 iterations."""
        check_error(case, tmp_path)

    def test_register_mismatch_exits_1(self, tmp_path):
        check_error("learn_register_mismatch", tmp_path)


class TestFig2:
    def test_small_run_format_and_determinism(self, tmp_path):
        args = (
            "fig2", "--n", 2, "--seeds", 3, "--m-list", "10,50", "--seed", 5,
        )
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", first).returncode == 0
        assert run_cli(*args, "--out", second, "--threads", 8).returncode == 0
        assert first.read_bytes() == second.read_bytes()
        rows = list(csv.reader(first.read_text().splitlines()))
        assert rows[0] == ["m", "mean_error", "std_error"]
        assert [r[0] for r in rows[1:]] == ["10", "50"]
        assert float(rows[1][1]) >= 0.0

    def test_zero_seeds_exits_1(self, tmp_path):
        check_error("fig2_zero_seeds", tmp_path)
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_m_list_exits_2(self, tmp_path):
        check_error("fig2_malformed_m_list", tmp_path)
        check_error("fig2_malformed_m_list_config", tmp_path)

    def test_nonpositive_m_exits_1(self, tmp_path):
        check_error("fig2_nonpositive_m", tmp_path)

    @pytest.mark.parametrize("case", ["fig2_zero_qubits", "fig2_negative_qubits"], ids=["--n 0", "--n -2"])
    def test_impossible_register_exits_1_before_any_pair(self, monkeypatch, tmp_path, case):
        """n = 0 used to draw a pair and its angles before failing, and a
        negative n to end in numpy's "negative shift count"."""

        def no_pair(*args):
            raise AssertionError("a pair was drawn")

        monkeypatch.setattr(cli, "haar_random_unitary", no_pair)
        check_error(case, tmp_path)

    def test_rfc4180_line_endings(self, tmp_path):
        out = tmp_path / "f.csv"
        assert run_cli("fig2", "--n", 1, "--seeds", 2, "--m-list", "5", "--out", out).returncode == 0
        assert out.read_bytes().count(b"\r\n") == 2


class TestSimilarityCommand:
    def test_small_scan(self, tmp_path):
        out = tmp_path / "s.csv"
        result = run_cli(
            "similarity", "--n", 2, "--pairs", 3, "--states", 100, "--seed", 4, "--out", out,
        )
        assert result.returncode == 0, result.stderr
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["pair_id", "schatten", "mean_fidelity", "frac_above_threshold"]
        assert len(rows) == 4
        distances = [float(r[1]) for r in rows[1:]]
        assert distances == sorted(distances)
        for row in rows[1:]:
            assert 0.0 <= float(row[3]) <= 1.0
            assert float(row[3]) >= 0.8

    def test_bad_delta_exits_1(self, tmp_path):
        check_error("similarity_bad_delta", tmp_path)

    def test_unreachable_distance_exits_1_before_any_pair(self, tmp_path):
        """The range used to be checked pair by pair, after pair 1 was done."""
        check_error("similarity_unreachable_distance", tmp_path)

    def test_zero_pairs_exits_1(self, tmp_path):
        """Zero pairs used to write a header-only CSV and exit 0."""
        check_error("similarity_zero_pairs", tmp_path)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "case", ["similarity_zero_qubits", "similarity_negative_qubits", "similarity_zero_states"],
        ids=["--n=0", "--n=-1", "--states=0"],
    )
    def test_impossible_scan_exits_1_before_any_pair(self, monkeypatch, tmp_path, case):
        """n = 0 used to end in a ZeroDivisionError traceback and a negative n
        in numpy's "negative shift count"; zero states were rejected only
        after the first pair was built."""

        def no_pair(*args):
            raise AssertionError("a pair was built")

        monkeypatch.setattr(cli, "rotation_perturbed_pair", no_pair)
        check_error(case, tmp_path)


class TestCountCap:
    @pytest.mark.parametrize("command, flag, value", [
        ("estimate", "--samples", 2**31),
        ("decide", "--samples", 2**31),
        ("learn", "--samples", 2**31),
        ("fig2", "--m-list", 2**31),
        ("fig2", "--seeds", 2**31),
        ("similarity", "--pairs", 2**31),
        ("similarity", "--states", 2**31),
        ("similarity", "--pairs", 2**63 - 1),
    ])
    def test_count_above_the_cap_exits_1_before_allocating(self, tmp_path, command, flag, value):
        """Each of these used to end in numpy's _ArrayMemoryError traceback
        after trying to allocate 16-32 GiB, and --pairs 2**63 - 1 in an
        IndexError from np.linspace. Each runs in a child whose address
        space is limited to its size after import plus 1 GiB, so a request
        that allocates before the check fails at once."""
        code = (
            f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            "from helpers import limit_address_space; limit_address_space(); "
            "from qsnorm.cli import main; raise SystemExit(main(sys.argv[1:]))"
        )
        argv = [command, *request_files(tmp_path)[command], flag, value, "--out", tmp_path / "out"]
        result = subprocess.run([sys.executable, "-c", code, *map(str, argv)], capture_output=True, text=True)
        assert result.returncode == 1 and result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {flag} {value} is above the count cap {COUNT_CAP}"]
        assert not (tmp_path / "out").exists()

    def test_count_at_the_cap_is_accepted(self):
        """The cap itself passes the check; one more does not."""
        cli._check_counts({"samples": COUNT_CAP, "m_list": [1, COUNT_CAP], "seed": 2**63})
        with pytest.raises(ValueError, match="count cap"):
            cli._check_counts({"m_list": [1, COUNT_CAP + 1]})


EDGE_INTS = [0, 1, 2, -1, 2**31 - 1, 2**31, 2**31 + 1, -(2**31), 2**63 - 1, 2**63, 2**63 + 1, -(2**63)]
EDGE_FLOATS = ["nan", "inf", "-inf", "5e-324", "1e300", "-0.0"]
# Settings that set how much work an accepted request does, drawn small.
SMALL_INTS = {"max_iters": [0, 1, 2, -1]}
# Small work for the settings a draw leaves out; later flags override these.
SMALL_WORK = {
    "estimate": ("--samples", 16),
    "fig2": ("--n", 2, "--seeds", 2, "--m-list", "4,16"),
    "similarity": ("--n", 2, "--pairs", 2, "--states", 8),
    "learn": ("--samples", 8, "--max-iters", 2),
    "decide": ("--samples", 16),
}


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")

    return json.loads(text, parse_constant=reject)


def finite_csv(text):
    """The rows of a CSV output whose rows all have the header's width and
    whose fields past the header are finite numbers."""
    rows = list(csv.reader(text.splitlines()))
    assert all(len(row) == len(rows[0]) for row in rows)
    assert all(math.isfinite(float(field)) for row in rows[1:] for field in row)
    return rows


@st.composite
def requests(draw):
    """A command and edge values for a drawn subset of its settings; the
    path settings keep the files of request_files."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    _, _, own = COMMANDS[command]
    flags = []
    for name, kind, _, _ in own + COMMON + (("threads", int, 1, ""),):
        if kind is str or not draw(st.booleans()):
            continue
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            flags.append(flag)
        elif kind is int:
            flags += [flag, draw(st.sampled_from(SMALL_INTS.get(name, EDGE_INTS)))]
        elif kind is cli.int_list:
            values = draw(st.lists(st.sampled_from(EDGE_INTS), min_size=1, max_size=3))
            flags += [flag, ",".join(map(str, values))]
        else:
            flags += [flag, draw(st.sampled_from(EDGE_FLOATS))]
    return command, flags


class TestEveryRequest:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(request=requests())
    def test_exit_code_and_strict_outputs(self, tmp_path_factory, request):
        """Every request with edge values (ints near 0, 2^31 and 2^63;
        nan, infinities, a subnormal, 1e300 and -0.0) exits 0, 1 or 2 with
        no escaping exception. An exit 1 ends in its one error line, and an
        exit 0 writes strict JSON or CSV of finite numbers. The requests
        run in this process under an address-space limit, so one that
        allocates a count-sized array fails at once."""
        command, flags = request
        workdir = tmp_path_factory.mktemp(command)
        out, history = workdir / "out", workdir / "history.csv"
        argv = [command, *request_files(workdir)[command], *SMALL_WORK[command], *flags, "--out", out]
        if command == "learn":
            argv += ["--history-out", history]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), address_space_limit():
            try:
                code = cli.main([str(arg) for arg in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        lines = stderr.getvalue().splitlines()
        assert code in (0, 1, 2), (argv, lines)
        if code == 1:
            assert [line for line in lines if line.startswith("error:")] == lines[-1:], (argv, lines)
        if code == 0:
            if command in ("fig2", "similarity"):
                finite_csv(out.read_text())
            else:
                strict_json(out.read_text())
            if command == "learn":
                finite_csv(history.read_text())


class TestUsage:
    def test_missing_required_setting_exits_2(self, tmp_path):
        check_error("estimate_missing_setting", tmp_path)

    def test_unknown_command_exits_2(self, tmp_path):
        check_error("unknown_command", tmp_path)
        assert run_cli("frobnicate").returncode == 2

    def test_unrecognized_argument_after_a_command_exits_2(self, tmp_path):
        """The parser that reports a stray argument prints the top-level usage line."""
        check_error("fig2_unrecognized_argument", tmp_path)

    def test_import_does_not_load_numpy_random(self):
        """Every invocation pays the import; numpy.random loads only when a
        command first draws from a Generator."""
        code = "import sys, qsnorm.cli; print('numpy.random' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_analytic_learn_does_not_load_numpy_random(self, tmp_path):
        """A learn run draws its angles and its starting point without a
        Generator, so it never pays numpy.random's first import."""
        bare = subprocess.run(
            [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
            capture_output=True, text=True,
        )
        if bare.stdout.strip() != "False":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        ansatz = write_json(tmp_path / "a.json", RY_ANSATZ)
        target = write_json(tmp_path / "t.json", {"n": 1, "ops": [{"gate": "ry", "qubits": [0], "params": [0.4]}]})
        code = (
            "import sys; from qsnorm import cli; "
            f"rc = cli.main(['learn', '--ansatz', {ansatz!r}, '--target', {target!r}, '--samples', '8', "
            f"'--max-iters', '3', '--out', {str(tmp_path / 'r.json')!r}]); "
            "print(rc, 'numpy.random' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "0 False"
