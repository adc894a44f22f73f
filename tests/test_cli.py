import contextlib
import copy
import io
import json
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ipir.cli import main
from ipir.net import RemoteTransport, load_store
from ipir.pir import open_session, pir_setup

SCENARIOS = Path(__file__).parent.parent / "scenarios"
GOLDEN = Path(__file__).parent / "golden"


def run_cli(args):
    return main(list(args))


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestPolicyCommands:
    def test_solve_lp_emits_policy_and_cost(self, tmp_path, capsys):
        out = tmp_path / "lp.json"
        code = run_cli(
            ["solve-lp", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "--servers", "2", "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["expected_cost"] == "5/4"
        assert data["cost_bound"] == "5/4"
        assert data["validation"]["independence"]
        assert data["policy"]["K"] == 2

    def test_greedy_emits_policy_and_cost(self, tmp_path):
        out = tmp_path / "greedy.json"
        code = run_cli(
            ["greedy", "--cond", str(SCENARIOS / "skewed_three.json"), "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["expected_cost"] == "51/40"
        assert data["size_weights"] == ["1/2", "2/5", "1/10"]

    def test_malformed_joint_exits_2_and_names_the_problem(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"K": 2, "p": [["1/2", "1/2"], ["1/4", "1/4"]]})
        code = run_cli(["solve-lp", "--joint", path])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad joint file" in err
        assert "1/2" in err  # the exact deficit is reported


class TestMalformedInputs:
    """Inputs of the wrong shape are configuration errors (exit 2), not
    tracebacks."""

    PAIR = str(SCENARIOS / "correlated_pair.json")
    WALK = str(SCENARIOS / "two_state_walk.json")
    FIRST = str(SCENARIOS / "first_instant_private.json")

    def expect_config_error(self, capsys, args, what):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"bad {what} file" in err

    def test_joint_rows_that_are_not_lists(self, tmp_path, capsys):
        path = write(tmp_path, "joint.json", {"K": 2, "p": [1, 2]})
        self.expect_config_error(capsys, ["solve-lp", "--joint", path], "joint")

    @pytest.mark.parametrize(
        "what", ["joint", "conditional", "policy", "model", "schedule", "transcript"]
    )
    def test_top_level_list(self, tmp_path, capsys, what):
        path = write(tmp_path, "input.json", [1, 2])
        args = {
            "joint": ["solve-lp", "--joint", path],
            "conditional": ["greedy", "--cond", path],
            "policy": ["two-request", "--joint", self.PAIR, "--policy", path],
            "model": ["simulate-location", "--model", path, "--schedule", self.FIRST],
            "schedule": ["simulate-location", "--model", self.WALK, "--schedule", path],
            "transcript": ["audit", "--transcript", path],
        }[what]
        self.expect_config_error(capsys, args, what)

    def test_model_with_an_empty_transition_matrix(self, tmp_path, capsys):
        path = write(tmp_path, "model.json", {"K": 2, "pi0": ["1/2", "1/2"], "transitions": [[]]})
        self.expect_config_error(
            capsys, ["simulate-location", "--model", path, "--schedule", self.FIRST], "model"
        )

    def test_policy_subset_that_is_not_a_list(self, tmp_path, capsys):
        path = write(
            tmp_path, "policy.json", {"K": 2, "entries": [{"s": 0, "x": 0, "u": 5, "p": "1"}]}
        )
        self.expect_config_error(
            capsys, ["two-request", "--joint", self.PAIR, "--policy", path], "policy"
        )

    def test_policy_for_another_number_of_messages(self, tmp_path, capsys):
        policy = {"K": 3, "entries": [{"s": 0, "x": 0, "u": [0, 1, 2], "p": "1"}]}
        path = write(tmp_path, "policy.json", policy)
        assert run_cli(["two-request", "--joint", self.PAIR, "--policy", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: bad policy file {path}: ")
        assert "policy has K=3, joint has K=2" in err

    def test_transcript_config_for_another_number_of_messages(self, tmp_path, capsys):
        entries = [{"s": s, "x": x, "u": [0, 1], "p": "1"} for s in range(2) for x in range(2)]
        policy = {"K": 2, "entries": entries}
        transcript = {"joint": json.loads(Path(self.PAIR).read_text()),
                      "policy": policy, "config": {"N": 2, "K": 3, "L": 8}}
        path = write(tmp_path, "t.json", transcript)
        assert run_cli(["audit", "--transcript", path, "--empirical"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: bad transcript file {path}: ")
        assert "config has K=3, joint has K=2" in err

    def expect_validation_failure(self, tmp_path, capsys, command, entries, witness):
        """``command`` run on a K=2 policy of ``entries`` exits 2 and names
        its validation ``witness``."""
        policy = {"K": 2, "entries": entries}
        if command == "two-request":
            args = ["two-request", "--joint", self.PAIR,
                    "--policy", write(tmp_path, "policy.json", policy)]
        else:
            transcript = {"joint": json.loads(Path(self.PAIR).read_text()),
                          "policy": policy, "config": {"N": 2, "K": 2, "L": 4}}
            args = ["audit", "--transcript", write(tmp_path, "t.json", transcript)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert f"policy fails validation: {witness}" in err

    @pytest.mark.parametrize("command", ["two-request", "audit"])
    def test_policy_subset_outside_the_messages(self, tmp_path, capsys, command):
        entries = [
            {"s": s, "x": x, "u": [0, 1, 5], "p": "1"} for s in range(2) for x in range(2)
        ]
        self.expect_validation_failure(
            tmp_path, capsys, command, entries, ("support", 0, 0, (0, 1, 5))
        )

    @pytest.mark.parametrize("command", ["two-request", "audit"])
    def test_policy_request_outside_the_messages(self, tmp_path, capsys, command):
        # an entry at x = 5 >= K is a support failure, not an index error
        entries = [{"s": 0, "x": 5, "u": [0, 1], "p": "1"}] + [
            {"s": s, "x": x, "u": [0, 1], "p": "1"} for s in range(2) for x in range(2)
        ]
        self.expect_validation_failure(
            tmp_path, capsys, command, entries, ("support", 0, 5, (0, 1))
        )

    @pytest.mark.parametrize("command", ["two-request", "audit"])
    def test_unnormalized_policy_names_the_pair(self, tmp_path, capsys, command):
        # p(u | s=0, x=0) sums to 1/2; a transcript is refused as two-request
        # --policy refuses it, by the pair, before any sampler is built
        entries = [{"s": 0, "x": 0, "u": [0], "p": "1/2"}] + [
            {"s": s, "x": x, "u": [0, 1], "p": "1"} for s, x in [(0, 1), (1, 0), (1, 1)]
        ]
        self.expect_validation_failure(
            tmp_path, capsys, command, entries, ("normalization", 0, 0, Fraction(1, 2))
        )

    def one_line_error(self, capsys, args, message):
        """``args`` exit 2 with ``message`` on one stderr line, no traceback."""
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "command", ["solve-lp", "greedy", "two-request", "simulate-location", "audit"]
    )
    def test_zero_denominator(self, tmp_path, capsys, command):
        joint = json.loads(Path(self.PAIR).read_text())
        joint["p"][0][0] = "1/0"
        if command == "greedy":
            cond = json.loads((SCENARIOS / "skewed_three.json").read_text())
            cond["rows"][1][2] = "1/0"
            args = ["greedy", "--cond", write(tmp_path, "cond.json", cond)]
        elif command == "simulate-location":
            model = json.loads(Path(self.WALK).read_text())
            model["transitions"][0][1] = "1/0"
            args = ["simulate-location", "--model", write(tmp_path, "model.json", model),
                    "--schedule", self.FIRST]
        elif command == "audit":
            transcript = json.loads((GOLDEN / "two_request_transcript.json").read_text())
            transcript["joint"] = joint
            args = ["audit", "--transcript", write(tmp_path, "t.json", transcript)]
        else:
            args = [command, "--joint", write(tmp_path, "joint.json", joint)]
        self.one_line_error(capsys, args, "'1/0' is not a rational number")

    @pytest.mark.parametrize("field", ["N", "K", "L"])
    def test_transcript_config_of_floats(self, tmp_path, capsys, field):
        # 2.0 == 2, so a float that passed the range checks reached the
        # scheme and failed there with a TypeError
        transcript = json.loads((GOLDEN / "two_request_transcript.json").read_text())
        transcript["config"][field] = float(transcript["config"][field])
        args = ["audit", "--transcript", write(tmp_path, "t.json", transcript)]
        self.one_line_error(capsys, args, "N, K and L must be ints")

    @pytest.mark.parametrize("seed", [7.0, True, None, "7"])
    def test_transcript_seed_that_is_not_an_int(self, tmp_path, capsys, seed):
        # the seed names the audit's random streams through str(), so 7.0
        # audited on another stream than 7
        transcript = json.loads((GOLDEN / "two_request_transcript.json").read_text())
        transcript["config"]["seed"] = seed
        path = write(tmp_path, "t.json", transcript)
        self.one_line_error(
            capsys, ["audit", "--transcript", path, "--empirical"],
            f"bad transcript file {path}: seed must be an int, got {seed!r}",
        )

    @pytest.mark.parametrize(
        "schedule, message",
        [
            ({"horizon": 3.7, "private": [0, 1.9]}, "schedule horizon must be an int, got 3.7"),
            ({"horizon": "3", "private": ["0"]}, "schedule horizon must be an int, got '3'"),
            ({"horizon": True, "private": [False]}, "schedule horizon must be an int, got True"),
            ({"horizon": 3, "private": [0, 1.0]},
             "schedule private instants must be ints, got [0, 1.0]"),
        ],
    )
    def test_schedule_values_that_are_not_ints(self, tmp_path, capsys, schedule, message):
        # int() read these as horizon 3 and private {0, 1}, or horizon 1
        path = write(tmp_path, "schedule.json", schedule)
        self.one_line_error(
            capsys, ["simulate-location", "--model", self.WALK, "--schedule", path],
            f"bad schedule file {path}: {message}",
        )

    @pytest.mark.parametrize("command", ["audit", "two-request"])
    def test_policy_k_of_a_float(self, tmp_path, capsys, command):
        # 2.0 == 2 passed the K comparison with the joint and failed in the
        # policy checks with a TypeError
        transcript = json.loads((GOLDEN / "two_request_transcript.json").read_text())
        transcript["policy"]["K"] = 2.0
        if command == "audit":
            path = write(tmp_path, "t.json", transcript)
            args, what = ["audit", "--transcript", path], "transcript"
        else:
            joint = write(tmp_path, "joint.json", transcript["joint"])
            path = write(tmp_path, "policy.json", transcript["policy"])
            args, what = ["two-request", "--joint", joint, "--policy", path], "policy"
        self.one_line_error(
            capsys, args, f"bad {what} file {path}: policy K must be an int, got 2.0"
        )

    @pytest.mark.parametrize("rows", [[], ""])
    def test_conditional_matrix_without_rows(self, tmp_path, capsys, rows):
        args = ["greedy", "--cond", write(tmp_path, "cond.json", {"K": 0, "rows": rows})]
        self.one_line_error(capsys, args, "a conditional matrix needs at least one row")

    @pytest.mark.parametrize(
        "field, value", [("s", None), ("s", 1.5), ("x", True), ("u", [0, "1"])]
    )
    def test_policy_entry_of_the_wrong_type(self, tmp_path, capsys, field, value):
        entries = [{"s": s, "x": x, "u": [0, 1], "p": "1"} for s in range(2) for x in range(2)]
        entries[1][field] = value
        path = write(tmp_path, "policy.json", {"K": 2, "entries": entries})
        self.one_line_error(
            capsys, ["two-request", "--joint", self.PAIR, "--policy", path],
            f"bad policy file {path}: policy entry {entries[1]!r} needs ints s and x",
        )

    def test_listen_port_outside_the_port_range(self, tmp_path, capsys):
        store = str(tmp_path / "replica.bin")
        assert run_cli(["upload", "--store", store, "-K", "2", "-L", "8"]) == 0
        assert run_cli(["serve", "--store", store, "--listen", "127.0.0.1:99999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: bad --listen '127.0.0.1:99999'")

    @pytest.mark.parametrize(
        "case",
        ["serve a missing store", "serve on a busy port",
         "upload into a missing directory", "output into a missing directory"],
    )
    def test_operating_system_error(self, tmp_path, capsys, case):
        store = str(tmp_path / "replica.bin")
        assert run_cli(["upload", "--store", store, "-K", "2", "-L", "8"]) == 0
        capsys.readouterr()
        missing = tmp_path / "missing"
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            args = {
                "serve a missing store": ["serve", "--store", str(missing / "r.bin")],
                "serve on a busy port":
                    ["serve", "--store", store, "--listen", f"127.0.0.1:{port}"],
                "upload into a missing directory":
                    ["upload", "--store", str(missing / "r.bin"), "-K", "2", "-L", "8"],
                "output into a missing directory":
                    ["solve-lp", "--joint", self.PAIR, "-o", str(missing / "lp.json")],
            }[case]
            assert run_cli(args) == 2
        assert capsys.readouterr().err.startswith("error: [Errno ")


# what a mutation puts in place of a value
FUZZ_VALUES = ("1/0", None, 1.5, True, "", [], -1)
# the inputs that are mutated, by the kind of file each is
FUZZ_SOURCES = {
    "joint": SCENARIOS / "correlated_pair.json",
    "conditional": SCENARIOS / "skewed_three.json",
    "model": SCENARIOS / "two_state_walk.json",
    "schedule": SCENARIOS / "first_instant_private.json",
    "transcript": GOLDEN / "two_request_transcript.json",
}
FUZZ_DOCS = {name: json.loads(path.read_text()) for name, path in FUZZ_SOURCES.items()}


@st.composite
def mutated(draw, doc):
    """A deep copy of the JSON value ``doc`` with one to three mutations,
    each at a node reached from the root by descending into a child chosen
    at random for as long as a coin says so: the node's value replaced by
    one of FUZZ_VALUES, its key dropped from its dict, for a list, the
    list emptied, or, for an int, the int replaced by its float twin
    (2 by 2.0), which compares equal to it."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parent, key, node = None, None, doc
        while isinstance(node, (dict, list)) and node and draw(st.booleans()):
            parent = node
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            node = parent[key]
        kinds = ["replace"] if parent is not None else []
        kinds += ["drop"] if isinstance(parent, dict) else []
        kinds += ["empty"] if isinstance(node, list) and node else []
        kinds += ["twin"] if parent is not None and type(node) is int else []
        if not kinds:
            continue
        kind = draw(st.sampled_from(kinds))
        if kind == "replace":
            parent[key] = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        elif kind == "drop":
            del parent[key]
        elif kind == "twin":
            parent[key] = float(node)
        elif parent is None:
            doc = []
        else:
            parent[key] = []
    return doc


def fuzz_runs(name, path, doc, folder):
    """The commands that read the mutated ``name`` file ``path``; a
    transcript's joint and policy also go through two-request --policy."""
    model, schedule = str(FUZZ_SOURCES["model"]), str(FUZZ_SOURCES["schedule"])
    runs = {
        "joint": [["solve-lp", "--joint", path],
                  ["two-request", "--joint", path, "--trials", "5"]],
        "conditional": [["greedy", "--cond", path]],
        "model": [["simulate-location", "--model", path, "--schedule", schedule]],
        "schedule": [["simulate-location", "--model", model, "--schedule", path]],
        "transcript": [["audit", "--transcript", path, "--exact"]],
    }[name]
    if name == "transcript" and isinstance(doc, dict) and "joint" in doc and "policy" in doc:
        joint, policy = folder / "joint.json", folder / "policy.json"
        joint.write_text(json.dumps(doc["joint"]))
        policy.write_text(json.dumps(doc["policy"]))
        runs.append(["two-request", "--joint", str(joint), "--policy", str(policy),
                     "--trials", "5"])
    return runs


class TestFuzzedInputs:
    """Mutated copies of the shipped inputs end in a report, a failed
    audit or a one-line error (exit 0, 3 or 2), never in a traceback. The
    examples are derandomized, so a run is repeatable, and 200 of them
    take about 2 s."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(sorted(FUZZ_SOURCES)).flatmap(
        lambda name: st.tuples(st.just(name), mutated(FUZZ_DOCS[name]))
    ))
    def test_cli_on_mutated_inputs(self, case):
        name, doc = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc))
            for args in fuzz_runs(name, str(path), doc, Path(tmp)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = run_cli(args)
                assert code in (0, 2, 3), (args, doc)
                if code == 2:
                    last = err.getvalue().splitlines()[-1]
                    assert last.startswith(("configuration error: ", "error: ")), (args, doc)


class TestTwoRequestCommand:
    def test_report_fields_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        base = [
            "two-request", "--joint", str(SCENARIOS / "correlated_pair.json"),
            "--auto-lp", "--servers", "2", "--trials", "400", "--seed", "11",
        ]
        assert run_cli(base + ["-o", str(out1)]) == 0
        assert run_cli(base + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        data = json.loads(out1.read_text())
        assert data["cost_s"] == "3/2"
        assert data["cost_x_expected"] == "5/4"
        assert data["cost_bound"] == "5/4"
        assert data["audits"]["subset-independence"]["passed"]

    def test_audit_handle_round_trip(self, tmp_path):
        handle = tmp_path / "transcript.json"
        out = tmp_path / "report.json"
        code = run_cli(
            ["two-request", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "--auto-greedy", "--trials", "200", "--seed", "3",
             "--audit-handle", str(handle), "-o", str(out)]
        )
        assert code == 0
        audit_out = tmp_path / "audit.json"
        code = run_cli(
            ["audit", "--transcript", str(handle), "--exact", "-o", str(audit_out)]
        )
        assert code == 0
        data = json.loads(audit_out.read_text())
        assert data["passed"]
        assert data["query-privacy"]["mode"] == "exact"

    def test_k3_transcript_gets_the_exact_audit(self, tmp_path):
        # at K=3, L=8 an exact audit once fell back to a sampled one
        tenths = [[1, 3, 6], [5, 4, 1], [2, 5, 3]]
        joint = write(
            tmp_path, "k3.json", {"K": 3, "p": [[f"{c}/30" for c in row] for row in tenths]}
        )
        handle = tmp_path / "transcript.json"
        code = run_cli(
            ["two-request", "--joint", joint, "--auto-greedy", "--length", "8",
             "--trials", "20", "--seed", "2", "--audit-handle", str(handle),
             "-o", str(tmp_path / "report.json")]
        )
        assert code == 0
        assert json.loads(handle.read_text())["config"] == {"N": 2, "K": 3, "L": 8, "seed": 2}
        out = tmp_path / "audit.json"
        assert run_cli(["audit", "--transcript", str(handle), "--exact", "-o", str(out)]) == 0
        section = json.loads(out.read_text())["query-privacy"]
        assert section["mode"] == "exact" and section["passed"]
        assert [c["name"] for c in section["checks"]] == [
            "query-privacy-server-0", "query-privacy-server-1"
        ]

    def test_explicit_policy_file(self, tmp_path):
        policy_path = tmp_path / "policy.json"
        run_cli(
            ["solve-lp", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "-o", str(policy_path)]
        )
        policy = json.loads(policy_path.read_text())["policy"]
        standalone = write(tmp_path, "p.json", policy)
        out = tmp_path / "rep.json"
        code = run_cli(
            ["two-request", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "--policy", standalone, "--trials", "100", "-o", str(out)]
        )
        assert code == 0


    def test_lp_policy_below_the_greedy_size_bound_exits_0(self, tmp_path):
        # the size bound is the greedy construction's guarantee; this K=4
        # LP optimum misses it at rank 3 (7/8 < 1) and is still valid
        eighths = [[1, 4, 2, 1], [2, 2, 3, 1], [1, 1, 4, 2], [1, 2, 1, 4]]
        joint = write(tmp_path, "k4.json",
                      {"K": 4, "p": [[f"{c}/32" for c in row] for row in eighths]})
        out = tmp_path / "rep.json"
        code = run_cli(
            ["two-request", "--joint", joint, "--auto-lp", "--trials", "20",
             "--seed", "1", "-o", str(out)]
        )
        assert code == 0
        audits = json.loads(out.read_text())["audits"]
        assert not audits["size-bound"]["passed"]
        assert audits["subset-independence"]["passed"]

    def test_negative_trials_exit_2(self, capsys):
        code = run_cli(
            ["two-request", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "--auto-lp", "--trials", "-3"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: trials must be >= 0, got -3\n"


class TestSimulateLocationCommand:
    def test_trace_report(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
             "--schedule", str(SCENARIOS / "first_instant_private.json"),
             "--seed", "5", "-o", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["all_online_privacy_zero"]
        assert data["all_decoded"]
        assert data["steps"][0]["private"] is True
        assert data["steps"][0]["cost"] == "3/2"
        assert len(data["steps"]) == 4
        assert "trace" in data

    def test_redacted_trace(self, tmp_path):
        out = tmp_path / "trace.json"
        run_cli(
            ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
             "--schedule", str(SCENARIOS / "first_instant_private.json"),
             "--seed", "5", "--redact-trace", "-o", str(out)]
        )
        assert "trace" not in json.loads(out.read_text())

    def test_horizon_mismatch_is_config_error(self, tmp_path):
        code = run_cli(
            ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
             "--schedule", str(SCENARIOS / "first_instant_private.json"),
             "--horizon", "9"]
        )
        assert code == 2

    def test_horizon_is_the_schedule_file_horizon_before_the_shift(self, tmp_path, capsys):
        # the schedule starts private at t=2, so it runs shifted over 0..3
        schedule = write(tmp_path, "schedule.json", {"horizon": 5, "private": [2]})
        out = tmp_path / "trace.json"
        args = ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
                "--schedule", schedule, "-o", str(out)]
        assert run_cli(args + ["--horizon", "5"]) == 0
        assert json.loads(out.read_text())["config"]["horizon"] == 3
        assert run_cli(args + ["--horizon", "3"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --horizon 3 disagrees with the schedule file horizon 5" in err

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            run_cli(
                ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
                 "--schedule", str(SCENARIOS / "first_instant_private.json"),
                 "--seed", "42", "-o", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestGoldenReports:
    """Reports pinned byte for byte, so a change in the order in which a
    seeded stream is consumed shows up as a diff against these files."""

    def test_two_request(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli(
            ["two-request", "--joint", str(SCENARIOS / "correlated_pair.json"),
             "--auto-lp", "--servers", "2", "--trials", "300", "--seed", "7",
             "--query-audit", "exact", "--audit-handle", "transcript.json",
             "-o", "two_request.json"]
        )
        assert code == 0
        assert (tmp_path / "two_request.json").read_bytes() == (
            GOLDEN / "two_request.json"
        ).read_bytes()
        # the handle lists every trial's (s, x, subset)
        assert (tmp_path / "transcript.json").read_bytes() == (
            GOLDEN / "two_request_transcript.json"
        ).read_bytes()

    def test_simulate_location(self, tmp_path):
        reports = []
        for seed in range(8):
            out = tmp_path / f"seed{seed}.json"
            code = run_cli(
                ["simulate-location", "--model", str(SCENARIOS / "two_state_walk.json"),
                 "--schedule", str(SCENARIOS / "first_instant_private.json"),
                 "--seed", str(seed), "-o", str(out)]
            )
            assert code == 0
            reports.append(out.read_bytes())
        assert b"".join(reports) == (GOLDEN / "simulate_location_seeds.txt").read_bytes()

    @pytest.mark.parametrize(
        "golden, args",
        [
            ("solve_lp.json",
             ["solve-lp", "--joint", str(SCENARIOS / "correlated_pair.json")]),
            ("greedy.json", ["greedy", "--cond", str(SCENARIOS / "skewed_three.json")]),
            # the validation flags and expected cost of both constructors,
            # and the subset-marginal and pattern TVs of the empirical audit
            ("audit_empirical.json",
             ["audit", "--transcript", str(GOLDEN / "two_request_transcript.json"),
              "--empirical"]),
        ],
        ids=["solve-lp", "greedy", "audit-empirical"],
    )
    def test_policy_and_empirical_audit_reports(self, tmp_path, golden, args):
        out = tmp_path / golden
        assert run_cli([*args, "-o", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_failing_audit(self, tmp_path):
        singleton = {
            "K": 2,
            "entries": [
                {"s": s, "x": x, "u": [x], "p": "1"} for s in range(2) for x in range(2)
            ],
        }
        transcript = write(
            tmp_path,
            "transcript.json",
            {"joint": {"K": 2, "p": [["3/8", "1/8"], ["1/8", "3/8"]]},
             "policy": singleton, "config": {"N": 2, "K": 2, "L": 4, "seed": 0}},
        )
        out = tmp_path / "audit_leaking.json"
        code = run_cli(["audit", "--transcript", transcript, "--exact", "-o", str(out)])
        assert code == 3
        assert out.read_bytes() == (GOLDEN / "audit_leaking.json").read_bytes()


class TestStoreCommands:
    def test_upload_then_serve_smoke(self, tmp_path):
        store_path = tmp_path / "replica.bin"
        assert run_cli(
            ["upload", "--store", str(store_path), "-K", "2", "-L", "8", "--seed", "4"]
        ) == 0
        store = load_store(store_path)
        assert store.K == 2 and store.L == 8

    def test_served_replica_answers_and_exits_on_sigint(self, tmp_path):
        self._serve_answer_and_interrupt(tmp_path, [sys.executable, "-m", "ipir.cli"])

    def test_replica_started_with_sigint_ignored_still_exits_on_it(self, tmp_path):
        # a background job of a non-interactive shell starts with SIGINT
        # ignored, and a Python child keeps that disposition
        ignoring = ("import os, signal, sys; "
                    "signal.signal(signal.SIGINT, signal.SIG_IGN); "
                    "os.execv(sys.executable, "
                    "[sys.executable, '-m', 'ipir.cli'] + sys.argv[1:])")
        self._serve_answer_and_interrupt(tmp_path, [sys.executable, "-c", ignoring])

    def test_sigint_right_after_the_banner_exits_cleanly(self, tmp_path):
        # no exchange first: the signal comes as soon as the banner is read
        store_path = str(tmp_path / "replica.bin")
        assert run_cli(["upload", "--store", store_path, "-K", "2", "-L", "8"]) == 0
        proc = subprocess.Popen(
            [sys.executable, "-m", "ipir.cli", "serve", "--store", store_path],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            assert proc.stdout.readline().startswith("serving K=2 L=8 on ")
            start = time.monotonic()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
            assert time.monotonic() - start < 2.0
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()

    @staticmethod
    def _serve_answer_and_interrupt(tmp_path, command):
        store_path = str(tmp_path / "replica.bin")
        assert run_cli(["upload", "--store", store_path, "-K", "2", "-L", "8"]) == 0
        store = load_store(store_path)
        proc = subprocess.Popen(
            command + ["serve", "--store", store_path],
            stdout=subprocess.PIPE, text=True,
        )
        transport = None
        try:
            # "serving K=2 L=8 on HOST:PORT"
            host, _, port = proc.stdout.readline().split()[-1].rpartition(":")
            # both queries go to the one replica, on two connections
            transport = RemoteTransport(addresses=[(host, int(port))] * 2)
            session = open_session(pir_setup(2, (0, 1), 8), 1, random.Random(0))
            assert session.decode(transport(session.queries)) == store.data[1]
            start = time.monotonic()
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) == 0
            assert time.monotonic() - start < 2.0
        finally:
            if transport is not None:
                transport.close()
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_upload_rejects_unaligned_length(self, tmp_path):
        code = run_cli(
            ["upload", "--store", str(tmp_path / "x.bin"), "-K", "2", "-L", "4"]
        )
        assert code == 2

    @pytest.mark.parametrize("K, L", [("2", "0"), ("0", "8")])
    def test_upload_rejects_an_empty_store(self, tmp_path, capsys, K, L):
        path = tmp_path / "z.bin"
        assert run_cli(["upload", "--store", str(path), "-K", K, "-L", L]) == 2
        assert not path.exists()
        assert "need at least 1" in capsys.readouterr().err


class TestReportCommand:
    def test_rationals_are_annotated(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", {"cost": "5/4", "note": "hi", "n": 3})
        assert run_cli(["report", "--file", path]) == 0
        out = capsys.readouterr().out
        assert "5/4 (≈1.2500)" in out
        assert "hi" in out

    def test_empty_audits_notice(self, tmp_path, capsys):
        path = write(tmp_path, "r.json", {"audits": {}})
        run_cli(["report", "--file", path])
        assert "no audits run" in capsys.readouterr().out

    def test_failing_audit_witness_is_shown(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "r.json",
            {"audits": {"x": {"passed": False,
                              "checks": [{"name": "c", "passed": False,
                                          "witness": "(0, (0,))"}]}}},
        )
        run_cli(["report", "--file", path])
        assert "(0, (0,))" in capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ipir.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("solve-lp", "greedy", "two-request", "simulate-location",
                     "audit", "serve", "upload", "report"):
            assert name in proc.stdout
