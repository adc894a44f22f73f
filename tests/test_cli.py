import json
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

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

    @pytest.mark.parametrize("command", ["two-request", "audit"])
    def test_policy_subset_outside_the_messages(self, tmp_path, capsys, command):
        policy = {
            "K": 2,
            "entries": [
                {"s": s, "x": x, "u": [0, 1, 5], "p": "1"} for s in range(2) for x in range(2)
            ],
        }
        if command == "two-request":
            args = ["two-request", "--joint", self.PAIR,
                    "--policy", write(tmp_path, "policy.json", policy)]
        else:
            transcript = {"joint": json.loads(Path(self.PAIR).read_text()),
                          "policy": policy, "config": {"N": 2, "K": 2, "L": 4}}
            args = ["audit", "--transcript", write(tmp_path, "t.json", transcript)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "policy fails validation: ('support', 0, 0, (0, 1, 5))" in err

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
