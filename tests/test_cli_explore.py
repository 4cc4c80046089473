"""The ``repro explore`` subcommand: search, replay, JSON, exit codes."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

pytestmark = pytest.mark.explore

CORPUS_DIR = pathlib.Path(__file__).parent / "repros"


def _run(capsys, *argv):
    code = main(["explore", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExploreCommand:
    def test_clean_exploration_exits_zero(self, capsys):
        code, out, _ = _run(
            capsys, "--counter", "central", "--budget", "10"
        )
        assert code == 0
        assert "no invariant violation found" in out
        assert "10 schedules" in out

    def test_exploration_is_deterministic(self, capsys):
        argv = ("--counter", "central", "--budget", "10", "--strategy", "guided")
        first = _run(capsys, *argv)
        second = _run(capsys, *argv)
        strip = lambda text: [
            line for line in text.splitlines() if "schedules/s" not in line
        ]
        assert first[0] == second[0] == 0
        assert strip(first[1]) == strip(second[1])

    def test_mutant_failure_exits_one_and_reports_the_oracle(self, capsys):
        code, out, _ = _run(
            capsys,
            "--counter", "mutant[stale-central]",
            "--n", "6", "--seed", "3", "--budget", "10",
        )
        assert code == 1
        assert "failing schedule" in out
        assert "linearizability" in out

    def test_json_output_is_machine_readable(self, capsys):
        code, out, _ = _run(
            capsys, "--counter", "central", "--budget", "5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["episodes"] == 5
        assert payload["failures"] == []
        assert "schedules_per_second" in payload
        assert set(payload["verdicts"]) == {
            "runtime", "linearizability", "hot-spot",
            "agreement", "validity",
            "no-lost-increment", "retirement-monotonicity",
        }

    def test_save_repros_writes_replayable_files(self, capsys, tmp_path):
        code, out, _ = _run(
            capsys,
            "--counter", "mutant[stale-central]",
            "--n", "6", "--seed", "3", "--budget", "5",
            "--save-repros", str(tmp_path),
        )
        assert code == 1
        written = sorted(tmp_path.glob("*.json"))
        assert written
        replay_code, replay_out, _ = _run(capsys, "--replay", str(written[0]))
        assert replay_code == 0
        assert "[reproduces]" in replay_out

    def test_capability_error_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "--counter", "arrow", "--budget", "2")
        assert code == 2
        assert "sequential-only" in err

    def test_malformed_strategy_plan_is_a_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "--counter", "central", "--strategy", "warp:10"
        )
        assert code == 2
        assert "unknown strategy" in err

    def test_parallel_workers_match_serial_output(self, capsys):
        argv = ("--counter", "central", "--budget", "30", "--seed", "2")
        serial = _run(capsys, *argv, "--workers", "1")
        parallel = _run(capsys, *argv, "--workers", "4")
        # Identical apart from the timing line.
        strip = lambda text: [
            line for line in text.splitlines() if "schedules/s" not in line
        ]
        assert serial[0] == parallel[0] == 0
        assert strip(serial[1]) == strip(parallel[1])


@pytest.mark.byzantine
class TestByzantineRegimeEndToEnd:
    """Two pinned explorations through the CLI: the adversary breaks a
    counter that trusts its server and cannot break one built for it."""

    def test_bare_central_yields_an_agreement_witness(self, capsys):
        code, out, _ = _run(
            capsys,
            "--counter", "central", "--n", "4", "--seed", "0",
            "--strategy", "guided:6,random:6", "--budget", "6",
            "--faults", "byz=1@equivocate", "--workload", "sequential",
            "--json",
        )
        report = json.loads(out)
        assert code == 1
        oracles = {f["failure"]["oracle"] for f in report["failures"]}
        assert "agreement" in oracles

    def test_byz_counter_explores_clean_within_its_budget(self, capsys):
        # f = 1 < n/3 at n = 7
        code, out, _ = _run(
            capsys,
            "--counter", "byz-counter?f=1", "--n", "7", "--seed", "3",
            "--strategy", "guided:4,random:4", "--budget", "4",
            "--faults", "byz=1@mixed", "--workload", "sequential",
            "--json",
        )
        report = json.loads(out)
        assert code == 0
        assert report["failures"] == []
        assert report["episodes"] == 8


class TestReplayMode:
    def test_replaying_the_corpus_reproduces(self, capsys):
        path = sorted(CORPUS_DIR.glob("*.json"))[0]
        code, out, _ = _run(capsys, "--replay", str(path))
        assert code == 0
        assert "[reproduces]" in out

    def test_missing_file_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "--replay", "/nonexistent/repro.json")
        assert code == 2
        assert "cannot load repro file" in err

    def test_bad_schema_is_a_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "explore-repro-v999"}')
        code, _, err = _run(capsys, "--replay", str(bad))
        assert code == 2
        assert "unsupported repro schema" in err

    def test_non_reproducing_repro_exits_one(self, capsys, tmp_path):
        # A clean counter with the baseline schedule cannot fail: the
        # fabricated witness must be reported as not reproducing.
        fake = tmp_path / "fake.json"
        fake.write_text(
            json.dumps(
                {
                    "schema": "explore-repro-v1",
                    "counter": "central",
                    "n": 4,
                    "seed": 0,
                    "decisions": [],
                    "failure": {"oracle": "linearizability"},
                }
            )
        )
        code, out, _ = _run(capsys, "--replay", str(fake))
        assert code == 1
        assert "DOES NOT REPRODUCE" in out
