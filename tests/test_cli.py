"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_default_run(self, capsys):
        code, out, _ = _run(capsys, "run", "--n", "27")
        assert code == 0
        assert "ww-tree" in out
        assert "bottleneck" in out
        assert "all values correct" in out

    @pytest.mark.parametrize(
        "counter",
        ["central", "static-tree", "combining-tree", "counting-network",
         "diffracting-tree"],
    )
    def test_every_counter_runs(self, capsys, counter):
        code, out, _ = _run(capsys, "run", "--counter", counter, "--n", "16")
        assert code == 0
        assert counter in out

    def test_shuffled_order(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--n", "16", "--order", "shuffled", "--seed", "3"
        )
        assert code == 0

    def test_concurrent_mode(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--counter", "combining-tree", "--n", "16",
            "--concurrent",
        )
        assert code == 0
        assert "concurrent" in out

    @pytest.mark.parametrize(
        "argv, reason",
        [
            # the reliable transport gives up on a peer dead for good
            (("--counter", "central", "--reliable",
              "--faults", "crash=1@t0-t1000000"), "abandoned"),
            # a crash-recovery run: both server seats die, nobody answers
            (("--counter", "central[standby]",
              "--faults", "crash=1@t1,crash=2@t1"), "never got a result"),
        ],
    )
    def test_a_failed_run_is_one_line_and_exit_1(self, capsys, argv, reason):
        code, _, err = _run(capsys, "run", "--n", "4", *argv)
        assert code == 1
        assert err.startswith("run failed: ") and reason in err
        assert err.count("\n") == 1

    def test_random_policy(self, capsys):
        code, out, _ = _run(
            capsys, "run", "--n", "16", "--policy", "random", "--seed", "4"
        )
        assert code == 0
        assert "policy=random" in out


class TestSweepCommand:
    def test_default_sweep(self, capsys):
        code, out, _ = _run(capsys, "sweep", "--ns", "16,64")
        assert code == 0
        assert "central" in out
        assert "ww-tree" in out
        assert "k(n) bound" in out

    def test_unknown_counter_fails(self, capsys):
        code, _, err = _run(capsys, "sweep", "--counters", "nonsense")
        assert code == 2
        assert "unknown" in err


class TestAdversaryCommand:
    def test_game_output(self, capsys):
        code, out, _ = _run(capsys, "adversary", "--n", "8")
        assert code == 0
        assert "bottleneck m_b" in out
        assert "True" in out

    def test_sampled_game(self, capsys):
        code, out, _ = _run(
            capsys, "adversary", "--counter", "ww-tree", "--n", "8",
            "--sample", "2",
        )
        assert code == 0


class TestBoundCommand:
    def test_curve(self, capsys):
        code, out, _ = _run(capsys, "bound", "--ns", "8,81")
        assert code == 0
        assert "2.00" in out
        assert "3.00" in out


class TestQuorumCommand:
    def test_square_universe_includes_maekawa(self, capsys):
        code, out, _ = _run(capsys, "quorum", "--n", "16")
        assert code == 0
        assert "MaekawaGrid" in out

    def test_nonsquare_universe_omits_maekawa(self, capsys):
        code, out, _ = _run(capsys, "quorum", "--n", "12")
        assert code == 0
        assert "MaekawaGrid" not in out
        assert "WheelQuorum" in out


class TestTreeCommand:
    def test_by_k(self, capsys):
        code, out, _ = _run(capsys, "tree", "--k", "3")
        assert code == 0
        assert "81 = 3^4" in out
        assert "walk" in out

    def test_by_n(self, capsys):
        code, out, _ = _run(capsys, "tree", "--n", "100")
        assert code == 0
        assert "arity=depth=4" in out
