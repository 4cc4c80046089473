"""Linearizability of every registered counter over a lossy wire.

Satellite of the crash-recovery PR: run the HSW linearizability checker
over each registered spec under ``drop=0.05,dup=0.02`` with the
reliable transport, n=16, seed pinned.  Sequential-only counters are
driven one op at a time (their real-time order is total); the rest run
the staggered concurrent driver, which is what creates precedence
pairs for the checker to test against.

Everything here is deterministic per seed, so linearizability is an
exact expectation, not a flake: at this seed every spec — including
counting-network and diffracting-tree — produces an inversion-free
history.  That is *not* a guarantee for those two (they are not
linearizable in general; ``test_analysis_linearizability.py`` holds a
deterministic HSW counterexample with a scripted adversary), so the
``EXPECTED_LINEARIZABLE`` set below is an empirical record for this
workload, one entry per spec, asserted both ways.
"""

from __future__ import annotations

import pytest

from repro.analysis.linearizability import (
    TimedOp,
    check_linearizable_counting,
    run_staggered_timed,
)
from repro.registry import RunSession, get_spec, registered_specs

from conftest import observed

pytestmark = pytest.mark.recovery

N = 16
SEED = 11
FAULTS = "drop=0.05,dup=0.02"
GAP = 5.0

# Empirical per-spec verdicts for (N, SEED, FAULTS, GAP) above.  If a
# protocol change flips one, update the entry deliberately — a silent
# flip in either direction is a behaviour change worth a commit note.
EXPECTED_LINEARIZABLE = {
    "arrow": True,
    "byz-counter": True,
    "central": True,
    "central[standby]": True,
    "combining-tree": True,
    "combining-tree[bypass]": True,
    "counting-network": True,
    "diffracting-tree": True,
    "quorum[crumbling-wall]": True,
    "quorum[maekawa]": True,
    "quorum[majority]": True,
    "quorum[singleton]": True,
    "quorum[tree-paths]": True,
    "quorum[wheel]": True,
    "static-tree": True,
    "ww-tree": True,
}


def _run_sequential_timed(session: RunSession) -> list[TimedOp]:
    """One op at a time, timed: the real-time order is exactly the
    issue order, so any inversion is a genuine protocol bug."""
    counter, network = session.counter, session.network
    received = observed(counter)
    ops: list[TimedOp] = []
    for op_index, pid in enumerate(range(1, N + 1)):
        request_time = network.now
        counter.begin_inc(pid, op_index)
        network.run_until_quiescent()
        value, response_time = received.take()[pid][-1]
        ops.append(
            TimedOp(
                op_index=op_index,
                initiator=pid,
                value=value,
                request_time=request_time,
                response_time=response_time,
            )
        )
    return ops


def test_expected_verdicts_cover_every_registered_spec():
    assert sorted(EXPECTED_LINEARIZABLE) == sorted(
        spec.name for spec in registered_specs()
    )


@pytest.mark.parametrize(
    "spec_name", [spec.name for spec in registered_specs()]
)
def test_lossy_history_matches_expected_linearizability(spec_name):
    spec = get_spec(spec_name)
    violation = spec.supports_n(N)
    if violation is not None:
        pytest.skip(f"{spec_name}: {violation}")
    session = RunSession(
        spec_name, N, policy="random", seed=SEED,
        faults=FAULTS, reliable=True,
    )
    if spec.capabilities.sequential_only:
        ops = _run_sequential_timed(session)
    else:
        ops = run_staggered_timed(session.counter, list(range(1, N + 1)), gap=GAP)
    assert len(ops) == N
    values = [op.value for op in ops]
    assert len(set(values)) == N  # it counts: no duplicates, ever
    report = check_linearizable_counting(ops)
    assert report.linearizable == EXPECTED_LINEARIZABLE[spec_name]
    if spec.capabilities.sequential_only:
        # A strictly sequential history has every ordered pair.
        assert report.precedence_pairs >= N * (N - 1) // 2 - 1
