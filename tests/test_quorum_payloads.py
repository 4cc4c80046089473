"""What the quorum counter puts on the wire, pinned.

Trace fingerprints hash :class:`~repro.sim.messages.MessageRecord`\\ s,
which carry no payload, so nothing else guards the contents of the
quorum counter's ``q-read``/``q-read-reply``/``q-write`` messages.
``tests/data/quorum_payloads.json`` holds one sha256 per quorum spec and
delivery policy over ``repr((sender, receiver, kind,
sorted(payload.items())))`` of every send, in send order, captured by
wrapping ``network.send`` the way
:meth:`~repro.analysis.bits.BitLoadAnalyzer.attach` does.

Plus two guards of the shared-payload design: every send reaches a
wrapped ``send`` (bit accounting sees all quorum traffic), and a write
payload shared by a round's receivers is never mutated — a member that
received only honest writes holds an honest state even while a
Byzantine sender's corrupted copies are in flight.

Regenerate the table (``PYTHONPATH=src python
tests/test_quorum_payloads.py``) only in a change that alters quorum
payloads on purpose, and say so there.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.bits import BitLoadAnalyzer
from repro.quorum.counter import KIND_WRITE
from repro.registry import RunSession, registered_names
from repro.sim.faults import parse_fault_spec

TABLE_PATH = Path(__file__).parent / "data" / "quorum_payloads.json"

QUORUM_SPECS = tuple(
    spec for spec in registered_names() if spec.startswith("quorum[")
)
POLICIES = {"unit": {}, "random": {"policy": "random", "seed": 11}}


def _n_for(spec: str) -> int:
    return 9 if spec == "quorum[maekawa]" else 8


def _capture(network, log: list) -> None:
    """Wrap *network*'s send so *log* gets ``(message, payload copy)``
    of every send, the payload as its sender handed it over."""
    original_send = network.send

    def logged_send(sender, receiver, kind, payload):
        copy = dict(payload)
        message = original_send(sender, receiver, kind, payload)
        log.append((message, copy))
        return message

    network.send = logged_send


def payload_digest(spec: str, policy: str) -> str:
    session = RunSession(spec, _n_for(spec), trace_level="LOADS", **POLICIES[policy])
    log: list = []
    _capture(session.network, log)
    session.run_workload("one-shot")
    digest = hashlib.sha256()
    for message, payload in log:
        line = (message.sender, message.receiver, message.kind, sorted(payload.items()))
        digest.update(repr(line).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def compute_table() -> dict:
    return {
        spec: {policy: payload_digest(spec, policy) for policy in POLICIES}
        for spec in QUORUM_SPECS
    }


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE_PATH.read_text())


def test_table_covers_every_quorum_spec(table):
    assert sorted(table) == sorted(QUORUM_SPECS)
    assert len(QUORUM_SPECS) == 6


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("spec", QUORUM_SPECS)
def test_payloads_match_the_pinned_table(table, spec, policy):
    assert payload_digest(spec, policy) == table[spec][policy]


@pytest.mark.parametrize("spec", QUORUM_SPECS)
def test_bit_meter_sees_every_quorum_message(spec):
    session = RunSession(spec, _n_for(spec), trace_level="LOADS", policy="random")
    meter = BitLoadAnalyzer(_n_for(spec))
    meter.attach(session.network)
    session.run_sequence()
    total = session.network.trace.total_messages
    assert total > 0
    assert meter.message_count == total


@pytest.mark.parametrize("seed", range(4))
def test_shared_write_payloads_survive_a_corrupting_sender(seed):
    n = 8
    session = RunSession(
        "quorum[majority]", n, trace_level="LOADS", policy="random", seed=seed
    )
    plan = parse_fault_spec("byz=1@corrupt", seed=seed)
    plan.bind_clients(n)
    session.network.install_fault_plan(plan)
    log: list = []
    _capture(session.network, log)
    session.run_sequence(check_values=False)

    corrupted = {record.uid for record in plan.events if record.kind == "corrupt"}
    assert corrupted, "the plan corrupted nothing: the test would be vacuous"
    # The states a member may honestly hold: the initial copy, a write
    # it received uncorrupted, or one of its own rounds' writes (applied
    # locally, so never on the wire).
    honest = {pid: [{"version": 0, "value": 0}] for pid in range(1, n + 1)}
    tainted = set()
    for message, payload in log:
        if message.kind != KIND_WRITE:
            continue
        honest[message.sender].append(payload)
        if message.uid in corrupted:
            tainted.add(message.receiver)
        else:
            honest[message.receiver].append(payload)
    clean_members = [pid for pid in range(1, n + 1) if pid not in tainted]
    assert clean_members
    for pid in clean_members:
        member = session.counter.member(pid)
        state = {"version": member.version, "value": member.value}
        assert state in honest[pid], (pid, state)


if __name__ == "__main__":
    TABLE_PATH.parent.mkdir(exist_ok=True)
    TABLE_PATH.write_text(json.dumps(compute_table(), indent=1) + "\n")
