"""Mutation tests: break one protocol mechanism, watch the right thing fail.

Each mutant disables exactly one piece of the tree counter's machinery.
The suite asserts the precise consequence — either another mechanism
compensates (and we measure its extra cost) or the failure is loud.
This pins down *why* each mechanism exists, not just that the whole
works.
"""

from __future__ import annotations

import pytest

from repro.core import TreeCounter
from repro.core.tree.protocol import KIND_ID_UPDATE
from repro.core.tree.worker import TreeWorker
from repro.errors import ProtocolError, ReproError, SimulationLimitError
from repro.sim.network import Network
from repro.workloads import one_shot, run_sequence


class _NoChildUpdatesWorker(TreeWorker):
    """Mutant: a retiring worker never tells its children where it went."""

    def send(self, receiver, kind, payload=None):
        payload = payload or {}
        if kind == KIND_ID_UPDATE:
            target_role = payload.get("role", ())
            changed = payload.get("node", ())
            # Drop updates flowing DOWN (to children): the changed node
            # is the target's parent.
            if tuple(changed) != tuple(target_role) and not self._is_parent_update(
                payload
            ):
                return  # swallowed
        super().send(receiver, kind, payload)

    def _is_parent_update(self, payload) -> bool:
        # An update TO the parent names the child as changed; the parent
        # stores it among its children's workers.  Updates to children
        # name the parent as changed.  The keys' levels tell which.
        changed = tuple(payload["node"])
        target = tuple(payload["role"])
        if target[0] == "leaf":
            return False
        # target is a node; if the changed node is the target's child,
        # this is an upward (to-parent) update -> keep it.
        changed_level = changed[1]
        target_level = target[1]
        return changed_level > target_level


class _NoChildUpdatesCounter(TreeCounter):
    """Tree counter built from the child-update-dropping mutant."""

    name = "mutant-no-child-updates"

    def _make_worker(self, pid):
        return _NoChildUpdatesWorker(pid, self)


class TestChildUpdateMutant:
    def test_forwarding_pointers_compensate(self):
        """Without downward id-updates the counter STILL counts — every
        stale-addressed message rides the forwarding chain instead."""
        n = 81
        network = Network()
        counter = _NoChildUpdatesCounter(network, n)
        result = run_sequence(counter, one_shot(n))
        assert result.values() == list(range(n))

    def test_but_forwarding_traffic_explodes(self):
        n = 81
        mutant_network = Network()
        mutant = _NoChildUpdatesCounter(mutant_network, n)
        run_sequence(mutant, one_shot(n))
        healthy_network = Network()
        healthy = TreeCounter(healthy_network, n)
        run_sequence(healthy, one_shot(n))
        # The id-updates exist precisely to keep forwarding rare.
        assert mutant.total_forwarded() > 4 * healthy.total_forwarded()


class _NoForwardingWorker(TreeWorker):
    """Mutant: retired workers drop stale-addressed messages instead of
    forwarding them."""

    def on_message(self, message):
        key = message.payload.get("role", ()) if message.kind != "value" else ()
        if key and key[0] == "node":
            node = self._counter.geometry.decode(key)
            if self.forward_target(node) is not None:
                return  # drop: the handshake's forwarding is disabled
        super().on_message(message)


class _NoForwardingCounter(TreeCounter):
    """Tree counter built from the forwarding-dropping mutant."""

    name = "mutant-no-forwarding"

    def _make_worker(self, pid):
        return _NoForwardingWorker(pid, self)


class TestForwardingMutant:
    def test_dropped_messages_lose_operations_loudly(self):
        """Without forwarding, some message eventually dies at a retired
        worker and the damage is loud: a missing result or a wrong value
        (never a silent pass at full scale)."""
        n = 1024  # enough retirements that staleness is guaranteed
        network = Network()
        counter = _NoForwardingCounter(network, n)
        with pytest.raises(ReproError):
            run_sequence(counter, one_shot(n))


class TestMutantsAreMutants:
    def test_mutants_share_the_public_interface(self):
        for mutant_cls in (_NoChildUpdatesCounter, _NoForwardingCounter):
            network = Network()
            counter = mutant_cls(network, 8)
            assert isinstance(counter, TreeCounter)
            assert counter.k == 2
