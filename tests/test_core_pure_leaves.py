"""A pure leaf is no object.

Per §4 almost every processor of the tree counter works for no inner
node during a whole run.  Its one datum, the worker it believes its
parent node lives at, sits in the counter's leaf column; one shared
:class:`~repro.core.tree.worker.LeafProgram` stands in the network's
processor table for all such ids, and a
:class:`~repro.core.tree.worker.TreeWorker` exists only for an id that
holds, or has held, an inner role.  These tests pin which objects a run
builds, that the shared program keeps the leaf's protocol (beliefs,
errors), and that a deep copy taken mid-run owns its own leaf program.
"""

from __future__ import annotations

import copy
import gc
import random

import pytest

from repro.core.invariants import check_all, pure_leaves
from repro.core.tree.protocol import KIND_ID_UPDATE, KIND_INC, KIND_VALUE
from repro.core.tree.worker import LeafProgram, TreeWorker
from repro.errors import ProtocolError
from repro.registry import RunSession
from repro.sim.messages import Message

from conftest import all_values, observed, values


def _role_free_leaf(counter):
    """A leaf id the scheme starts on no inner node."""
    geometry = counter.geometry
    return next(
        pid for pid in range(geometry.leaf_count, 1, -1)
        if geometry.initially_worked_node(pid) is None
    )


def _program_table(session):
    network = session.network
    return {pid: network.processor(pid) for pid in network.materialised_ids()}


class TestOnlyRoleHoldersAreObjects:
    def test_workers_are_the_addressed_ids_outside_the_pure_leaves(self):
        n = 3_125
        order = list(range(1, n + 1))
        random.Random(7).shuffle(order)
        session = RunSession("ww-tree", n, trace_level="LOADS")
        result = session.run_sequence(order)
        counter = session.counter
        table = _program_table(session)
        workers = {pid for pid, program in table.items() if program is not counter.leaves}
        assert all(type(table[pid]) is TreeWorker for pid in workers)
        assert workers == set(table) - pure_leaves(counter)
        assert len(workers) < len(table) // 2
        assert all(report.holds for report in check_all(counter, result)), [
            report for report in check_all(counter, result) if not report.holds
        ]
        gc.collect()
        built = [o for o in gc.get_objects() if type(o) is TreeWorker]
        assert sum(1 for o in built if o._counter is counter) == len(workers)

    def test_a_leaf_belief_moves_in_the_column(self):
        """Wrapped intervals over three rounds retire the last inner
        level too, so leaves receive id-updates; once quiescent each
        leaf believes its parent's current worker."""
        session = RunSession("ww-tree?interval_mode=wrap", 81, trace_level="LOADS")
        for _ in range(3):
            session.run_sequence(check_values=False)
        counter = session.counter
        geometry, registry = counter.geometry, counter.registry
        assert any(counter.leaves.parents), "no leaf id-update landed"
        for pid in range(1, geometry.leaf_count + 1):
            parent = registry.role(geometry.leaf_parent(pid))
            assert counter.leaves.parent_worker(pid) == parent.worker, pid


class TestTheSharedLeafProgram:
    def test_a_bogus_leaf_message_still_raises(self):
        session = RunSession("ww-tree", 81)
        counter, network = session.counter, session.network
        pid = _role_free_leaf(counter)
        assert network.processor(pid) is counter.leaves
        bogus = Message(
            sender=2, receiver=pid, kind=KIND_INC,
            payload={"role": ("leaf", pid), "origin": 2},
        )
        with pytest.raises(ProtocolError, match=f"leaf {pid} cannot handle"):
            network.processor(pid).on_message(bogus)
        assert network.processor(pid) is counter.leaves  # not promoted

    def test_asking_for_a_pure_leaf_worker_promotes_it_in_place(self):
        session = RunSession("ww-tree", 81)
        counter, network = session.counter, session.network
        received = observed(counter)
        pid = _role_free_leaf(counter)
        update = Message(
            sender=1, receiver=pid, kind=KIND_ID_UPDATE,
            payload={"role": ("leaf", pid), "node": ("node", 9, 9), "new_worker": 42},
        )
        network.processor(pid).on_message(update)
        worker = counter.worker(pid)
        assert type(worker) is TreeWorker and network.processor(pid) is worker
        assert worker.held_nodes() == []
        assert counter.leaves.parent_worker(pid) == 42  # the belief is the leaf's
        value = Message(sender=1, receiver=pid, kind=KIND_VALUE, payload={"value": 9})
        worker.on_message(value)
        assert values(received, pid) == [9]

    def test_a_copy_taken_mid_run_finishes_identically_with_its_own_leaves(self):
        n = 625
        session = RunSession("ww-tree", n, policy="random", seed=11)
        order = list(range(1, n + 1))
        random.Random(11).shuffle(order)
        received = observed(session.counter)
        for op_index, pid in enumerate(order):
            session.counter.begin_inc(pid, op_index)
        session.network.run(2_000)
        assert not session.network.is_quiescent()
        clone, clone_received = copy.deepcopy((session, received))
        for each in (session, clone):
            each.network.run_until_quiescent()

        assert clone.network.trace.fingerprint() == session.network.trace.fingerprint()
        assert all_values(clone_received) == list(range(n))
        assert [values(clone_received, p) for p in order] == [
            values(received, p) for p in order
        ]
        assert clone.counter.leaves.parents == session.counter.leaves.parents
        ours, theirs = _program_table(session), _program_table(clone)
        assert ours.keys() == theirs.keys()
        leaves = clone.counter.leaves
        assert type(leaves) is LeafProgram and leaves is not session.counter.leaves
        assert leaves._counter is clone.counter
        for pid, program in theirs.items():
            if ours[pid] is session.counter.leaves:
                assert program is leaves
            else:
                assert type(program) is TreeWorker and program is not ours[pid]
                assert program._counter is clone.counter
