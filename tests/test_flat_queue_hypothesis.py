"""Property-based check of ``EventQueue`` against a ``heapq`` model.

Hypothesis drives the bucket queue and a small in-test ``(time, seq)``
heap through identical random command sequences — ``schedule``,
``run_next``, ``pop``, ``run_many``, ``clear``, ``install_hook`` and
``remove_hook`` — and asserts that the queue observes exactly the same
execution order and clock trajectory as the model.  Hooked tie-breaking,
zero-delay appends to the live frontier and hook removal mid-bucket are
all covered by the same command stream.

The queue API has no cancellation primitive (events, once scheduled,
always run or are discarded wholesale by ``clear``), so there is no
cancel command to model here; if cancellation is ever added it must be
covered by this suite.
"""

from __future__ import annotations

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue

# Small delay palette with repeats so buckets collide often — the
# interesting regime for the bucket queue is many events per tick.
DELAYS = st.sampled_from((0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0))

COMMANDS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), DELAYS, st.integers(0, 7)),
        st.tuples(st.just("schedule_chain"), DELAYS, st.integers(0, 7)),
        st.tuples(st.just("run_next"), st.none(), st.none()),
        st.tuples(st.just("pop"), st.none(), st.none()),
        st.tuples(st.just("run_many"), st.integers(1, 6), st.none()),
        st.tuples(st.just("clear"), st.none(), st.none()),
        st.tuples(st.just("install_hook"), st.integers(0, 1000), st.none()),
        st.tuples(st.just("remove_hook"), st.none(), st.none()),
    ),
    min_size=1,
    max_size=60,
)


class ModelQueue:
    """The reference: a heap of ``(time, seq, action)`` with the hooked
    frontier gathered the slow, obvious way."""

    def __init__(self):
        self.heap = []
        self.counter = itertools.count()
        self.now = 0.0
        self.hook = None

    def __len__(self):
        return len(self.heap)

    def install_hook(self, hook):
        self.hook = hook

    def schedule(self, delay, action):
        heapq.heappush(self.heap, (self.now + delay, next(self.counter), action))

    def pop(self):
        ready = sorted(e for e in self.heap if e[0] == self.heap[0][0])
        chosen = ready[0]
        if self.hook is not None and len(ready) > 1:
            chosen = ready[self.hook.choose([entry[2] for entry in ready])]
        self.heap.remove(chosen)
        heapq.heapify(self.heap)
        self.now = chosen[0]
        return Event(time=chosen[0], action=chosen[2])

    def run_next(self):
        self.pop().action()

    def run_many(self, limit):
        ran = 0
        while self.heap and ran < limit:
            self.run_next()
            ran += 1
        return ran

    def clear(self):
        self.heap.clear()
        self.counter = itertools.count()
        self.now = 0.0
        self.hook = None


class _ModuloHook:
    """Picks ``drawn % len(ready)`` — any index a hook may legally
    return, fixed per installation."""

    def __init__(self, drawn):
        self.drawn = drawn

    def choose(self, ready):
        return self.drawn % len(ready)


class _Log:
    """Records every execution with the clock reading at fire time."""

    def __init__(self, queue):
        self.queue = queue
        self.entries: list[tuple[str, int | None, float]] = []

    def plain(self, tag):
        def action():
            self.entries.append(("plain", tag, self.queue.now))

        return action

    def chain(self, tag):
        """Fires, then schedules a zero-delay successor: an append to
        the live frontier."""

        def action():
            self.entries.append(("chain", tag, self.queue.now))
            self.queue.schedule(0.0, self.plain(tag + 100))

        return action


def _apply(commands, queue, log):
    for name, first, second in commands:
        if name == "schedule":
            queue.schedule(first, log.plain(second))
        elif name == "schedule_chain":
            queue.schedule(first, log.chain(second))
        elif name == "run_next":
            if queue:
                queue.run_next()
        elif name == "pop":
            if queue:
                event = queue.pop()
                log.entries.append(("pop", None, event.time))
                event.action()
        elif name == "run_many":
            ran = queue.run_many(first)
            log.entries.append(("ran", ran, queue.now))
        elif name == "clear":
            queue.clear()
            log.entries.append(("clear", None, queue.now))
        elif name == "install_hook":
            queue.install_hook(_ModuloHook(first))
        elif name == "remove_hook":
            queue.install_hook(None)
    # Drain whatever survives so trailing schedules are observed too.
    while queue:
        queue.run_next()


def _run_both(drive):
    """Drive the model and the queue identically; return both logs."""
    logs = []
    queues = (ModelQueue(), EventQueue())
    for queue in queues:
        log = _Log(queue)
        drive(queue, log)
        logs.append(log.entries)
    assert queues[0].now == queues[1].now
    assert len(queues[0]) == len(queues[1]) == 0
    return logs


class TestFlatQueueMatchesHeapqReference:
    @given(commands=COMMANDS)
    @settings(max_examples=300, deadline=None)
    def test_identical_execution_and_clock(self, commands):
        reference, observed = _run_both(
            lambda queue, log: _apply(commands, queue, log)
        )
        assert observed == reference

    @given(
        delays=st.lists(DELAYS, min_size=1, max_size=40),
        clear_at=st.integers(0, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_clear_mid_stream_then_reschedule(self, delays, clear_at):
        def drive(queue, log):
            queue.install_hook(_ModuloHook(1))
            for index, delay in enumerate(delays):
                if index == clear_at:
                    queue.run_many(2)
                    queue.clear()
                queue.schedule(delay, log.plain(index))
            while queue:
                queue.run_next()

        reference, observed = _run_both(drive)
        assert observed == reference
        # clear() dropped the hook: everything scheduled after it ran FIFO
        # within its timestamp.
        if clear_at < len(delays):
            after = [tag for _, tag, _ in observed if tag >= clear_at]
            by_time = sorted(
                range(clear_at, len(delays)), key=lambda i: (delays[i], i)
            )
            assert after == by_time

    @given(count=st.integers(1, 30), drawn=st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_zero_delay_cascade(self, count, drawn):
        """Events that schedule more events at the same tick run in the
        same pass (the live bucket keeps growing), FIFO without a hook
        and in the hook's order with one."""

        def drive_with(hook):
            def drive(queue, log):
                def cascade(tag):
                    def action():
                        log.entries.append(("fire", tag, queue.now))
                        if tag + 2 < count:
                            queue.schedule(0.0, cascade(tag + 2))

                    return action

                queue.install_hook(hook)
                queue.schedule(0.0, cascade(0))
                queue.schedule(0.0, cascade(1))
                while queue:
                    queue.run_next()

            return drive

        reference, observed = _run_both(drive_with(None))
        assert observed == reference
        assert [tag for _, tag, _ in observed] == list(range(max(count, 2)))
        reference, observed = _run_both(drive_with(_ModuloHook(drawn)))
        assert observed == reference
        assert len(observed) == max(count, 2)
