"""The one event core reproduces the traces the two-core era pinned.

``tests/data/trace_fingerprints.json`` was generated at the last commit
that still carried the ``heapq`` reference queue (where the bucket queue
and the heap were asserted trace-identical on every registered spec).
This suite recomputes every entry — clean runs of every spec, faulty and
Byzantine runs, and explorer episodes under each strategy with their
full decision streams — and compares, so the surviving queue is held to
the deleted reference's behaviour.  Plus the substrate contracts that
used to be phrased as migration: a hook or fault plan installed with
events already pending leaves their order alone.

Regenerate the table (``PYTHONPATH=src python
tests/test_fast_core_equivalence.py``) only in a PR that changes traces
on purpose, and say so there.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError, SimulationLimitError
from repro.explore import STRATEGY_NAMES, ExploreConfig, Explorer
from repro.explore.strategies import make_strategy
from repro.registry import RunSession, parse_spec, registered_names
from repro.sim.faults import parse_fault_spec
from repro.sim.messages import NO_OP
from repro.sim.network import Network
from repro.sim.processor import InertProcessor

TABLE_PATH = Path(__file__).parent / "data" / "trace_fingerprints.json"

ALL_SPECS = registered_names()
CONCURRENT_SPECS = tuple(
    spec for spec in ALL_SPECS if not parse_spec(spec).capabilities.sequential_only
)

CLEAN_SCENARIOS = {
    "unit": ("one-shot", {}),
    "random": ("one-shot", {"policy": "random", "seed": 11}),
    "concurrent": ("one-shot-concurrent", {}),
}

FAULTY_RUNS = {
    "ww-tree-lossy": (
        "ww-tree",
        81,
        {"faults": "drop=0.05", "reliable": True, "policy": "random", "seed": 3},
    ),
    "central-lossy": (
        "central",
        16,
        {"faults": "drop=0.05", "reliable": True, "policy": "random", "seed": 3},
    ),
    "byz-mixed": (
        "byz-counter?f=1",
        7,
        {"faults": "byz=1@mixed", "policy": "random", "seed": 9},
    ),
}

EXPLORE_CONFIGS = {
    "bypass-tree": {
        "counter": "combining-tree[bypass]",
        "n": 8,
    },
    "lossy-central": {
        "counter": "central",
        "n": 6,
        "seed": 2,
        "faults": "drop=0.1,dup=0.05",
        "transport": "reliable",
    },
    "byz-sequential": {
        "counter": "byz-counter?f=1",
        "n": 4,
        "seed": 3,
        "faults": "byz=1@mixed",
        "workload": "sequential",
    },
}
EXPLORE_EPISODES = 3


# Smallest n each spec accepts out of the benchmark-friendly sizes
# (quorum[maekawa] needs a perfect square).
def _n_for(spec: str) -> int:
    return 9 if spec == "quorum[maekawa]" else 8


def _summary(network: Network) -> dict:
    return {
        "fingerprint": network.trace.fingerprint(),
        "events": network.events_executed,
        "now": network.now,
    }


def clean_run(spec: str, scenario: str) -> dict:
    workload, kwargs = CLEAN_SCENARIOS[scenario]
    session = RunSession(spec, _n_for(spec), trace_level="FULL", **kwargs)
    result = session.run_workload(workload)
    values = result.values()
    if scenario == "concurrent":
        values = sorted(values)
    return {**_summary(session.network), "values": values}


def faulty_run(name: str) -> dict:
    spec, n, kwargs = FAULTY_RUNS[name]
    session = RunSession(spec, n, trace_level="FULL", **kwargs)
    session.run_sequence(check_values=False)
    return {
        **_summary(session.network),
        "faults": session.fault_plan.counts,
    }


class _RecordingExplorer(Explorer):
    """Keeps each episode's network so its trace can be fingerprinted."""

    def _build(self, controller):
        built = super()._build(controller)
        self.network = built[1]
        return built


def explore_run(config_name: str, strategy_name: str) -> list[dict]:
    config = ExploreConfig(
        strategy=strategy_name, shrink=False, **EXPLORE_CONFIGS[config_name]
    )
    explorer = _RecordingExplorer(config)
    strategy = make_strategy(strategy_name, seed=config.seed)
    episodes = []
    for episode in range(EXPLORE_EPISODES):
        outcome = explorer.run_episode(strategy, episode)
        schedule = outcome.schedule
        episodes.append(
            {
                **_summary(explorer.network),
                "decisions": ",".join(map(str, schedule.decisions)),
                "non_fifo_ties": sum(
                    1
                    for decision, kind in zip(schedule.decisions, schedule.kinds)
                    if kind == "tie" and decision
                ),
                "failed": outcome.failure is not None,
            }
        )
    return episodes


def compute_table() -> dict:
    return {
        "clean": {
            spec: {
                scenario: clean_run(spec, scenario)
                for scenario in CLEAN_SCENARIOS
                if scenario != "concurrent" or spec in CONCURRENT_SPECS
            }
            for spec in ALL_SPECS
        },
        "faulty": {name: faulty_run(name) for name in FAULTY_RUNS},
        "explore": {
            config_name: {
                strategy: explore_run(config_name, strategy)
                for strategy in STRATEGY_NAMES
            }
            for config_name in EXPLORE_CONFIGS
        },
    }


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE_PATH.read_text())


class TestEverySpecIsTraceIdentical:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_one_shot_unit_delay(self, spec, table):
        assert clean_run(spec, "unit") == table["clean"][spec]["unit"]

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_one_shot_random_delays(self, spec, table):
        assert clean_run(spec, "random") == table["clean"][spec]["random"]

    @pytest.mark.parametrize("spec", CONCURRENT_SPECS)
    def test_concurrent_batch(self, spec, table):
        assert clean_run(spec, "concurrent") == table["clean"][spec]["concurrent"]


class TestHookedAndFaultyRuns:
    """The paths that used to force the heapq queue."""

    @pytest.mark.faults
    @pytest.mark.parametrize("name", FAULTY_RUNS)
    def test_fault_plan_run(self, name, table):
        run = faulty_run(name)
        assert sum(run["faults"].values()) > 0
        assert run == table["faulty"][name]

    @pytest.mark.explore
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("config_name", EXPLORE_CONFIGS)
    def test_explorer_episodes(self, config_name, strategy, table):
        recorded = table["explore"][config_name][strategy]
        assert len(recorded) >= 3
        assert explore_run(config_name, strategy) == recorded

    def test_recorded_episodes_exercise_tie_breaks(self, table):
        """The table is only a reference for the hook if hooks chose
        something other than FIFO in it."""
        for config_name, by_strategy in table["explore"].items():
            for strategy in ("random", "guided"):
                assert all(
                    episode["non_fifo_ties"] for episode in by_strategy[strategy]
                ), (config_name, strategy)


class TestCoreSelection:
    def test_unknown_core_rejected(self):
        # ``core`` survives only for the frozen bench/ probes: the three
        # historical strings are accepted and ignored.
        for core in ("auto", "fast", "compat"):
            Network(core=core)
        with pytest.raises(ConfigurationError):
            Network(core="turbo")


class _FifoHook:
    """A do-nothing arbiter: always picks the default (FIFO) candidate."""

    def choose(self, ready):
        return 0


class _LastHook:
    """Always runs the newest equal-time candidate first."""

    def choose(self, ready):
        return len(ready) - 1


class TestInstallWithEventsPending:
    """A hook or fault plan installed mid-session preserves what is
    already scheduled."""

    def _loaded_network(self):
        network = Network(trace_level="FULL")
        network.register_all([InertProcessor(pid) for pid in range(1, 5)])
        for index in range(12):
            network.send((index % 4) + 1, ((index + 1) % 4) + 1, "m", {"i": index})
        network.inject(lambda: None, op_index=3, delay=0.5)
        return network

    def test_fifo_hook_keeps_pending_order(self):
        network = self._loaded_network()
        baseline = self._loaded_network()
        pending = len(network._queue)
        network.install_scheduler_hook(_FifoHook())
        assert len(network._queue) == pending
        network.run_until_quiescent()
        baseline.run_until_quiescent()
        # A FIFO hook must not change the schedule: byte-identical trace.
        assert network.trace.records == baseline.trace.records
        assert network.now == baseline.now

    def test_hook_installed_mid_bucket_arbitrates_the_rest(self):
        network = self._loaded_network()
        for _ in range(4):
            network.step()  # the t=0.5 inject, then three of the t=1 bucket
        network.install_scheduler_hook(_LastHook())
        network.run_until_quiescent()
        uids = [record.uid for record in network.trace.records]
        assert uids == [0, 1, 2, *range(11, 2, -1)]

    def test_fault_plan_keeps_pending_order(self):
        network = self._loaded_network()
        baseline = self._loaded_network()
        network.install_fault_plan(parse_fault_spec("dup=0.0", seed=1))
        network.run_until_quiescent()
        baseline.run_until_quiescent()
        assert network.trace.records == baseline.trace.records
        assert network.in_flight == 0


class _Recorder(InertProcessor):
    """Keeps every message it receives and every local tick it runs,
    the tick with the operation active at that moment."""

    __slots__ = ("seen",)

    def __init__(self, pid):
        super().__init__(pid)
        self.seen = []

    def on_message(self, message):
        self.seen.append(message)

    def tick(self):
        self.seen.append(("tick", self.network.active_op))


class TestFastCoreBehavior:
    def test_deepcopy_preserves_dispatch_wiring(self):
        network = Network(trace_level="FULL")
        network.register_all([_Recorder(pid) for pid in range(1, 3)])
        sent = network.send(1, 2, "m", {})
        clone = copy.deepcopy(network)
        clone.run_until_quiescent()
        network.run_until_quiescent()
        assert clone.trace.records == network.trace.records
        # Each network delivered to its own processor 2, exactly once.
        for each in (network, clone):
            assert each.processor(2).seen == [sent]
            assert each.processor(1).seen == []

    def test_deepcopy_owns_its_pending_local_events(self):
        network = Network()
        network.register(_Recorder(1))
        network.inject(network.processor(1).tick, op_index=7, delay=1.0)
        clone = copy.deepcopy(network)
        clone.run_until_quiescent()
        # The pending tick fired on the clone's processor, under op 7.
        assert clone.processor(1).seen == [("tick", 7)]
        assert network.processor(1).seen == []
        assert clone.active_op == network.active_op == NO_OP
        network.run_until_quiescent()
        assert network.processor(1).seen == [("tick", 7)]
        assert clone.processor(1).seen == [("tick", 7)]

    def test_reset_reuses_the_fast_queue(self):
        network = Network()
        network.register_all([InertProcessor(pid) for pid in range(1, 3)])
        queue = network._queue
        network.send(1, 2, "m", {})
        network.run_until_quiescent()
        network.reset()
        assert network._queue is queue
        assert len(queue) == 0 and queue.now == 0.0

    def test_event_limit_still_enforced(self):
        class Bouncer(InertProcessor):
            def on_message(self, message):
                self.send(message[0], "m", {})

        network = Network(trace_level="OFF", event_limit=500)
        network.register_all([Bouncer(1), Bouncer(2)])
        network.send(1, 2, "m", {})
        with pytest.raises(SimulationLimitError):
            network.run_until_quiescent()


if __name__ == "__main__":
    TABLE_PATH.parent.mkdir(exist_ok=True)
    TABLE_PATH.write_text(json.dumps(compute_table(), indent=1) + "\n")
