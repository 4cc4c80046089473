"""The greedy adversary of the Lower Bound Theorem (§3), executable.

The proof constructs a worst-case operation sequence: "For each operation
in the sequence we choose a processor (among those that have not been
chosen yet) and a process such that the processor's communication list is
longest."  This module plays that adversary against *any real counter
implementation*:

* at each step it trial-runs the next ``inc`` of every remaining
  candidate on a deep copy of the whole system, measures the resulting
  communication-list length, and commits the longest;
* along the way it records, for the processor that ends up being chosen
  last (the proof's ``q``), the trial list and the pre-operation load
  snapshot of every step — producing exactly the ledger the weight
  function of :mod:`repro.lowerbound.weights` consumes.

The trial runs exploit the simulator's determinism: a deep copy of
(network, counter) behaves identically to the original, which
operationalizes the proof's "possible prefixes of processes" without
special counter support.

Cost is ``O(n²)`` simulations; ``sample_size`` caps the candidate set per
step for larger sweeps (the committed choice is then the max over the
sample — still an adversary, just a weaker one, and the measured
bottleneck only shrinks, so bound checks stay sound).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Iterator

from repro.analysis.dag import build_list
from repro.api import CounterFactory, DistributedCounter
from repro.lowerbound.weights import LedgerStep
from repro.registry import assemble_run, resolve_factory
from repro.sim.messages import ProcessorId
from repro.sim.network import Network
from repro.sim.policies import DeliveryPolicy
from repro.workloads.driver import RunResult, run_sequence


@dataclass(slots=True)
class AdversarialRun:
    """Result of driving a counter with the greedy adversary."""

    result: RunResult
    order: list[ProcessorId]
    chosen_lengths: list[int]
    """The paper's ``L_i``: list length of the processor chosen at step i."""
    ledger: list[LedgerStep]
    """Per-step snapshots for the last-chosen processor ``q``."""

    @property
    def q(self) -> ProcessorId:
        """The processor chosen last — the proof's ``q``."""
        return self.order[-1]

    @property
    def bottleneck_load(self) -> int:
        """The measured ``m_b`` the theorem lower-bounds."""
        return self.result.bottleneck_load()


class GreedyAdversary:
    """Longest-communication-list adversary over a counter factory.

    Args:
        factory: the counter under attack — a registry spec string
            (``"central"``, ``"combining-tree?window=3.0"``), a
            :class:`~repro.registry.CounterRef`, or a plain
            ``(network, n)`` factory.
        n: number of client processors (each incs exactly once).
        policy: delivery policy for the committed run (trials inherit
            copies of its state, so trial and commit see identical
            nondeterminism).
        sample_size: evaluate at most this many candidates per step
            (None = all remaining, the paper's full adversary).
        seed: seed for candidate sampling.
    """

    def __init__(
        self,
        factory: CounterFactory | str,
        n: int,
        policy: DeliveryPolicy | None = None,
        sample_size: int | None = None,
        seed: int = 0,
    ) -> None:
        self._factory = resolve_factory(factory)
        self._n = n
        self._policy = policy
        self._sample_size = sample_size
        self._rng = random.Random(seed)

    def run(self) -> AdversarialRun:
        """Play the full n-step adversarial game; return the run + ledger."""
        # FULL by name: the adversary's list reconstruction and weight
        # function read the record history the fast levels do not keep.
        network, _, _, counter, _ = assemble_run(
            self._factory, self._n, policy=self._policy, trace_level="FULL"
        )
        steps: list[tuple[ProcessorId, int, dict, dict]] = []
        choices = self._choices(network, counter, steps)
        result = run_sequence(counter, choices, check_values=False)
        q = steps[-1][0]
        return AdversarialRun(
            result=result,
            order=[pid for pid, _, _, _ in steps],
            chosen_lengths=[length for _, length, _, _ in steps],
            ledger=[
                LedgerStep(
                    op_index=op_index,
                    q_list=trials.get(q, (q,)),
                    chosen_list_length=length,
                    loads_before=loads,
                )
                for op_index, (_, length, trials, loads) in enumerate(steps)
            ],
        )

    def _choices(
        self,
        network: Network,
        counter: DistributedCounter,
        steps: list[tuple[ProcessorId, int, dict, dict]],
    ) -> Iterator[ProcessorId]:
        """Yield each step's processor with the longest trial list.

        Lazy on purpose: the driver asks for step ``i``'s initiator only
        once step ``i - 1`` has committed, so every trial copies the
        system as the committed prefix left it.  Each step goes to
        *steps* first, as ``(pid, list length, every candidate's trial
        list, loads before the step)``.
        """
        remaining = list(range(1, self._n + 1))
        for op_index in range(self._n):
            trials: dict[ProcessorId, tuple[ProcessorId, ...]] = {}
            for pid in self._candidates(remaining):
                trial_network, _ = _trial(network, counter, pid, op_index)
                trials[pid] = build_list(trial_network.trace, op_index, pid).labels
            # the longest list; the smallest id among equals
            best = max(trials, key=lambda pid: (len(trials[pid]), -pid))
            loads = network.trace.load_snapshot(op_index)
            steps.append((best, len(trials[best]) - 1, trials, loads))
            remaining.remove(best)
            yield best

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _candidates(self, remaining: list[ProcessorId]) -> list[ProcessorId]:
        """All remaining processors, or a sample — q always included.

        Keeping the eventual-last processor in every sample is impossible
        to know in advance, so the sample is made *inclusive of the
        current tail candidate*: the lowest remaining id is always kept,
        giving the ledger a consistently observed processor when sampling
        is on.
        """
        if self._sample_size is None or len(remaining) <= self._sample_size:
            return list(remaining)
        sample = self._rng.sample(remaining, self._sample_size)
        anchor = min(remaining)
        if anchor not in sample:
            sample[0] = anchor
        return sample


def _trial(
    network: Network, counter: DistributedCounter, pid: ProcessorId, op_index: int
) -> tuple[Network, DistributedCounter]:
    """Run *pid*'s next inc on a deep copy of the system, to quiescence;
    return the copy (the original is untouched)."""
    network_copy, counter_copy = copy.deepcopy((network, counter))
    counter_copy.begin_inc(pid, op_index)
    network_copy.run_until_quiescent()
    return network_copy, counter_copy
