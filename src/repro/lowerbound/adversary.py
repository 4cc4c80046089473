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

from repro.analysis.dag import build_list
from repro.api import CounterFactory
from repro.errors import ProtocolError
from repro.lowerbound.weights import LedgerStep
from repro.sim.messages import ProcessorId
from repro.sim.network import Network
from repro.sim.policies import DeliveryPolicy
from repro.workloads.driver import RunResult


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
        from repro.registry import resolve_factory

        self._factory = resolve_factory(factory)
        self._n = n
        self._policy = policy
        self._sample_size = sample_size
        self._rng = random.Random(seed)

    def run(self) -> AdversarialRun:
        """Play the full n-step adversarial game; return the run + ledger."""
        # Always a FULL-tracing network: the adversary's list
        # reconstruction and weight function need the record history that
        # the fast trace levels do not keep.
        network = Network(policy=self._policy)
        counter = self._factory(network, self._n)
        remaining = list(range(1, self._n + 1))
        order: list[ProcessorId] = []
        chosen_lengths: list[int] = []
        trials_by_step: list[dict[ProcessorId, tuple[ProcessorId, ...]]] = []
        loads_by_step: list[dict[ProcessorId, int]] = []
        result = RunResult(counter_name=counter.name, n=self._n, trace=network.trace)

        for op_index in range(self._n):
            candidates = self._candidates(remaining)
            trials: dict[ProcessorId, tuple[ProcessorId, ...]] = {}
            best_pid = candidates[0]
            best_length = -1
            for pid in candidates:
                labels = self._trial_list(network, counter, pid, op_index)
                trials[pid] = labels
                length = len(labels) - 1
                if length > best_length or (
                    length == best_length and pid < best_pid
                ):
                    best_length = length
                    best_pid = pid
            loads_by_step.append(network.trace.load_snapshot(op_index))
            trials_by_step.append(trials)
            # Commit the chosen processor's inc on the real system.
            before = counter.results_for(best_pid)
            counter.begin_inc(best_pid, op_index)
            network.run_until_quiescent()
            after = counter.results_for(best_pid)
            if len(after) != len(before) + 1:
                raise ProtocolError(
                    f"adversary step {op_index}: processor {best_pid} got "
                    f"{len(after) - len(before)} results instead of 1"
                )
            order.append(best_pid)
            chosen_lengths.append(best_length)
            remaining.remove(best_pid)
            result.outcomes.add(
                op_index,
                best_pid,
                after[-1],
                network.trace.messages_for_op(op_index),
            )

        q = order[-1]
        ledger = [
            LedgerStep(
                op_index=op_index,
                q_list=trials_by_step[op_index].get(q, (q,)),
                chosen_list_length=chosen_lengths[op_index],
                loads_before=loads_by_step[op_index],
            )
            for op_index in range(self._n)
        ]
        return AdversarialRun(
            result=result,
            order=order,
            chosen_lengths=chosen_lengths,
            ledger=ledger,
        )

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

    def _trial_list(
        self,
        network: Network,
        counter,
        pid: ProcessorId,
        op_index: int,
    ) -> tuple[ProcessorId, ...]:
        """Run *pid*'s next inc on a deep copy; return its list labels."""
        network_copy, counter_copy = copy.deepcopy((network, counter))
        counter_copy.begin_inc(pid, op_index)
        network_copy.run_until_quiescent()
        return build_list(network_copy.trace, op_index, pid).labels
