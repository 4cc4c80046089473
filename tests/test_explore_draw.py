"""The guided strategy's per-message decision: one score, one draw.

``_weighted_index`` must pick what ``Random.choices`` with ``weights=``
picks and leave the generator where it leaves it, and the score must
equal the proof's :func:`~repro.lowerbound.weights.weight_of` bit for
bit.  ``choose_delay`` and ``choose_tiebreak`` score and draw in their
own frame, straight from the trace's load columns; they must decide
what ``_weighted_index`` over ``_score`` (and the reference tie-break
loop) decides, with the generator left in the same state — so guided
explorations, the repro corpus and the trace fingerprints stay what they
were.  The golden decision streams pin the whole chain end to end.
"""

from __future__ import annotations

import hashlib
from array import array
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from repro.explore import ExploreConfig, Explorer, GuidedStrategy
from repro.explore.controller import ScheduleController
from repro.explore.strategies import BaselineStrategy, _weighted_index
from repro.lowerbound.weights import weight_of
from repro.sim.messages import Message

pytestmark = pytest.mark.explore

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
BASES = st.sampled_from([2.0, 4.0, 4]) | st.floats(
    min_value=1.0, max_value=64.0, exclude_min=True
)


def _assert_same_draw(seed: int, weights: list[float]) -> None:
    ours, reference = Random(seed), Random(seed)
    picked = _weighted_index(ours.random, weights)
    assert picked == reference.choices(range(len(weights)), weights=weights)[0]
    assert ours.random() == reference.random()  # one draw consumed on each


class TestWeightedIndex:
    @given(SEEDS, st.integers(min_value=1, max_value=8), st.floats(0.0, 1e6))
    @example(0, 1, 0.0)
    @example(0, 4, 0.0)
    def test_delay_weights_match_random_choices(self, seed, size, score):
        _assert_same_draw(seed, [1.0 + score * index for index in range(size)])

    @given(SEEDS, st.integers(min_value=1, max_value=8), BASES)
    def test_byz_pid_weights_match_random_choices(self, seed, count, base):
        _assert_same_draw(seed, [base ** (count - 1 - i) for i in range(count)])


class TestInlineScore:
    @given(
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=16),
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
        BASES,
    )
    @example(3, 3, 5, 5, 2.0)
    @example(1, 2, 7, 0, 4)
    def test_score_is_weight_of_bit_for_bit(
        self, sender, receiver, receiver_load, sender_load, base
    ):
        loads = {receiver: receiver_load}
        loads[sender] = sender_load  # one pid, one load when they coincide
        ours = GuidedStrategy(base=base)._score(
            Message(sender, receiver, "inc"), loads.__getitem__
        )
        reference = weight_of((receiver, sender), loads, base)
        assert ours.hex() == reference.hex()


# Per-pid loads, split into sent and received; pids up to 11 index past
# the end of every column, as an unregistered or not yet counted id does.
COLUMNS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=8,
)
PIDS = st.integers(min_value=0, max_value=11)


class _Columns:
    """A trace stand-in: just the two load columns a decision reads."""

    def __init__(self, loads):
        self._sent = array("q", [sent for sent, _ in loads])
        self._received = array("q", [received for _, received in loads])


def _controller(loads) -> ScheduleController:
    controller = ScheduleController(BaselineStrategy())
    controller.trace = _Columns(loads)
    return controller


class TestFusedDecisions:
    @given(SEEDS, COLUMNS, PIDS, PIDS, st.integers(min_value=1, max_value=8), BASES)
    @example(0, [], 1, 2, 1, 2.0)
    @example(0, [(0, 0), (3, 4), (5, 0)], 2, 1, 4, 2.0)
    @example(7, [(10**6, 10**6)] * 4, 3, 9, 8, 1.0000001)
    def test_choose_delay_is_weighted_index_over_score(
        self, seed, loads, sender, receiver, menu_size, base
    ):
        controller = _controller(loads)
        message = Message(sender, receiver, "inc")
        ours, reference = GuidedStrategy(base=base), GuidedStrategy(base=base)
        ours._rng, reference._rng = Random(seed), Random(seed)
        score = reference._score(message, controller.load)
        expected = _weighted_index(
            reference._rng.random,
            [1.0 + score * index for index in range(menu_size)],
        )
        assert ours.choose_delay(message, menu_size, controller) == expected
        assert ours._rng.getstate() == reference._rng.getstate()

    @given(
        SEEDS,
        COLUMNS,
        st.lists(st.none() | st.tuples(PIDS, PIDS), min_size=1, max_size=8),
        BASES,
    )
    @example(0, [(1, 1)] * 4, [(1, 2), (2, 1)], 2.0)
    @example(0, [], [None, (4, 9)], 4)
    def test_choose_tiebreak_is_the_reference_loop(self, seed, loads, ready, base):
        controller = _controller(loads)
        # None stands for a local action: an opaque non-message entry.
        entries = [
            (print, 0) if pair is None else Message(pair[0], pair[1], "inc")
            for pair in ready
        ]
        ours, reference = GuidedStrategy(base=base), GuidedStrategy(base=base)
        ours._rng, reference._rng = Random(seed), Random(seed)
        best_index, best_score = 0, -1.0
        for index, entry in enumerate(entries):
            score = (
                reference._score(entry, controller.load)
                if type(entry) is Message
                else 0.0
            )
            score += reference._rng.random() * 1e-9
            if score > best_score:
                best_index, best_score = index, score
        assert ours.choose_tiebreak(entries, controller) == best_index
        assert ours._rng.getstate() == reference._rng.getstate()


class TestGoldenDecisionStream:
    """Guided ``combining-tree[bypass]`` at n = 8, seed 0 — the benchmark's
    ``explore_guided`` configuration — digested as one line per episode,
    ``",".join(decisions) + "\\n"``, through sha256.

    Episodes 0–199 and the benchmark's full stream, episodes 0–2999,
    are pinned.  Both digests were computed with ``random.choices`` and
    ``weight_of`` still making every guided decision.
    """

    @staticmethod
    def _digest(episodes: int) -> tuple[int, str]:
        explorer = Explorer(
            ExploreConfig(
                counter="combining-tree[bypass]",
                n=8,
                seed=0,
                strategy="guided",
                budget=episodes,
            )
        )
        strategy = GuidedStrategy(seed=0)
        digest = hashlib.sha256()
        decisions = 0
        for episode in range(episodes):
            stream = explorer.run_episode(strategy, episode).schedule.decisions
            decisions += len(stream)
            digest.update((",".join(map(str, stream)) + "\n").encode())
        return decisions, digest.hexdigest()

    def test_first_200_episodes(self):
        assert self._digest(200) == (
            14_413,
            "36a33d35087c9388f6661b560b9e68598b59694424db111436e59a4820acf97c",
        )

    def test_the_benchmark_stream_of_3000_episodes(self):
        assert self._digest(3000) == (
            216_036,
            "e4bd372cff160ce405f7ea928a48d6528b92fc053519cb3f7e3b9d29250495bd",
        )
