"""The guided strategy's per-message decision: one score, one draw.

``_weighted_index`` must pick what ``Random.choices`` with ``weights=``
picks and leave the generator where it leaves it, and the inline score
must equal the proof's :func:`~repro.lowerbound.weights.weight_of` bit
for bit — so guided explorations, the repro corpus and the trace
fingerprints stay what they were.  The golden decision stream pins the
whole chain end to end.
"""

from __future__ import annotations

import hashlib
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from repro.explore import ExploreConfig, Explorer, GuidedStrategy
from repro.explore.strategies import _weighted_index
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


class TestGoldenDecisionStream:
    """Guided ``combining-tree[bypass]`` at n = 8, seed 0 — the benchmark's
    ``explore_guided`` configuration — digested as one line per episode,
    ``",".join(decisions) + "\\n"``, through sha256.

    Episodes 0–199 are pinned here.  Episodes 0–2999, the benchmark's
    full stream, read 216 036 decisions and digest
    ``e4bd372cff160ce405f7ea928a48d6528b92fc053519cb3f7e3b9d29250495bd``;
    both values were computed with ``random.choices`` and ``weight_of``
    still making every guided decision.
    """

    def test_first_200_episodes(self):
        explorer = Explorer(
            ExploreConfig(
                counter="combining-tree[bypass]",
                n=8,
                seed=0,
                strategy="guided",
                budget=200,
            )
        )
        strategy = GuidedStrategy(seed=0)
        digest = hashlib.sha256()
        decisions = 0
        for episode in range(200):
            stream = explorer.run_episode(strategy, episode).schedule.decisions
            decisions += len(stream)
            digest.update((",".join(map(str, stream)) + "\n").encode())
        assert decisions == 14_413
        assert digest.hexdigest() == (
            "36a33d35087c9388f6661b560b9e68598b59694424db111436e59a4820acf97c"
        )
