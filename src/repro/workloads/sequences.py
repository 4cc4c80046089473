"""Initiator sequences: who requests ``inc``, and in what order.

The paper's lower bound is stated for the workload in which *each
processor initiates exactly one inc operation* (§3) — a permutation of
``1 .. n``.  This module generates that workload in several flavours, plus
the skewed and repeated workloads used by the extension benchmarks,
and :func:`percentile`, the one nearest-rank quantile every latency
summary uses (a leaf module, so the serving layer imports it without
the analysis package).
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.errors import ConfigurationError
from repro.sim.messages import ProcessorId


def one_shot(n: int) -> list[ProcessorId]:
    """The canonical paper workload: processors 1..n, each incing once.

    Uses the identity order; combine with :func:`shuffled` or the greedy
    adversary of :mod:`repro.lowerbound.adversary` for other orders.
    """
    _require_positive(n)
    return list(range(1, n + 1))


def reversed_one_shot(n: int) -> list[ProcessorId]:
    """Each processor incs once, in descending id order."""
    _require_positive(n)
    return list(range(n, 0, -1))


def shuffled(n: int, seed: int = 0) -> list[ProcessorId]:
    """Each processor incs once, in a seeded random order."""
    _require_positive(n)
    order = list(range(1, n + 1))
    random.Random(seed).shuffle(order)
    return order


def round_robin(n: int, rounds: int) -> list[ProcessorId]:
    """Every processor incs once per round, for *rounds* rounds.

    Extension workload: the paper's bound is per one-shot sequence; this
    checks load behaviour when the sequence repeats (retired processors
    are not reused within a round but are across rounds).
    """
    _require_positive(n)
    if rounds <= 0:
        raise ConfigurationError(f"rounds must be positive, got {rounds}")
    return [pid for _ in range(rounds) for pid in range(1, n + 1)]


def zipf_sequence(n: int, length: int, skew: float = 1.2, seed: int = 0) -> list[ProcessorId]:
    """*length* incs with Zipf-skewed initiators.

    The paper notes that distribution is inherently limited "if many
    operations are initiated by a single processor"; this workload
    exercises exactly that regime for the extension benches.
    """
    _require_positive(n)
    if length <= 0:
        raise ConfigurationError(f"length must be positive, got {length}")
    if skew <= 0:
        raise ConfigurationError(f"skew must be positive, got {skew}")
    weights = [1.0 / (rank**skew) for rank in range(1, n + 1)]
    rng = random.Random(seed)
    return rng.choices(range(1, n + 1), weights=weights, k=length)


def zipf_keys(
    keys: int,
    length: int,
    skew: float = 1.1,
    seed: int = 0,
    prefix: str = "k",
) -> list[str]:
    """*length* counter keys with Zipf-skewed popularity over *keys* names.

    Real keyspaces are never uniform — a few keys take most of the
    traffic.  Rank ``r`` (1-based) is drawn with weight ``1/r^skew``
    and named ``{prefix}{r-1}`` zero-padded, so ``k00`` is always the
    hottest key.  This is the keyed-workload generator behind
    ``repro loadgen --keys`` and the E27 sharding experiment.
    """
    ranks = zipf_sequence(keys, length, skew=skew, seed=seed)
    width = max(2, len(str(keys - 1))) if keys > 1 else 2
    return [f"{prefix}{rank - 1:0{width}d}" for rank in ranks]


def batched(n: int, batch_size: int) -> list[list[ProcessorId]]:
    """Split the one-shot workload into concurrent batches of *batch_size*.

    For :func:`repro.workloads.run_concurrent`: each inner list is
    injected at one instant, the network quiesces between batches.
    """
    _require_positive(n)
    if batch_size <= 0:
        raise ConfigurationError(f"batch size must be positive, got {batch_size}")
    order = list(range(1, n + 1))
    return [order[start : start + batch_size] for start in range(0, n, batch_size)]


def ping_pong(n: int, length: int | None = None) -> list[ProcessorId]:
    """Alternate between the two extreme processors 1 and n.

    The adversarial order for locality-exploiting structures (E13): on a
    spanning tree it crosses the root on every single operation.
    Defaults to ``length = n``.
    """
    _require_positive(n)
    if n < 2:
        raise ConfigurationError("ping-pong needs at least two processors")
    if length is None:
        length = n
    if length <= 0:
        raise ConfigurationError(f"length must be positive, got {length}")
    return [1 if index % 2 == 0 else n for index in range(length)]


def single_hotspot(n: int, length: int, hot: ProcessorId = 1) -> list[ProcessorId]:
    """All *length* operations initiated by one processor.

    The degenerate regime the paper excludes from its lower bound (and for
    good reason: the initiator itself is trivially a bottleneck).
    """
    _require_positive(n)
    if not 1 <= hot <= n:
        raise ConfigurationError(f"hot processor {hot} outside 1..{n}")
    return [hot] * length


def poisson_arrivals(
    ops: int, rate: float, seed: int = 0
) -> list[float]:
    """*ops* open-loop arrival times with Poisson arrivals at *rate*.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``
    (memoryless — the classic open-loop traffic model); times are
    offsets from workload start, ascending.  Units are whatever the
    consumer's clock uses: simulated time for
    :func:`~repro.workloads.run_open_loop`, seconds for the wall-clock
    load generator (:mod:`repro.serve.loadgen`).
    """
    _require_rate_and_ops(ops, rate)
    rng = random.Random(seed)
    times = []
    now = 0.0
    for _ in range(ops):
        now += rng.expovariate(rate)
        times.append(now)
    return times


def bursty_arrivals(
    ops: int, rate: float, seed: int = 0, alpha: float = 1.5
) -> list[float]:
    """*ops* heavy-tailed (bursty) arrival times at mean *rate*.

    Inter-arrival gaps are Pareto-distributed with shape *alpha*,
    scaled so the mean gap is ``1/rate`` — same offered load as
    :func:`poisson_arrivals`, but arrivals cluster into bursts with
    long quiet tails (the regime that stresses queues hardest at a
    given mean rate).  Requires ``alpha > 1`` so the mean exists.
    """
    _require_rate_and_ops(ops, rate)
    if alpha <= 1.0:
        raise ConfigurationError(
            f"pareto shape alpha must be > 1 for a finite mean, got {alpha}"
        )
    # Pareto(alpha, xm) has mean alpha*xm/(alpha-1); pick xm for mean 1/rate.
    scale = (alpha - 1.0) / (alpha * rate)
    rng = random.Random(seed)
    times = []
    now = 0.0
    for _ in range(ops):
        now += scale * rng.paretovariate(alpha)
        times.append(now)
    return times


ARRIVAL_PROCESSES = ("poisson", "bursty")
"""Arrival processes resolvable by :func:`arrival_times`."""


def arrival_times(
    process: str, ops: int, rate: float, seed: int = 0
) -> list[float]:
    """Arrival times for the named *process* (see :data:`ARRIVAL_PROCESSES`)."""
    if process == "poisson":
        return poisson_arrivals(ops, rate, seed=seed)
    if process == "bursty":
        return bursty_arrivals(ops, rate, seed=seed)
    raise ConfigurationError(
        f"unknown arrival process {process!r}; "
        f"expected one of {ARRIVAL_PROCESSES}"
    )


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank value of *values* at quantile *q* in [0, 1]; 0.0
    when there are none."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[round(q * (len(ordered) - 1))]


def _require_positive(n: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"need a positive processor count, got {n}")


def _require_rate_and_ops(ops: int, rate: float) -> None:
    if ops <= 0:
        raise ConfigurationError(f"need a positive operation count, got {ops}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
