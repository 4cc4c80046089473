"""Workloads: initiator sequences and the drivers that execute them.

* :mod:`repro.workloads.sequences` — who increments, in what order; the
  paper's one-shot permutation plus skewed/repeated extension workloads
  and open-loop arrival processes (Poisson, bursty).
* :mod:`repro.workloads.driver` — sequential (quiescence-barrier),
  concurrent (batch) and open-loop (arrival-time) execution against any
  :class:`~repro.api.DistributedCounter`, under any
  :class:`~repro.runtime.Runtime`.
* :mod:`repro.workloads.sweep` — parallel, cacheable execution of whole
  experiment grids (counter × n × seed × policy).
"""

from repro.workloads.driver import (
    OpenLoopOutcome,
    OpenLoopResult,
    OpOutcome,
    RunResult,
    run_concurrent,
    run_concurrent_async,
    run_open_loop,
    run_sequence,
    run_sequence_async,
)
from repro.workloads.sweep import (
    TRANSPORT_NAMES,
    SweepOutcome,
    SweepPoint,
    SweepRunner,
    execute_point,
)
from repro.workloads.sequences import (
    ARRIVAL_PROCESSES,
    arrival_times,
    batched,
    bursty_arrivals,
    one_shot,
    ping_pong,
    poisson_arrivals,
    reversed_one_shot,
    round_robin,
    shuffled,
    single_hotspot,
    zipf_sequence,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "OpOutcome",
    "OpenLoopOutcome",
    "OpenLoopResult",
    "RunResult",
    "SweepOutcome",
    "SweepPoint",
    "SweepRunner",
    "TRANSPORT_NAMES",
    "arrival_times",
    "batched",
    "bursty_arrivals",
    "execute_point",
    "one_shot",
    "ping_pong",
    "poisson_arrivals",
    "reversed_one_shot",
    "round_robin",
    "run_concurrent",
    "run_concurrent_async",
    "run_open_loop",
    "run_sequence",
    "run_sequence_async",
    "shuffled",
    "single_hotspot",
    "zipf_sequence",
]
