"""Reproduction of Wattenhofer & Widmayer, *An Inherent Bottleneck in
Distributed Counting* (PODC 1997).

The library provides:

* :mod:`repro.sim` — a deterministic asynchronous message-passing
  simulator with exact per-processor message accounting;
* :mod:`repro.core` — the paper's communication-tree counter with
  processor retirement (the matching O(k) upper bound);
* :mod:`repro.lowerbound` — the §3 lower-bound machinery as executable
  code: Hot Spot Lemma checking, communication lists, the weight
  function, the greedy adversary, and the ``k·kᵏ = n`` bound curves;
* :mod:`repro.counters` — the baselines: central counter, static relay
  tree, combining tree, bitonic counting network, diffracting tree;
* :mod:`repro.quorum` — quorum systems, the related-work home of the
  intersection argument;
* :mod:`repro.registry` — the counter registry: every implementation as
  a named spec with typed tunables and capability flags, plus the
  :class:`~repro.registry.RunSession` facade;
* :mod:`repro.workloads` / :mod:`repro.analysis` — drivers and
  measurement;
* :mod:`repro.runtime` — the scheduler seam: the same protocol objects
  under the discrete-event scheduler or a real asyncio loop;
* :mod:`repro.serve` — a live TCP counter service and its open-loop
  load generator (``repro serve`` / ``repro loadgen``).

Quickstart::

    from repro import RunSession

    session = RunSession("ww-tree", n=81)         # k = 3, n = k^(k+1)
    result = session.run_sequence()
    print(result.values()[:5])                    # [0, 1, 2, 3, 4]
    print(result.bottleneck_load())               # O(k), not O(n)
"""

from repro.api import Capabilities, CounterFactory, DistributedCounter
from repro.core import (
    IntervalMode,
    TreeCounter,
    TreeGeometry,
    TreePolicy,
    lower_bound_k,
    paper_k_for,
)
from repro.errors import (
    CapabilityError,
    ConfigurationError,
    DeliveryAbandonedError,
    InvariantViolationError,
    ProtocolError,
    ReproError,
    SimulationError,
    SimulationLimitError,
)
from repro.explore import (
    ExplorationReport,
    ExploreConfig,
    Explorer,
    ExploreRunner,
    ReproFile,
    shrink_schedule,
)
from repro.registry import (
    CounterRef,
    CounterSpec,
    RunSession,
    canonical_spec,
    parse_spec,
    registered_names,
    registered_specs,
)
from repro.runtime import (
    RUNTIME_NAMES,
    AsyncioRuntime,
    Runtime,
    SimulatedRuntime,
    make_runtime,
)
from repro.sim import (
    FailureDetector,
    FaultPlan,
    Message,
    MessageRecord,
    Network,
    Processor,
    RandomDelay,
    Recoverable,
    RecoveryManager,
    ReliableTransport,
    SkewedDelay,
    Trace,
    UnitDelay,
    parse_fault_spec,
)
from repro.workloads import (
    OpenLoopResult,
    RunResult,
    one_shot,
    poisson_arrivals,
    run_concurrent,
    run_open_loop,
    run_sequence,
    shuffled,
)

__version__ = "1.0.0"

__all__ = [
    "AsyncioRuntime",
    "Capabilities",
    "CapabilityError",
    "ConfigurationError",
    "CounterFactory",
    "CounterRef",
    "CounterSpec",
    "DeliveryAbandonedError",
    "DistributedCounter",
    "ExplorationReport",
    "ExploreConfig",
    "ExploreRunner",
    "Explorer",
    "FailureDetector",
    "FaultPlan",
    "IntervalMode",
    "InvariantViolationError",
    "Message",
    "MessageRecord",
    "Network",
    "OpenLoopResult",
    "Processor",
    "ProtocolError",
    "RUNTIME_NAMES",
    "RandomDelay",
    "Recoverable",
    "RecoveryManager",
    "ReliableTransport",
    "ReproError",
    "ReproFile",
    "RunResult",
    "RunSession",
    "Runtime",
    "SimulatedRuntime",
    "SimulationError",
    "SimulationLimitError",
    "SkewedDelay",
    "Trace",
    "TreeCounter",
    "TreeGeometry",
    "TreePolicy",
    "UnitDelay",
    "__version__",
    "canonical_spec",
    "lower_bound_k",
    "make_runtime",
    "one_shot",
    "paper_k_for",
    "parse_fault_spec",
    "parse_spec",
    "poisson_arrivals",
    "registered_names",
    "registered_specs",
    "run_concurrent",
    "run_open_loop",
    "run_sequence",
    "shrink_schedule",
    "shuffled",
]
