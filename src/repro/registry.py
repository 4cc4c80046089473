"""Counter registry: every implementation as a named spec.

The paper's claims quantify over *every* counter algorithm; this module
makes each counter the reproduction hosts a first-class artifact:

* :class:`CounterSpec` — one registered implementation.  A counter is
  declared once, by its class (or, where the class alone cannot take
  the spec's parameters, one build function): the spec's name and
  :class:`~repro.api.Capabilities` default to the class's own, and each
  :class:`Tunable` names a constructor keyword whose type and default
  are read from the signature at registration.  A tunable adds only
  what a signature cannot say — bounds or choices, and a description;
* spec strings — ``"combining-tree?window=3.0"`` names a concrete
  configuration; :func:`parse_spec` resolves it to a :class:`CounterRef`
  whose :attr:`~CounterRef.canonical` form is stable (sorted keys,
  defaults elided), so sweep caches and report tables key on the exact
  configuration;
* :class:`RunSession` — the one place that assembles delivery policy,
  network, trace level, counter and driver, replacing the hand-rolled
  copies every caller used to carry.

Every consumer (CLI, experiments, sweeps, the lower-bound adversaries)
resolves counters through this registry, so adding a protocol is one
:func:`register` call::

    register(CounterSpec(MyCounter, tunables=(
        Tunable("arity", minimum=2, doc="tree fan-in"),
    )))

and running any of them is one session::

    session = RunSession("combining-tree?window=3.0", n=64)
    result = session.run_sequence()
    print(session.canonical, result.bottleneck_load())
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Any, Callable, Iterable, Sequence

from repro.api import Capabilities, DistributedCounter
from repro.errors import CapabilityError, ConfigurationError
from repro.runtime import RUNTIME_NAMES, Runtime, make_runtime
from repro.sim.faults import FaultPlan, parse_fault_spec
from repro.sim.messages import ProcessorId
from repro.sim.network import Network
from repro.sim.recovery import Recoverable, RecoveryManager
from repro.sim.transport import ReliableTransport
from repro.sim.policies import (
    CongestedDelay,
    DeliveryPolicy,
    FifoRandomDelay,
    RandomDelay,
    SkewedDelay,
    UnitDelay,
)
from repro.sim.trace import TraceLevel

__all__ = [
    "POLICY_NAMES",
    "WORKLOAD_NAMES",
    "CounterRef",
    "CounterSpec",
    "RunSession",
    "Tunable",
    "canonical_spec",
    "get_spec",
    "make_policy",
    "parse_spec",
    "register",
    "registered_names",
    "registered_specs",
    "resolve_factory",
]

# ----------------------------------------------------------------------
# Delivery policies and workloads by name (shared by CLI and sweeps)
# ----------------------------------------------------------------------

POLICY_NAMES = ("unit", "random", "fifo-random", "skewed", "congested")
"""Delivery policies resolvable by :func:`make_policy`."""

WORKLOAD_NAMES = ("one-shot", "one-shot-concurrent", "shuffled")
"""Workloads :meth:`RunSession.run_workload` (and sweep points) accept."""


def make_policy(name: str, seed: int = 0) -> DeliveryPolicy:
    """Build the delivery policy registered under *name*.

    Seeded policies receive *seed*; deterministic ones ignore it.
    """
    if name == "unit":
        return UnitDelay()
    if name == "random":
        return RandomDelay(seed=seed)
    if name == "fifo-random":
        return FifoRandomDelay(seed=seed)
    if name == "skewed":
        return SkewedDelay()
    if name == "congested":
        return CongestedDelay()
    raise ConfigurationError(
        f"unknown delivery policy {name!r}; expected one of {POLICY_NAMES}"
    )


# ----------------------------------------------------------------------
# Tunables and specs
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Tunable:
    """One keyword of a counter's constructor that spec strings may set.

    A tunable declares only what the constructor's signature cannot
    say.  Its :attr:`kind` and :attr:`default` are the type and value of
    the keyword's default, read from the signature when the
    :class:`CounterSpec` is created.

    Attributes:
        name: the keyword, as it appears in spec strings.
        minimum: smallest allowed value (inclusive), for numeric kinds.
        choices: allowed values, for string-valued enumerations.
        power_of_two: positive values must be powers of two.
        doc: one-line description shown by ``repro counters``.
        kind: ``int``, ``float`` or ``str`` (read from the signature).
        default: value used when a spec string omits the parameter; the
            canonical spec form elides parameters at their default
            (read from the signature).
    """

    name: str
    minimum: float | None = None
    choices: tuple[str, ...] | None = None
    power_of_two: bool = False
    doc: str = ""
    kind: type = field(default=object, init=False)
    default: Any = field(default=None, init=False)

    def _bound_to(self, factory: Callable[..., Any]) -> "Tunable":
        """A copy typed and defaulted by *factory*'s keyword."""
        parameter = inspect.signature(factory).parameters.get(self.name)
        default = parameter.default if parameter is not None else None
        if type(default) not in (int, float, str):
            raise ConfigurationError(
                f"tunable {self.name!r} must be a keyword of "
                f"{factory.__qualname__} with an int, float or str default"
            )
        bound = replace(self)
        object.__setattr__(bound, "kind", type(default))
        object.__setattr__(bound, "default", default)
        return bound

    def parse(self, text: str) -> Any:
        """Parse a spec-string value into this tunable's type."""
        try:
            return self.validate(self.kind(text))
        except ValueError:
            raise ConfigurationError(
                f"tunable {self.name!r} expects a {self.kind.__name__}, "
                f"got {text!r}"
            ) from None

    def validate(self, value: Any) -> Any:
        """Type- and bounds-check *value*; return it on success."""
        if self.kind is float and isinstance(value, int):
            value = float(value)
        if not isinstance(value, self.kind) or isinstance(value, bool):
            raise ConfigurationError(
                f"tunable {self.name!r} expects a {self.kind.__name__}, "
                f"got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"tunable {self.name!r} must be >= {self.minimum}, got {value}"
            )
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"tunable {self.name!r} must be one of {self.choices}, "
                f"got {value!r}"
            )
        if self.power_of_two and value > 0 and value & (value - 1):
            raise ConfigurationError(
                f"tunable {self.name!r} must be a power of two, got {value}"
            )
        return value

    def format(self, value: Any) -> str:
        """Canonical spec-string form of *value* (inverse of :meth:`parse`)."""
        if self.kind is float:
            return repr(float(value))
        return str(value)


@dataclass(frozen=True)
class CounterSpec:
    """One registered counter implementation.

    The factory is the one declaration of how the counter is built:
    usually the counter class itself, else a single build function.
    Everything else defaults to what the factory already says.

    Attributes:
        factory: ``factory(network, n, **tunables)`` building a fresh
            counter wiring.
        tunables: the keywords spec strings may set; each one's type
            and default are read from *factory*'s signature, once, here.
        summary: one-line description shown by ``repro counters``.
        name: canonical registry key; defaults to ``factory.name`` and
            equals the ``name`` of the counters the factory builds, so
            reports, sweep cache keys and BENCH JSON agree.
        capabilities: the declared :class:`~repro.api.Capabilities`;
            defaults to ``factory.capabilities`` and may tighten it
            (``quorum[maekawa]`` adds the square-``n`` requirement its
            grid construction implies).
    """

    factory: Callable[..., DistributedCounter]
    tunables: tuple[Tunable, ...] = ()
    summary: str = ""
    name: str = ""
    capabilities: Capabilities | None = None

    def __post_init__(self) -> None:
        bound = tuple(t._bound_to(self.factory) for t in self.tunables)
        object.__setattr__(self, "tunables", bound)
        if not self.name:
            object.__setattr__(self, "name", self.factory.name)
        if self.capabilities is None:
            object.__setattr__(
                self, "capabilities", self.factory.capabilities
            )

    def tunable(self, name: str) -> Tunable:
        """The tunable called *name*; raises on unknown names."""
        for tunable in self.tunables:
            if tunable.name == name:
                return tunable
        known = tuple(t.name for t in self.tunables) or "(none)"
        raise ConfigurationError(
            f"counter {self.name!r} has no tunable {name!r}; known: {known}"
        )

    def supports_n(self, n: int) -> str | None:
        """``None`` if *n* satisfies the declared shape constraints,
        else the violated restriction as text."""
        if self.capabilities.needs_square_n and math.isqrt(n) ** 2 != n:
            return f"requires a perfect-square n, got {n}"
        if self.capabilities.needs_power_of_two_n and n & (n - 1):
            return f"requires a power-of-two n, got {n}"
        return None

    def check_n(self, n: int) -> None:
        """Raise :class:`~repro.errors.CapabilityError` if *n* is impossible."""
        violation = self.supports_n(n)
        if violation is not None:
            raise CapabilityError(f"counter {self.name!r} {violation}")

    def build(
        self, network: Network, n: int, **params: Any
    ) -> DistributedCounter:
        """Construct a counter on *network* after validating everything."""
        self.check_n(n)
        validated = {
            name: self.tunable(name).validate(value)
            for name, value in params.items()
        }
        return self.factory(network, n, **validated)

    def ref(self, **params: Any) -> "CounterRef":
        """A :class:`CounterRef` for this spec with keyword overrides."""
        items = []
        for name, value in params.items():
            tunable = self.tunable(name)
            value = tunable.validate(value)
            if value != tunable.default:
                items.append((name, value))
        return CounterRef(spec=self, params=tuple(sorted(items)))


@dataclass(frozen=True)
class CounterRef:
    """A parsed spec string: one concrete counter configuration.

    ``parse_spec(ref.canonical) == ref`` holds for every reference —
    the canonical form sorts parameters and elides defaults, so equal
    configurations always produce equal strings (and therefore equal
    sweep cache keys).
    """

    spec: CounterSpec
    params: tuple[tuple[str, Any], ...] = ()

    @property
    def name(self) -> str:
        """The underlying spec's canonical registry key."""
        return self.spec.name

    @property
    def capabilities(self) -> Capabilities:
        """The configuration's capability record."""
        return self.spec.capabilities

    @property
    def canonical(self) -> str:
        """The canonical spec string naming this configuration."""
        if not self.params:
            return self.spec.name
        rendered = "&".join(
            f"{name}={self.spec.tunable(name).format(value)}"
            for name, value in self.params
        )
        return f"{self.spec.name}?{rendered}"

    def build(self, network: Network, n: int) -> DistributedCounter:
        """Construct this configuration's counter on *network*."""
        return self.spec.build(network, n, **dict(self.params))


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------

_REGISTRY: dict[str, CounterSpec] = {}


def register(spec: CounterSpec) -> CounterSpec:
    """Add *spec* to the registry; duplicate names are a wiring bug."""
    if spec.name in _REGISTRY:
        raise ConfigurationError(
            f"counter spec {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def registered_names() -> tuple[str, ...]:
    """Every canonical registry key, sorted."""
    return tuple(sorted(_REGISTRY))


def registered_specs() -> tuple[CounterSpec, ...]:
    """Every registered spec, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_spec(name: str) -> CounterSpec:
    """The spec registered under *name*; raises on unknown names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown counter {name!r}; expected one of {registered_names()}"
        ) from None


def parse_spec(text: str | CounterRef) -> CounterRef:
    """Resolve a spec string (``name`` or ``name?key=value&...``).

    Idempotent on :class:`CounterRef` inputs.  Values are parsed and
    bounds-checked against the spec's tunables; parameters set to their
    default are elided so the result is canonical.

    Results are memoized per spec string: registrations are permanent
    (duplicate names are rejected), so a parsed reference never goes
    stale, and repeat constructions — sweeps and serving benches build
    thousands of :class:`RunSession` objects from the same string —
    skip the string handling entirely.
    """
    if isinstance(text, CounterRef):
        return text
    return _parse_spec_text(text)


@lru_cache(maxsize=512)
def _parse_spec_text(text: str) -> CounterRef:
    """The uncached spec-string grammar behind :func:`parse_spec`."""
    name, _, query = text.strip().partition("?")
    spec = get_spec(name)
    params: dict[str, Any] = {}
    if query:
        for pair in query.split("&"):
            key, separator, raw = pair.partition("=")
            if not separator or not key:
                raise ConfigurationError(
                    f"malformed spec parameter {pair!r} in {text!r}; "
                    "expected key=value"
                )
            if key in params:
                raise ConfigurationError(
                    f"duplicate spec parameter {key!r} in {text!r}"
                )
            params[key] = spec.tunable(key).parse(raw)
    return spec.ref(**params)


def canonical_spec(text: str | CounterRef) -> str:
    """The canonical form of a spec string (sweep cache key)."""
    return parse_spec(text).canonical


# ----------------------------------------------------------------------
# RunSession: the one place a simulation gets assembled
# ----------------------------------------------------------------------

class RunSession:
    """Owns the network/policy/trace-level/counter/driver assembly.

    Every caller used to hand-roll the same four lines (make a policy,
    make a network, call a factory, pick a driver); a session does it
    once, capability-checked, from a spec string::

        session = RunSession("ww-tree", n=81, policy="random", seed=3)
        result = session.run_sequence()

    Args:
        counter: spec string or :class:`CounterRef`.
        n: number of client processors.
        policy: delivery policy — a :data:`POLICY_NAMES` name, a
            :class:`~repro.sim.policies.DeliveryPolicy` instance, or
            ``None`` for unit delays.
        seed: seed for seeded policies, fault plans, and the
            ``"shuffled"`` workload.
        trace_level: tracing fidelity for the session's network.
        event_limit: event budget override (``None`` keeps the default).
        faults: fault-spec string (see
            :func:`~repro.sim.faults.parse_fault_spec`) or a prebuilt
            :class:`~repro.sim.faults.FaultPlan`; ``None`` keeps the
            paper's failure-free model.
        runtime: scheduler name from
            :data:`~repro.runtime.RUNTIME_NAMES` — ``"sim"`` (default)
            drains the discrete-event queue directly, ``"sync"`` runs
            it in lockstep rounds, and ``"asyncio"`` executes the
            identical events cooperatively inside an event loop.
            Message accounting is the same
            :class:`~repro.sim.trace.Trace` under every choice.
        time_scale: real seconds slept per unit of simulated time
            between events (asyncio runtime only; 0 = run flat out).
        reliable: wrap the counter behind a
            :class:`~repro.sim.transport.ReliableTransport` so it
            survives lossy fault plans.  A lossy ``faults`` spec without
            ``reliable=True`` fails fast with
            :class:`~repro.errors.CapabilityError` on counters that do
            not tolerate message loss on their own.

    Capability gates, checked in order:

    * a plan with Byzantine rules (``byz=f@strategy``) requires
      ``tolerates_byzantine`` — neither a reliable transport nor crash
      recovery helps against a processor that *lies*, so nothing waives
      this gate; the session also binds the plan's compromised set to
      the population here (seeded, before any traffic);
    * a plan that crashes a processor *permanently* (no window end and
      no ``recover=`` point) requires ``tolerates_crash`` — a reliable
      transport cannot resurrect state parked on a dead processor, so
      ``reliable=True`` does not waive this gate;
    * any plan whose *non-Byzantine* rules can lose messages (drops,
      partitions, and crash windows, which sever links) requires the
      effective ``tolerates_message_loss`` — declared by the counter or
      conferred by ``reliable=True``.  Finite crash windows on a
      loss-tolerant counter pass: they behave as bounded message loss.
      Byzantine ``silence`` is omission *by a liar* and is covered by
      the Byzantine gate, not this one.

    When the plan has crash rules and the counter implements
    :class:`~repro.sim.recovery.Recoverable`, the session assembles and
    starts a :class:`~repro.sim.recovery.RecoveryManager` on the raw
    network (heartbeats must face the fault plan, not ride the reliable
    transport); it is exposed as :attr:`recovery`.
    """

    def __init__(
        self,
        counter: str | CounterRef,
        n: int,
        *,
        policy: str | DeliveryPolicy | None = None,
        seed: int = 0,
        trace_level: TraceLevel | str = TraceLevel.FULL,
        event_limit: int | None = None,
        faults: str | FaultPlan | None = None,
        reliable: bool = False,
        runtime: str = "sim",
        time_scale: float = 0.0,
    ) -> None:
        if runtime not in RUNTIME_NAMES:
            raise ConfigurationError(
                f"unknown runtime {runtime!r}; expected one of {RUNTIME_NAMES}"
            )
        self._ref = parse_spec(counter)
        self._seed = seed
        self._ref.spec.check_n(n)
        if isinstance(policy, str):
            policy = make_policy(policy, seed)
        fault_plan: FaultPlan | None
        if faults is None:
            fault_plan = None
        elif isinstance(faults, FaultPlan):
            fault_plan = faults
        else:
            text = faults.strip()
            fault_plan = parse_fault_spec(text, seed=seed) if text else None
        capabilities = self._ref.capabilities
        if reliable:
            capabilities = replace(capabilities, tolerates_message_loss=True)
        self._capabilities = capabilities
        if fault_plan is not None:
            if fault_plan.byzantine_rules:
                fault_plan.bind_clients(n)
                if not capabilities.tolerates_byzantine:
                    raise CapabilityError(
                        f"fault plan {fault_plan.spec!r} makes processors "
                        f"Byzantine, but counter {self._ref.canonical!r} "
                        "does not tolerate Byzantine faults; neither a "
                        "reliable transport nor crash recovery helps "
                        "against a processor that lies — use the "
                        "'byz-counter' family (n > 3f)"
                    )
            dead = fault_plan.permanent_crash_pids
            if dead and not capabilities.tolerates_crash:
                listed = ", ".join(str(pid) for pid in sorted(dead))
                raise CapabilityError(
                    f"fault plan {fault_plan.spec!r} crashes processor(s) "
                    f"{listed} permanently, but counter "
                    f"{self._ref.canonical!r} does not tolerate crashes; "
                    "a reliable transport cannot resurrect state parked "
                    "on a dead processor — use a crash-tolerant counter "
                    "(e.g. 'central[standby]' or 'combining-tree[bypass]') "
                    "or give the plan a recover= clause"
                )
            if (
                fault_plan.non_byzantine_lossy
                and not capabilities.tolerates_message_loss
            ):
                raise CapabilityError(
                    f"fault plan {fault_plan.spec!r} can lose messages, but "
                    f"counter {self._ref.canonical!r} does not tolerate "
                    "message loss; rerun with reliable=True (CLI: --reliable) "
                    "to put it behind the retransmitting transport"
                )
        network_kwargs: dict[str, Any] = {
            "policy": policy,
            "trace_level": trace_level,
        }
        if event_limit is not None:
            network_kwargs["event_limit"] = event_limit
        if fault_plan is not None:
            network_kwargs["fault_plan"] = fault_plan
        self.network = Network(**network_kwargs)
        self.network.run_context = self._ref.canonical
        self.runtime: Runtime = make_runtime(
            runtime, self.network, time_scale=time_scale
        )
        self.transport: ReliableTransport | None = (
            ReliableTransport(self.network) if reliable else None
        )
        fabric = self.transport if self.transport is not None else self.network
        self.counter = self._ref.build(fabric, n)
        self.recovery: RecoveryManager | None = None
        if (
            fault_plan is not None
            and fault_plan.crash_rules
            and isinstance(self.counter, Recoverable)
        ):
            self.recovery = RecoveryManager(
                self.network, self.counter, fault_plan
            )
            self.recovery.start()

    @property
    def ref(self) -> CounterRef:
        """The resolved counter configuration."""
        return self._ref

    @property
    def canonical(self) -> str:
        """Canonical spec string of the session's counter."""
        return self._ref.canonical

    @property
    def capabilities(self) -> Capabilities:
        """The *effective* capability record of this session's counter:
        the spec's declaration, plus ``tolerates_message_loss`` when the
        counter runs behind the reliable transport."""
        return self._capabilities

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The installed fault plan, or ``None`` for failure-free runs."""
        return self.network.fault_plan

    def _unanswerable(self) -> frozenset[ProcessorId]:
        """Initiators whose ops the installed plan may leave unanswered."""
        plan = self.fault_plan
        return plan.unanswerable_pids if plan is not None else frozenset()

    @property
    def failure_detector(self):
        """The recovery manager's failure detector, or ``None``."""
        return self.recovery.detector if self.recovery is not None else None

    def transport_stats(self) -> dict[str, int]:
        """Reliable-transport counters (empty dict on bare sessions)."""
        if self.transport is None:
            return {}
        return self.transport.stats()

    @property
    def n(self) -> int:
        """Number of client processors."""
        return self.counter.n

    def run_sequence(
        self,
        initiators: Sequence[ProcessorId] | None = None,
        check_values: bool = True,
    ):
        """Drive *initiators* (default: the one-shot order) sequentially
        under the session's runtime.

        Operations initiated by permanently crashed or Byzantine
        processors count as optional
        (:attr:`~repro.sim.faults.FaultPlan.unanswerable_pids`): their
        missing result is omitted rather than an error, and value
        checking degrades to strict monotonicity — see
        :func:`~repro.workloads.driver.run_sequence`.
        """
        from repro.workloads.driver import run_sequence
        from repro.workloads.sequences import one_shot

        if initiators is None:
            initiators = one_shot(self.n)
        return run_sequence(
            self.counter, initiators, check_values=check_values,
            runtime=self.runtime, optional=self._unanswerable(),
        )

    def run_concurrent(
        self,
        batches: Iterable[Sequence[ProcessorId]] | None = None,
        check_values: bool = True,
    ):
        """Drive *batches* (default: one full batch) concurrently under
        the session's runtime.

        Fails fast with :class:`~repro.errors.CapabilityError` on
        sequential-only counters.
        """
        from repro.workloads.driver import run_concurrent
        from repro.workloads.sequences import one_shot

        if batches is None:
            batches = [one_shot(self.n)]
        return run_concurrent(
            self.counter, batches, check_values=check_values,
            runtime=self.runtime,
        )

    def run_open_loop(
        self,
        ops: int | None = None,
        rate: float = 1.0,
        process: str = "poisson",
        check_values: bool = True,
        turnaround: float = 1.0,
    ):
        """Drive open-loop traffic: *ops* arrivals at offered *rate*.

        Arrival times come from the named *process* (see
        :data:`~repro.workloads.sequences.ARRIVAL_PROCESSES`), seeded
        with the session seed; *ops* defaults to ``2 * n``.  Returns an
        :class:`~repro.workloads.driver.OpenLoopResult` with per-op
        latency (queueing included — this is the driver that makes the
        saturation knee measurable).  Fails fast on sequential-only
        counters.
        """
        from repro.workloads.driver import run_open_loop
        from repro.workloads.sequences import arrival_times

        if ops is None:
            ops = 2 * self.n
        arrivals = arrival_times(process, ops, rate, seed=self._seed)
        return run_open_loop(
            self.counter, arrivals, check_values=check_values,
            runtime=self.runtime, turnaround=turnaround,
        )

    def run_staggered(self, gap: float = 3.0):
        """Drive the one-shot batch with staggered starts; return timed ops.

        The staggered driver is what crash-recovery runs use: requests
        overlap (so failovers happen under load) yet have real-time
        precedence pairs, making the returned
        :class:`~repro.workloads.driver.TimedOp` list meaningful
        input for
        :func:`~repro.analysis.linearizability.check_linearizable_counting`.

        Operations initiated by permanently crashed or Byzantine
        processors count as optional
        (:attr:`~repro.sim.faults.FaultPlan.unanswerable_pids`): their
        unanswered ops are omitted rather than errors.
        """
        from repro.workloads.driver import run_staggered_timed
        from repro.workloads.sequences import one_shot

        return run_staggered_timed(
            self.counter, one_shot(self.n), gap,
            optional=self._unanswerable(),
        )

    def run_workload(self, workload: str = "one-shot"):
        """Execute a named workload from :data:`WORKLOAD_NAMES`."""
        from repro.workloads.sequences import one_shot, shuffled

        if workload == "one-shot":
            return self.run_sequence(one_shot(self.n))
        if workload == "one-shot-concurrent":
            return self.run_concurrent([one_shot(self.n)])
        if workload == "shuffled":
            return self.run_sequence(shuffled(self.n, seed=self._seed))
        raise ConfigurationError(
            f"unknown workload {workload!r}; expected one of {WORKLOAD_NAMES}"
        )


def resolve_factory(
    counter: str | CounterRef | Callable[[Network, int], DistributedCounter],
) -> Callable[[Network, int], DistributedCounter]:
    """Coerce a spec string/ref into a ``(network, n)`` factory.

    Plain callables pass through unchanged, so harnesses that predate
    the registry (and tests that build ad-hoc counters) keep working.
    """
    if callable(counter) and not isinstance(counter, CounterRef):
        return counter
    ref = parse_spec(counter)
    return ref.build


# ----------------------------------------------------------------------
# Built-in registrations
# ----------------------------------------------------------------------

def _build_ww_tree(
    network: Network,
    n: int,
    retire_threshold: int = 0,
    interval_mode: str = "strict",
):
    from repro.core import IntervalMode, TreeCounter, TreeGeometry, TreePolicy

    if retire_threshold == 0 and interval_mode == "strict":
        return TreeCounter(network, n)
    geometry = TreeGeometry.for_processors(n)
    threshold = (
        retire_threshold if retire_threshold > 0 else 4 * geometry.arity
    )
    policy = TreePolicy(
        retire_threshold=threshold,
        interval_mode=IntervalMode(interval_mode),
    )
    return TreeCounter(network, n, geometry=geometry, policy=policy)


def _quorum_builder(system_factory):
    def build(network: Network, n: int):
        from repro.quorum import QuorumCounter

        return QuorumCounter(network, n, system_factory(n))

    return build


def _populate() -> None:
    """Register the repo's wirings (idempotent per process)."""
    from repro.core import TreeCounter
    from repro.counters import (
        ArrowCounter,
        BitonicCountingNetwork,
        ByzantineCounter,
        CentralCounter,
        CombiningTreeCounter,
        DiffractingTreeCounter,
        StaticTreeCounter,
    )
    from repro.counters.recoverable import (
        BypassCombiningTreeCounter,
        StandbyCentralCounter,
    )
    from repro.quorum import (
        CrumblingWall,
        MaekawaGrid,
        QuorumCounter,
        RotatingMajorityQuorum,
        SingletonQuorum,
        TreePathQuorum,
        WheelQuorum,
    )

    arity = Tunable("arity", minimum=2, doc="tree fan-in")
    window = Tunable("window", doc="combining-window length in simulated time")
    register(CounterSpec(
        CentralCounter,
        tunables=(
            Tunable("server_id", minimum=1,
                    doc="processor that holds the value"),
        ),
        summary="the §1 strawman: value at one server, Θ(n) bottleneck",
    ))
    register(CounterSpec(
        StaticTreeCounter,
        summary="fixed k-ary relay tree without retirement",
    ))
    register(CounterSpec(
        _build_ww_tree,
        name=TreeCounter.name,
        capabilities=TreeCounter.capabilities,
        tunables=(
            Tunable("retire_threshold", minimum=0,
                    doc="node age that triggers retirement (0 = paper "
                        "default 4·arity)"),
            Tunable("interval_mode", choices=("strict", "wrap"),
                    doc="what to do on id-interval exhaustion"),
        ),
        summary="the paper's communication-tree counter with retirement",
    ))
    register(CounterSpec(
        CombiningTreeCounter,
        tunables=(arity, window),
        summary="software combining tree (Yew et al. 87)",
    ))
    register(CounterSpec(
        StandbyCentralCounter,
        tunables=(
            Tunable("primary_id", minimum=1,
                    doc="processor seated as the initial primary"),
            Tunable("standby_id", minimum=1,
                    doc="processor seated as the initial hot standby"),
            Tunable("retry",
                    doc="client end-to-end retry timeout in simulated "
                        "time"),
        ),
        summary="central counter + hot standby: checkpointed failover "
                "under crashes",
    ))
    register(CounterSpec(
        BypassCombiningTreeCounter,
        tunables=(
            arity,
            window,
            Tunable("retry",
                    doc="client end-to-end retry timeout in simulated "
                        "time (a full tree traversal is ~40)"),
        ),
        summary="combining tree that re-links around crashed hosts "
                "(at-most-once)",
    ))
    register(CounterSpec(
        BitonicCountingNetwork,
        tunables=(
            Tunable("width", minimum=0, power_of_two=True,
                    doc="network width (0 = auto: largest power of two "
                        "<= sqrt(n))"),
        ),
        summary="bitonic counting network (Aspnes/Herlihy/Shavit 91)",
    ))
    register(CounterSpec(
        DiffractingTreeCounter,
        tunables=(
            Tunable("depth", minimum=0, doc="tree depth (0 = auto from n)"),
            Tunable("prism_size", minimum=1,
                    doc="rendezvous slots per node"),
            Tunable("seed", doc="seed for random slot choices"),
            Tunable("prism_wait",
                    doc="prism rendezvous window in simulated time"),
        ),
        summary="diffracting tree (Shavit/Zemach 94)",
    ))
    register(CounterSpec(
        ArrowCounter,
        tunables=(
            Tunable("initial_owner", minimum=1,
                    doc="leaf that starts with the token"),
        ),
        summary="arrow/path-reversal token counter (order sensitive)",
    ))
    register(CounterSpec(
        ByzantineCounter,
        tunables=(
            Tunable("f", minimum=0,
                    doc="Byzantine processors tolerated (0 = auto "
                        "⌊(n−1)/3⌋; explicit f needs n > 3f)"),
        ),
        summary="replicated phase-king counter: survives f < n/3 liars",
    ))
    quorum_systems = (
        ("singleton", SingletonQuorum, False,
         "degenerates to the central counter"),
        ("majority", RotatingMajorityQuorum, False,
         "rotating ⌈(n+1)/2⌉ majorities"),
        ("maekawa", MaekawaGrid, True, "√n×√n grid rows+columns"),
        ("tree-paths", TreePathQuorum, False, "root-to-leaf tree paths"),
        ("wheel", WheelQuorum, False, "hub-and-spoke pairs"),
        ("crumbling-wall", CrumblingWall, False, "row-based wall quorums"),
    )
    for slug, system_cls, needs_square, blurb in quorum_systems:
        register(CounterSpec(
            _quorum_builder(system_cls),
            name=f"quorum[{slug}]",
            capabilities=replace(
                QuorumCounter.capabilities, needs_square_n=needs_square
            ),
            summary=f"versioned quorum counter: {blurb}",
        ))


_populate()
