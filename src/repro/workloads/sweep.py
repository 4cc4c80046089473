"""Parallel experiment sweeps: fan grid points across worker processes.

Every experiment in the reproduction is a grid of independent simulations
— counter × n × seed × policy — and each simulation is deterministic
given its configuration.  That makes sweeps embarrassingly parallel and
cacheable: a :class:`SweepPoint` names one simulation by value, a worker
process re-creates it from scratch, and the resulting
:class:`SweepOutcome` depends on nothing but the point.  Serial and
parallel execution therefore produce identical results (a property the
test suite asserts), so experiment tables and figures are byte-identical
however they were computed.

Points are named by registry spec strings (counter spec, policy name,
workload name) rather than live objects so they pickle cleanly across
process boundaries and hash stably for the on-disk result cache.  The
cache key uses the *canonical* spec form
(:func:`repro.registry.canonical_spec`), so
``"combining-tree?arity=2&window=0.75"`` and ``"combining-tree"`` — the
same configuration spelled differently — share one cache entry, and
every :class:`SweepOutcome` records the canonical string it measured.

Typical use::

    from repro.workloads import SweepPoint, SweepRunner

    points = [SweepPoint(counter="ww-tree", n=n) for n in (64, 256, 1024)]
    outcomes = SweepRunner(workers=4).run(points)
    bottlenecks = {o.point.n: o.bottleneck_load for o in outcomes}
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import pathlib
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.registry import POLICY_NAMES, WORKLOAD_NAMES, canonical_spec
from repro.sim.faults import canonical_fault_spec
from repro.sim.messages import ProcessorId

_CACHE_SCHEMA = "sweep-v4"
"""Version tag mixed into every config hash; bump when outcome semantics
change so stale cache entries are never reused.  v2: counter fields are
canonical registry spec strings, not bare factory names.  v3: points
carry fault-plan and transport fields; fault specs are canonicalized.
v4: fault specs may carry recover= clauses and crash-tolerant sessions
auto-start a recovery manager (heartbeat traffic changes loads)."""

TRANSPORT_NAMES = ("bare", "reliable")
"""Transports a sweep point may name: ``"bare"`` sends straight on the
network (the paper's model), ``"reliable"`` wraps the counter behind
:class:`~repro.sim.transport.ReliableTransport`."""

DEFAULT_SERIAL_THRESHOLD = 8
"""Grids smaller than this run serially even when workers were requested:
forking a pool costs more than it saves on a handful of points (four
workers lost to the serial run on a 6-point sweep when this was set).  Outcomes are identical either way, so the fallback is
purely a wall-time decision."""


def fan_out(fn, items, workers: int | None):
    """Map *fn* over *items*, serially or across forked workers.

    The shared execution engine behind :class:`SweepRunner` and the
    schedule explorer's :class:`~repro.explore.parallel.ExploreRunner`:
    ``workers=1`` (or a single item) runs in-process, anything else
    forks a pool sized ``min(workers or cpu_count, len(items))``.
    Results come back in input order; *fn* and every item must pickle
    (module-level function, by-value dataclasses).
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = multiprocessing.get_context()
    pool_size = workers or multiprocessing.cpu_count()
    pool_size = min(pool_size, len(items))
    with context.Pool(processes=pool_size) as pool:
        return pool.map(fn, items)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One grid point of a sweep: a simulation named entirely by value.

    Attributes:
        counter: registry spec string of the counter configuration
            (``"central"``, ``"combining-tree?window=3.0"``, ...); any
            spelling is accepted, the cache key uses the canonical form.
        n: number of processors.
        seed: seed for seeded delivery policies (ignored by the
            deterministic ones) and for the ``"shuffled"`` workload.
        policy: delivery-policy name from :data:`POLICY_NAMES`.
        workload: workload name from :data:`WORKLOAD_NAMES` —
            ``"one-shot"`` is the paper's sequential permutation,
            ``"one-shot-concurrent"`` injects it as one batch,
            ``"shuffled"`` is a seeded random order.
        trace_level: tracing fidelity name; sweeps default to ``"loads"``
            because message counts are delay- and level-invariant, so the
            outcome is identical to a ``FULL`` run.
        faults: fault-spec string
            (:func:`~repro.sim.faults.parse_fault_spec` grammar) seeded
            with the point's ``seed``; ``""`` (default) keeps the
            paper's failure-free model.  Any spelling is accepted, the
            cache key uses the canonical form.
        transport: ``"bare"`` (default) or ``"reliable"`` from
            :data:`TRANSPORT_NAMES`.  Lossy fault plans require
            ``"reliable"`` — the capability gate in
            :class:`~repro.registry.RunSession` rejects them otherwise.
    """

    counter: str
    n: int
    seed: int = 0
    policy: str = "unit"
    workload: str = "one-shot"
    trace_level: str = "loads"
    faults: str = ""
    transport: str = "bare"

    def canonical_counter(self) -> str:
        """The counter spec in canonical registry form."""
        return canonical_spec(self.counter)

    def canonical_faults(self) -> str:
        """The fault spec in canonical form (``""`` when fault-free)."""
        if not self.faults.strip():
            return ""
        return canonical_fault_spec(self.faults)

    def config_hash(self) -> str:
        """Stable hex digest naming this configuration (cache key).

        The counter and fault fields are canonicalized first, so
        equivalent spellings (reordered or defaulted parameters,
        reordered fault fields) share one cache entry and every cached
        point is attributable to an exact configuration.
        """
        payload = {
            **asdict(self),
            "counter": self.canonical_counter(),
            "faults": self.canonical_faults(),
        }
        blob = json.dumps({"schema": _CACHE_SCHEMA, **payload}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True, slots=True)
class SweepOutcome:
    """Everything a sweep measures about one grid point.

    ``loads`` is the full per-processor load vector (the paper's ``m_p``),
    so any load statistic can be derived without rerunning.  ``extras``
    carries counter-specific measurements (retirements, root ids used,
    forwarded messages for the ww-tree).  ``counter_spec`` is the
    canonical registry spec the point resolved to, so cached results are
    attributable to an exact counter configuration even if the point
    spelled its spec loosely.
    """

    point: SweepPoint
    bottleneck_processor: ProcessorId
    bottleneck_load: int
    total_messages: int
    operations: int
    loads: dict[ProcessorId, int] = field(default_factory=dict)
    extras: dict[str, Any] = field(default_factory=dict)
    counter_spec: str = ""

    @property
    def messages_per_op(self) -> float:
        """The paper's ``L``: average messages per operation."""
        if not self.operations:
            return 0.0
        return self.total_messages / self.operations

    def to_json(self) -> dict[str, Any]:
        """Plain-JSON form (cache file payload)."""
        return {
            "point": asdict(self.point),
            "bottleneck_processor": self.bottleneck_processor,
            "bottleneck_load": self.bottleneck_load,
            "total_messages": self.total_messages,
            "operations": self.operations,
            "loads": {str(pid): load for pid, load in self.loads.items()},
            "extras": self.extras,
            "counter_spec": self.counter_spec,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "SweepOutcome":
        """Inverse of :meth:`to_json` (JSON string keys become ints)."""
        return cls(
            point=SweepPoint(**payload["point"]),
            bottleneck_processor=payload["bottleneck_processor"],
            bottleneck_load=payload["bottleneck_load"],
            total_messages=payload["total_messages"],
            operations=payload["operations"],
            loads={int(pid): load for pid, load in payload["loads"].items()},
            extras=dict(payload.get("extras", {})),
            counter_spec=str(payload.get("counter_spec", "")),
        )


def execute_point(point: SweepPoint) -> SweepOutcome:
    """Run one grid point from scratch and measure it.

    Module-level (hence picklable) so worker processes can import it; the
    simulation is rebuilt from the point alone, which is what makes
    serial and parallel sweeps identical.
    """
    from repro.registry import RunSession

    if point.transport not in TRANSPORT_NAMES:
        raise ConfigurationError(
            f"unknown transport {point.transport!r}; "
            f"expected one of {TRANSPORT_NAMES}"
        )
    session = RunSession(
        point.counter,
        point.n,
        policy=point.policy,
        seed=point.seed,
        trace_level=point.trace_level,
        faults=point.faults or None,
        reliable=point.transport == "reliable",
    )
    result = session.run_workload(point.workload)
    counter = session.counter
    trace = session.network.trace
    bottleneck_pid, bottleneck_load = trace.bottleneck()
    extras: dict[str, Any] = {}
    retirements = getattr(counter, "retirements", None)
    if retirements is not None:
        extras["retirements"] = len(retirements)
    registry = getattr(counter, "registry", None)
    if registry is not None and hasattr(registry, "root_ids_used"):
        extras["root_ids_used"] = registry.root_ids_used()
    if hasattr(counter, "total_forwarded"):
        extras["forwarded"] = counter.total_forwarded()
    if session.fault_plan is not None:
        extras["fault_counts"] = dict(session.fault_plan.counts)
    if session.transport is not None:
        extras["transport"] = session.transport_stats()
    return SweepOutcome(
        point=point,
        bottleneck_processor=bottleneck_pid,
        bottleneck_load=bottleneck_load,
        total_messages=trace.total_messages,
        operations=result.operation_count,
        loads=trace.loads(),
        extras=extras,
        counter_spec=session.canonical,
    )


class CachedRunner:
    """Cache-aware fan-out: the loop behind every by-value grid runner.

    An *item* names one unit of work entirely by value and answers
    ``config_hash()``; its outcome answers ``to_json()`` and is rebuilt
    by :attr:`outcome_type` ``.from_json``.  :meth:`run` loads what the
    on-disk cache already holds, hands the rest to :meth:`_execute`
    (subclasses decide how — both fan out through :func:`fan_out`), and
    stores every fresh outcome with an atomic tmp-then-replace write.
    A cache entry that does not parse back into an outcome is treated
    as absent and recomputed.

    Args:
        workers: worker processes; ``1`` (default) runs serially in
            process, ``None`` uses every available core.
        cache_dir: directory for on-disk result caching keyed by the
            item's ``config_hash()``; ``None`` disables caching.
    """

    outcome_type: Any

    def __init__(
        self,
        workers: int | None = 1,
        cache_dir: str | pathlib.Path | None = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._cache_dir = pathlib.Path(cache_dir) if cache_dir else None

    @property
    def workers(self) -> int | None:
        """Configured worker-process count (``None`` = all cores)."""
        return self._workers

    def run(self, items: Sequence[Any]) -> list[Any]:
        """Execute every item (cache-aware); outcomes in input order."""
        outcomes: list[Any] = [self._cache_load(item) for item in items]
        missing = [i for i, cached in enumerate(outcomes) if cached is None]
        if missing:
            fresh = self._execute([items[i] for i in missing])
            for index, outcome in zip(missing, fresh):
                self._cache_store(items[index], outcome)
                outcomes[index] = outcome
        return outcomes

    def _execute(self, items: list[Any]) -> list[Any]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------
    def _cache_path(self, item: Any) -> pathlib.Path | None:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"{item.config_hash()}.json"

    def _cache_load(self, item: Any) -> Any | None:
        path = self._cache_path(item)
        if path is None or not path.exists():
            return None
        try:
            return self.outcome_type.from_json(json.loads(path.read_text()))
        except (OSError, KeyError, TypeError, ValueError):
            return None  # corrupt or foreign entry: recompute

    def _cache_store(self, item: Any, outcome: Any) -> None:
        path = self._cache_path(item)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(outcome.to_json(), sort_keys=True))
        tmp.replace(path)


class SweepRunner(CachedRunner):
    """Executes sweep grids, optionally in parallel and/or cached.

    Args:
        workers: worker processes; ``1`` (default) runs serially in
            process, ``None`` uses every available core.
        cache_dir: directory for on-disk result caching keyed by
            :meth:`SweepPoint.config_hash`; ``None`` disables caching.
        serial_threshold: grids with fewer *uncached* points than this
            run serially even when workers were requested — pool forking
            dominates on tiny grids (default
            :data:`DEFAULT_SERIAL_THRESHOLD`; ``0`` always honors
            *workers*).

    Results are returned in input order regardless of worker scheduling,
    and are identical for any worker count (each point is recomputed from
    its configuration alone).
    """

    outcome_type = SweepOutcome

    def __init__(
        self,
        workers: int | None = 1,
        cache_dir: str | pathlib.Path | None = None,
        serial_threshold: int = DEFAULT_SERIAL_THRESHOLD,
    ) -> None:
        super().__init__(workers, cache_dir)
        if serial_threshold < 0:
            raise ConfigurationError(
                f"serial_threshold must be >= 0, got {serial_threshold}"
            )
        self._serial_threshold = serial_threshold

    @property
    def serial_threshold(self) -> int:
        """Uncached-point count below which the runner stays serial."""
        return self._serial_threshold

    def bottlenecks(self, points: Sequence[SweepPoint]) -> list[int]:
        """Shorthand: the bottleneck load of each point, in input order."""
        return [outcome.bottleneck_load for outcome in self.run(points)]

    def _execute(self, points: list[SweepPoint]) -> list[SweepOutcome]:
        workers = self._workers
        if len(points) < self._serial_threshold:
            workers = 1
        # resolved at call time: tracing patches the module attribute
        return fan_out(execute_point, points, workers)
