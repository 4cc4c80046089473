"""Schedules as data: decision streams and replayable repro files.

A *schedule* is the explorer's entire influence over one execution,
flattened into a list of small integers consumed in a deterministic
order: each time the controlled scheduler must decide something — which
delay a message gets, which of several equal-time events runs first — it
consumes the next decision.  Two runs of the same configuration with the
same decision list are identical executions (the simulator has no other
nondeterminism), which is what makes failures shrinkable and repro files
replayable.

Decisions are *indices*, not raw values: a delay decision indexes the
episode's delay menu, a tie-break decision indexes the ready list.  An
index past the end of either is clamped (modulo), so any integer list is
a legal schedule — a property delta-shrinking relies on, since zeroing a
chunk must never produce an invalid schedule.  Decision ``0`` always
means "what the default scheduler would have done" (the first menu entry
/ FIFO order), so the all-zero schedule reproduces the baseline
execution and shrinking moves failures *toward* the baseline.

An :class:`ExploreConfig` names one exploration.  A :class:`ReproFile`
bundles a failing schedule with the configuration needed to re-run it —
counter spec, ``n``, seed, fault spec, workload shape, delay menu — plus
the oracle that failed, as a small JSON document suitable for checking
into a regression corpus.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError

REPRO_SCHEMA = "explore-repro-v1"
"""Schema tag written into every repro file; bump on layout changes."""

DEFAULT_DELAY_MENU = (1.0, 2.0, 4.0, 7.0)
"""Delays a schedule may assign per message.  Index 0 is the unit delay,
so an all-default schedule reproduces the ``UnitDelay`` baseline; the
largest entry is kept below every shipped counter's retry timeout so an
adversarial-but-loss-free schedule cannot trigger spurious retransmits.
"""


@dataclass(frozen=True, slots=True)
class Schedule:
    """An immutable decision stream (see module docstring).

    ``kinds`` is optional provenance — a parallel tuple of ``"delay"`` /
    ``"tie"`` labels recorded during exploration.  It aids reading repro
    files but is ignored on replay: the consuming run re-derives each
    decision's meaning from its own decision points.
    """

    decisions: tuple[int, ...] = ()
    kinds: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for decision in self.decisions:
            if decision < 0:
                raise ConfigurationError(
                    f"schedule decisions must be non-negative, got {decision}"
                )
        if self.kinds and len(self.kinds) != len(self.decisions):
            raise ConfigurationError(
                f"kinds ({len(self.kinds)}) and decisions "
                f"({len(self.decisions)}) must have equal length"
            )

    def __len__(self) -> int:
        return len(self.decisions)

    def trimmed(self) -> "Schedule":
        """Drop trailing zero decisions (they equal the implicit default)."""
        end = len(self.decisions)
        while end > 0 and self.decisions[end - 1] == 0:
            end -= 1
        return Schedule(decisions=self.decisions[:end])

    def nonzero_count(self) -> int:
        """Decisions that deviate from the baseline scheduler."""
        return sum(1 for decision in self.decisions if decision != 0)


@dataclass(frozen=True, slots=True)
class ExploreConfig:
    """Everything that names one exploration (the cache-key surface).

    Attributes:
        counter: registry spec string or ``mutant[...]`` name.
        n: processor count.
        seed: master seed — strategies and fault plans derive from it.
        strategy: budget/strategy plan text
            (:func:`~repro.explore.strategies.parse_plan` grammar).
        budget: default episodes for plan legs without an explicit one.
        faults: fault-spec string (``""`` = failure-free).
        transport: ``"bare"`` or ``"reliable"``.
        workload: ``"staggered"`` (overlapping, timed — the default) or
            ``"sequential"`` (quiescing, footprint-checked).
        gap: stagger gap between request injections.
        rounds: incs per client (``round_robin`` when > 1).
        delay_menu: delays a schedule may choose per message.
        shrink: delta-shrink failing schedules (disable for raw speed).
        max_failures: stop exploring after this many distinct failures.
    """

    counter: str
    n: int = 8
    seed: int = 0
    strategy: str = "random"
    budget: int = 100
    faults: str = ""
    transport: str = "bare"
    workload: str = "staggered"
    gap: float = 3.0
    rounds: int = 1
    delay_menu: tuple[float, ...] = DEFAULT_DELAY_MENU
    shrink: bool = True
    max_failures: int = 5


_OPTIONAL_FIELDS = {
    "faults": str,
    "transport": str,
    "workload": str,
    "gap": float,
    "rounds": int,
    "delay_menu": lambda menu: tuple(float(delay) for delay in menu),
}
"""The episode fields a repro file may omit, with how each is read;
``counter``, ``n`` and ``seed`` are required."""


@dataclass(frozen=True, slots=True)
class ReproFile:
    """A replayable witness of one oracle failure.

    Attributes:
        config: the configuration the failing episode ran under.  The
            file records its episode fields — counter spec (a registry
            spec string or a ``mutant[...]`` name from
            :mod:`repro.explore.mutants`), ``n``, seed, fault spec,
            transport, workload, gap, rounds and delay menu; the plan
            fields (strategy, budget, shrink, max_failures) are not
            saved, since replay never consults them, and load at their
            defaults.
        oracle: name of the failing oracle.
        decisions: the (shrunk) schedule.
        message: the failure message at record time (informational; the
            replay match is on the oracle name — messages may embed
            floats formatted differently across platforms).
        strategy: which strategy found it (provenance).
        episode: episode index within the exploration (provenance).
    """

    config: ExploreConfig
    oracle: str
    decisions: tuple[int, ...]
    message: str = ""
    strategy: str = ""
    episode: int = -1

    def to_json(self) -> dict[str, Any]:
        """Plain-JSON form (stable key order comes from the dumper)."""
        config = self.config
        return {
            "schema": REPRO_SCHEMA,
            "counter": config.counter,
            "n": config.n,
            "seed": config.seed,
            **{name: getattr(config, name) for name in _OPTIONAL_FIELDS},
            "delay_menu": list(config.delay_menu),
            "decisions": list(self.decisions),
            "failure": {"oracle": self.oracle, "message": self.message},
            "provenance": {"strategy": self.strategy, "episode": self.episode},
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ReproFile":
        """Inverse of :meth:`to_json`; rejects unknown schemas."""
        schema = payload.get("schema")
        if schema != REPRO_SCHEMA:
            raise ConfigurationError(
                f"unsupported repro schema {schema!r} "
                f"(this build reads {REPRO_SCHEMA!r})"
            )
        failure = payload.get("failure", {})
        provenance = payload.get("provenance", {})
        config = ExploreConfig(
            counter=payload["counter"],
            n=int(payload["n"]),
            seed=int(payload["seed"]),
            **{
                name: read(payload[name])
                for name, read in _OPTIONAL_FIELDS.items()
                if name in payload
            },
        )
        return cls(
            config=config,
            decisions=tuple(int(d) for d in payload["decisions"]),
            oracle=str(failure.get("oracle", "")),
            message=str(failure.get("message", "")),
            strategy=str(provenance.get("strategy", "")),
            episode=int(provenance.get("episode", -1)),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        """Write the repro as pretty JSON (atomic: tmp + replace)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n")
        tmp.replace(path)
        return path

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "ReproFile":
        """Read a repro file written by :meth:`save`."""
        return cls.from_json(json.loads(pathlib.Path(path).read_text()))
