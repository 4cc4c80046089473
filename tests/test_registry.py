"""Tests for the counter registry, spec strings, and RunSession."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.errors import CapabilityError, ConfigurationError
from repro.quorum.counter import SYSTEM_SLUGS
from repro.counters import CentralCounter
from repro.registry import (
    POLICY_NAMES,
    CounterSpec,
    RunSession,
    Tunable,
    canonical_spec,
    get_spec,
    make_policy,
    parse_spec,
    registered_names,
    registered_specs,
    resolve_factory,
)
from repro.sim.network import Network
from repro.workloads import SweepPoint, one_shot, run_concurrent

TESTS_DIR = pathlib.Path(__file__).parent
GOLDEN = json.loads((TESTS_DIR / "data" / "canonical_specs.json").read_text())


def _marked_test_sources(marker: str) -> list[str]:
    """The source of every test file that carries the *marker* marker."""
    sources = (path.read_text() for path in TESTS_DIR.glob("test_*.py"))
    return [source for source in sources if f"pytest.mark.{marker}" in source]


class TestSpecRoundTrips:
    @pytest.mark.parametrize("name", registered_names())
    def test_bare_name_round_trips(self, name):
        ref = parse_spec(name)
        assert ref.canonical == name
        assert parse_spec(ref.canonical) == ref

    def test_nondefault_params_round_trip(self):
        ref = parse_spec("combining-tree?window=3.0&arity=4")
        assert parse_spec(ref.canonical) == ref
        assert ref.canonical == "combining-tree?arity=4&window=3.0"

    def test_defaults_are_elided(self):
        assert canonical_spec("combining-tree?arity=2&window=0.75") == (
            "combining-tree"
        )
        assert canonical_spec("ww-tree?retire_threshold=0") == "ww-tree"

    def test_parameter_order_is_canonicalized(self):
        left = canonical_spec("diffracting-tree?seed=7&prism_size=8")
        right = canonical_spec("diffracting-tree?prism_size=8&seed=7")
        assert left == right == "diffracting-tree?prism_size=8&seed=7"

    def test_parse_is_idempotent_on_refs(self):
        ref = parse_spec("central")
        assert parse_spec(ref) is ref

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("nonesuch")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("central?frequency=9")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("central?server_id")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_spec("combining-tree?arity=2&arity=3")

    def test_bounds_are_enforced(self):
        with pytest.raises(ConfigurationError):
            parse_spec("combining-tree?arity=1")
        with pytest.raises(ConfigurationError):
            parse_spec("ww-tree?interval_mode=sideways")


def _set_params(text: str) -> set[str]:
    """The parameter names a spec string sets."""
    query = text.partition("?")[2]
    return {pair.partition("=")[0] for pair in query.split("&") if pair}


class TestGoldenCanonicalForms:
    """Canonical strings and sweep cache keys are pinned per spec.

    ``tests/data/canonical_specs.json`` holds, for every registered spec,
    its bare name and each tunable spelled once at a non-default value
    and once at its default (floats written as integers, so a tunable
    typed ``int`` instead of ``float`` formats differently).  A type or
    default read wrongly from a constructor changes a canonical string
    or a ``SweepPoint`` hash here.  A new spec adds its own entries.
    """

    @pytest.mark.parametrize(
        "entry", GOLDEN["entries"], ids=lambda entry: entry["spec"]
    )
    def test_canonical_form_and_config_hash_are_unchanged(self, entry):
        assert canonical_spec(entry["spec"]) == entry["canonical"]
        point = SweepPoint(counter=entry["spec"], n=GOLDEN["n"])
        assert point.config_hash() == entry["config_hash"]

    def test_every_spec_and_tunable_is_pinned(self):
        for spec in registered_specs():
            mine = [
                entry for entry in GOLDEN["entries"]
                if entry["spec"].partition("?")[0] == spec.name
            ]
            assert any(entry["spec"] == spec.name for entry in mine)
            for tunable in spec.tunables:
                setting = [
                    entry for entry in mine
                    if tunable.name in _set_params(entry["spec"])
                ]
                kept = [
                    tunable.name in _set_params(entry["canonical"])
                    for entry in setting
                ]
                assert True in kept and False in kept, (
                    f"{spec.name}: pin {tunable.name} at a non-default "
                    "value and at its default"
                )


class TestDeclaredOnce:
    def test_name_and_capabilities_default_to_the_class(self):
        spec = CounterSpec(CentralCounter)
        assert spec.name == CentralCounter.name
        assert spec.capabilities is CentralCounter.capabilities

    @pytest.mark.parametrize("name", ["frequency", "network"])
    def test_tunable_without_a_defaulted_keyword_is_rejected(self, name):
        with pytest.raises(ConfigurationError, match=name):
            CounterSpec(CentralCounter, tunables=(Tunable(name),))


class TestRegistryCompleteness:
    def test_every_spec_builds_a_counter_with_matching_name(self):
        n = 16  # square and a power of two: every spec accepts it
        for spec in registered_specs():
            assert spec.supports_n(n) is None
            network = Network()
            counter = spec.build(network, n)
            assert counter.name == spec.name, (
                f"{spec.name}: built counter reports name {counter.name!r}"
            )

    def test_every_counter_module_is_registered(self):
        # The one module -> spec map: a fresh implementation without a
        # spec fails here.
        root = pathlib.Path(__file__).parent.parent / "src" / "repro"
        modules = {
            path.stem
            for path in (root / "counters").glob("*.py")
            if path.stem != "__init__"
        }
        base_names = {name.partition("[")[0] for name in registered_names()}
        missing = {
            module
            for module in modules
            if module.replace("_", "-") not in base_names
            and module not in ("counting_network", "combining_tree",
                               "diffracting_tree", "static_tree",
                               "recoverable", "byzantine")
        }
        for module, slug in (
            ("counting_network", "counting-network"),
            ("combining_tree", "combining-tree"),
            ("diffracting_tree", "diffracting-tree"),
            ("static_tree", "static-tree"),
            ("byzantine", "byz-counter"),
        ):
            if slug not in base_names:
                missing.add(module)
        # The recoverable module registers bracketed variants.
        names = set(registered_names())
        if not {"central[standby]", "combining-tree[bypass]"} <= names:
            missing.add("recoverable")
        assert not missing, f"counter modules without a spec: {missing}"
        assert "ww-tree" in base_names
        assert "quorum" in base_names

    def test_every_quorum_system_has_a_spec(self):
        # The projective plane is parameterized by plane order, not by n,
        # so it cannot be a (network, n) registry factory.
        registered = {
            name.partition("[")[2].rstrip("]")
            for name in registered_names()
            if name.startswith("quorum[")
        }
        expected = set(SYSTEM_SLUGS.values()) - {"projective-plane"}
        missing = sorted(expected - registered)
        assert not missing, f"quorum systems without specs: {missing}"

    @pytest.mark.parametrize(
        "claim, marker",
        [("tolerates_crash", "recovery"), ("tolerates_byzantine", "byzantine")],
    )
    def test_every_tolerance_claim_is_tested(self, claim, marker):
        # A tolerance claim without a test under the matching marker is
        # vacuous: the spec's exact name must appear in such a file.
        sources = _marked_test_sources(marker)
        untested = [
            spec.name
            for spec in registered_specs()
            if getattr(spec.capabilities, claim)
            and not any(spec.name in source for source in sources)
        ]
        assert not untested, (
            f"{untested}: declare {claim} but no test file with the "
            f"{marker!r} marker mentions them"
        )

    def test_every_spec_is_named_in_a_shard_test(self):
        # CounterShardMap serializes batches per shard, so every spec
        # must be able to back a shard; a shard-marked test proves it.
        sources = _marked_test_sources("shard")
        untested = [
            name
            for name in registered_names()
            if not any(name in source for source in sources)
        ]
        assert not untested, (
            f"{untested}: registered but no test file with the 'shard' "
            "marker mentions them — the sharded keyspace claims every "
            "spec can back a shard"
        )

    def test_capability_flags_consistent_with_class(self):
        for spec in registered_specs():
            assert spec.capabilities.supports_concurrent == (
                not spec.capabilities.sequential_only
            )


class TestCapabilityEnforcement:
    def _sequential_only_specs(self):
        return [s for s in registered_specs() if s.capabilities.sequential_only]

    def test_registry_declares_sequential_only_counters(self):
        names = {s.name for s in self._sequential_only_specs()}
        assert "arrow" in names
        assert "quorum[maekawa]" in names

    @pytest.mark.parametrize(
        "name",
        [s.name for s in registered_specs() if s.capabilities.sequential_only],
    )
    def test_concurrent_driver_fails_fast(self, name):
        spec = get_spec(name)
        n = 16  # square, so every quorum system accepts it
        network = Network()
        counter = spec.build(network, n)
        with pytest.raises(CapabilityError) as excinfo:
            run_concurrent(counter, [one_shot(n)])
        assert name in str(excinfo.value)

    def test_run_session_concurrent_fails_fast_on_arrow(self):
        session = RunSession("arrow", 8)
        with pytest.raises(CapabilityError):
            session.run_concurrent()

    def test_square_n_requirement(self):
        spec = get_spec("quorum[maekawa]")
        assert spec.supports_n(16) is None
        assert spec.supports_n(12) is not None
        with pytest.raises(CapabilityError):
            spec.check_n(12)
        with pytest.raises(CapabilityError):
            RunSession("quorum[maekawa]", 12)

    def test_capability_error_is_a_configuration_error(self):
        assert issubclass(CapabilityError, ConfigurationError)


class TestRunSession:
    def test_sequential_run_counts(self):
        session = RunSession("central", 16)
        result = session.run_sequence()
        assert result.values() == list(range(16))
        assert session.canonical == "central"

    def test_session_records_canonical_spec(self):
        session = RunSession("combining-tree?arity=2&window=0.75", 8)
        assert session.canonical == "combining-tree"

    def test_policy_by_name(self):
        session = RunSession("central", 8, policy="random", seed=3)
        result = session.run_sequence()
        assert result.bottleneck_load() > 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            make_policy("postal")
        assert "unit" in POLICY_NAMES

    def test_unknown_workload_rejected(self):
        session = RunSession("central", 8)
        with pytest.raises(ConfigurationError):
            session.run_workload("marathon")

    def test_resolve_factory_passthrough(self):
        calls = []

        def factory(network, n):
            calls.append(n)
            return parse_spec("central").build(network, n)

        resolved = resolve_factory(factory)
        assert resolved is factory


class TestCountersSubcommand:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_lists_every_registered_name(self, capsys):
        code, out, _ = self._run(capsys, "counters")
        assert code == 0
        for name in registered_names():
            assert name in out

    def test_shows_capability_flags(self, capsys):
        code, out, _ = self._run(capsys, "counters")
        assert code == 0
        assert "sequential-only" in out

    def test_verbose_lists_tunables(self, capsys):
        code, out, _ = self._run(capsys, "counters", "--verbose")
        assert code == 0
        assert "window" in out
        assert "retire_threshold" in out

    def test_run_rejects_bad_spec(self, capsys):
        code, _, err = self._run(
            capsys, "run", "--counter", "nonesuch", "--n", "8"
        )
        assert code == 2
        assert "bad counter spec" in err
