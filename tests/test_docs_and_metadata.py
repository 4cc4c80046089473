"""Documentation conformance: the docs must match the code.

These meta-tests keep README/DESIGN/EXPERIMENTS honest: the quickstart
executes, the experiment index covers the registry, every public
module carries documentation, and the two homes of a number — ``bench/``
for clocks, ``repro experiment`` for counts — stay the only two.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent

PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.api",
    "repro.cli",
    "repro.core",
    "repro.core.invariants",
    "repro.core.tree",
    "repro.counters",
    "repro.datatypes",
    "repro.errors",
    "repro.experiments",
    "repro.lowerbound",
    "repro.quorum",
    "repro.registry",
    "repro.runtime",
    "repro.serve",
    "repro.sim",
    "repro.workloads",
]


class TestReadme:
    def test_quickstart_snippet_executes(self):
        readme = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README lost its quickstart code block"
        namespace: dict = {}
        exec(blocks[0], namespace)  # noqa: S102 - executing our own docs

    def test_headline_table_matches_measured_values(self):
        # The README's E4 table must agree with a fresh run.
        from repro.experiments import run_e4

        readme = (ROOT / "README.md").read_text()
        result = run_e4(ks=(3,))
        measured = result.table().column("bottleneck m_b")[0]
        assert f"| 3 | 81    | {measured} |" in readme

    def test_install_instructions_mention_offline_path(self):
        readme = (ROOT / "README.md").read_text()
        assert "setup.py develop" in readme


class TestDesignAndExperiments:
    def test_design_indexes_every_registered_experiment(self):
        from repro.experiments import REGISTRY

        design = (ROOT / "DESIGN.md").read_text()
        for experiment_id in REGISTRY:
            assert f"| {experiment_id} " in design, (
                f"{experiment_id} missing from DESIGN.md's index"
            )

    def test_experiments_log_covers_every_registered_experiment(self):
        from repro.experiments import REGISTRY

        log = (ROOT / "EXPERIMENTS.md").read_text()
        for experiment_id in REGISTRY:
            assert f"## {experiment_id} " in log, (
                f"{experiment_id} missing from EXPERIMENTS.md"
            )

    def test_design_declares_the_identity_check(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "Paper identity check" in design

    def test_docs_directory_complete(self):
        for name in ("protocol.md", "model.md", "simulator.md",
                     "tutorial.md", "api.md"):
            assert (ROOT / "docs" / name).exists()

    def test_tutorial_snippets_execute(self):
        import re

        tutorial = (ROOT / "docs" / "tutorial.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", tutorial, re.DOTALL)
        assert len(blocks) >= 5
        namespace: dict = {}
        for block in blocks:
            exec(block, namespace)  # noqa: S102 - executing our own docs


class TestDocstringCoverage:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_public_callables_documented(self, module_name):
        module = importlib.import_module(module_name)
        undocumented = []
        for name in getattr(module, "__all__", []):
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not (member.__doc__ or "").strip():
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestGeneratedApiReference:
    def test_api_doc_exists_and_mentions_key_symbols(self):
        api = (ROOT / "docs" / "api.md").read_text()
        for symbol in (
            "TreeCounter",
            "GreedyAdversary",
            "check_hot_spot",
            "QuorumCounter",
            "DistributedPriorityQueue",
            "REGISTRY",
        ):
            assert symbol in api, f"{symbol} missing from docs/api.md"

    def test_api_doc_covers_every_public_module(self):
        api = (ROOT / "docs" / "api.md").read_text()
        for module_name in PUBLIC_MODULES:
            if module_name in ("repro.cli",):
                continue  # CLI is documented via --help, not the API doc
            assert f"## `{module_name}`" in api, (
                f"{module_name} missing from docs/api.md"
            )

    def test_api_doc_is_the_generator_output(self):
        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", ROOT / "scripts" / "gen_api_docs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.render() == (ROOT / "docs" / "api.md").read_text(), (
            "docs/api.md is stale: run python scripts/gen_api_docs.py"
        )


class TestOnePlaceANumberComesFrom:
    """The in-package bench harness is gone and nothing points at it."""

    # spelled in halves so this file does not match itself
    RETIRED = [
        "BENCH" + "_simulator",
        "bench" + "_to_json",
        "repro" + " bench",
        "repro" + ".bench",
    ]
    HISTORY = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}
    UNTRACKED = {".git", ".hypothesis", ".pytest_cache", "__pycache__"}

    def test_nothing_mentions_the_retired_harness(self):
        hits = []
        for path in ROOT.rglob("*"):
            if self.UNTRACKED & set(path.parts) or not path.is_file():
                continue
            if path.suffix not in (".md", ".py", ".yml") and (
                path.name != "Makefile"
            ):
                continue
            if path.parent == ROOT and path.name in self.HISTORY:
                continue
            text = path.read_text(errors="replace")
            hits += [
                f"{path.relative_to(ROOT)}: {name}"
                for name in self.RETIRED
                if name in text
            ]
        assert not hits, f"retired bench harness still referenced: {hits}"

    def test_bench_is_not_a_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_experiment_table_covers_exactly_the_committed_results(self):
        from repro.experiments import REGISTRY

        spec = importlib.util.spec_from_file_location(
            "benchmarks_test_experiments",
            ROOT / "benchmarks" / "test_experiments.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        committed = {
            path.name
            for path in (ROOT / "benchmarks" / "results").glob("E*.txt")
        }
        rows = {
            f"{experiment_id}_{row.slug}.txt"
            for experiment_id, row in module.EXPERIMENTS.items()
        }
        assert rows == committed
        # E24-E27 never had a committed table (E26/E27 are wall-clock
        # trials); anything newer needs a row and a committed table
        unlisted = set(REGISTRY) - set(module.EXPERIMENTS)
        assert unlisted == {"E24", "E25", "E26", "E27"}


class TestOneWayToRunACounter:
    """Each driving regime has one body, results have one observer slot,
    the runtimes have one base — and analysis code drives nothing."""

    SRC = ROOT / "src" / "repro"

    @staticmethod
    def _tree(path: pathlib.Path) -> ast.AST:
        return ast.parse(path.read_text(), filename=str(path))

    @staticmethod
    def _called_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Attribute):
            return func.attr
        return func.id if isinstance(func, ast.Name) else None

    def test_nothing_assigns_to_deliver_result(self):
        hits = []
        for path in self.SRC.rglob("*.py"):
            for node in ast.walk(self._tree(path)):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                elif isinstance(node, ast.Delete):
                    targets = node.targets
                else:
                    continue
                hits += [
                    f"{path.relative_to(ROOT)}:{node.lineno}"
                    for target in targets
                    if isinstance(target, ast.Attribute)
                    and target.attr == "deliver_result"
                ]
        assert not hits, f"observe results through on_result instead: {hits}"

    def test_analysis_drives_nothing(self):
        hits = []
        for path in (self.SRC / "analysis").rglob("*.py"):
            hits += [
                f"{path.relative_to(ROOT)}:{node.lineno}"
                for node in ast.walk(self._tree(path))
                if isinstance(node, ast.Call)
                and self._called_name(node)
                in ("begin_inc", "run_until_quiescent")
            ]
        assert not hits, f"drivers belong in workloads/driver.py: {hits}"

    def test_each_regime_has_one_body(self):
        tree = self._tree(self.SRC / "workloads" / "driver.py")
        sequential_loops = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.AsyncFor))
            and isinstance(node.iter, ast.Call)
            and self._called_name(node.iter) == "enumerate"
            and isinstance(node.iter.args[0], ast.Name)
            and node.iter.args[0].id == "initiators"
        ]
        assert len(sequential_loops) == 1

        class DropAwait(ast.NodeTransformer):
            def visit_Await(self, node: ast.Await) -> ast.AST:
                return self.visit(node.value)

        bodies: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            statements = node.body
            if ast.get_docstring(node) is not None:
                statements = statements[1:]
            body = "\n".join(
                ast.dump(DropAwait().visit(statement))
                for statement in statements
            )
            twin = bodies.setdefault(body, node.name)
            assert twin == node.name, (
                f"{node.name} and {twin} differ only by await: "
                "write the body once as steps and pump it"
            )

    def test_runtime_accessors_are_defined_once(self):
        tree = self._tree(self.SRC / "runtime.py")
        defined = [
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for name in ("network", "trace", "now", "step"):
            assert defined.count(name) == 1, name


class TestOneDeliveryPath:
    """One drain loop serves every trace level and one ``send`` serves
    clean and faulty networks — no per-level or per-plan copies."""

    SIM = ROOT / "src" / "repro" / "sim"
    NETWORK = SIM / "network.py"

    def _network_methods(self) -> list[str]:
        tree = ast.parse(self.NETWORK.read_text())
        (network,) = [
            node
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == "Network"
        ]
        return [
            node.name for node in network.body if isinstance(node, ast.FunctionDef)
        ]

    def test_one_drain_loop(self):
        drains = [name for name in self._network_methods() if name.startswith("_drain")]
        assert drains == ["_drain"]

    def test_one_send(self):
        sends = [name for name in self._network_methods() if name.startswith("_send_")]
        assert not sends, sends

    def test_nothing_in_sim_assigns_to_send(self):
        hits = []
        for path in self.SIM.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                hits += [
                    f"{path.relative_to(ROOT)}:{node.lineno}"
                    for target in targets
                    if isinstance(target, ast.Attribute) and target.attr == "send"
                ]
        assert not hits, f"consult the fault plan inside Network.send: {hits}"

    def test_no_copies_to_keep_in_sync(self):
        assert "keep in sync" not in self.NETWORK.read_text()


class TestOneDrawPerDecision:
    """The guided strategy scores inline and draws one ``random()`` per
    decision: no ``random.choices`` (a list, an ``accumulate`` and a
    ``bisect`` per call) and no per-message ``weight_of`` (a dict and a
    loop per call) in the strategies module."""

    STRATEGIES = ROOT / "src" / "repro" / "explore" / "strategies.py"

    def _nodes(self) -> list[ast.AST]:
        return list(ast.walk(ast.parse(self.STRATEGIES.read_text())))

    def test_no_choices_call(self):
        calls = [
            node.lineno
            for node in self._nodes()
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "choices"
        ]
        assert not calls, f"draw through _weighted_index instead: lines {calls}"

    def test_weight_of_not_imported(self):
        imported = [
            alias.name
            for node in self._nodes()
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        ]
        assert "weight_of" not in imported
