"""One way to build a run: no network is wired outside the simulator.

Every run is assembled by :func:`repro.registry.assemble_run`, either
behind :class:`~repro.registry.RunSession`'s capability gates or called
directly where a caller must pass what the gates refuse or a counter no
spec string expresses.  A run's policy, trace level, event budget,
transport and recovery are therefore chosen in one place; a bare
``Network(...)`` anywhere else in ``src/repro`` would reopen a second
one, so this scan fails on it.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def _network_calls(tree: ast.AST, skip: ast.AST | None = None) -> list[int]:
    """Line numbers of ``Network(...)`` calls in *tree*, outside *skip*."""
    excluded = {id(node) for node in ast.walk(skip)} if skip else set()
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and id(node) not in excluded
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "Network"
    ]


def _assembly(tree: ast.Module) -> ast.FunctionDef:
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "assemble_run":
            return node
    raise AssertionError("registry.py defines no assemble_run")


def test_only_the_shared_assembly_builds_a_network():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts[0] == "sim":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _assembly(tree) if str(relative) == "registry.py" else None
        found += [f"{relative}:{line}" for line in _network_calls(tree, skip)]
    assert found == []


def test_the_scan_sees_a_bare_network_call():
    tree = ast.parse(
        "def assemble_run():\n"
        "    return Network()\n"
        "def elsewhere():\n"
        "    return sim.Network(policy=None)\n"
    )
    assert _network_calls(tree) == [2, 4]
    assert _network_calls(tree, _assembly(tree)) == [4]
