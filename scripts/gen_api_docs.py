#!/usr/bin/env python3
"""Generate docs/api.md from the public modules' docstrings.

Usage:  python scripts/gen_api_docs.py

Walks every public module, lists its ``__all__`` members with their
signatures and first docstring paragraphs, and writes a single markdown
reference.  Regenerate after changing any public API; the output is
reproducible, and a test compares it with the committed file.
"""

from __future__ import annotations

import importlib
import inspect
import pathlib

MODULES = [
    "repro",
    "repro.api",
    "repro.sim",
    "repro.core",
    "repro.core.invariants",
    "repro.core.tree",
    "repro.lowerbound",
    "repro.counters",
    "repro.datatypes",
    "repro.quorum",
    "repro.registry",
    "repro.runtime",
    "repro.workloads",
    "repro.analysis",
    "repro.explore",
    "repro.experiments",
    "repro.serve",
    "repro.shard",
    "repro.errors",
]


def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraphs = doc.strip().split("\n\n")
    return " ".join(line.strip() for line in paragraphs[0].splitlines())


def _signature(member) -> str:
    try:
        return str(inspect.signature(member))
    except (TypeError, ValueError):
        return ""


def _value(member) -> str:
    """*member*'s repr, with callables named by qualified name (their
    default repr carries a memory address that changes every run)."""
    if isinstance(member, dict):
        items = ", ".join(
            f"{key!r}: {_value(value)}" for key, value in member.items()
        )
        return f"{{{items}}}"
    if inspect.isfunction(member) or inspect.isclass(member):
        return member.__qualname__
    return repr(member)


def render_module(module_name: str) -> str:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", "", _first_paragraph(module.__doc__), ""]
    names = list(getattr(module, "__all__", []))
    for name in names:
        member = getattr(module, name)
        if inspect.isclass(member):
            lines.append(f"### class `{name}{_signature(member)}`")
            lines.append("")
            lines.append(_first_paragraph(member.__doc__))
            lines.append("")
            methods = [
                (method_name, method)
                for method_name, method in inspect.getmembers(
                    member, predicate=inspect.isfunction
                )
                if not method_name.startswith("_")
                and method.__qualname__.startswith(member.__name__)
            ]
            for method_name, method in methods:
                lines.append(
                    f"* `.{method_name}{_signature(method)}` — "
                    f"{_first_paragraph(method.__doc__)}"
                )
            if methods:
                lines.append("")
        elif inspect.isfunction(member):
            lines.append(f"### `{name}{_signature(member)}`")
            lines.append("")
            lines.append(_first_paragraph(member.__doc__))
            lines.append("")
        else:
            lines.append(f"### `{name}` = `{_value(member)}`"[:120])
            lines.append("")
    return "\n".join(lines)


def render() -> str:
    """The whole reference, as :func:`main` writes it."""
    parts = [
        "# API reference",
        "",
        "*Generated by `python scripts/gen_api_docs.py` — do not edit by "
        "hand.*",
        "",
    ]
    for module_name in MODULES:
        parts.append(render_module(module_name))
        parts.append("")
    return "\n".join(parts)


OUTPUT = pathlib.Path(__file__).parent.parent / "docs" / "api.md"


def main() -> None:
    OUTPUT.write_text(render())
    print(f"wrote {OUTPUT} ({len(OUTPUT.read_text().splitlines())} lines)")


if __name__ == "__main__":
    main()
