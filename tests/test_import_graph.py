"""The serving process's import graph stays light.

``import repro`` reaches every subpackage, but only
``quorum.analysis.optimal_load`` (numpy + scipy's LP solver) and
``analysis.dag.CommunicationDag`` (networkx) need the scientific stack —
about 60 MB of resident memory and half a second of start-up that a
``repro serve`` process would pay for nothing.  They import it on first
use; these tests keep it that way.  Each runs in a fresh interpreter,
because this one has long since loaded everything.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).parent.parent / "src"
HEAVY = ("numpy", "scipy", "networkx")

LOADED = (
    "import sys; "
    f"print([m for m in {HEAVY!r} if m in sys.modules])"
)


def _fresh_interpreter(script: str) -> list[str]:
    """Run *script* in a new interpreter; its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()


def test_importing_the_serving_stack_loads_no_scientific_library():
    lines = _fresh_interpreter(f"import repro, repro.serve, repro.cli; {LOADED}")
    assert lines == ["[]"]


def test_lp_solver_and_dag_import_their_libraries_on_first_use():
    lines = _fresh_interpreter(
        "import repro\n"
        "from repro.analysis.dag import CommunicationDag\n"
        "from repro.quorum import MaekawaGrid\n"
        "from repro.quorum.analysis import optimal_load\n"
        "print(round(optimal_load(MaekawaGrid(9)).system_load, 6))\n"
        "print(CommunicationDag(op_index=0, initiator=1).depth())\n"
        f"{LOADED}"
    )
    assert lines == ["0.555556", "0", str(list(HEAVY))]
