"""The experiment suite as a programmatic API.

Every experiment of DESIGN.md's index is a function returning a
structured :class:`~repro.experiments.base.ExperimentResult`; the
table regenerator (``benchmarks/test_experiments.py``), the CLI (``python -m repro experiment E4``) and any
notebook all call the same code.  ``REGISTRY`` maps experiment ids to
their runners (with default parameters).
"""

from typing import Callable

from repro.experiments.base import ExperimentResult, ExperimentTable, make_table
from repro.experiments.byzantine_exp import run_e25
from repro.experiments.comparisons_exp import run_e6, run_e7, run_e13, run_e17
from repro.experiments.constructions import run_e1, run_e2
from repro.experiments.lowerbound_exp import run_e3, run_e16
from repro.experiments.recovery_exp import run_e22, run_e23
from repro.experiments.resilience_exp import run_e26
from repro.experiments.robustness_exp import run_e18, run_e19, run_e20, run_e21
from repro.experiments.serving_exp import run_e24
from repro.experiments.sharding_exp import run_e27
from repro.experiments.substrates_exp import run_e8, run_e11, run_e14, run_e15
from repro.experiments.treecounter_exp import run_e4, run_e5, run_e9, run_e10, run_e12

REGISTRY: dict[str, Callable[[], ExperimentResult]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E14": run_e14,
    "E15": run_e15,
    "E16": run_e16,
    "E17": run_e17,
    "E18": run_e18,
    "E19": run_e19,
    "E20": run_e20,
    "E21": run_e21,
    "E22": run_e22,
    "E23": run_e23,
    "E24": run_e24,
    "E25": run_e25,
    "E26": run_e26,
    "E27": run_e27,
}
"""Experiment id → zero-argument runner with the canonical parameters."""

__all__ = [
    "ExperimentResult",
    "ExperimentTable",
    "REGISTRY",
    "make_table",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
    "run_e13",
    "run_e14",
    "run_e15",
    "run_e16",
    "run_e17",
    "run_e18",
    "run_e19",
    "run_e20",
    "run_e21",
    "run_e22",
    "run_e23",
    "run_e24",
    "run_e25",
    "run_e26",
    "run_e27",
]
