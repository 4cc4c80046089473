"""Regenerate the committed experiment tables (E1–E23).

One test per row of ``EXPERIMENTS``: run the experiment through
``repro.experiments.REGISTRY`` (the same callable ``python -m repro
experiment <id>`` uses), write its table to
``benchmarks/results/<id>_<slug>.txt`` and check the content the claim
rests on.  Every table is a count on a seeded simulator, so a
regeneration is byte-identical — ``git diff benchmarks/results`` after
``python -m pytest benchmarks/`` shows what a change moved.  Nothing
here reads a clock; timings are ``python3 bench/run.py``.
"""

from __future__ import annotations

import pathlib
from typing import NamedTuple

import pytest

from repro.experiments import REGISTRY

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


class Row(NamedTuple):
    slug: str
    absent: str | None = None  # the table must not contain this
    present: str | None = None  # the table must contain this
    marker: str | None = None  # suite CI selects with ``-m``


EXPERIMENTS = {
    "E1": Row("fig12_dag_list", absent="NO"),
    "E2": Row("hotspot", absent="NO"),
    "E3": Row("lower_bound", absent="NO"),
    "E4": Row("tree_counter"),
    "E5": Row("retirement", absent="FAIL"),
    "E6": Row("central_vs_tree"),
    "E7": Row("baselines"),
    "E8": Row("quorum", absent="NO"),
    "E9": Row("ablation_threshold"),
    "E10": Row("ablation_shape"),
    "E11": Row("datatypes"),
    "E12": Row("long_run"),
    "E13": Row("order_sensitivity"),
    "E14": Row("bits"),
    "E15": Row("linearizability", present="linearizable: False"),
    "E16": Row("exact_adversary"),
    "E17": Row("congestion"),
    "E18": Row("delivery_robustness"),
    "E19": Row("skewed_initiators"),
    "E20": Row("loss_tolerance", marker="faults"),
    "E21": Row("graceful_degradation", marker="faults"),
    "E22": Row("failover_latency", marker="recovery"),
    "E23": Row("compound_faults", marker="recovery"),
}


@pytest.mark.parametrize(
    "experiment_id",
    [
        pytest.param(
            experiment_id,
            marks=[getattr(pytest.mark, row.marker)] if row.marker else [],
        )
        for experiment_id, row in EXPERIMENTS.items()
    ],
)
def test_experiment_table(experiment_id):
    row = EXPERIMENTS[experiment_id]
    report = REGISTRY[experiment_id]().to_text()
    path = RESULTS_DIR / f"{experiment_id}_{row.slug}.txt"
    path.write_text(report + "\n")
    print(f"\n{report}\n[saved to {path}]")
    assert report
    if row.absent is not None:
        assert row.absent not in report
    if row.present is not None:
        assert row.present in report
