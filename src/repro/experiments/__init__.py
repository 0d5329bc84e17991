"""Experiment harness: one driver per table/figure of Sect. 6.

Every driver returns a :class:`~repro.experiments.report.Table` whose rows
mirror what the paper reports; the benchmark scripts under ``benchmarks/``
print them and record timings.  Graph sizes are parameterised by a single
``scale`` knob so the full evaluation can run in minutes at default scale
(see :mod:`repro.experiments.datasets` for why our graphs are synthetic
and smaller than the paper's).
"""

from repro.experiments.configs import CONFIGS, Config
from repro.experiments.datasets import dblp_graph, livejournal_graph
from repro.experiments.fig06_07_baselines import (
    fig5_table,
    fig6_table,
    fig7_tables,
    fig7_work_table,
    run_baseline_comparison,
)
from repro.experiments.fig08_09_policies import (
    fig8_table,
    fig9_table,
    run_policy_comparison,
)
from repro.experiments.fig10_11_hubs import fig10_table, fig11_table, run_hub_sweep
from repro.experiments.fig12_iterations import fig12_table, run_iteration_sweep
from repro.experiments.fig13_15_scalability import (
    fig13_table,
    fig14_table,
    fig15_table,
    run_sample_scalability,
    run_snapshot_scalability,
)
from repro.experiments.fig16_disk import fig16_table, run_disk_sweep
from repro.experiments.report import Table, format_table
from repro.experiments.runner import (
    MethodOutcome,
    run_fastppv,
    run_hubrank,
    run_montecarlo,
)
from repro.experiments.workloads import Workload, make_workload

__all__ = [
    "CONFIGS",
    "Config",
    "dblp_graph",
    "livejournal_graph",
    "Workload",
    "make_workload",
    "MethodOutcome",
    "run_fastppv",
    "run_hubrank",
    "run_montecarlo",
    "Table",
    "format_table",
    "run_baseline_comparison",
    "fig5_table",
    "fig6_table",
    "fig7_tables",
    "fig7_work_table",
    "run_policy_comparison",
    "fig8_table",
    "fig9_table",
    "run_hub_sweep",
    "fig10_table",
    "fig11_table",
    "run_iteration_sweep",
    "fig12_table",
    "run_snapshot_scalability",
    "run_sample_scalability",
    "fig13_table",
    "fig14_table",
    "fig15_table",
    "run_disk_sweep",
    "fig16_table",
]
