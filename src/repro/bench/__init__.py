"""Experiment harness regenerating every table and figure of the paper."""

from .context import BenchContext, BenchProfile, active_profile, get_context, reset_context
from .host import describe_host, host_snapshot
from .tables import ResultTable
from .evaluation import FourTaskScores, evaluate_pipeline_on_tasks, pretrain_and_evaluate
from .table2 import collect_suite_statistics, run_table2
from .table3 import run_table3
from .table4 import run_table4
from .table5 import run_table5
from .table6 import EDA_ITERATION_FACTOR, RuntimeRow, measure_suite_runtime, run_table6
from .fig5 import run_fig5
from .fig6 import ABLATIONS, run_fig6
from .fig7 import run_fig7_data_scaling, run_fig7_model_scaling

__all__ = [
    "BenchContext",
    "BenchProfile",
    "active_profile",
    "describe_host",
    "host_snapshot",
    "get_context",
    "reset_context",
    "ResultTable",
    "FourTaskScores",
    "evaluate_pipeline_on_tasks",
    "pretrain_and_evaluate",
    "collect_suite_statistics",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "EDA_ITERATION_FACTOR",
    "RuntimeRow",
    "measure_suite_runtime",
    "run_fig5",
    "ABLATIONS",
    "run_fig6",
    "run_fig7_model_scaling",
    "run_fig7_data_scaling",
]
