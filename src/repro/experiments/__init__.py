"""Evaluation campaigns: one module per paper table/figure, the CT-F/CT-T
classification, the shared 120-workload grid, ablations, and the CLI."""

from repro.experiments.classify import (
    CT_F_THRESHOLD,
    PairClass,
    classify_all,
    classify_pair,
    representative_sample,
)
from repro.experiments.grid import GridData, GridPoint, build_sample, run_grid
from repro.experiments.supervise import (
    CampaignError,
    CampaignOutcome,
    Cell,
    FailedCell,
    SupervisedExecutor,
    SuperviseConfig,
)
from repro.experiments.recommend import Recommendation, recommend, render_recommendation
from repro.experiments.reporting import fig1_to_csv, fig2_to_csv, grid_to_csv, write_csv
from repro.experiments.runner import CustomResult, PairResult, run_custom, run_pair
from repro.experiments.store import ResultStore

__all__ = [
    "CT_F_THRESHOLD",
    "PairClass",
    "classify_all",
    "classify_pair",
    "representative_sample",
    "GridData",
    "GridPoint",
    "build_sample",
    "run_grid",
    "Cell",
    "CampaignError",
    "CampaignOutcome",
    "FailedCell",
    "SupervisedExecutor",
    "SuperviseConfig",
    "Recommendation",
    "recommend",
    "render_recommendation",
    "fig1_to_csv",
    "fig2_to_csv",
    "grid_to_csv",
    "write_csv",
    "CustomResult",
    "PairResult",
    "run_custom",
    "run_pair",
    "ResultStore",
]
