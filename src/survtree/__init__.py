"""Conditional-inference survival trees: permutation-test driven recursive
partitioning for right-censored data, with a calibrated synthetic waitlist
cohort generator and a reproducible CLI pipeline."""

__version__ = "0.1.0"

from .data import (
    CATEGORICAL,
    NUMERIC,
    ColumnSpec,
    Covariate,
    Dataset,
    Schema,
    SplitRule,
    SurvivalResponse,
    dataset_to_csv,
    load_csv,
)
from .errors import DataError, FitError
from .influence import encode_covariate, logrank_scores
from .km import KMCurve, km_estimate
from .meld import MeldRecord, SimConfig, meld_score, simulate_cohort
from .partition import FitConfig, Tree, TreeNode, best_split, fit, predict_node
from .permstat import (
    SplitTest,
    TestMethod,
    adjust_pvalues,
    pvalue_asymptotic,
    test_statistic,
)
from .treedoc import render_text

__all__ = [
    "CATEGORICAL",
    "NUMERIC",
    "ColumnSpec",
    "Covariate",
    "DataError",
    "Dataset",
    "FitConfig",
    "FitError",
    "KMCurve",
    "MeldRecord",
    "Schema",
    "SimConfig",
    "SplitRule",
    "SplitTest",
    "SurvivalResponse",
    "TestMethod",
    "Tree",
    "TreeNode",
    "adjust_pvalues",
    "best_split",
    "dataset_to_csv",
    "encode_covariate",
    "fit",
    "km_estimate",
    "load_csv",
    "logrank_scores",
    "meld_score",
    "predict_node",
    "pvalue_asymptotic",
    "render_text",
    "simulate_cohort",
    "test_statistic",
]
