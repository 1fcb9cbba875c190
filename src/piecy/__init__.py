"""One-pass weighted coreset summaries for k-means on long, high-dimensional
point streams, with best-fit-subspace projection interleaved into the pass."""

from .coreset import BicoEngine, ClusteringFeature, Coreset, max_insertable_copies
from .datagen import (LowerBoundConfig, RandomConfig, SwnConfig, lower_bound,
                      random_cube, structured_with_noise)
from .evaluation import (CostSummary, evaluate_cost_multi, kmeans_repetitions,
                         kmeanspp_seed, lloyd_iterate, weighted_cost)
from .linalg import (Projector, SvdTruncation, project, randomized_truncated_svd,
                     weighted_best_fit)
from .mergereduce import MergeReduceTree, MrConfig, run_piecy_mr
from .pipeline import (PiecyConfig, PipelineStats, coreset_cost_report,
                       default_svd_dim, run_bico, run_piecy)

__version__ = "0.1.0"

__all__ = [
    "BicoEngine", "ClusteringFeature", "Coreset", "max_insertable_copies",
    "LowerBoundConfig", "RandomConfig", "SwnConfig",
    "lower_bound", "random_cube", "structured_with_noise",
    "CostSummary", "evaluate_cost_multi",
    "kmeans_repetitions", "kmeanspp_seed", "lloyd_iterate", "weighted_cost",
    "Projector", "SvdTruncation", "project", "randomized_truncated_svd",
    "weighted_best_fit",
    "MergeReduceTree", "MrConfig", "run_piecy_mr",
    "PiecyConfig", "PipelineStats", "coreset_cost_report", "default_svd_dim",
    "run_bico", "run_piecy",
]
