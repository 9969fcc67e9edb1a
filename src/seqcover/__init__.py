"""Covering-similarity anomaly detection for symbolic sequences.

Build a suffix index over a set of normal system-call traces, extract
minimal coverings of test traces by substrings of the normal set, score
them by covering similarity, classify against a threshold, enrich the
normal model with the worst-scoring validation traces, and evaluate with
ROC/AUC against classical string-similarity baselines.
"""

__version__ = "0.1.0"

from .baselines import BaselineKind, nearest_similarity_to_set, pairwise_baseline
from .covering import (
    Covering,
    covering_similarity,
    greedy_cover,
    pairwise_similarity,
    ratio_str,
)
from .detector import (
    ANOMALY,
    NORMAL,
    DetectorConfig,
    ScoredSequence,
    anomaly_score,
    classify,
    score_batch,
)
from .enrichment import (
    METHODS,
    EnrichmentConfig,
    EnrichmentRecord,
    EnrichmentTrace,
    run_enrichment,
    select_worst_k,
)
from .errors import ConfigurationError, TraceParseError
from .evaluation import auc_from_scores, histogram, rank_auc, roc_curve
from .model import NormalModel
from .suffix_tree import GeneralizedSuffixIndex
from .traces import (
    Dataset,
    Sequence,
    deduplicate,
    load_dataset,
    load_traces,
    parse_trace,
)

__all__ = [
    "ANOMALY",
    "BaselineKind",
    "ConfigurationError",
    "Covering",
    "Dataset",
    "DetectorConfig",
    "EnrichmentConfig",
    "EnrichmentRecord",
    "EnrichmentTrace",
    "GeneralizedSuffixIndex",
    "METHODS",
    "NORMAL",
    "NormalModel",
    "ScoredSequence",
    "Sequence",
    "TraceParseError",
    "anomaly_score",
    "auc_from_scores",
    "classify",
    "covering_similarity",
    "deduplicate",
    "greedy_cover",
    "histogram",
    "load_dataset",
    "load_traces",
    "nearest_similarity_to_set",
    "pairwise_baseline",
    "pairwise_similarity",
    "parse_trace",
    "rank_auc",
    "ratio_str",
    "roc_curve",
    "run_enrichment",
    "score_batch",
    "select_worst_k",
]
