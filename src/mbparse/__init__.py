"""Memory-based shallow parsing toolkit.

Instance-based k-NN tagging with entropy-normalized feature weights, chunk
tag-scheme codecs, system combination, cascaded chunking/clause/parsing
pipelines, and chunk-level evaluation with bootstrap resampling.
"""

__version__ = "0.1.0"

from .errors import ConfigError, CorpusError, DomainError
from .evaluate import EvalConfig, ScoreReport, bootstrap, f_beta, score, score_per_type
from .features import (
    FeatureTemplate,
    Token,
    compress,
    extract,
    extract_token,
    np_head,
    select_features,
)
from .learner import (
    PAD,
    Classification,
    Instance,
    LearnerConfig,
    Model,
    TiePolicy,
    WeightTable,
    classify,
    classify_batch,
    entropy,
    gain_ratio_weights,
    load_model,
    save_model,
    train,
)
from .schemes import (
    ChunkSpan,
    ClauseNode,
    MatchMode,
    Scheme,
    balance_brackets,
    balance_clauses,
    convert,
    decode,
    encode,
)
from .xor import xor_experiment

__all__ = [
    "PAD",
    "ChunkSpan",
    "Classification",
    "ClauseNode",
    "ConfigError",
    "CorpusError",
    "DomainError",
    "EvalConfig",
    "FeatureTemplate",
    "Instance",
    "LearnerConfig",
    "MatchMode",
    "Model",
    "ScoreReport",
    "Scheme",
    "TiePolicy",
    "Token",
    "WeightTable",
    "balance_brackets",
    "balance_clauses",
    "bootstrap",
    "classify",
    "classify_batch",
    "compress",
    "convert",
    "decode",
    "encode",
    "entropy",
    "extract",
    "extract_token",
    "f_beta",
    "gain_ratio_weights",
    "load_model",
    "np_head",
    "save_model",
    "score",
    "score_per_type",
    "select_features",
    "train",
    "xor_experiment",
]
