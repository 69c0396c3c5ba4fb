"""Memory-based shallow parsing toolkit.

Instance-based k-NN tagging with entropy-normalized feature weights, chunk
tag-scheme codecs, system combination, cascaded chunking/clause/parsing
pipelines, and chunk-level evaluation with bootstrap resampling.
"""

__version__ = "0.1.0"

from .errors import ConfigError, CorpusError, DomainError
from .learner import Instance, LearnerConfig, classify, train

__all__ = [
    "ConfigError",
    "CorpusError",
    "DomainError",
    "Instance",
    "LearnerConfig",
    "classify",
    "train",
]
