"""mtforge: corpus curation, mixture optimization, rewards, and translation fusion."""

from .corpus import (
    DirectionGroup,
    Document,
    ParallelPair,
    REGISTRY,
    classify_direction,
    read_corpus,
    write_corpus,
)
from .minlsh import KERNEL_BACKEND, dedup, estimate_jaccard, shingle, signature
from .errors import MtforgeError, OrchestrationError, SchemaError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "DirectionGroup",
    "Document",
    "ParallelPair",
    "REGISTRY",
    "classify_direction",
    "read_corpus",
    "write_corpus",
    "KERNEL_BACKEND",
    "dedup",
    "estimate_jaccard",
    "shingle",
    "signature",
    "MtforgeError",
    "OrchestrationError",
    "SchemaError",
    "ValidationError",
    "__version__",
]
