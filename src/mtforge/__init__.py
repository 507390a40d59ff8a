"""mtforge: corpus curation, mixture optimization, rewards, and translation fusion.

The MinHash exports are resolved on first use (PEP 562), so importing the
package, or a command that never deduplicates, does not load NumPy.
"""

from .corpus import (
    DirectionGroup,
    Document,
    ParallelPair,
    REGISTRY,
    classify_direction,
    read_corpus,
    write_corpus,
)
from .errors import MtforgeError, OrchestrationError, ValidationError

__version__ = "0.1.0"

_MINLSH_EXPORTS = ("KERNEL_BACKEND", "dedup", "estimate_jaccard", "shingle", "signature")

__all__ = [
    "DirectionGroup",
    "Document",
    "ParallelPair",
    "REGISTRY",
    "classify_direction",
    "read_corpus",
    "write_corpus",
    *_MINLSH_EXPORTS,
    "MtforgeError",
    "OrchestrationError",
    "ValidationError",
    "__version__",
]


def __getattr__(name: str):
    # looked up on every access and never cached, so a wrapper installed on
    # minlsh applies here too
    if name in _MINLSH_EXPORTS:
        from . import minlsh

        return getattr(minlsh, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
