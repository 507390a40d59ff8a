"""Exact oracles for MinHash tests: shingle sets with a known Jaccard
similarity, their true similarity by set arithmetic, and their signatures.
"""

import numpy as np

from mtforge.minlsh import MERSENNE61, signature


def sign(shingles: frozenset[int], k: int, seed: int) -> np.ndarray:
    return signature(np.fromiter(shingles, dtype=np.uint64, count=len(shingles)), k, seed)


def exact_jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Brute-force set arithmetic oracle."""
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def synthetic_pair(rng, intersection: int, union: int) -> tuple[frozenset[int], frozenset[int]]:
    """Two shingle sets with exactly the requested overlap."""
    only_a = (union - intersection) // 2
    values = [int(v) for v in rng.integers(0, MERSENNE61, size=union + 64)]
    values = list(dict.fromkeys(values))[:union]
    assert len(values) == union
    shared = values[:intersection]
    a = frozenset(shared + values[intersection : intersection + only_a])
    b = frozenset(shared + values[intersection + only_a :])
    return a, b
