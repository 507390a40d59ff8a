"""Near-duplicate detection: MinHash signatures with banded LSH.

Signatures come from the NumPy kernel in `_minhash_py`; `KERNEL_BACKEND`
names it in reports.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import _minhash_py as _kernel
from .corpus import QUALITY_COMPOSITE, Document
from .errors import ValidationError

KERNEL_BACKEND: str = "numpy"

MERSENNE61 = _kernel.P_INT


def hash64(data: str) -> int:
    """Stable 64-bit hash of a string (blake2b, little-endian)."""
    return int.from_bytes(hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "little")


def shingle(text: str, n: int, unit: str = "word") -> frozenset[int]:
    """Hashed consecutive n-grams of whitespace tokens (or characters).

    Texts with fewer than n units collapse to a single whole-text shingle,
    so the set is never empty for non-empty text.
    """
    if n < 1:
        raise ValidationError(f"shingle width must be >= 1, got {n}")
    if unit == "word":
        units: Sequence[str] = text.split()
        joiner = " "
    elif unit == "char":
        units = text
        joiner = ""
    else:
        raise ValidationError(f"shingle unit must be 'word' or 'char', not {unit!r}")
    if len(units) < n:
        return frozenset({hash64(text)})
    grams = {joiner.join(units[i : i + n]) for i in range(len(units) - n + 1)}
    return frozenset(hash64(g) for g in grams)


@dataclass(frozen=True)
class MinHashSignature:
    """Per-hash-function minima over a shingle set."""

    values: tuple[int, ...]
    seed: int
    k: int

    def __post_init__(self):
        if len(self.values) != self.k:
            raise ValidationError(f"signature length {len(self.values)} != k={self.k}")


@functools.lru_cache(maxsize=32)
def hash_params(k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (a, b) coefficient arrays for k hash functions.

    Computed once per (k, seed) and shared, so the arrays are read-only.
    """
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE61, size=k, dtype=np.uint64)
    b = rng.integers(0, MERSENNE61, size=k, dtype=np.uint64)
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def signature(shingles: frozenset[int], k: int, seed: int) -> MinHashSignature:
    """MinHash signature of a shingle set under k seeded hash functions."""
    if k < 1:
        raise ValidationError(f"signature length must be >= 1, got {k}")
    if not shingles:
        raise ValidationError("cannot sign an empty shingle set")
    a, b = hash_params(k, seed)
    xs = np.fromiter(shingles, dtype=np.uint64, count=len(shingles))
    values = _kernel.min_hash(xs, a, b)
    return MinHashSignature(tuple(values.tolist()), seed=seed, k=k)


def estimate_jaccard(sig_a: MinHashSignature, sig_b: MinHashSignature) -> float:
    """Fraction of agreeing signature positions; unbiased Jaccard estimate."""
    if sig_a.k != sig_b.k or sig_a.seed != sig_b.seed:
        raise ValidationError("signatures differ in k or seed and are not comparable")
    equal = sum(x == y for x, y in zip(sig_a.values, sig_b.values))
    return equal / sig_a.k


def band_hash(sig: MinHashSignature, band: int, rows: int) -> int:
    """64-bit hash of one band (rows consecutive signature values)."""
    chunk = sig.values[band * rows : (band + 1) * rows]
    payload = band.to_bytes(4, "little") + b"".join(v.to_bytes(8, "little") for v in chunk)
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "little")


@dataclass
class LshIndex:
    """Banded index: docs sharing any band bucket become candidate pairs."""

    bands: int
    rows_per_band: int
    buckets: dict[tuple[int, int], set[str]] = field(default_factory=dict)

    def insert(self, doc_id: str, sig: MinHashSignature) -> None:
        if self.bands * self.rows_per_band != sig.k:
            raise ValidationError(
                f"bands*rows ({self.bands}x{self.rows_per_band}) != signature k={sig.k}"
            )
        for band in range(self.bands):
            key = (band, band_hash(sig, band, self.rows_per_band))
            self.buckets.setdefault(key, set()).add(doc_id)

    def candidate_pairs(self) -> set[tuple[str, str]]:
        pairs: set[tuple[str, str]] = set()
        for members in self.buckets.values():
            if len(members) < 2:
                continue
            ordered = sorted(members)
            for i, left in enumerate(ordered):
                for right in ordered[i + 1 :]:
                    pairs.add((left, right))
        return pairs


def collide(sig_a: MinHashSignature, sig_b: MinHashSignature, bands: int, rows: int) -> bool:
    """Whether two signatures share at least one LSH band."""
    if sig_a.k != sig_b.k or sig_a.seed != sig_b.seed:
        raise ValidationError("signatures differ in k or seed and are not comparable")
    if bands * rows != sig_a.k:
        raise ValidationError(f"bands*rows != k={sig_a.k}")
    return any(
        sig_a.values[band * rows : (band + 1) * rows] == sig_b.values[band * rows : (band + 1) * rows]
        for band in range(bands)
    )


class DropRecord(NamedTuple):
    dropped_id: str
    kept_id: str
    estimated_jaccard: float


class _UnionFind:
    def __init__(self, items: Iterable[str]):
        self.parent = {item: item for item in items}

    def find(self, item: str) -> str:
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic: smaller id becomes the root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _representative(cluster: list[Document]) -> Document:
    """Highest QUALITY_COMPOSITE score wins, then longest text, then smallest id."""
    return min(
        cluster,
        key=lambda d: (-d.scores.get(QUALITY_COMPOSITE, float("-inf")), -len(d.text), d.id),
    )


def check_dedup_params(n: int, k: int, seed: int, b: int, r: int, jaccard_threshold: float) -> None:
    """Every check of `dedup`'s values, which filters.DedupStage also runs when built."""
    if n < 1:
        raise ValidationError(f"shingle width must be >= 1, got {n}")
    if b < 1 or r < 1:
        raise ValidationError(f"bands and rows must be >= 1, got {b}x{r}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if b * r != k:
        raise ValidationError(f"bands*rows ({b}x{r}) must equal k={k}")
    if not 0 < jaccard_threshold <= 1:
        raise ValidationError(f"jaccard_threshold must be in (0, 1], got {jaccard_threshold}")


def dedup(
    docs: Sequence[Document],
    n: int = 5,
    k: int = 128,
    seed: int = 0,
    b: int = 16,
    r: int = 8,
    jaccard_threshold: float = 0.8,
    unit: str = "word",
) -> tuple[list[Document], list[DropRecord]]:
    """Remove near-duplicates, keeping one representative per duplicate cluster.

    Candidate pairs are those sharing an LSH bucket; a candidate pair is a
    confirmed duplicate iff its estimated Jaccard >= jaccard_threshold.
    Confirmed pairs are clustered with union-find, and each cluster keeps its
    best representative. The kept/dropped partition does not depend on input
    order; kept docs are returned in input order.

    Signatures are computed one document at a time in the calling thread.
    A per-document thread pool was measured slower: the work between kernel
    calls holds the GIL, so threads only add hand-offs.
    """
    check_dedup_params(n, k, seed, b, r, jaccard_threshold)
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids in dedup input")

    sigs = {d.id: signature(shingle(d.text, n, unit=unit), k, seed) for d in docs}
    by_id = {d.id: d for d in docs}

    index = LshIndex(bands=b, rows_per_band=r)
    for doc_id, sig in sigs.items():
        index.insert(doc_id, sig)

    uf = _UnionFind(ids)
    for left, right in index.candidate_pairs():
        if estimate_jaccard(sigs[left], sigs[right]) >= jaccard_threshold:
            uf.union(left, right)

    clusters: dict[str, list[Document]] = {}
    for doc_id in ids:
        clusters.setdefault(uf.find(doc_id), []).append(by_id[doc_id])

    keep_ids: set[str] = set()
    dropped: list[DropRecord] = []
    for members in clusters.values():
        rep = _representative(members)
        keep_ids.add(rep.id)
        for doc in members:
            if doc.id != rep.id:
                dropped.append(
                    DropRecord(doc.id, rep.id, estimate_jaccard(sigs[doc.id], sigs[rep.id]))
                )
    dropped.sort(key=lambda rec: rec.dropped_id)
    kept = [d for d in docs if d.id in keep_ids]
    return kept, dropped
