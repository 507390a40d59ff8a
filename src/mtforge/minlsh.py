"""Near-duplicate detection: MinHash signatures with banded LSH.

Signatures come from the NumPy kernel in `_minhash_py`; `KERNEL_BACKEND`
names it in reports. `dedup` signs each document into one row of a uint64
(N, k) matrix, treats equal rows as one node, buckets the distinct rows band
by band on the band's exact bytes, and walks each bucket once.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import _minhash_py as _kernel
from .corpus import QUALITY_COMPOSITE, Document, segment_tokens
from .errors import ValidationError

KERNEL_BACKEND: str = "numpy"

MERSENNE61 = _kernel.P_INT


def _check_unit(unit: str) -> None:
    if unit not in ("word", "char"):
        raise ValidationError(f"shingle unit must be 'word' or 'char', not {unit!r}")


def shingle(text: str, n: int, unit: str = "word", lang: str | None = None) -> np.ndarray:
    """Hashed distinct n-grams of the text's word units, as
    `corpus.segment_tokens(text, lang)` gives them, or of its characters.

    Each gram is hashed with blake2b-64, read little-endian, into one `<u8`
    array. Texts with fewer than n units collapse to a single whole-text
    shingle, so the array is never empty for non-empty text.
    """
    if n < 1:
        raise ValidationError(f"shingle width must be >= 1, got {n}")
    _check_unit(unit)
    units: Sequence[str] = segment_tokens(text, lang) if unit == "word" else text
    joiner = " " if unit == "word" else ""
    grams = {joiner.join(units[i : i + n]) for i in range(len(units) - n + 1)} or {text}
    digests = b"".join(hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest() for g in grams)
    return np.frombuffer(digests, dtype="<u8")


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


def signature(shingles: np.ndarray, k: int, seed: int) -> np.ndarray:
    """MinHash signature (uint64, length k) of a shingle array under k seeded hash functions."""
    if k < 1:
        raise ValidationError(f"signature length must be >= 1, got {k}")
    if not len(shingles):
        raise ValidationError("cannot sign an empty shingle set")
    a, b = hash_params(k, seed)
    return _kernel.min_hash(shingles, a, b)


def estimate_jaccard(rows: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Fraction of positions where each of `rows` agrees with `row` (or, for two
    equal-shape matrices, each row with its partner); an unbiased Jaccard estimate."""
    if rows.shape[-1] != row.shape[-1]:
        raise ValidationError(f"signatures of length {rows.shape[-1]} and {row.shape[-1]} are not comparable")
    return np.count_nonzero(rows == row, axis=-1) / row.shape[-1]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row along the last axis; keys are equal iff the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[-1])))[..., 0]


@dataclass
class LshIndex:
    """Banded index over signature rows: rows whose bytes agree on a whole band
    share that band's bucket. It is exact, so different bands never collide."""

    bands: int
    rows_per_band: int
    buckets: list[np.ndarray] = field(default_factory=list)

    def insert(self, rows: np.ndarray) -> None:
        """Bucket every row of the (m, k) matrix, replacing what was indexed before."""
        if self.bands * self.rows_per_band != rows.shape[1]:
            raise ValidationError(f"bands*rows ({self.bands}x{self.rows_per_band}) != signature k={rows.shape[1]}")
        m = len(rows)
        # (m, bands) keys; a stable sort down each band keeps every bucket's row indices ascending
        keys = _row_keys(rows.reshape(m, self.bands, self.rows_per_band))
        order = np.argsort(keys, axis=0, kind="stable")
        ordered = np.take_along_axis(keys, order, axis=0)
        new_bucket = np.ones((self.bands, m), dtype=bool)
        new_bucket[:, 1:] = (ordered[1:] != ordered[:-1]).T
        # band by band, so no bucket spans two bands
        starts = np.flatnonzero(new_bucket)
        stops = np.append(starts[1:], new_bucket.size)[: starts.size]
        shared = stops - starts > 1
        members = order.T.ravel()
        self.buckets = [members[a:b] for a, b in zip(starts[shared].tolist(), stops[shared].tolist())]

    def candidate_pairs(self) -> list[np.ndarray]:
        """Every bucket of two or more rows, as an ascending array of row indices."""
        return self.buckets


class DropRecord(NamedTuple):
    dropped_id: str
    kept_id: str
    estimated_jaccard: float


class _UnionFind:
    """Union-find over the integers 0..n-1."""

    def __init__(self, n: int):
        self.parent = np.arange(n)

    def roots(self, items: np.ndarray) -> np.ndarray:
        """The root of each item; the items then point straight at their roots."""
        roots = self.parent[items]
        while True:
            up = self.parent[roots]
            if np.array_equal(up, roots):
                break
            roots = up
        self.parent[items] = roots
        return roots

    def union(self, items: np.ndarray) -> None:
        """Merge the components of all items under their smallest root."""
        roots = self.roots(items)
        self.parent[roots] = roots.min()


def _merge_bucket(uf: _UnionFind, rows: np.ndarray, bucket: np.ndarray, jaccard_threshold: float) -> None:
    """Union every pair in the bucket whose estimate reaches the threshold.

    Each member is compared only with later members outside its component,
    since an edge inside a component does not change the partition, and the
    walk stops once the whole bucket is one component.
    """
    roots = uf.roots(bucket)
    for pos in range(len(bucket) - 1):
        if (roots == roots[0]).all():
            return
        later = bucket[pos + 1 :][roots[pos + 1 :] != roots[pos]]
        if not later.size:
            continue
        near = later[estimate_jaccard(rows[later], rows[bucket[pos]]) >= jaccard_threshold]
        if near.size:
            uf.union(np.append(near, bucket[pos]))
            roots = uf.roots(bucket)


def _representative(cluster: list[Document]) -> Document:
    """Highest QUALITY_COMPOSITE score wins, then longest text, then smallest id."""
    return min(
        cluster,
        key=lambda d: (-d.scores.get(QUALITY_COMPOSITE, float("-inf")), -len(d.text), d.id),
    )


def check_dedup_params(n: int, k: int, seed: int, b: int, r: int, jaccard_threshold: float, unit: str) -> None:
    """Every check of `dedup`'s values, which filters.DedupStage also runs when built."""
    if n < 1:
        raise ValidationError(f"shingle width must be >= 1, got {n}")
    _check_unit(unit)
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

    Docs with equal signatures are one node, banded once: they estimate 1.0
    against each other and share every bucket, so merging them first is exact.

    Signatures are computed one document at a time in the calling thread.
    A per-document thread pool was measured slower: the work between kernel
    calls holds the GIL, so threads only add hand-offs.
    """
    check_dedup_params(n, k, seed, b, r, jaccard_threshold, unit)
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids in dedup input")

    sigs = np.empty((len(docs), k), dtype=np.uint64)
    for i, doc in enumerate(docs):
        sigs[i] = signature(shingle(doc.text, n, unit=unit, lang=doc.lang), k, seed)
    _, first, inverse = np.unique(_row_keys(sigs), return_index=True, return_inverse=True)
    rows = sigs[first]

    index = LshIndex(bands=b, rows_per_band=r)
    index.insert(rows)
    uf = _UnionFind(len(rows))
    for bucket in index.candidate_pairs():
        _merge_bucket(uf, rows, bucket, jaccard_threshold)

    clusters: dict[int, list[int]] = {}
    for pos, root in enumerate(uf.roots(inverse).tolist()):
        clusters.setdefault(root, []).append(pos)
    rep_of: dict[int, int] = {}  # dropped doc position -> its representative's position
    for members in clusters.values():
        if len(members) > 1:
            rep = _representative([docs[p] for p in members])
            rep_pos = next(p for p in members if docs[p] is rep)
            rep_of.update((p, rep_pos) for p in members if p != rep_pos)

    # one estimate per distinct row, against the row of its cluster's representative
    row_of = inverse.tolist()
    rep_row = np.arange(len(rows))
    rep_row[[row_of[p] for p in rep_of]] = [row_of[p] for p in rep_of.values()]
    estimates = estimate_jaccard(rows, rows[rep_row]).tolist()
    dropped = [DropRecord(docs[p].id, docs[rep_pos].id, estimates[row_of[p]]) for p, rep_pos in rep_of.items()]
    dropped.sort(key=lambda rec: rec.dropped_id)
    kept = [doc for pos, doc in enumerate(docs) if pos not in rep_of]
    return kept, dropped
