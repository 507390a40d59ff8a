"""Near-duplicate detection: MinHash signatures with banded LSH.

Signatures come from the NumPy kernel in `_minhash_py`; `KERNEL_BACKEND`
names it in reports. `dedup` signs each document into one row of a uint64
(N, k) matrix, short documents several to a kernel call, treats equal rows
as one node, buckets the distinct rows band by band on the band's exact
bytes, and walks each bucket once.
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
from .parallel import map_chunks

KERNEL_BACKEND: str = "numpy"

MERSENNE61 = _kernel.P_INT

# The most hashes a signature may hold (bands x rows); the goldens and
# workloads use at most 256.
MAX_SIGNATURE_LENGTH = 4096


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


def signature(shingles: np.ndarray, k: int, seed: int, starts: np.ndarray | None = None) -> np.ndarray:
    """MinHash signature (uint64, length k) of a shingle array under k seeded hash functions.

    With `starts`, `shingles` is m documents' shingle arrays laid end to end
    and starts[d] is where document d's begins; the result is the (m, k)
    matrix of their signatures, one kernel call for all of them.
    """
    if k < 1:
        raise ValidationError(f"signature length must be >= 1, got {k}")
    if not len(shingles):
        raise ValidationError("cannot sign an empty shingle set")
    if starts is not None and not (len(starts) and starts[0] == 0 and starts[-1] < len(shingles)
                                   and (np.diff(starts) > 0).all()):
        raise ValidationError("starts must ascend strictly from 0 within the shingle array")
    a, b = hash_params(k, seed)
    return _kernel.min_hash(shingles, a, b, starts)


# Shingle columns per kernel call in `_sign`: short documents share a call,
# which spreads its fixed cost, while a document of more columns gets a call
# of its own and costs what it did alone. The kernel's work buffers for 256
# columns stay within its _BLOCK_CELLS.
_BLOCK_COLUMNS = 256


def _sign(docs: Sequence[Document], k: int, shingle_n: int, seed: int, unit: str) -> np.ndarray:
    """The (len(docs), k) matrix of the documents' signatures, signed a block
    of consecutive documents at a time: each block's shingle arrays are held
    only until the block is signed."""
    sigs = np.empty((len(docs), k), dtype=np.uint64)
    block: list[np.ndarray] = []
    width = signed = 0
    for doc in docs:
        shingles = shingle(doc.text, shingle_n, unit=unit, lang=doc.lang)
        if block and width + len(shingles) > _BLOCK_COLUMNS:
            sigs[signed : signed + len(block)] = _sign_block(block, k, seed)
            signed, block, width = signed + len(block), [], 0
        block.append(shingles)
        width += len(shingles)
    if block:
        sigs[signed:] = _sign_block(block, k, seed)
    return sigs


def _sign_block(block: list[np.ndarray], k: int, seed: int) -> np.ndarray:
    starts = np.cumsum([0] + [len(shingles) for shingles in block[:-1]])
    return signature(np.concatenate(block), k, seed, starts=starts)


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


def _merge_bucket(uf: _UnionFind, rows: np.ndarray, bucket: np.ndarray, threshold: float) -> None:
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
        near = later[estimate_jaccard(rows[later], rows[bucket[pos]]) >= threshold]
        if near.size:
            uf.union(np.append(near, bucket[pos]))
            roots = uf.roots(bucket)


def _preference(doc: Document) -> tuple[float, int, str]:
    """Sort key of a cluster's representative, which sorts first: highest
    QUALITY_COMPOSITE score, then longest text, then smallest id."""
    return -doc.scores.get(QUALITY_COMPOSITE, float("-inf")), -len(doc.text), doc.id


def check_dedup_params(shingle_n: int, bands: int, rows: int, threshold: float, unit: str, seed: int) -> None:
    """Every check of `dedup`'s values, which filters.DedupStage also runs when built."""
    if shingle_n < 1:
        raise ValidationError(f"shingle width must be >= 1, got {shingle_n}")
    _check_unit(unit)
    if bands < 1 or rows < 1:
        raise ValidationError(f"bands and rows must be >= 1, got {bands}x{rows}")
    if bands * rows > MAX_SIGNATURE_LENGTH:
        raise ValidationError(f"bands x rows must be <= {MAX_SIGNATURE_LENGTH}, got {bands}x{rows}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if not 0 < threshold <= 1:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")


def dedup(docs: Sequence[Document], *, shingle_n: int, bands: int, rows: int, threshold: float, unit: str, seed: int,
          jobs: int = 1) -> tuple[list[Document], list[DropRecord]]:
    """Remove near-duplicates, keeping one representative per duplicate cluster.

    Each document is signed with bands x rows hashes. Candidate pairs are
    those sharing an LSH bucket; a candidate pair is a confirmed duplicate
    iff its estimated Jaccard >= threshold. The parameters but `jobs` are
    filters.DedupStage's fields, by name, whose defaults live there.
    Confirmed pairs are clustered with union-find, and each cluster keeps its
    first member in `_preference` order. The kept/dropped partition does not depend on input
    order; kept docs are returned in input order.

    Docs with equal signatures are one node, banded once: they estimate 1.0
    against each other and share every bucket, so merging them first is exact.

    Shingling and signing run on up to `jobs` processes over contiguous
    chunks of `docs` (`parallel.map_chunks`), each chunk signed in blocks
    of consecutive documents into rows of its own, which the calling
    process stacks in input order; banding and clustering run there too.
    The result does not depend on `jobs`. Processes, not threads: the work
    between kernel calls holds the GIL, and a thread pool was measured
    slower than one thread.
    """
    check_dedup_params(shingle_n, bands, rows, threshold, unit, seed)
    k = bands * rows
    ids = [d.id for d in docs]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate document ids in dedup input")

    sigs = np.concatenate(map_chunks(lambda part: _sign(part, k, shingle_n, seed, unit), docs, jobs))
    _, first, inverse = np.unique(_row_keys(sigs), return_index=True, return_inverse=True)
    distinct = sigs[first]

    index = LshIndex(bands=bands, rows_per_band=rows)
    index.insert(distinct)
    uf = _UnionFind(len(distinct))
    for bucket in index.candidate_pairs():
        _merge_bucket(uf, distinct, bucket, threshold)

    row_roots = uf.roots(np.arange(len(distinct)))
    row_of = inverse.tolist()
    root_of = row_roots[inverse].tolist()
    rep_of: dict[int, int] = {}  # cluster root -> its representative's position
    for pos in sorted(range(len(docs)), key=lambda p: _preference(docs[p])):
        rep_of.setdefault(root_of[pos], pos)

    # one estimate per distinct row, against the row of its cluster's representative
    rep_rows = [row_of[rep_of[root]] for root in row_roots.tolist()]
    estimates = estimate_jaccard(distinct, distinct[rep_rows]).tolist()
    dropped = sorted(DropRecord(docs[p].id, docs[rep_of[root]].id, estimates[row_of[p]])
                     for p, root in enumerate(root_of) if rep_of[root] != p)  # by dropped id, which is unique
    kept = [docs[pos] for pos in sorted(rep_of.values())]
    return kept, dropped
