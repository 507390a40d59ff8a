import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mtforge import _minhash_py, minlsh
from mtforge.corpus import NO_SPACE_TAGS, REGISTRY, Document
from mtforge.errors import ValidationError
from mtforge.filters import DedupStage
from mtforge.minlsh import (
    KERNEL_BACKEND,
    LshIndex,
    MERSENNE61,
    dedup,
    estimate_jaccard,
    hash_params,
    shingle,
    signature,
)

from minhash_oracles import exact_jaccard, sign, synthetic_pair


def _blake64(gram: str) -> int:
    return int.from_bytes(hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest(), "little")


def _bigint_min_hash(xs, a, b) -> list[int]:
    """MinHash minima by exact Python integer arithmetic: the kernel's reference."""
    return [min((int(ai) * (int(x) % MERSENNE61) + int(bi)) % MERSENNE61 for x in xs) for ai, bi in zip(a, b)]


class TestShingle:
    def test_two_token_bigrams(self):
        got = shingle("a b c", 2)
        assert got.dtype == np.dtype("<u8")
        assert sorted(got.tolist()) == sorted([_blake64("a b"), _blake64("b c")])

    def test_deterministic(self):
        assert set(shingle("x y z", 2).tolist()) == set(shingle("x y z", 2).tolist())

    def test_set_semantics(self):
        assert shingle("a a a a", 2).tolist() == [_blake64("a a")]

    def test_short_text_whole_text_shingle(self):
        assert shingle("only two", 5).tolist() == [_blake64("only two")]

    def test_char_unit(self):
        got = shingle("abc", 2, unit="char")
        assert sorted(got.tolist()) == sorted([_blake64("ab"), _blake64("bc")])

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValidationError, match="shingle unit must be 'word' or 'char', not 'byte'"):
            shingle("abc", 2, unit="byte")


def _whitespace_shingle(text: str, n: int) -> bytes:
    """The bytes `shingle` gave for word units before it took them from
    `corpus.segment_tokens`: whitespace tokens, whatever the language."""
    units = text.split()
    grams = {" ".join(units[i : i + n]) for i in range(len(units) - n + 1)} or {text}
    return b"".join(hashlib.blake2b(g.encode("utf-8"), digest_size=8).digest() for g in grams)


class TestWordUnits:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(text=st.text(alphabet="ab c\t\n\u3000\u00a0\x1f漢字é", max_size=40), n=st.integers(1, 6),
           lang=st.sampled_from([None, *sorted(set(REGISTRY) - NO_SPACE_TAGS)]))
    def test_spaced_tags_and_no_tag_keep_whitespace_shingles(self, text, n, lang):
        assert shingle(text, n, lang=lang).tobytes() == _whitespace_shingle(text, n)

    def test_unspaced_tag_shingles_codepoints(self):
        assert sorted(shingle("你好 世界", 2, lang="zh").tolist()) == sorted(
            _blake64(g) for g in ("你 好", "好 世", "世 界"))
        assert shingle("你好 世界", 2).tolist() == [_blake64("你好 世界")]

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError, match="^unknown language tag: 'xx'$"):
            shingle("a b c", 2, lang="xx")


class TestSignature:
    def test_equal_sets_equal_signatures(self):
        a = shingle("the quick brown fox", 2)
        sig = signature(a, 64, seed=7)
        assert sig.dtype == np.uint64 and sig.shape == (64,)
        assert np.array_equal(sig, signature(a[::-1], 64, seed=7))

    def test_self_similarity_is_one(self):
        sig = signature(shingle("alpha beta gamma", 1), 128, seed=3)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_empty_shingle_set_rejected(self):
        with pytest.raises(ValidationError):
            signature(np.empty(0, dtype=np.uint64), 16, seed=0)

    def test_mismatched_lengths_rejected(self):
        s = shingle("a b c", 1)
        with pytest.raises(ValidationError, match="signatures of length 16 and 32 are not comparable"):
            estimate_jaccard(signature(s, 16, seed=0), signature(s, 32, seed=0))
        with pytest.raises(ValidationError):
            estimate_jaccard(np.stack([signature(s, 16, seed=0)] * 3), signature(s, 32, seed=0))

    def test_rows_against_one_row(self):
        rows = np.array([[1, 2, 3, 4], [1, 2, 0, 0], [9, 9, 9, 9]], dtype=np.uint64)
        got = estimate_jaccard(rows, rows[0])
        assert got.tolist() == [1.0, 0.5, 0.0]
        assert estimate_jaccard(rows, rows[[1, 1, 1]]).tolist() == [0.5, 1.0, 0.0]

    def test_known_overlap_estimate(self):
        rng = np.random.default_rng(11)
        a, b = synthetic_pair(rng, intersection=50, union=100)
        assert exact_jaccard(a, b) == 0.5
        est = estimate_jaccard(sign(a, 256, seed=5), sign(b, 256, seed=5))
        assert abs(est - 0.5) <= 0.10  # 3*sqrt(0.25/256) ~ 0.094

    def test_disjoint_sets_estimate_near_zero(self):
        rng = np.random.default_rng(12)
        a, b = synthetic_pair(rng, intersection=0, union=120)
        est = estimate_jaccard(sign(a, 256, seed=5), sign(b, 256, seed=5))
        assert est <= 0.05

    def test_mean_error_over_200_pairs(self):
        rng = np.random.default_rng(2024)
        errors = []
        for _ in range(200):
            union = int(rng.integers(40, 200))
            intersection = int(rng.integers(0, union + 1))
            a, b = synthetic_pair(rng, intersection, union)
            est = estimate_jaccard(sign(a, 256, seed=9), sign(b, 256, seed=9))
            errors.append(abs(est - exact_jaccard(a, b)))
        assert sum(errors) / len(errors) <= 0.03
        assert max(errors) <= 0.12

    def test_unbiased_over_seeds(self):
        rng = np.random.default_rng(31)
        a, b = synthetic_pair(rng, intersection=30, union=60)
        true = exact_jaccard(a, b)
        estimates = [
            estimate_jaccard(sign(a, 128, seed=s), sign(b, 128, seed=s))
            for s in range(64)
        ]
        assert abs(sum(estimates) / len(estimates) - true) <= 0.02


class TestKernelBackends:
    def test_backend_reported(self):
        assert KERNEL_BACKEND == "numpy"
        assert minlsh._kernel is _minhash_py

    def test_numpy_matches_bigint_reference(self):
        def check(xs, a, b):
            assert [int(v) for v in _minhash_py.min_hash(xs, a, b)] == _bigint_min_hash(xs, a, b)

        rng = np.random.default_rng(99)
        for trial in range(25):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 48))
            xs = rng.integers(0, 1 << 64, size=n, dtype=np.uint64)
            check(xs, *hash_params(k, trial))

        p = MERSENNE61
        edges = np.array([0, 1, p - 1, p, p + 1, 2 * p, 1 << 61, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
        block = _minhash_py._BLOCK_CELLS
        # several row blocks with a ragged last one, and a row wider than a block
        for n, k in [(block // 8 + 3, 20), (300, 130), (block + 5, 4)]:
            xs = np.concatenate([rng.integers(0, 1 << 64, size=n - len(edges), dtype=np.uint64), edges])
            a, b = (arr.copy() for arr in hash_params(k, n))
            a[:4] = [1, p - 1, 1, p - 1]
            b[:4] = [0, 0, p - 1, p - 1]
            check(xs, a, b)
        for a0 in (1, p - 1):
            for b0 in (0, p - 1):
                for x in edges:
                    check(np.array([x], dtype=np.uint64), np.array([a0], dtype=np.uint64),
                          np.array([b0], dtype=np.uint64))

    # shingles per document, and per signing call: a call holds whole
    # documents, at most a block of them unless one document is longer
    @pytest.mark.parametrize("lengths, widths", [
        ([256, 1], [256, 1]),  # one document fills a block exactly
        ([100, 156, 1], [256, 1]),  # two fill one exactly
        ([5, 300, 5], [5, 300, 5]),  # a document longer than a block gets one of its own
        ([1] * 300, [256, 44]),  # one-shingle documents
        ([26] * 20, [234, 234, 52]),  # many short documents to a block
        ([255, 2, 254, 3], [255, 256, 3]),  # each next document just overflows the block
    ], ids=["fills", "two-fill", "longer", "one-shingle", "short", "overflow"])
    def test_block_signing_matches_bigint_reference(self, lengths, widths, monkeypatch):
        """dedup's signing lays consecutive documents end to end in blocks of
        at most _BLOCK_COLUMNS shingles; each row still equals big-int MinHash
        of its own document."""
        assert minlsh._BLOCK_COLUMNS == 256
        docs = [Document(f"d{i}", "en", " ".join(f"w{i}x{j}" for j in range(length)))
                for i, length in enumerate(lengths)]
        calls = []
        monkeypatch.setattr(minlsh, "signature",
                            lambda xs, *args, **kw: calls.append(len(xs)) or signature(xs, *args, **kw))
        sigs = minlsh._sign(docs, 16, 1, 7, "word")
        assert calls == widths
        assert sigs.shape == (len(docs), 16) and sigs.dtype == np.uint64
        a, b = hash_params(16, 7)
        for doc, row in zip(docs, sigs, strict=True):
            assert [int(v) for v in row] == _bigint_min_hash(shingle(doc.text, 1), a, b)

    def test_min_hash_refuses_no_shingles_and_unequal_coefficients(self):
        a, b = hash_params(4, 0)
        with pytest.raises(ValueError, match="^empty shingle set$"):
            _minhash_py.min_hash(np.array([], dtype=np.uint64), a, b)
        with pytest.raises(ValueError, match="^a and b length mismatch$"):
            _minhash_py.min_hash(np.arange(1, 3, dtype=np.uint64), a, b[:3])

    def test_block_offsets_must_ascend_within_the_shingles(self):
        xs = np.arange(1, 6, dtype=np.uint64)
        assert signature(xs, 4, 0, starts=np.array([0, 2, 4])).shape == (3, 4)
        for starts in ([], [1, 3], [0, 2, 2], [0, 5]):
            with pytest.raises(ValidationError, match="starts must ascend"):
                signature(xs, 4, 0, starts=np.array(starts, dtype=np.intp))

    def test_hash_params_shared_and_read_only(self):
        a, b = hash_params(16, 3)
        assert hash_params(16, 3)[0] is a
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            b[0] = 1


class TestLsh:
    def test_equal_rows_share_every_band(self):
        sig = signature(shingle("one two three four five six", 2), 128, seed=1)
        index = LshIndex(bands=16, rows_per_band=8)
        index.insert(np.stack([sig, sig]))
        assert [bucket.tolist() for bucket in index.candidate_pairs()] == [[0, 1]] * 16

    def test_buckets_hold_exact_band_matches(self):
        rows = np.arange(3 * 32, dtype=np.uint64).reshape(3, 32)
        rows[2] = rows[0]
        rows[2, 13] += 1  # row 2 differs from row 0 in band 3 only
        index = LshIndex(bands=8, rows_per_band=4)
        index.insert(rows)
        assert [bucket.tolist() for bucket in index.candidate_pairs()] == [[0, 2]] * 7

    def test_empty_matrix_has_no_buckets(self):
        index = LshIndex(bands=16, rows_per_band=8)
        index.insert(np.empty((0, 128), dtype=np.uint64))
        assert index.candidate_pairs() == []

    @pytest.mark.parametrize("s", [0.2, 0.7, 0.95])
    def test_collision_curve(self, s):
        # simulate signature pairs agreeing per-position with probability s
        rng = np.random.default_rng(int(s * 1000))
        b, r, k = 16, 8, 128
        hits = 0
        trials = 2000
        index = LshIndex(bands=b, rows_per_band=r)
        for _ in range(trials):
            base = rng.integers(0, MERSENNE61, size=k, dtype=np.uint64)
            other = base.copy()
            flip = rng.random(k) >= s
            other[flip] = (other[flip] + 1 + rng.integers(0, 1000, size=int(flip.sum()), dtype=np.uint64)) % np.uint64(MERSENNE61)
            index.insert(np.stack([base, other]))
            hits += bool(index.candidate_pairs())
        expected = 1 - (1 - s**r) ** b
        assert abs(hits / trials - expected) <= 0.05


def _random_words(rng, count):
    return [f"w{int(v)}" for v in rng.integers(0, 5000, size=count)]


def _planted_corpus(rng, n_docs=100, n_dups=20):
    """Base docs plus near-duplicates (small token edits, true Jaccard >= 0.9)."""
    docs = []
    for i in range(n_docs - n_dups):
        docs.append(Document(id=f"base{i:03d}", lang="en", text=" ".join(_random_words(rng, 250))))
    duplicates = []
    for j in range(n_dups):
        src = docs[j]
        tokens = src.text.split()
        for _ in range(2):  # 2 edits corrupt <= 10 of ~246 shingles: Jaccard >= 0.9
            pos = int(rng.integers(0, len(tokens)))
            tokens[pos] = f"edit{j}_{pos}"
        duplicates.append(Document(id=f"dup{j:03d}", lang="en", text=" ".join(tokens)))
    return docs, duplicates


def _dedup(docs, **params):
    """minlsh.dedup with DedupStage's defaults for the values not given."""
    return dedup(docs, **{**asdict(DedupStage()), **params})


def _drop_ids(dropped):
    """dedup's drops as (dropped id, kept id, estimate): a Document is unhashable."""
    return [(doc.id, kept.id, estimate) for doc, kept, estimate in dropped]


class TestDedup:
    def test_empty_corpus(self):
        assert _dedup([]) == ([], [])

    def test_all_identical_keeps_one(self):
        docs = [Document(id=f"d{i}", lang="en", text="same text repeated here okay") for i in range(5)]
        kept, dropped = _dedup(docs, shingle_n=2, seed=0, bands=8, rows=8, threshold=0.8)
        assert len(kept) == 1
        assert len(dropped) == 4
        assert all(rep is kept[0] for _, rep, _ in dropped)
        assert all(estimate == 1.0 for _, _, estimate in dropped)

    def test_all_disjoint_keeps_all(self):
        docs = [
            Document(id=f"d{i}", lang="en", text=" ".join(f"tok{i}_{j}" for j in range(30)))
            for i in range(10)
        ]
        kept, dropped = _dedup(docs, shingle_n=2, seed=0, bands=8, rows=8, threshold=0.8)
        assert len(kept) == 10
        assert dropped == []

    def test_partition_is_exact(self):
        docs = [Document(id=f"d{i}", lang="en", text=f"text number {i} with shared suffix tokens") for i in range(12)]
        kept, dropped = _dedup(docs, shingle_n=3, seed=1, bands=8, rows=8, threshold=0.8)
        assert {d.id for d in kept} | {doc.id for doc, _, _ in dropped} == {d.id for d in docs}
        assert not ({d.id for d in kept} & {doc.id for doc, _, _ in dropped})

    def test_planted_duplicates(self):
        rng = np.random.default_rng(505)
        base, dups = _planted_corpus(rng)
        docs = base + dups

        # oracle: exact all-pairs Jaccard over the same shingle sets
        sets = {d.id: frozenset(shingle(d.text, 5).tolist()) for d in docs}
        true_dup_pairs = set()
        for j, dup in enumerate(dups):
            truth = exact_jaccard(sets[dup.id], sets[base[j].id])
            assert truth >= 0.9, f"construction broke: {truth}"
            true_dup_pairs.add((base[j].id, dup.id))

        kept, dropped = _dedup(docs, shingle_n=5, seed=0, bands=16, rows=8, threshold=0.8)
        dropped_ids = {doc.id for doc, _, _ in dropped}

        removed_dup_count = sum(
            1 for left, right in true_dup_pairs if left in dropped_ids or right in dropped_ids
        )
        assert removed_dup_count >= 19

        # nothing with true Jaccard <= 0.3 against its kept partner was removed
        kept_ids = {d.id for d in kept}
        for doc, rep, estimate in dropped:
            truth = exact_jaccard(sets[doc.id], sets[rep.id])
            assert truth > 0.3, (doc.id, rep.id, estimate, truth)
        assert kept_ids | dropped_ids == {d.id for d in docs}

    def test_order_invariant_partition(self):
        rng = np.random.default_rng(77)
        base, dups = _planted_corpus(rng, n_docs=30, n_dups=8)
        docs = base + dups
        kept_a, dropped_a = _dedup(docs, shingle_n=5, seed=3, bands=16, rows=8)
        perm = [docs[i] for i in rng.permutation(len(docs))]
        kept_b, dropped_b = _dedup(perm, shingle_n=5, seed=3, bands=16, rows=8)
        assert {d.id for d in kept_a} == {d.id for d in kept_b}
        assert _drop_ids(dropped_a) == _drop_ids(dropped_b)

    def test_representative_prefers_quality_score(self):
        good = Document(id="zz", lang="en", text="alpha beta gamma delta", scores={"quality_composite": 0.9})
        bad = Document(id="aa", lang="en", text="alpha beta gamma delta", scores={"quality_composite": 0.2})
        kept, dropped = _dedup([bad, good], shingle_n=2, seed=0, bands=8, rows=8)
        assert [d.id for d in kept] == ["zz"]
        assert dropped[0][0].id == "aa"

    def test_representative_falls_back_to_length_then_id(self):
        long = Document(id="zz", lang="en", text="alpha beta gamma delta extra")
        short = Document(id="aa", lang="en", text="alpha beta gamma delta")
        kept, _ = _dedup([short, long], shingle_n=1, seed=0, bands=8, rows=8, threshold=0.5)
        assert [d.id for d in kept] == ["zz"]

    def test_bad_params_rejected(self):
        docs = [Document(id="a", lang="en", text="x y z")]
        with pytest.raises(TypeError):  # the signature length is bands x rows
            _dedup(docs, k=128)
        with pytest.raises(ValidationError):
            _dedup(docs, threshold=0.0)

    @pytest.mark.parametrize("params", [dict(bands=-1, rows=-128), dict(bands=0, rows=8),
                                        dict(bands=16, rows=0), dict(seed=-1)])
    def test_nonpositive_bands_rows_or_negative_seed_rejected(self, params):
        # b*r is 128 for b=-1, r=-128, and then no band is ever built
        for docs in ([], [Document(id="a", lang="en", text="x y z"), Document(id="b", lang="en", text="x y z")]):
            with pytest.raises(ValidationError):
                _dedup(docs, **params)

    @pytest.mark.parametrize("bands, rows", [(4097, 1), (1, 4097), (65, 64), (10**9, 10**9)])
    def test_signature_length_bounded(self, bands, rows):
        assert minlsh.MAX_SIGNATURE_LENGTH == 4096
        with pytest.raises(ValidationError, match=f"bands x rows must be <= 4096, got {bands}x{rows}"):
            _dedup([Document(id="a", lang="en", text="x y z")], bands=bands, rows=rows)

    def test_longest_signature_accepted(self):
        docs = [Document(id=f"d{i}", lang="en", text="x y z") for i in range(2)]
        kept, dropped = _dedup(docs, shingle_n=1, bands=64, rows=64)
        assert [d.id for d in kept] == ["d0"] and [doc.id for doc, _, _ in dropped] == ["d1"]

    def test_bucket_walk_skips_a_member_with_no_later_one_outside_its_component(self):
        rows = np.array([[1, 2, 3, 4], [5, 6, 7, 8], [5, 6, 7, 9]], dtype=np.uint64)
        uf = minlsh._UnionFind(3)
        uf.union(np.array([1, 2]))
        # member 0 matches neither later member, and member 1's only later
        # member is already in its component, so it has nothing to compare
        minlsh._merge_bucket(uf, rows, np.array([0, 1, 2]), threshold=0.5)
        assert uf.roots(np.arange(3)).tolist() == [0, 1, 1]

    @pytest.mark.parametrize("n_docs", [0, 1, 2, 5])
    def test_jobs_do_not_change_the_partition(self, n_docs, monkeypatch):
        """Each process signs its chunk into rows of its own, and the rows are
        stacked in input order. With three CPUs seen, 5 documents split 2 + 3
        at --jobs 2 and 1 + 2 + 2 at --jobs 3, so the near-duplicates at
        positions 1 and 3 are signed by different processes at both."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        texts = [" ".join(f"t{i}w{j}" for j in range(20)) for i in range(n_docs)]
        if n_docs == 5:
            texts[3] = texts[1].replace("t1w19", "x")  # shorter, so d1 is kept
        docs = [Document(id=f"d{i}", lang="en", text=text) for i, text in enumerate(texts)]
        runs = [_dedup(docs, shingle_n=2, bands=16, rows=4, threshold=0.7, jobs=jobs) for jobs in (1, 2, 3)]
        assert runs[1:] == [runs[0]] * 2
        assert [doc.id for doc, _, _ in runs[0][1]] == (["d3"] if n_docs == 5 else [])


_VOCAB = [f"v{i}" for i in range(30)]


def _reference_dedup(docs, n, k, seed, b, r, threshold):
    """Brute force over every pair of docs: a pair that shares an exact band and
    estimates at or above the threshold is merged; each cluster keeps its
    first member in `_preference` order."""
    a, c = hash_params(k, seed)
    sigs = []
    for doc in docs:
        tokens = doc.text.split()
        grams = {" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)} or {doc.text}
        xs = np.array([_blake64(g) for g in grams], dtype=np.uint64)
        sigs.append([int(v) for v in _minhash_py.min_hash(xs, a, c)])

    def estimate(i, j):
        return sum(x == y for x, y in zip(sigs[i], sigs[j])) / k

    parent = list(range(len(docs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(docs)):
        for j in range(i + 1, len(docs)):
            share = any(sigs[i][band * r : (band + 1) * r] == sigs[j][band * r : (band + 1) * r] for band in range(b))
            if share and estimate(i, j) >= threshold:
                parent[find(j)] = find(i)
    clusters = {}
    for i in range(len(docs)):
        clusters.setdefault(find(i), []).append(i)
    kept_ids, drops = set(), []
    for members in clusters.values():
        rep = min((docs[i] for i in members), key=minlsh._preference)
        rep_i = next(i for i in members if docs[i] is rep)
        kept_ids.add(rep.id)
        drops += [(docs[i].id, rep.id, estimate(i, rep_i)) for i in members if i != rep_i]
    return [d for d in docs if d.id in kept_ids], sorted(drops)


@st.composite
def _corpora(draw):
    """Groups of identical docs, near-duplicates of one base with one token
    edited, and unique docs, in shuffled order; some carry a quality score."""
    texts = []
    for kind in draw(st.lists(st.sampled_from(["identical", "near", "unique"]), min_size=1, max_size=4)):
        base = draw(st.lists(st.sampled_from(_VOCAB), min_size=2, max_size=12))
        for _ in range(draw(st.integers(1, 6))):
            tokens = list(base)
            if kind == "near":
                tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_VOCAB))
            elif kind == "unique":
                tokens = draw(st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=12))
            texts.append(" ".join(tokens))
    scores = [draw(st.sampled_from([{}, {"quality_composite": 0.2}, {"quality_composite": 0.5}])) for _ in texts]
    docs = [Document(id=f"d{i:02d}", lang="en", text=text, scores=score)
            for i, (text, score) in enumerate(zip(texts, scores))]
    return draw(st.permutations(docs))


class TestDifferential:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(docs=_corpora(), n=st.integers(1, 3), bands_rows=st.sampled_from([(4, 2), (8, 2), (4, 4), (16, 1)]),
           threshold=st.sampled_from([0.5, 0.75, 0.8, 1.0]), seed=st.integers(0, 3))
    def test_dedup_matches_brute_force(self, docs, n, bands_rows, threshold, seed):
        b, r = bands_rows
        kept, dropped = dedup(docs, shingle_n=n, seed=seed, bands=b, rows=r, threshold=threshold, unit="word")
        ref_kept, ref_dropped = _reference_dedup(docs, n, b * r, seed, b, r, threshold)
        assert [d.id for d in kept] == [d.id for d in ref_kept]
        assert _drop_ids(dropped) == ref_dropped
        assert all(type(estimate) is float for _, _, estimate in dropped)


# a block of letters of each script written without spaces
_LETTERS = {"zh": (0x4E00, 0x9FFF), "zh-Hant": (0x4E00, 0x9FFF), "yue": (0x4E00, 0x9FFF), "ja": (0x3041, 0x3096),
            "th": (0x0E01, 0x0E2E), "km": (0x1780, 0x17B3), "my": (0x1000, 0x102A), "bo": (0x0F40, 0x0F6C)}


class TestUnspacedScripts:
    """Word shingles of a script written without spaces are codepoint
    n-grams, so its near-copies collapse as those of a spaced script do."""

    def test_every_unspaced_tag_has_letters(self):
        assert set(_LETTERS) == NO_SPACE_TAGS

    @pytest.mark.parametrize("lang", sorted(NO_SPACE_TAGS))
    def test_near_duplicate_flood_collapses_under_defaults(self, lang):
        rng = random.Random(lang)
        letters = [chr(c) for c in range(_LETTERS[lang][0], _LETTERS[lang][1] + 1)]
        base = [rng.choice(letters) for _ in range(200)]
        docs = []
        for i in range(50):  # one letter edited per copy: Jaccard about 0.95 to the base, 0.9 to another copy
            text = list(base)
            pos = rng.randrange(len(text))
            text[pos] = rng.choice([ch for ch in letters if ch != text[pos]])
            docs.append(Document(id=f"d{i:02d}", lang=lang, text="".join(text)))
        # whitespace units would give each copy one whole-text shingle
        assert all(len(shingle(doc.text, 5)) == 1 for doc in docs)
        kept, dropped = _dedup(docs)
        assert (len(kept), len(dropped)) == (1, 49)

    def test_zh_pair_with_its_last_letter_edited_is_dropped(self):
        text = "".join(chr(0x4E00 + 37 * i) for i in range(32))
        docs = [Document(id="a", lang="zh", text=text), Document(id="b", lang="zh", text=text[:-1] + "好")]
        kept, dropped = _dedup(docs, shingle_n=3, bands=32, rows=4, threshold=0.6)
        assert [doc.id for doc in kept] == ["a"]
        assert [(doc.id, rep.id) for doc, rep, _ in dropped] == [("b", "a")]
        assert dropped[0][2] > 0.8


_FLOOD = """
import json, resource, sys
from mtforge import minlsh
from mtforge.corpus import Document

kind, n_docs = sys.argv[1], int(sys.argv[2])
base = [f"w{i}" for i in range(100)]
texts = []
for i in range(n_docs):
    if kind == "near":  # one edited token in 100: every pair's Jaccard is above 0.9
        tokens = list(base)
        tokens[i % 100] = f"edit{i}"
    else:
        tokens = base[:20]
    texts.append(" ".join(tokens))
docs = [Document(id=f"d{i:05d}", lang="en", text=text) for i, text in enumerate(texts)]
counts = {"calls": 0, "rows": 0}
estimate = minlsh.estimate_jaccard

def counting(rows, row):
    counts["calls"] += 1
    counts["rows"] += len(rows) if rows.ndim == 2 else 1
    return estimate(rows, row)

minlsh.estimate_jaccard = counting
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
kept, dropped = minlsh.dedup(docs, shingle_n=2, bands=16, rows=8, threshold=0.8, unit="word", seed=0)
growth_mib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
print(json.dumps(dict(counts, kept=len(kept), dropped=len(dropped), growth_mib=growth_mib)))
"""


class TestFloods:
    """Floods bound the work dedup does, counted as signature rows compared,
    and its memory, not its wall time."""

    @staticmethod
    def run_flood(kind, n_docs):
        src = Path(minlsh.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", _FLOOD, kind, str(n_docs)], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_identical_flood_compares_a_handful_of_rows(self):
        got = self.run_flood("identical", 10_000)
        assert (got["kept"], got["dropped"]) == (1, 9_999)
        assert got["rows"] <= 5
        assert got["growth_mib"] < 100

    def test_near_duplicate_flood_compares_linearly_many_rows(self):
        n_docs, bands = 2_000, 16
        got = self.run_flood("near", n_docs)
        assert (got["kept"], got["dropped"]) == (1, n_docs - 1)
        # every pair confirms, so a pairwise walk would compare about n^2/2 = 2,000,000 rows
        assert got["rows"] <= n_docs * bands
        assert got["growth_mib"] < 100
