import numpy as np
import pytest

from mtforge import _minhash_py, minlsh
from mtforge.corpus import Document
from mtforge.errors import ValidationError
from mtforge.minlsh import (
    KERNEL_BACKEND,
    LshIndex,
    MERSENNE61,
    MinHashSignature,
    collide,
    dedup,
    estimate_jaccard,
    hash64,
    hash_params,
    shingle,
    signature,
)


def exact_jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Brute-force set arithmetic oracle."""
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def synthetic_pair(rng, intersection: int, union: int) -> tuple[frozenset[int], frozenset[int]]:
    """Two shingle sets with exactly the requested overlap."""
    only_a = (union - intersection) // 2
    only_b = union - intersection - only_a
    values = [int(v) for v in rng.integers(0, MERSENNE61, size=union + 64)]
    values = list(dict.fromkeys(values))[:union]
    assert len(values) == union
    shared = values[:intersection]
    a = frozenset(shared + values[intersection : intersection + only_a])
    b = frozenset(shared + values[intersection + only_a :])
    return a, b


class TestShingle:
    def test_two_token_bigrams(self):
        got = shingle("a b c", 2)
        assert got == frozenset({hash64("a b"), hash64("b c")})

    def test_deterministic(self):
        assert shingle("x y z", 2) == shingle("x y z", 2)

    def test_set_semantics(self):
        assert len(shingle("a a a a", 2)) == 1

    def test_short_text_whole_text_shingle(self):
        got = shingle("only two", 5)
        assert got == frozenset({hash64("only two")})

    def test_char_unit(self):
        got = shingle("abc", 2, unit="char")
        assert got == frozenset({hash64("ab"), hash64("bc")})


class TestSignature:
    def test_equal_sets_equal_signatures(self):
        a = shingle("the quick brown fox", 2)
        assert signature(a, 64, seed=7) == signature(a, 64, seed=7)

    def test_self_similarity_is_one(self):
        sig = signature(shingle("alpha beta gamma", 1), 128, seed=3)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_empty_shingle_set_rejected(self):
        with pytest.raises(ValidationError):
            signature(frozenset(), 16, seed=0)

    def test_mismatched_seed_rejected(self):
        s = shingle("a b c", 1)
        with pytest.raises(ValidationError):
            estimate_jaccard(signature(s, 16, seed=0), signature(s, 16, seed=1))

    def test_known_overlap_estimate(self):
        rng = np.random.default_rng(11)
        a, b = synthetic_pair(rng, intersection=50, union=100)
        assert exact_jaccard(a, b) == 0.5
        est = estimate_jaccard(signature(a, 256, seed=5), signature(b, 256, seed=5))
        assert abs(est - 0.5) <= 0.10  # 3*sqrt(0.25/256) ~ 0.094

    def test_disjoint_sets_estimate_near_zero(self):
        rng = np.random.default_rng(12)
        a, b = synthetic_pair(rng, intersection=0, union=120)
        est = estimate_jaccard(signature(a, 256, seed=5), signature(b, 256, seed=5))
        assert est <= 0.05

    def test_mean_error_over_200_pairs(self):
        rng = np.random.default_rng(2024)
        errors = []
        for _ in range(200):
            union = int(rng.integers(40, 200))
            intersection = int(rng.integers(0, union + 1))
            a, b = synthetic_pair(rng, intersection, union)
            est = estimate_jaccard(signature(a, 256, seed=9), signature(b, 256, seed=9))
            errors.append(abs(est - exact_jaccard(a, b)))
        assert sum(errors) / len(errors) <= 0.03
        assert max(errors) <= 0.12

    def test_unbiased_over_seeds(self):
        rng = np.random.default_rng(31)
        a, b = synthetic_pair(rng, intersection=30, union=60)
        true = exact_jaccard(a, b)
        estimates = [
            estimate_jaccard(signature(a, 128, seed=s), signature(b, 128, seed=s))
            for s in range(64)
        ]
        assert abs(sum(estimates) / len(estimates) - true) <= 0.02


class TestKernelBackends:
    def test_backend_reported(self):
        assert KERNEL_BACKEND == "numpy"
        assert minlsh._kernel is _minhash_py

    def test_numpy_matches_bigint_reference(self):
        def check(xs, a, b):
            got = _minhash_py.min_hash(xs, a, b)
            ref = [
                min((int(ai) * (int(x) % MERSENNE61) + int(bi)) % MERSENNE61 for x in xs)
                for ai, bi in zip(a, b)
            ]
            assert [int(v) for v in got] == ref

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

    def test_hash_params_shared_and_read_only(self):
        a, b = hash_params(16, 3)
        assert hash_params(16, 3)[0] is a
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            b[0] = 1


class TestLsh:
    def test_indexed_in_exactly_b_buckets(self):
        sig = signature(shingle("one two three four five six", 2), 128, seed=1)
        index = LshIndex(bands=16, rows_per_band=8)
        index.insert("doc", sig)
        assert sum("doc" in members for members in index.buckets.values()) == 16

    def test_band_mismatch_rejected(self):
        sig = signature(shingle("a b", 1), 128, seed=1)
        with pytest.raises(ValidationError):
            LshIndex(bands=10, rows_per_band=10).insert("doc", sig)

    @pytest.mark.parametrize("s", [0.2, 0.7, 0.95])
    def test_collision_curve(self, s):
        # simulate signature pairs agreeing per-position with probability s
        rng = np.random.default_rng(int(s * 1000))
        b, r, k = 16, 8, 128
        hits = 0
        trials = 2000
        for _ in range(trials):
            base = rng.integers(0, MERSENNE61, size=k, dtype=np.uint64)
            other = base.copy()
            flip = rng.random(k) >= s
            other[flip] = (other[flip] + 1 + rng.integers(0, 1000, size=int(flip.sum()), dtype=np.uint64)) % np.uint64(MERSENNE61)
            sig_a = MinHashSignature(tuple(int(v) for v in base), seed=0, k=k)
            sig_b = MinHashSignature(tuple(int(v) for v in other), seed=0, k=k)
            hits += collide(sig_a, sig_b, b, r)
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


class TestDedup:
    def test_all_identical_keeps_one(self):
        docs = [Document(id=f"d{i}", lang="en", text="same text repeated here okay") for i in range(5)]
        kept, dropped = dedup(docs, n=2, k=64, seed=0, b=8, r=8, jaccard_threshold=0.8)
        assert len(kept) == 1
        assert len(dropped) == 4
        assert all(rec.kept_id == kept[0].id for rec in dropped)
        assert all(rec.estimated_jaccard == 1.0 for rec in dropped)

    def test_all_disjoint_keeps_all(self):
        docs = [
            Document(id=f"d{i}", lang="en", text=" ".join(f"tok{i}_{j}" for j in range(30)))
            for i in range(10)
        ]
        kept, dropped = dedup(docs, n=2, k=64, seed=0, b=8, r=8, jaccard_threshold=0.8)
        assert len(kept) == 10
        assert dropped == []

    def test_partition_is_exact(self):
        docs = [Document(id=f"d{i}", lang="en", text=f"text number {i} with shared suffix tokens") for i in range(12)]
        kept, dropped = dedup(docs, n=3, k=64, seed=1, b=8, r=8, jaccard_threshold=0.8)
        assert {d.id for d in kept} | {rec.dropped_id for rec in dropped} == {d.id for d in docs}
        assert not ({d.id for d in kept} & {rec.dropped_id for rec in dropped})

    def test_planted_duplicates(self):
        rng = np.random.default_rng(505)
        base, dups = _planted_corpus(rng)
        docs = base + dups

        # oracle: exact all-pairs Jaccard over the same shingle sets
        sets = {d.id: shingle(d.text, 5) for d in docs}
        true_dup_pairs = set()
        for j, dup in enumerate(dups):
            truth = exact_jaccard(sets[dup.id], sets[base[j].id])
            assert truth >= 0.9, f"construction broke: {truth}"
            true_dup_pairs.add((base[j].id, dup.id))

        kept, dropped = dedup(docs, n=5, k=128, seed=0, b=16, r=8, jaccard_threshold=0.8)
        dropped_ids = {rec.dropped_id for rec in dropped}

        removed_dup_count = sum(
            1 for left, right in true_dup_pairs if left in dropped_ids or right in dropped_ids
        )
        assert removed_dup_count >= 19

        # nothing with true Jaccard <= 0.3 against its kept partner was removed
        kept_ids = {d.id for d in kept}
        for rec in dropped:
            truth = exact_jaccard(sets[rec.dropped_id], sets[rec.kept_id])
            assert truth > 0.3, (rec, truth)
        assert kept_ids | dropped_ids == {d.id for d in docs}

    def test_order_invariant_partition(self):
        rng = np.random.default_rng(77)
        base, dups = _planted_corpus(rng, n_docs=30, n_dups=8)
        docs = base + dups
        kept_a, dropped_a = dedup(docs, n=5, k=128, seed=3, b=16, r=8)
        perm = [docs[i] for i in rng.permutation(len(docs))]
        kept_b, dropped_b = dedup(perm, n=5, k=128, seed=3, b=16, r=8)
        assert {d.id for d in kept_a} == {d.id for d in kept_b}
        assert sorted(dropped_a) == sorted(dropped_b)

    def test_representative_prefers_quality_score(self):
        good = Document(id="zz", lang="en", text="alpha beta gamma delta", scores={"quality_composite": 0.9})
        bad = Document(id="aa", lang="en", text="alpha beta gamma delta", scores={"quality_composite": 0.2})
        kept, dropped = dedup([bad, good], n=2, k=64, seed=0, b=8, r=8)
        assert [d.id for d in kept] == ["zz"]
        assert dropped[0].dropped_id == "aa"

    def test_representative_falls_back_to_length_then_id(self):
        long = Document(id="zz", lang="en", text="alpha beta gamma delta extra")
        short = Document(id="aa", lang="en", text="alpha beta gamma delta")
        kept, _ = dedup([short, long], n=1, k=64, seed=0, b=8, r=8, jaccard_threshold=0.5)
        assert [d.id for d in kept] == ["zz"]

    def test_bad_params_rejected(self):
        docs = [Document(id="a", lang="en", text="x y z")]
        with pytest.raises(ValidationError):
            dedup(docs, k=100, b=16, r=8)
        with pytest.raises(ValidationError):
            dedup(docs, jaccard_threshold=0.0)

    @pytest.mark.parametrize("params", [dict(b=-1, r=-128), dict(b=0, r=8, k=0), dict(b=16, r=0, k=0),
                                        dict(seed=-1)])
    def test_nonpositive_bands_rows_or_negative_seed_rejected(self, params):
        # b*r == k alone lets b=-1, r=-128 through, and then no band is ever built
        for docs in ([], [Document(id="a", lang="en", text="x y z"), Document(id="b", lang="en", text="x y z")]):
            with pytest.raises(ValidationError):
                dedup(docs, **params)
