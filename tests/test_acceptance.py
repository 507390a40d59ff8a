"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are pinned here, not configurable.
"""

import json

import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from mtforge.backends import register_mock_backend
from mtforge.chimera import render_fusion_prompt, render_translation_prompt
from mtforge.cli import main as cli_main
from mtforge.corpus import Document, write_corpus
from mtforge.evalkit import chrf
from mtforge.filters import PerplexityStage, QualityDimensions, WeightProfile, composite_quality
from mtforge.minlsh import (
    MERSENNE61,
    LshIndex,
    dedup,
    estimate_jaccard,
    shingle,
)
from mtforge.mixopt import LrSchedule, MixtureSpec, blend_replay, fit_regression, lr_at, optimize_mixture, sample_mixtures, ProxyRun
from mtforge.ngram_lm import UNK, perplexity, train_lm
from mtforge.rewards import grpo_advantages, load_term_table, repetition_score, terminology_reward

from fusion_prompt import parse_fusion_prompt
from minhash_oracles import exact_jaccard, sign, synthetic_pair
from ngram_probs import prob, seen_contexts

GOLDENS = Path(__file__).parent / "goldens"
DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number:02d}: {description}")
        raise
    print(f"[PASS] criterion {number:02d}: {description}")


def test_criterion_01_minhash_accuracy():
    with criterion(1, "MinHash estimate error over 200 known-Jaccard pairs (k=256)"):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        errors = []
        for _ in range(200):
            union = int(rng.integers(40, 200))
            intersection = int(rng.integers(0, union + 1))
            a, b = synthetic_pair(rng, intersection, union)
            est = estimate_jaccard(sign(a, 256, seed=9), sign(b, 256, seed=9))
            errors.append(abs(est - exact_jaccard(a, b)))
        elapsed = time.monotonic() - start
        assert sum(errors) / len(errors) <= 0.03, f"mean error {sum(errors)/len(errors):.4f}"
        assert max(errors) <= 0.12, f"max error {max(errors):.4f}"
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_02_dedup_end_to_end():
    with criterion(2, "dedup removes >=19/20 planted near-duplicates, no false removals"):
        rng = np.random.default_rng(505)
        start = time.monotonic()
        base = [
            Document(id=f"base{i:03d}", lang="en",
                     text=" ".join(f"w{int(v)}" for v in rng.integers(0, 5000, 250)))
            for i in range(80)
        ]
        dups = []
        for j in range(20):
            tokens = base[j].text.split()
            for _ in range(2):
                tokens[int(rng.integers(0, len(tokens)))] = f"edit{j}_{int(rng.integers(0, 99))}"
            dups.append(Document(id=f"dup{j:03d}", lang="en", text=" ".join(tokens)))
        docs = base + dups
        sets = {d.id: frozenset(shingle(d.text, 5).tolist()) for d in docs}
        for j, dup in enumerate(dups):
            assert exact_jaccard(sets[dup.id], sets[base[j].id]) >= 0.9

        kept, dropped = dedup(docs, shingle_n=5, seed=0, bands=16, rows=8, threshold=0.8, unit="word")
        elapsed = time.monotonic() - start
        dropped_ids = {rec.dropped_id for rec in dropped}
        removed = sum(
            1 for j in range(20) if dups[j].id in dropped_ids or base[j].id in dropped_ids
        )
        assert removed >= 19, f"removed only {removed}/20 planted duplicates"
        for rec in dropped:
            truth = exact_jaccard(sets[rec.dropped_id], sets[rec.kept_id])
            assert truth > 0.3, f"removed pair with true Jaccard {truth:.3f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_03_lsh_collision_curve():
    with criterion(3, "band collision rate within 0.05 of 1-(1-s^8)^16 at s in {0.2, 0.7, 0.95}"):
        b, r, k = 16, 8, 128
        index = LshIndex(bands=b, rows_per_band=r)
        for s in (0.2, 0.7, 0.95):
            rng = np.random.default_rng(int(s * 1000))
            hits = 0
            for _ in range(2000):
                sig = rng.integers(0, MERSENNE61, size=k, dtype=np.uint64)
                other = sig.copy()
                flip = rng.random(k) >= s
                other[flip] = (other[flip] + 1 + rng.integers(0, 1000, size=int(flip.sum()), dtype=np.uint64)) % np.uint64(MERSENNE61)
                index.insert(np.stack([sig, other]))
                hits += bool(index.candidate_pairs())
            expected = 1 - (1 - s**r) ** b
            assert abs(hits / 2000 - expected) <= 0.05, f"s={s}: {hits/2000:.4f} vs {expected:.4f}"


def test_criterion_04_kneser_ney_normalization_and_oracles():
    with criterion(4, "KN sums to 1 at 100 contexts; P(cat|the)=0.2525; uniform PPL=|V|"):
        docs = [Document(id=f"d{i}", lang="en", text=t) for i, t in enumerate(
            ["the cat sat on the mat", "a dog sat on a log", "the dog ate the bone",
             "a cat and a dog", "the mat was flat"]
        )]
        lm = train_lm(docs, order=3, discount=0.75)
        rng = random.Random(4)
        words = sorted(lm.vocab)
        seen = seen_contexts(lm)
        contexts = [seen[rng.randrange(len(seen))] for _ in range(50)]
        contexts += [
            (rng.choice(words + ["zzz"]), rng.choice(words + ["qqq"])) for _ in range(50)
        ]
        for ctx in contexts:
            total = sum(prob(lm, w, ctx) for w in lm.vocab)
            assert abs(total - 1.0) <= 1e-9, (ctx, total)

        toy = train_lm(
            [Document(id="1", lang="en", text="the cat"), Document(id="2", lang="en", text="the dog")],
            order=2, discount=0.75,
        )
        assert abs(prob(toy, "cat", ("the",)) - 0.2525) <= 1e-9

        uniform = train_lm([Document(id=str(i), lang="en", text="a b c") for i in range(5)],
                           order=1, discount=0.0)
        assert prob(uniform, UNK) == 0.0
        vocab_size = len(uniform.vocab) - 1  # UNK carries no mass in this configuration
        assert abs(perplexity(uniform, "a b c") - vocab_size) <= 1e-9
        assert vocab_size == 4


def test_criterion_05_perplexity_filter_drops_gibberish():
    with criterion(5, "percentile-0.9 filter drops >=9/10 planted gibberish docs"):
        rng = random.Random(17)
        phrases = [
            "the quick brown fox jumps over the lazy dog",
            "a stitch in time saves nine every single day",
            "practice makes perfect when the work is steady",
        ]
        natural = [Document(id=f"n{i}", lang="en", text=phrases[i % 3]) for i in range(90)]
        vocab = [f"word{i}" for i in range(30)]
        gibberish = [
            Document(id=f"g{i}", lang="en", text=" ".join(rng.choice(vocab) for _ in range(9)))
            for i in range(10)
        ]
        lm = train_lm(natural, order=3, discount=0.75)
        _, dropped, _ = PerplexityStage(lm, mode="percentile", q=0.9).apply(natural + gibberish)
        dropped_ids = {doc.id for doc, _, _ in dropped}
        assert sum(1 for g in gibberish if g.id in dropped_ids) >= 9


def test_criterion_06_mixture_optimizer_recovers_optimum():
    with criterion(6, "optimizer within L1 0.05 of (0.2, 0.3, 0.5) from 512 noisy runs"):
        start = time.monotonic()
        target = np.array([0.2, 0.3, 0.5])
        mixtures = sample_mixtures(("a", "b", "c"), 512, seed=11)
        noise_rng = np.random.default_rng(12)
        runs = [
            ProxyRun(m, float(np.sum((np.array(m.weights) - target) ** 2) + noise_rng.normal(0, 0.01)))
            for m in mixtures
        ]
        model = fit_regression(runs, ridge_lambda=0.0)
        best = optimize_mixture(model, 65536, seed=13)
        elapsed = time.monotonic() - start
        l1 = float(np.abs(np.array(best.weights) - target).sum())
        assert l1 <= 0.05, f"L1 distance {l1:.4f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_07_lr_schedule_boundaries():
    with criterion(7, "lr_at hits peak/min exactly; cosine midpoint = (peak+min)/2"):
        schedule = LrSchedule(warmup_steps=100, total_steps=1100, peak_lr=3e-4, min_lr=3e-5)
        assert lr_at(schedule, 100) == 3e-4
        assert lr_at(schedule, 1100) == 3e-5
        mid = 100 + (1100 - 100) // 2
        assert abs(lr_at(schedule, mid) - (3e-4 + 3e-5) / 2) <= 1e-9


def test_criterion_08_replay_blend():
    with criterion(8, "blending 20% replay into (0.5, 0.5) gives exactly (0.2, 0.4, 0.4)"):
        blended = blend_replay(MixtureSpec(("mt", "web"), (0.5, 0.5)), 0.2, "replay")
        assert blended.weights == (0.2, 0.4, 0.4)
        assert blended.domains == ("replay", "mt", "web")


def test_criterion_09_grpo_advantages():
    with criterion(9, "1000 random groups: zero mean, unit std, shift invariance, argmax kept"):
        rng = np.random.default_rng(90)
        for _ in range(1000):
            size = int(rng.integers(2, 17))
            rewards = rng.uniform(0, 1, size=size)
            while rewards.std() < 1e-2:  # avoid the epsilon-dominated corner
                rewards = rng.uniform(0, 1, size=size)
            adv = np.array(grpo_advantages(list(rewards)))
            assert abs(adv.sum()) <= 1e-9
            assert abs(adv.std() - 1.0) <= 1e-6
            assert int(np.argmax(adv)) == int(np.argmax(rewards))
            shift = float(rng.uniform(-2, 2))
            shifted = np.array(grpo_advantages(list(rewards + shift)))
            assert np.all(np.abs(shifted - adv) <= 1e-9)


def test_criterion_10_repetition_detector():
    with criterion(10, "flags 50/50 repetitive strings and 0/100 clean sentences"):
        rng = np.random.default_rng(51)
        vocab = [f"tok{i}" for i in range(200)]
        flagged = 0
        for i in range(50):
            if i % 2:
                phrase, repeats = str(rng.choice(vocab)), 6
            else:
                phrase, repeats = " ".join(rng.choice(vocab, size=int(rng.integers(2, 5)))), 3
            filler_a = " ".join(rng.choice(vocab, size=6))
            filler_b = " ".join(rng.choice(vocab, size=6))
            flagged += repetition_score(f"{filler_a} {' '.join([phrase] * repeats)} {filler_b}")
        assert flagged == 50, f"flagged {flagged}/50"

        clean_hits = 0
        for i in range(100):
            tokens = rng.permutation(vocab)[:12]
            clean_hits += repetition_score(" ".join(tokens))
        assert clean_hits == 0, f"false-flagged {clean_hits}/100"


def test_criterion_11_terminology_reward_case_study():
    with criterion(11, "medical case: 'blood disorders' scores 1.0, 'blood diseases' 0.0"):
        table = load_term_table(DATA / "terms_medical.json")
        source = "已知有血液疾病及尿酸性肾结石的患者不推荐使用本品，二岁以下儿童不得服用。"
        good = (
            "This product is not recommended for patients with known blood disorders or "
            "uric acid kidney stones, and it should not be taken by children under the age of two."
        )
        bad = (
            "Patients with known blood diseases and uricidal kidney stones are not recommended "
            "for use, and children under two years of age are not allowed to take it."
        )
        assert terminology_reward(source, good, table) == 1.0
        assert terminology_reward(source, bad, table) == 0.0


def test_criterion_12_prompt_goldens_and_round_trip():
    with criterion(12, "prompt renders are byte-identical to goldens; 200 round-trips recover"):
        assert render_translation_prompt("zh", "en", "你好").encode("utf-8") == (
            GOLDENS / "translation_zh_to_en.txt"
        ).read_bytes()
        assert render_translation_prompt("fr", "de", "Bonjour").encode("utf-8") == (
            GOLDENS / "translation_fr_to_de.txt"
        ).read_bytes()
        candidates6 = [
            "But he may not be able to attend.",
            "However, he might not make it.",
            "But he is not certain to be present.",
            "But he may not necessarily show up.",
            "However, he may not be able to come.",
            "But there is no guarantee he will attend.",
        ]
        assert render_fusion_prompt("zh", "en", "但他不一定能到场。", candidates6).encode("utf-8") == (
            GOLDENS / "fusion_n6.txt"
        ).read_bytes()

        rng = random.Random(42)
        alphabet = "ab `\n`xyz汉字éü.!？"
        for _ in range(200):
            n = rng.randint(2, 7)
            candidates = [
                "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30))) for _ in range(n)
            ]
            source = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))
            _, _, got_source, got = parse_fusion_prompt(
                render_fusion_prompt("ja", "ko", source, candidates)
            )
            assert got_source == source and got == candidates


def test_criterion_13_chrf_oracle_equivalence():
    with criterion(13, "chrF matches the brute-force oracle (1e-6); chrf(s,s)=100"):
        from test_evalkit import chrf_oracle

        rng = random.Random(1234)
        alphabet = "abcde ABC漢字áé!"
        for _ in range(50):
            hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
            ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40))) or "x"
            if not ref.strip():
                ref = "x"
            assert abs(chrf(hyp, ref) - chrf_oracle(hyp, ref)) <= 1e-6

        for _ in range(100):
            s = "".join(chr(rng.randint(0x21, 0x9FFF)) for _ in range(rng.randint(1, 30)))
            assert chrf(s, s) == 100.0


def test_criterion_14_composite_quality_properties():
    with criterion(14, "composite quality: scale invariance + monotonicity over 1000 draws"):
        rng = random.Random(7)
        for _ in range(1000):
            dims = QualityDimensions(rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
            weights = [rng.uniform(0.01, 5) for _ in range(3)]
            profile = WeightProfile("other", *weights)
            value = composite_quality(dims, profile)
            scale = rng.uniform(0.1, 50)
            scaled = WeightProfile("other", *(w * scale for w in weights))
            assert abs(composite_quality(dims, scaled) - value) <= 1e-12
            bump = rng.randrange(3)
            raised = [dims.knowledge_value, dims.authenticity, dims.writing_style]
            raised[bump] = min(2, raised[bump] + 1)
            assert composite_quality(QualityDimensions(*raised), profile) >= value - 1e-12
        assert composite_quality(QualityDimensions(2, 2, 2), WeightProfile("other", 1, 2, 3)) == 1.0
        assert composite_quality(QualityDimensions(0, 0, 0), WeightProfile("other", 1, 2, 3)) == 0.0


def test_criterion_15_end_to_end_orchestration(tmp_path):
    with criterion(15, "pipeline-run and fuse complete against mocks, deterministically"):
        # pipeline over a small mixed corpus
        labeled = [Document(id=f"e{i}", lang="en", text="the cat sat on the mat") for i in range(3)]
        labeled += [Document(id=f"f{i}", lang="fr", text="le chat est sur le tapis") for i in range(3)]
        labeled_path = tmp_path / "labeled.jsonl"
        write_corpus(labeled, labeled_path)
        langid_model = tmp_path / "langid.json"
        assert cli_main(["langid-train", "--in", str(labeled_path), "--model", str(langid_model)]) == 0

        natural = [
            Document(id=f"n{i}", lang="en", text="the quick brown fox jumps over the lazy dog")
            for i in range(20)
        ]
        lm_path = tmp_path / "lm.txt"
        lm_train_path = tmp_path / "lm_train.jsonl"
        write_corpus(natural, lm_train_path)
        assert cli_main(["lm-train", "--in", str(lm_train_path), "--model", str(lm_path), "--order", "2"]) == 0

        corpus = natural[:10]
        corpus += [Document(id="fr_doc", lang="en", text="le chat est sur le tapis")]
        corpus += [Document(id="dupe", lang="en", text=natural[0].text)]
        corpus_path = tmp_path / "corpus.jsonl"
        write_corpus(corpus, corpus_path)
        config = {
            "schema_version": 1,
            "kind": "mono",
            "input": str(corpus_path),
            "output": str(tmp_path / "final.jsonl"),
            "seed": 3,
            "stages": [
                {"type": "langid", "model": str(langid_model), "expected": "en"},
                {"type": "dedup", "shingle_n": 2, "bands": 8, "rows": 8},
                {"type": "perplexity", "model": str(lm_path), "mode": "percentile", "q": 0.95},
            ],
        }
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config))
        report_a = tmp_path / "ra.json"
        assert cli_main(["pipeline-run", "--config", str(config_path), "--report", str(report_a)]) == 0
        final_bytes = (tmp_path / "final.jsonl").read_bytes()
        report = json.loads(report_a.read_text())
        for stage in report["stages"]:
            assert stage["input_count"] == stage["kept"] + stage["dropped"] + stage["unscored"]
        report_b = tmp_path / "rb.json"
        assert cli_main(["pipeline-run", "--config", str(config_path), "--report", str(report_b)]) == 0
        assert (tmp_path / "final.jsonl").read_bytes() == final_bytes
        assert report_a.read_bytes() == report_b.read_bytes()

        # fuse against the in-repo mock backend
        register_mock_backend("accept15", lambda p, params, m: f"hyp-T{params.temperature:g}-s{params.seed}")
        chimera_config = {
            "schema_version": 1,
            "backend": {"name": "gen", "endpoint": "mock:accept15", "model_id": "weak"},
            "fusion_backend": {"name": "fuse", "endpoint": "mock:echo", "model_id": "strong"},
        }
        chimera_path = tmp_path / "chimera.json"
        chimera_path.write_text(json.dumps(chimera_config))
        sources_path = tmp_path / "sources.jsonl"
        sources_path.write_text(
            json.dumps({"id": "s1", "src_lang": "zh", "tgt_lang": "en", "text": "你好"}) + "\n"
        )
        fused_a = tmp_path / "fa.jsonl"
        assert cli_main(["fuse", "--config", str(chimera_path), "--in", str(sources_path),
                         "--out", str(fused_a), "--seed", "1"]) == 0
        fused_b = tmp_path / "fb.jsonl"
        assert cli_main(["fuse", "--config", str(chimera_path), "--in", str(sources_path),
                         "--out", str(fused_b), "--seed", "1"]) == 0
        assert fused_a.read_bytes() == fused_b.read_bytes()
        row = json.loads(fused_a.read_text())
        assert row["fused"] and len(row["candidates"]) == 6 and row["fallback_used"] is False
