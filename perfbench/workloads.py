"""The four benchmark workloads: inputs, CLI commands and output oracles.

Each workload is a closed loop: one batch CLI job (or, for score-parallel,
three) over files generated from the seed. `prepare` writes the inputs,
`setup` lists the one-time preparation commands, `commands` lists the
measured pass, and `check` verifies a pass's outputs. BENCHMARK.json
records why each workload was chosen.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import inputs
from loopback import LoopbackServer, ServerState
from oracles import Verdict, chrf_reference, close, is_subsequence, read_rows, shingle_jaccard

HELP = [["--help"]]  # the set-up every command pays: interpreter start and import


class Workload:
    name = ""
    uses_server = False
    # per-layer span names that must be non-empty on this workload's traced run
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path, jobs: int, server: LoopbackServer | None):
        self.seed = seed
        self.work = work
        self.jobs = jobs
        self.server = server
        self.records = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self) -> list[list[str]]:
        return HELP

    def commands(self, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def outputs(self, out: Path) -> list[Path]:
        raise NotImplementedError

    def check(self, out: Path, state: ServerState | None) -> Verdict:
        raise NotImplementedError


# A planted near-duplicate pair whose exact shingle Jaccard is at least this
# must collapse to one doc. The planted pairs that reach it sit at 0.93
# (clean-mono, an edit at a doc's edge) or 0.95 and up (dedup-unique), where
# dedup's defaults (128 hashes, 16 bands x 8 rows, threshold 0.8) miss a pair
# with probability below 1e-5. Pairs whose edit sits further inside a
# 28-token doc (0.86 or 0.79) are too close to the threshold to require it.
MUST_COLLAPSE = 0.9


def _check_dedup_drops(v: Verdict, drops: list[tuple[str, str]], corpus: inputs.MonoCorpus) -> None:
    """Every drop is a planted near-duplicate or boilerplate copy, and the
    kept document it points at belongs to the same planted group."""
    for dropped_id, kept_id in drops:
        group = corpus.group.get(dropped_id)
        v.check(group is not None and corpus.group.get(kept_id) == group,
                f"{dropped_id} dropped as a duplicate of unrelated {kept_id}", dropped_id)


def _check_near_dups_collapse(v: Verdict, corpus: inputs.MonoCorpus, shingle_n: int,
                              survivors: set[str], candidates: set[str]) -> int:
    """Every planted near-duplicate pair with both docs in `candidates` (the
    docs that reached dedup) and an exact Jaccard of at least MUST_COLLAPSE
    has exactly one doc in `survivors`. Returns the number of pairs checked."""
    checked = 0
    for doc_id, kind in corpus.kind.items():
        base = corpus.group.get(doc_id)
        if kind != "near" or not {doc_id, base} <= candidates:
            continue
        if shingle_jaccard(corpus.text[doc_id], corpus.text[base], shingle_n) < MUST_COLLAPSE:
            continue
        checked += 1
        left = len({doc_id, base} & survivors)
        v.check(left == 1, f"near-duplicate pair {base}/{doc_id}: {left} of 2 survive dedup", doc_id)
    return checked


class CleanMono(Workload):
    """pipeline-run langid -> dedup -> perplexity: the CPU-bound cleaning path.
    The boilerplate clusters keep LSH bucket-pair enumeration visible."""

    name = "clean-mono"
    layers = ("corpus.read_corpus", "corpus.write_corpus", "ioutils.read_jsonl", "ioutils.write_jsonl",
              "langid.train_langid", "langid.predict_lang", "ngram_lm.train_lm", "ngram_lm.load_lm",
              "ngram_lm.perplexity", "minlsh.shingle", "minlsh.signature", "minlsh.kernel",
              "minlsh.LshIndex.insert", "minlsh.LshIndex.candidate_pairs", "minlsh.estimate_jaccard",
              "minlsh.dedup", "filters.run_pipeline", "filters.stage.langid", "filters.stage.dedup",
              "filters.stage.perplexity")

    N_DOCS = 3200
    TOKENS = 28
    SHINGLE_N = 3
    CLUSTERS = (100, 100, 100)  # identical boilerplate copies, 9.4% of the corpus

    def prepare(self) -> None:
        w = self.work
        self.corpus = inputs.mono_corpus(self.seed, w / "corpus.jsonl", self.N_DOCS, self.TOKENS,
                                         foreign_share=0.2, near_share=0.15, cluster_sizes=self.CLUSTERS,
                                         edit_share=0.03)
        inputs.langid_training(self.seed, w / "langid_train.jsonl", per_lang=80, tokens=40)
        inputs.lm_training(self.seed, w / "lm_train.jsonl", n_docs=600, tokens=40)
        self.records = self.N_DOCS

    def setup(self) -> list[list[str]]:
        w = self.work
        return [
            ["langid-train", "--in", str(w / "langid_train.jsonl"), "--model", str(w / "langid.json"),
             "--seed", str(self.seed)],
            ["lm-train", "--in", str(w / "lm_train.jsonl"), "--model", str(w / "lm.txt"),
             "--seed", str(self.seed)],
        ]

    def commands(self, out: Path) -> list[list[str]]:
        config = {
            "schema_version": 1,
            "kind": "mono",
            "input": str(self.work / "corpus.jsonl"),
            "output": str(out / "kept.jsonl"),
            "dropped_output": str(out / "dropped.jsonl"),
            "stages": [
                {"type": "langid", "model": str(self.work / "langid.json"), "expected": inputs.TARGET_LANG},
                {"type": "dedup", "shingle_n": self.SHINGLE_N},
                {"type": "perplexity", "model": str(self.work / "lm.txt"), "mode": "percentile", "q": 0.95},
            ],
        }
        (out / "pipeline.json").write_text(json.dumps(config), "utf-8")
        return [["pipeline-run", "--config", str(out / "pipeline.json"), "--jobs", str(self.jobs),
                 "--seed", str(self.seed), "--report", str(out / "report.json")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "kept.jsonl", out / "dropped.jsonl", out / "report.json"]

    def check(self, out: Path, state: ServerState | None) -> Verdict:
        v = Verdict()
        report = json.loads((out / "report.json").read_text("utf-8"))
        kept = [row["id"] for row in read_rows(out / "kept.jsonl")]
        dropped = read_rows(out / "dropped.jsonl")
        counts, stages = report["counts"], report["stages"]
        v.check([s["name"] for s in stages] == ["langid", "dedup", "perplexity"], "stage list")
        expected_input = self.N_DOCS
        for stage in stages:
            v.check(stage["input_count"] == expected_input, f"{stage['name']}: input does not chain")
            v.check(stage["input_count"] == stage["kept"] + stage["dropped"] + stage["unscored"],
                    f"{stage['name']}: input != kept + dropped + unscored")
            v.check(sum(1 for row in dropped if row["stage"] == stage["name"]) == stage["dropped"],
                    f"{stage['name']}: dropped rows do not match the report")
            expected_input = stage["kept"]
        v.check(counts["input"] == self.N_DOCS and counts["output"] == len(kept) == expected_input,
                "final counts do not reconcile")
        v.check(counts["dropped"] == len(dropped), "dropped count")
        v.check(is_subsequence(kept, self.corpus.ids), "kept docs are not an in-order subsequence")
        v.check(len(set(kept)) + len({row["id"] for row in dropped}) == self.N_DOCS,
                "kept and dropped do not partition the input")

        stage_of = {row["id"]: row["stage"] for row in dropped}
        drops = [(row["id"], row["reason"].split("=", 1)[1]) for row in dropped if row["stage"] == "dedup"]
        _check_dedup_drops(v, drops, self.corpus)
        clusters: dict[str, list[str]] = {}
        for doc_id, kind in self.corpus.kind.items():
            if kind == "boiler":
                clusters.setdefault(self.corpus.group[doc_id], []).append(doc_id)
        for base, members in clusters.items():
            after_dedup = [m for m in members if stage_of.get(m) not in ("langid", "dedup")]
            v.check(len(after_dedup) == 1,
                    f"boilerplate cluster {base}: {len(after_dedup)} of {len(members)} survive dedup")
        reached_dedup = {doc_id for doc_id in self.corpus.ids if stage_of.get(doc_id) != "langid"}
        survivors = {doc_id for doc_id in reached_dedup if stage_of.get(doc_id) != "dedup"}
        _check_near_dups_collapse(v, self.corpus, self.SHINGLE_N, survivors, reached_dedup)
        return v


class DedupUnique(Workload):
    """dedup on long, almost all distinct docs: shingling and the kernel
    dominate, and LSH buckets are nearly all singletons."""

    name = "dedup-unique"
    layers = ("corpus.read_corpus", "corpus.write_corpus", "ioutils.read_jsonl", "ioutils.write_jsonl",
              "minlsh.shingle", "minlsh.signature", "minlsh.kernel", "minlsh.LshIndex.insert",
              "minlsh.LshIndex.candidate_pairs", "minlsh.dedup")

    N_DOCS = 1200
    TOKENS = 200
    SHINGLE_N = 5
    NEAR_SHARE = 0.01

    def prepare(self) -> None:
        # one edited token in 200 keeps every planted pair's Jaccard at 0.95
        # or more, well above the threshold, so each pair must collapse
        self.corpus = inputs.mono_corpus(self.seed, self.work / "corpus.jsonl", self.N_DOCS, self.TOKENS,
                                         foreign_share=0.0, near_share=self.NEAR_SHARE, cluster_sizes=(),
                                         edit_share=1 / self.TOKENS, stream="unique")
        self.records = self.N_DOCS

    def commands(self, out: Path) -> list[list[str]]:
        return [["dedup", "--in", str(self.work / "corpus.jsonl"), "--out", str(out / "kept.jsonl"),
                 "--dropped", str(out / "dropped.jsonl"), "--shingle-n", str(self.SHINGLE_N),
                 "--jobs", str(self.jobs), "--seed", str(self.seed), "--report", str(out / "report.json")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "kept.jsonl", out / "dropped.jsonl", out / "report.json"]

    def check(self, out: Path, state: ServerState | None) -> Verdict:
        v = Verdict()
        counts = json.loads((out / "report.json").read_text("utf-8"))["counts"]
        kept = [row["id"] for row in read_rows(out / "kept.jsonl")]
        dropped = read_rows(out / "dropped.jsonl")
        v.check(counts == {"input": self.N_DOCS, "kept": len(kept), "dropped": len(dropped)},
                f"report counts {counts} do not match the outputs")
        v.check(len(kept) + len(dropped) == self.N_DOCS, "kept + dropped != input")
        v.check(is_subsequence(kept, self.corpus.ids), "kept docs are not an in-order subsequence")
        kept_set = set(kept)
        for row in dropped:
            v.check(row["kept_id"] in kept_set, f"{row['dropped_id']} points at a dropped doc",
                    row["dropped_id"])
            v.check(row["dropped_id"] not in kept_set, f"{row['dropped_id']} both kept and dropped",
                    row["dropped_id"])
        _check_dedup_drops(v, [(row["dropped_id"], row["kept_id"]) for row in dropped], self.corpus)
        pairs = _check_near_dups_collapse(v, self.corpus, self.SHINGLE_N, kept_set, set(self.corpus.ids))
        v.check(pairs == round(self.NEAR_SHARE * self.N_DOCS),
                f"{pairs} planted near-duplicate pairs reach {MUST_COLLAPSE} Jaccard")
        return v


def _scorer_config(url: str) -> dict:
    return {"name": "qe", "kind": "remote_http", "config": f"{url}/score", "timeout_ms": 10000}


class FuseLoopback(Workload):
    """fuse over mixed directions (both prompt templates) against the loopback
    server: request fan-out dominates while the CPU idles. Some fusion replies
    are planted empty, which sends those segments to the remote scorer."""

    name = "fuse-loopback"
    uses_server = True
    layers = ("ioutils.read_jsonl", "ioutils.write_jsonl", "backends.complete", "chimera.generate_candidates",
              "chimera.fuse", "scorers.score_many")

    N_SEGMENTS = 90
    TOKENS = 24
    EMPTY_FUSIONS = 9  # segments whose fusion reply is planted empty

    def prepare(self) -> None:
        url = self.server.url
        self.sources = inputs.sources(self.seed, self.work / "sources.jsonl", self.N_SEGMENTS, self.TOKENS)
        planted = random.Random(f"{self.seed}:empty").sample(self.sources, self.EMPTY_FUSIONS)
        self.planted = {row["id"] for row in planted}
        self.server.empty_fusion_sources = {row["text"] for row in planted}
        backend = {"endpoint": f"{url}/complete", "timeout_ms": 10000, "max_retries": 2}
        config = {
            "schema_version": 1,
            "backend": dict(backend, name="gen", model_id="gen-model"),
            "fusion_backend": dict(backend, name="fuser", model_id="fusion-model"),
            "fallback_scorer": _scorer_config(url),
        }
        (self.work / "fuse.json").write_text(json.dumps(config), "utf-8")
        self.records = self.N_SEGMENTS

    def commands(self, out: Path) -> list[list[str]]:
        return [["fuse", "--config", str(self.work / "fuse.json"), "--in", str(self.work / "sources.jsonl"),
                 "--out", str(out / "fused.jsonl"), "--jobs", str(self.jobs), "--seed", str(self.seed),
                 "--report", str(out / "report.json")]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "fused.jsonl", out / "report.json"]

    def check(self, out: Path, state: ServerState | None) -> Verdict:
        v = Verdict()
        rows = read_rows(out / "fused.jsonl")
        counts = json.loads((out / "report.json").read_text("utf-8"))["counts"]
        v.check([r["id"] for r in rows] == [s["id"] for s in self.sources], "segments out of order")
        v.check(counts == {"sources": self.N_SEGMENTS, "fallbacks": len(self.planted)},
                f"report counts {counts}")
        source_of_reply = state.translation_replies
        fusion_prompts = list(state.fusion_replies.items())
        for row, src in zip(rows, self.sources):
            rid = row["id"]
            cands = row["candidates"]
            v.check(len(cands) == 6, f"{rid}: {6 - len(cands)} slot(s) failed", rid)
            v.check(all(source_of_reply.get(c) == src["text"] for c in cands),
                    f"{rid}: a candidate is not the server's reply to this segment", rid)
            prompts = [(p, r) for p, r in fusion_prompts
                       if src["text"] in p and all(f"`{c}`" in p for c in cands)]
            if not v.check(len(prompts) == 1, f"{rid}: {len(prompts)} matching fusion prompts", rid):
                continue
            reply = prompts[0][1]
            if rid in self.planted:
                scores = [self.server.score({"source": src["text"], "hypothesis": c}) for c in cands]
                best = max(range(len(scores)), key=lambda i: (scores[i], -i))
                v.check(reply == "" and row["fallback_used"], f"{rid}: planted empty fusion not used", rid)
                v.check(row["scores"] == scores, f"{rid}: fallback scores differ from the server's", rid)
                v.check(row["fused"] == cands[best], f"{rid}: fallback did not pick the best candidate", rid)
            else:
                v.check(not row["fallback_used"] and row["fused"] == reply and reply,
                        f"{rid}: fused text is not the server's fusion reply", rid)
        return v


class ScoreParallel(Workload):
    """eval chrF, quality-filter with one large remote POST, and reward-score
    with one POST per record that lacks a quality score."""

    name = "score-parallel"
    uses_server = True
    layers = ("corpus.read_corpus", "corpus.write_corpus", "ioutils.read_jsonl", "ioutils.write_jsonl",
              "filters.threshold_filter", "scorers.score_many", "evalkit.chrf", "evalkit.score_corpus",
              "evalkit.group_report", "rewards.terminology_reward", "rewards.repetition_score",
              "rewards.composite_reward")

    N_PAIRS = 1500
    TOKENS = 30
    MISSING_QUALITY = 0.15
    TAU = 0.5

    def prepare(self) -> None:
        self.data = inputs.parallel_set(self.seed, self.work, self.N_PAIRS, self.TOKENS, self.MISSING_QUALITY)
        (self.work / "qe.json").write_text(json.dumps(_scorer_config(self.server.url)), "utf-8")
        self.records = self.N_PAIRS

    def commands(self, out: Path) -> list[list[str]]:
        w, seed = self.work, str(self.seed)
        return [
            ["eval", "--pairs", str(w / "pairs.jsonl"), "--hyps", str(w / "hyps.jsonl"), "--metric", "chrf",
             "--out", str(out / "eval.json"), "--seed", seed],
            ["quality-filter", "--in", str(w / "pairs.jsonl"), "--scorer", str(w / "qe.json"),
             "--tau", str(self.TAU), "--out", str(out / "qf_kept.jsonl"),
             "--dropped", str(out / "qf_dropped.jsonl"), "--unscored", str(out / "qf_unscored.jsonl"),
             "--seed", seed],
            ["reward-score", "--in", str(w / "rewards.jsonl"), "--terms", str(w / "terms.json"),
             "--scorer", str(w / "qe.json"), "--out", str(out / "rewards.jsonl"), "--seed", seed],
        ]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "eval.json", out / "qf_kept.jsonl", out / "qf_dropped.jsonl",
                out / "qf_unscored.jsonl", out / "rewards.jsonl"]

    def check(self, out: Path, state: ServerState | None) -> Verdict:
        v = Verdict()
        self._check_eval(v, json.loads((out / "eval.json").read_text("utf-8")))
        pairs = {p["id"]: p for p in self.data.pairs}
        kept = read_rows(out / "qf_kept.jsonl")
        dropped = read_rows(out / "qf_dropped.jsonl")
        v.check(not read_rows(out / "qf_unscored.jsonl"), "quality-filter left pairs unscored")
        v.check(len(kept) + len(dropped) == self.N_PAIRS, "quality-filter kept + dropped != input")
        for row, is_kept in [(r, True) for r in kept] + [(r, False) for r in dropped]:
            pair = pairs[row["id"]]
            sent = self.server.score({"source": pair["src_text"], "hypothesis": pair["tgt_text"]})
            got = row["scores"].get("qe")
            v.check(got == sent, f"{row['id']}: qe score {got} != server's {sent}", row["id"])
            v.check(is_kept == (sent >= self.TAU), f"{row['id']}: wrong side of tau", row["id"])
        rewards = read_rows(out / "rewards.jsonl")
        v.check([r["id"] for r in rewards] == [r["id"] for r in self.data.reward_rows], "reward rows")
        for out_row, in_row in zip(rewards, self.data.reward_rows):
            rid = in_row["id"]
            quality = in_row.get("quality")
            if quality is None:
                quality = self.server.score({"source": in_row["source"], "hypothesis": in_row["hypothesis"]})
            degenerate = int(rid[1:]) % 10 == 0
            v.check(out_row["quality"] == quality, f"{rid}: quality differs from the server's", rid)
            v.check(out_row["repetition_penalty"] == (1.0 if degenerate else 0.0),
                    f"{rid}: repetition penalty", rid)
            v.check(0.0 <= out_row["terminology"] <= 1.0, f"{rid}: terminology out of range", rid)
            total = min(max(0.5 * quality + 0.5 * out_row["terminology"] - out_row["repetition_penalty"], 0.0), 1.0)
            v.check(close(out_row["total"], total), f"{rid}: total reward", rid)
        n_missing = sum(1 for r in self.data.reward_rows if "quality" not in r)
        v.check(state.score.requests == 1 + n_missing and state.score.items == self.N_PAIRS + n_missing,
                f"score requests {state.score.requests} / items {state.score.items}")
        return v

    def _check_eval(self, v: Verdict, report: dict) -> None:
        groups: dict[str, list[float]] = {}
        for pair in self.data.pairs:
            src, tgt = pair["src_lang"], pair["tgt_lang"]
            group = ("ZH_TO_XX" if src == "zh" else "XX_TO_ZH" if tgt == "zh" else
                     "EN_TO_XX" if src == "en" else "XX_TO_EN" if tgt == "en" else "XX_TO_XX")
            groups.setdefault(group, []).append(chrf_reference(self.data.hyps[pair["id"]], pair["tgt_text"]))
        everything = [x for values in groups.values() for x in values]
        v.check(report["overall"]["count"] == len(everything)
                and close(report["overall"]["mean"], sum(everything) / len(everything)),
                "eval overall chrF differs from the reference")
        v.check(set(report["groups"]) == set(groups), "eval direction groups")
        for group, values in groups.items():
            got = report["groups"].get(group, {})
            v.check(got.get("count") == len(values) and close(got.get("mean", -1), sum(values) / len(values)),
                    f"eval {group} chrF differs from the reference")


WORKLOADS = {cls.name: cls for cls in (CleanMono, DedupUnique, FuseLoopback, ScoreParallel)}
