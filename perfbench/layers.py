"""The traced in-process run and the per-layer metrics computed from its spans.

Importing this module does not import mtforge; `traced_pass` puts the
checkout's `src/` first on sys.path and imports it there.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from loopback import ServerState
from oracles import Verdict
from tracing import Span, Target, Tracer, percentile_ms, phase_ratio, self_time


TARGETS = [
    Target("mtforge.corpus:read_corpus", "corpus.read_corpus"),
    Target("mtforge.corpus:write_corpus", "corpus.write_corpus"),
    Target("mtforge.ioutils:read_jsonl", "ioutils.read_jsonl"),
    Target("mtforge.ioutils:write_jsonl", "ioutils.write_jsonl"),
    Target("mtforge.langid:train_langid", "langid.train_langid"),
    Target("mtforge.langid:predict_lang", "langid.predict_lang"),
    Target("mtforge.ngram_lm:train_lm", "ngram_lm.train_lm"),
    Target("mtforge.ngram_lm:load_lm", "ngram_lm.load_lm"),
    Target("mtforge.ngram_lm:perplexity", "ngram_lm.perplexity"),
    Target("mtforge.minlsh:shingle", "minlsh.shingle"),
    Target("mtforge.minlsh:signature", "minlsh.signature"),
    # hashes computed = shingles x hash functions
    Target("mtforge.minlsh:_kernel.min_hash", "minlsh.kernel", lambda a, kw, r: len(a[0]) * len(a[1])),
    Target("mtforge.minlsh:LshIndex.insert", "minlsh.LshIndex.insert"),
    Target("mtforge.minlsh:LshIndex.candidate_pairs", "minlsh.LshIndex.candidate_pairs", lambda a, kw, r: len(r)),
    Target("mtforge.minlsh:estimate_jaccard", "minlsh.estimate_jaccard"),
    # dedup merges exactly the candidate pairs whose estimate reaches the threshold
    Target("mtforge.minlsh:_UnionFind.union", "minlsh.confirmed_pair"),
    Target("mtforge.minlsh:dedup", "minlsh.dedup"),
    Target("mtforge.filters:run_pipeline", "filters.run_pipeline"),
    Target("mtforge.filters:LangIdStage.apply", "filters.stage.langid"),
    Target("mtforge.filters:DedupStage.apply", "filters.stage.dedup"),
    Target("mtforge.filters:PerplexityStage.apply", "filters.stage.perplexity"),
    Target("mtforge.filters:threshold_filter", "filters.threshold_filter"),
    Target("mtforge.backends:complete", "backends.complete"),
    Target("mtforge.chimera:generate_candidates", "chimera.generate_candidates"),
    Target("mtforge.chimera:fuse", "chimera.fuse", lambda a, kw, r: bool(r and r.fallback_used)),
    Target("mtforge.scorers:ScorerEndpoint.score_many", "scorers.score_many", lambda a, kw, r: len(a[1])),
    Target("mtforge.evalkit:chrf", "evalkit.chrf"),
    Target("mtforge.evalkit:score_corpus", "evalkit.score_corpus"),
    Target("mtforge.evalkit:group_report", "evalkit.group_report"),
    Target("mtforge.rewards:terminology_reward", "rewards.terminology_reward"),
    Target("mtforge.rewards:repetition_score", "rewards.repetition_score"),
    Target("mtforge.rewards:composite_reward", "rewards.composite_reward"),
]

# Layers timed during the workload's set-up rather than its measured pass.
SETUP_LAYERS = ("langid.train_langid", "ngram_lm.train_lm")

# Commands whose wall time is reported as cli.<command>.wall_s.
CLI_COMMANDS = ("langid-train", "lm-train", "pipeline-run", "dedup", "fuse", "eval",
                "quality-filter", "reward-score")

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "corpus.read_corpus.s": ("s", "lower"),
    "corpus.write_corpus.s": ("s", "lower"),
    "ioutils.read_jsonl.s": ("s", "lower"),
    "ioutils.write_jsonl.s": ("s", "lower"),
    "langid.train_langid.s": ("s", "lower"),
    "langid.predict_lang.calls": ("count", "lower"),
    "langid.predict_lang.s": ("s", "lower"),
    "ngram_lm.train_lm.s": ("s", "lower"),
    "ngram_lm.load_lm.s": ("s", "lower"),
    "ngram_lm.perplexity.calls": ("count", "lower"),
    "ngram_lm.perplexity.s": ("s", "lower"),
    "minlsh.shingle.s": ("s", "lower"),
    "minlsh.signature.s": ("s", "lower"),
    "minlsh.kernel.mhash_per_s": ("Mhash/s", "higher"),
    "minlsh.signature.concurrency": ("ratio", "higher"),
    "minlsh.LshIndex.insert.s": ("s", "lower"),
    "minlsh.LshIndex.candidate_pairs.s": ("s", "lower"),
    "minlsh.candidate_pairs.count": ("count", "lower"),
    "minlsh.estimate_jaccard.calls": ("count", "lower"),
    "minlsh.confirm_ratio": ("ratio", "higher"),
    "minlsh.dedup.self_s": ("s", "lower"),
    "filters.run_pipeline.s": ("s", "lower"),
    "filters.stage.langid.s": ("s", "lower"),
    "filters.stage.dedup.s": ("s", "lower"),
    "filters.stage.perplexity.s": ("s", "lower"),
    "filters.threshold_filter.s": ("s", "lower"),
    "backends.complete.calls": ("count", "lower"),
    "backends.complete.s": ("s", "lower"),
    "backends.complete.p50_ms": ("ms", "lower"),
    "backends.complete.p90_ms": ("ms", "lower"),
    "backends.complete.inflight_mean": ("count", "higher"),
    "backends.complete.overhead_ms": ("ms", "lower"),
    "chimera.generate_candidates.s": ("s", "lower"),
    "chimera.fuse.s": ("s", "lower"),
    "chimera.segment.p50_ms": ("ms", "lower"),
    "chimera.segment.p90_ms": ("ms", "lower"),
    "chimera.fallback_ratio": ("ratio", "lower"),
    "scorers.score_many.calls": ("count", "lower"),
    "scorers.score_many.items": ("count", "lower"),
    "scorers.score_many.s": ("s", "lower"),
    "scorers.score_many.p50_ms": ("ms", "lower"),
    "scorers.score_many.p90_ms": ("ms", "lower"),
    "evalkit.chrf.calls": ("count", "lower"),
    "evalkit.chrf.s": ("s", "lower"),
    "evalkit.score_corpus.s": ("s", "lower"),
    "evalkit.group_report.s": ("s", "lower"),
    "rewards.terminology_reward.s": ("s", "lower"),
    "rewards.repetition_score.s": ("s", "lower"),
    "rewards.composite_reward.s": ("s", "lower"),
    "server.complete.requests": ("count", "lower"),
    "server.complete.retries": ("count", "lower"),
    "server.complete.useful_ratio": ("ratio", "higher"),
    "server.score.requests": ("count", "lower"),
    "server.score.items_per_request": ("count", "higher"),
    "cli.import_s": ("s", "lower"),
    **{f"cli.{command}.wall_s": ("s", "lower") for command in CLI_COMMANDS},
    "trace.overhead_ratio": ("ratio", "higher"),
}


@dataclass
class TracedPass:
    setup_spans: list[Span]
    spans: list[Span]
    wall: float  # traced pass
    untraced_wall: float  # the same pass in-process without tracing, after a warm-up pass
    state: object
    verdicts: list[Verdict]  # warm-up, traced and untraced in-process runs


def _kernel_spot_check(v: Verdict, seed: int) -> None:
    """The active kernel agrees with exact big-int arithmetic on one sample."""
    import numpy as np
    from mtforge import minlsh

    a, b = minlsh.hash_params(128, seed)
    rng = random.Random(f"{seed}:kernel")
    xs = np.array([rng.getrandbits(64) for _ in range(200)], dtype=np.uint64)
    p = minlsh.MERSENNE61
    expected = [min((int(ai) * (int(x) % p) + int(bi)) % p for x in xs) for ai, bi in zip(a, b)]
    got = [int(value) for value in minlsh._kernel.min_hash(xs, a, b)]
    v.check(got == expected, f"{minlsh.KERNEL_BACKEND} kernel disagrees with big-int MinHash")


def traced_pass(bench, src: Path) -> TracedPass:
    """Run the workload in this process three times: untraced to warm up,
    traced, and untraced again for the tracing-overhead baseline. Each run's
    outputs must match the digest of the first subprocess pass."""
    sys.path.insert(0, str(src))
    import mtforge
    from mtforge import cli

    if not Path(mtforge.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {mtforge.__file__}, not the checkout's {src}")
    workload, server = bench.w, bench.server
    verdicts: list[Verdict] = []

    def run(label: str):
        out = bench.work / label
        out.mkdir()
        commands = workload.commands(out)
        if server:
            server.reset()
        start = time.perf_counter()
        codes = [cli.main(list(argv)) for argv in commands]
        wall = time.perf_counter() - start
        state = server.reset() if server else None
        verdicts.append(bench.verify(out, codes, state))
        return wall, state

    run("warm")
    tracer = Tracer()
    tracer.install(TARGETS)
    try:
        for argv in workload.setup():
            if argv != ["--help"] and cli.main(list(argv)) != 0:
                raise RuntimeError(f"traced set-up failed: mtforge {' '.join(argv)}")
        setup_spans = list(tracer.spans)
        del tracer.spans[:]
        wall, state = run("traced")
    finally:
        tracer.uninstall()
    untraced_wall, _ = run("untraced")
    if "minlsh.kernel" in workload.layers:
        _kernel_spot_check(verdicts[1], workload.seed)
    return TracedPass(setup_spans, list(tracer.spans), wall, untraced_wall, state, verdicts)


def metrics(bench, traced: TracedPass, untraced: list, setup_procs: list, import_s: float) -> dict:
    spans = traced.spans
    by_name: dict[str, list[Span]] = {}
    for span in spans + [s for s in traced.setup_spans if s.name in SETUP_LAYERS]:
        by_name.setdefault(span.name, []).append(span)
    missing = [name for name in bench.w.layers if not by_name.get(name)]
    if missing:
        raise RuntimeError(f"no spans recorded for {', '.join(missing)} on {bench.w.name}; "
                           "was a traced function renamed or moved?")

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.busy for s in named(name))

    def extras(name):
        return sum(s.extra for s in named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    # generic <span>.<stat> metrics, then the derived ones below
    out: dict[str, float] = {}
    span_names = {target.name for target in TARGETS}
    for metric_name in PER_LAYER:
        base, _, stat = metric_name.rpartition(".")
        if base not in span_names:
            continue
        durations = [s.busy for s in named(base)]
        if stat == "s":
            out[metric_name] = sum(durations)
        elif stat == "calls":
            out[metric_name] = len(durations)
        elif stat in ("p50_ms", "p90_ms"):
            out[metric_name] = percentile_ms(durations, 0.5 if stat == "p50_ms" else 0.9)

    # minlsh: kernel rate, signing concurrency, banding and clustering
    out["minlsh.kernel.mhash_per_s"] = ratio(extras("minlsh.kernel") / 1e6, total("minlsh.kernel"))
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    busy = wall = 0.0
    for dedup_span in named("minlsh.dedup"):
        signing = [c for c in children.get(dedup_span.id, []) if c.name in ("minlsh.shingle", "minlsh.signature")]
        b, w = phase_ratio(signing)
        busy, wall = busy + b, wall + w
    out["minlsh.signature.concurrency"] = ratio(busy, wall)
    out["minlsh.candidate_pairs.count"] = extras("minlsh.LshIndex.candidate_pairs")
    out["minlsh.confirm_ratio"] = ratio(len(named("minlsh.confirmed_pair")), out["minlsh.candidate_pairs.count"])
    out["minlsh.dedup.self_s"] = sum(self_time(s, children.get(s.id, [])) for s in named("minlsh.dedup"))

    # fan-out against the loopback server
    state = traced.state or ServerState()
    b, w = phase_ratio(named("backends.complete"))
    out["backends.complete.inflight_mean"] = ratio(b, w)
    out["backends.complete.overhead_ms"] = ratio(
        1000.0 * (total("backends.complete") - state.complete.handling_s), len(named("backends.complete")))
    gens = sorted(named("chimera.generate_candidates"), key=lambda s: s.start)
    fuses = sorted(named("chimera.fuse"), key=lambda s: s.start)
    segments = [f.end - g.start for g, f in zip(gens, fuses)]
    out["chimera.segment.p50_ms"] = percentile_ms(segments, 0.5)
    out["chimera.segment.p90_ms"] = percentile_ms(segments, 0.9)
    out["chimera.fallback_ratio"] = ratio(extras("chimera.fuse"), len(fuses))
    out["scorers.score_many.items"] = extras("scorers.score_many")

    out["server.complete.requests"] = state.complete.requests
    out["server.complete.retries"] = state.complete.retries
    out["server.complete.useful_ratio"] = ratio(len(state.useful), state.complete.requests)
    out["server.score.requests"] = state.score.requests
    out["server.score.items_per_request"] = ratio(state.score.items, state.score.requests)

    # CLI: import cost, per-command wall of the untraced runs, and tracing overhead
    out["cli.import_s"] = import_s
    walls: dict[str, list[float]] = {}
    for proc in setup_procs + [proc for p in untraced for proc in p.procs]:
        walls.setdefault(proc.argv[0], []).append(proc.wall)
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = statistics.median(walls[command]) if command in walls else 0.0
    out["trace.overhead_ratio"] = traced.untraced_wall / traced.wall  # traced / untraced records per s

    return {name: {"value": float(out[name]), "unit": unit} for name, (unit, _) in PER_LAYER.items()}
