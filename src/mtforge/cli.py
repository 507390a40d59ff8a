"""Operator-facing command surface.

Every subcommand is declared with `_command`, which adds --seed (single
source of randomness, threaded to each stochastic component) and --report
(machine-readable JSON with a fixed schema_version, naming the command and
the effective seed; pipeline-run's config seed wins over --seed). A
command's outputs and report are one output transaction: all of them are
renamed into place after the command succeeds, or none is. Exit codes:
0 success, 1 validation/usage error, 2 runtime or IO error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict
from pathlib import Path

import click

# Only what `--help` and config loading read is imported here. Every other
# module (langid, minlsh and mixopt, which load NumPy; chimera, evalkit,
# rewards and ngram_lm; concurrent.futures) is imported in the bodies that
# use it, and looked up on its module at call time, so wrappers installed
# there apply.
from . import backends as backends_mod
from . import corpus as corpus_mod
from . import filters as filters_mod
from .errors import MtforgeError, OrchestrationError, ValidationError, at
from .ioutils import (atomic_write, check_fields, dataclass_from_obj, dump_json, load_json, output_transaction,
                      read_records, required_fields, write_jsonl)
from .scorers import ScorerEndpoint, is_local_scorer

REPORT_SCHEMA_VERSION = 1

# Requests in flight on translate, fuse and reward-score: how hard a
# command may hit someone else's endpoint.
DEFAULT_JOBS = 4
_jobs_option = click.option("--jobs", default=DEFAULT_JOBS, show_default=True, type=click.IntRange(min=1),
                            metavar="N", help="At most N requests in flight")


def _load_config(path: str, fields: dict, required: tuple) -> dict:
    """A config file checked against its field table (see check_fields),
    with schema_version 1."""
    config = check_fields(load_json(path), fields, required, closed=True, where=path)
    if config["schema_version"] != 1:
        raise ValidationError(f"{path}: schema_version must be 1, got {config['schema_version']}")
    return config


def _load_scorer(spec: str, flag: str, fields: tuple, within: tuple | None = None) -> ScorerEndpoint:
    """A scorer flag is a JSON config file or a local-function shorthand; a
    shorthand wins over a file of that name, whatever the working directory.
    The scorer must score within `within`, when given, and read no item
    field but `fields`, the ones the command sends."""
    if not spec:
        raise ValidationError(f"{flag} must name a scorer, not be empty")
    path = Path(spec)
    if spec.endswith(".json") or (path.exists() and not is_local_scorer(spec)):
        if not path.is_file():
            raise ValidationError(f"{flag}: no such file: {spec!r}")
        scorer = dataclass_from_obj(ScorerEndpoint, load_json(path), path)
    else:
        with at(flag):
            scorer = ScorerEndpoint(name=spec, kind="local_function", config=spec)
    if within is not None and not within[0] <= scorer.score_range[0] <= scorer.score_range[1] <= within[1]:
        raise ValidationError(f"{flag} {scorer.name!r} scores on {list(scorer.score_range)}, not within {list(within)}")
    scorer.check_item_fields(fields)
    return scorer


def _fan_out(fn, items, jobs):
    """[fn(item) for item in items], run on a pool of `jobs` threads.

    Results come back in input order. The first call to raise cancels the
    queued ones; the error of the first failed item in input order
    propagates. No items start no pool.
    """
    if not items:
        return []
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        futures = [pool.submit(fn, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # futures are cancelled only after one raised; result() re-raises it
    return [future.result() for future in futures if not future.cancelled()]


def _dropped_with_detail(stage, record, reason, detail):
    return dict(corpus_mod.record_to_obj(record), **detail)


def _run_stages(in_path, kind, stages, out, dropped=None, unscored=None, dropped_row=_dropped_with_detail, jobs=1):
    """Read the `kind` corpus at `in_path`, run `stages` (built, with their
    model files and scorers, before any input is read) over it by
    `filters.run_pipeline` on up to `jobs` processes, write the kept records
    to `out` and, when their paths are given, one `dropped_row(stage name,
    record, reason, detail)` per dropped record and the unscored records."""
    result = filters_mod.run_pipeline(corpus_mod.read_corpus(in_path, kind), stages, kind, jobs)
    corpus_mod.write_corpus(result.final, out)
    if dropped:
        write_jsonl(dropped, (dropped_row(*row) for row in result.dropped))
    if unscored:
        corpus_mod.write_corpus(result.unscored, unscored)
    return result


def _stage_counts(report) -> dict:
    return {"input": report.input_count, "kept": report.kept, "dropped": report.dropped}


@click.group(name="mtforge")
def cli():
    """Corpus curation, mixture optimization, rewards, and translation fusion."""


def _command(name: str):
    """Register the decorated function as subcommand `name`, with --seed and
    --report listed after its own options.

    A float option set to NaN or infinity, or a required path option set to
    "", is a usage error, raised before the function runs. The function is
    called with `seed` and returns its report payload. With --report, the
    payload is written after the function's outputs, in an envelope of
    schema_version, command and seed; a payload `seed` (the effective one)
    wins over --seed. The function and the report write run in one
    `output_transaction`, so the files appear together, outputs before the
    report, and an error anywhere leaves none of them.
    """
    def decorate(body):
        @click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
        @click.option("--report", "report_path", type=click.Path())
        def command(report_path, **params):
            ctx = click.get_current_context()
            for param in ctx.command.params:
                value = params.get(param.name)
                if isinstance(param.type, click.types.FloatParamType) and not math.isfinite(value or 0):
                    raise click.BadParameter(f"{value} is not a finite number.", ctx, param)
                if param.required and isinstance(param.type, click.Path) and value == "":
                    raise click.BadParameter("an empty path names no file.", ctx, param)
            with output_transaction():
                payload = body(**params)
                if report_path:
                    dump_json(report_path, {"schema_version": REPORT_SCHEMA_VERSION, "command": name,
                                            "seed": params["seed"], **payload})

        # click lists options in reverse of this list, so the body's go first
        command.__click_params__ += body.__click_params__
        command.__doc__ = body.__doc__
        return cli.command(name)(command)

    return decorate


# -- language identification -------------------------------------------------


@_command("langid-train")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--min-n", default=1, show_default=True)
@click.option("--max-n", default=3, show_default=True)
@click.option("--alpha", default=0.5, show_default=True)
def langid_train(in_path, model_path, min_n, max_n, alpha, seed):
    """Train the character-n-gram language identifier on a labeled corpus."""
    from . import langid as langid_mod

    docs = corpus_mod.read_corpus(in_path, "mono")
    model = langid_mod.train_langid(docs, ngram_range=(min_n, max_n), alpha=alpha)
    langid_mod.save_langid(model, model_path)
    return {
        "counts": {"documents": len(docs), "classes": len(model.classes), "vocab": len(model.grams)},
        "params": {"min_n": min_n, "max_n": max_n, "alpha": alpha},
    }


@_command("langid-filter")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--expected", required=True)
@click.option("--min-confidence", default=filters_mod.LangIdStage.min_confidence, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dropped", "dropped_path", type=click.Path())
def langid_filter(in_path, model_path, expected, min_confidence, out_path, dropped_path, seed):
    """Keep documents identified as the expected language."""
    from . import langid as langid_mod

    stage = filters_mod.LangIdStage(langid_mod.load_langid(model_path), expected, min_confidence)
    result = _run_stages(in_path, "mono", [stage], out_path, dropped_path)
    return {
        "counts": _stage_counts(result.reports[0]),
        "params": {"expected": expected, "min_confidence": min_confidence},
    }


# -- deduplication -------------------------------------------------------------

# Processes on dedup and pipeline-run: the per-document work of the
# langid, dedup and perplexity stages is CPU-bound Python under the GIL.
_process_jobs_option = click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1),
                                    metavar="N", help="At most N processes for per-document stage work")


@_command("dedup")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dropped", "dropped_path", type=click.Path(), help="Defaults to <out>.dropped.jsonl")
@click.option("--shingle-n", default=filters_mod.DedupStage.shingle_n, show_default=True)
@click.option("--bands", default=filters_mod.DedupStage.bands, show_default=True)
@click.option("--rows", default=filters_mod.DedupStage.rows, show_default=True)
@click.option("--threshold", default=filters_mod.DedupStage.threshold, show_default=True)
@click.option("--unit", default=filters_mod.DedupStage.unit, type=click.Choice(["word", "char"]), show_default=True)
@_process_jobs_option
def dedup_cmd(in_path, out_path, dropped_path, shingle_n, bands, rows, threshold, unit, jobs, seed):
    """Remove near-duplicate documents via MinHash + banded LSH."""
    from . import minlsh as dedup_mod

    stage = filters_mod.DedupStage(shingle_n=shingle_n, bands=bands, rows=rows, threshold=threshold, unit=unit,
                                   seed=seed)
    result = _run_stages(in_path, "mono", [stage], out_path, dropped_path or f"{out_path}.dropped.jsonl",
                         dropped_row=lambda _stage, doc, _reason, detail: dict(detail, dropped_id=doc.id), jobs=jobs)
    return {
        "counts": _stage_counts(result.reports[0]),
        "params": {"shingle_n": shingle_n, "k": bands * rows, "bands": bands, "rows": rows,
                   "threshold": threshold, "unit": unit},
        "kernel_backend": dedup_mod.KERNEL_BACKEND,
    }


# -- n-gram LM -----------------------------------------------------------------


@_command("lm-train")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--order", default=3, show_default=True)
@click.option("--discount", default=0.75, show_default=True)
@click.option("--min-count", default=1, show_default=True)
def lm_train(in_path, model_path, order, discount, min_count, seed):
    """Train the interpolated Kneser-Ney n-gram model."""
    from . import ngram_lm as lm_mod

    docs = corpus_mod.read_corpus(in_path, "mono")
    lm = lm_mod.train_lm(docs, order=order, discount=discount, min_count=min_count)
    lm_mod.save_lm(lm, model_path)
    return {
        "counts": {"documents": len(docs), "vocab": len(lm.vocab)},
        "params": {"order": order, "discount": discount, "min_count": min_count},
    }


@_command("lm-filter")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--mode", default="percentile", type=click.Choice(["percentile", "absolute"]), show_default=True)
@click.option("--q", default=filters_mod.PerplexityStage.q, show_default=True)
@click.option("--max-ppl", type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dropped", "dropped_path", type=click.Path())
def lm_filter(in_path, model_path, mode, q, max_ppl, out_path, dropped_path, seed):
    """Drop high-perplexity documents."""
    from . import ngram_lm as lm_mod

    stage = filters_mod.PerplexityStage(lm_mod.load_lm(model_path), mode=mode, max_ppl=max_ppl, q=q)
    result = _run_stages(in_path, "mono", [stage], out_path, dropped_path)
    return {
        "counts": _stage_counts(result.reports[0]),
        "params": {"mode": mode, "q": q, "max_ppl": max_ppl},
    }


# -- quality -------------------------------------------------------------------


@_command("quality-score")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--unscored", "unscored_path", type=click.Path())
def quality_score(in_path, out_path, unscored_path, seed):
    """Attach the weighted composite quality score.

    Documents must carry knowledge_value / authenticity / writing_style in
    their scores map; those missing a dimension go to the unscored output.
    """
    docs = corpus_mod.read_corpus(in_path, "mono")
    with at(in_path):
        scored, missing = filters_mod.score_documents(docs)
    corpus_mod.write_corpus(scored, out_path)
    if unscored_path:
        corpus_mod.write_corpus(missing, unscored_path)
    return {
        "counts": {"input": len(docs), "scored": len(scored), "unscored": len(missing)},
    }


@_command("quality-filter")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--scorer", "scorer_spec", required=True)
@click.option("--tau", required=True, type=float)
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--dropped", "dropped_path", type=click.Path())
@click.option("--unscored", "unscored_path", type=click.Path())
def quality_filter(in_path, scorer_spec, tau, out_path, dropped_path, unscored_path, seed):
    """Keep parallel pairs whose quality-estimation score is >= tau."""
    scorer = _load_scorer(scorer_spec, "--scorer", filters_mod.THRESHOLD_ITEM_FIELDS)
    stage = filters_mod.QualityThresholdStage(scorer, tau)
    result = _run_stages(in_path, "parallel", [stage], out_path, dropped_path, unscored_path)
    return {
        "counts": dict(_stage_counts(result.reports[0]), unscored=result.reports[0].unscored),
        "params": {"scorer": scorer.name, "tau": tau},
    }


@_command("judge-flag")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--max-spread", required=True, type=float)
@click.option("--out", "out_path", type=click.Path())
def judge_flag(in_path, max_spread, out_path, seed):
    """Flag samples whose judge scores disagree across rounds."""
    fields = {"sample_id": "string", "round_scores": "array"}
    records = [record for _, record in read_records(
        in_path, fields, required=fields, key="sample_id",
        build=lambda obj: filters_mod.JudgeRecord(obj["sample_id"], tuple(obj["round_scores"])))]
    consistent, flagged = filters_mod.flag_inconsistent(records, max_spread)
    if out_path:
        dump_json(out_path, {"consistent": consistent, "flagged": flagged})
    return {
        "counts": {"input": len(records), "consistent": len(consistent), "flagged": len(flagged)},
        "flagged_ids": flagged,
        "params": {"max_spread": max_spread},
    }


# -- mixture optimization --------------------------------------------------------


@_command("mix-sample")
@click.option("--domains", required=True, help="Comma-separated domain names")
@click.option("--n", required=True, type=int)
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def mix_sample(domains, n, alpha, out_path, seed):
    """Sample candidate mixtures from a symmetric Dirichlet."""
    from . import mixopt as mixopt_mod

    names = [d.strip() for d in domains.split(",") if d.strip()]
    mixtures = mixopt_mod.sample_mixtures(names, n, dirichlet_alpha=alpha, seed=seed)
    write_jsonl(out_path, (asdict(m) for m in mixtures))
    return {
        "counts": {"samples": len(mixtures), "domains": len(names)},
        "params": {"alpha": alpha},
    }


@_command("mix-fit")
@click.option("--runs", "runs_path", required=True, type=click.Path(exists=True))
@click.option("--ridge-lambda", default=0.0, show_default=True)
@click.option("--model-out", "model_path", required=True, type=click.Path())
def mix_fit(runs_path, ridge_lambda, model_path, seed):
    """Fit the ratio-to-loss regression from proxy runs."""
    from . import mixopt as mixopt_mod

    runs = mixopt_mod.read_proxy_runs(runs_path)
    model = mixopt_mod.fit_regression(runs, ridge_lambda=ridge_lambda)
    dump_json(model_path, asdict(model))
    residuals = [model.predict(r.mixture) - r.observed_loss for r in runs]
    # hypot scales its inputs, so residuals near 1e200 do not overflow
    rmse = math.hypot(*residuals) / math.sqrt(len(residuals))
    return {
        "counts": {"runs": len(runs), "features": len(model.coefficients)},
        "params": {"ridge_lambda": ridge_lambda},
        "in_sample_rmse": rmse,
    }


@_command("mix-optimize")
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--candidates", default=65536, show_default=True)
@click.option("--replay-fraction", type=float)
@click.option("--replay-domain")
@click.option("--out", "out_path", required=True, type=click.Path())
def mix_optimize(model_path, candidates, replay_fraction, replay_domain, out_path, seed):
    """Pick the mixture minimizing predicted loss; optionally blend a replay share."""
    from . import mixopt as mixopt_mod

    if (replay_fraction is None) != (replay_domain is None):
        raise ValidationError("--replay-fraction and --replay-domain go together")
    model = dataclass_from_obj(mixopt_mod.RegressionModel, load_json(model_path), model_path)
    best = mixopt_mod.optimize_mixture(model, candidates, seed=seed)
    predicted = model.predict(best)
    if replay_fraction is not None:
        best = mixopt_mod.blend_replay(best, replay_fraction, replay_domain)
    dump_json(out_path, asdict(best))
    return {
        "counts": {"candidates": candidates},
        "params": {"replay_fraction": replay_fraction, "replay_domain": replay_domain},
        "predicted_loss": predicted,
    }


@_command("lr-curve")
@click.option("--warmup", required=True, type=int)
@click.option("--total", required=True, type=int)
@click.option("--peak", required=True, type=float)
@click.option("--min-lr", required=True, type=float)
@click.option("--shape", default="cosine", type=click.Choice(["cosine", "linear"]), show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def lr_curve(warmup, total, peak, min_lr, shape, out_path, seed):
    """Export the warmup-then-decay learning-rate schedule as CSV."""
    from . import mixopt as mixopt_mod

    schedule = mixopt_mod.LrSchedule(warmup, total, peak, min_lr, shape)
    with atomic_write(out_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "lr"])
        for step in range(total + 1):
            writer.writerow([step, repr(mixopt_mod.lr_at(schedule, step))])
    return {
        "counts": {"steps": total + 1},
        "params": {"warmup": warmup, "total": total, "peak": peak,
                   "min_lr": min_lr, "shape": shape},
    }


# -- rewards -------------------------------------------------------------------


# the fields of the items reward-score sends to its quality scorer
REWARD_ITEM_FIELDS = ("source", "hypothesis")


@_command("reward-score")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--terms", "terms_path", required=True, type=click.Path(exists=True))
@click.option("--scorer", "scorer_spec", help="Quality scorer for records without a quality field")
@click.option("--w-quality", default=0.5, show_default=True)
@click.option("--w-terminology", default=0.5, show_default=True)
@click.option("--w-repetition", default=1.0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_jobs_option
def reward_score(in_path, terms_path, scorer_spec, w_quality, w_terminology, w_repetition,
                 out_path, jobs, seed):
    """Compute the full reward breakdown for translation records.

    Input lines carry {"id", "source", "hypothesis"} plus an optional
    "quality" in [0, 1] and an optional "tgt_lang", the hypothesis's
    language, which sets its word units for repetition scoring; records
    without a quality are scored via --scorer, one record per request, up
    to --jobs requests at once.
    """
    from . import rewards as rewards_mod

    # composite_reward takes a quality in [0, 1], and score sends only
    # REWARD_ITEM_FIELDS; any other scorer fails here, before any input is read
    scorer = None if scorer_spec is None else _load_scorer(scorer_spec, "--scorer", REWARD_ITEM_FIELDS, (0, 1))
    table = rewards_mod.load_term_table(terms_path)
    weights = rewards_mod.RewardWeights(w_quality, w_terminology, w_repetition)
    fields = {"id": "string", "source": "string", "hypothesis": "string", "tgt_lang": "string",
              "quality": "number|null"}

    # the read pass computes every reward part that needs no request, so bad
    # input (an unknown tgt_lang too, which repetition_score checks) exits
    # before any request
    def build(obj):
        parts = (rewards_mod.terminology_reward(obj["source"], obj["hypothesis"], table),
                 rewards_mod.repetition_score(obj["hypothesis"], obj.get("tgt_lang")))
        quality = obj.get("quality")
        return obj, parts, None if quality is None else rewards_mod.composite_reward(quality, *parts, weights)

    records = list(read_records(in_path, fields, required=("source", "hypothesis"), key="id", build=build))
    missing = [(lineno, obj, parts) for lineno, (obj, parts, reward) in records if reward is None]
    if missing and scorer is None:
        _, obj, _ = missing[0]
        raise ValidationError(f"record {obj['id']!r} has no quality score and no --scorer was given")

    # the request pass: one request per record still without a reward
    def score(record):
        lineno, obj, parts = record
        [quality] = scorer.score_many([{name: obj[name] for name in REWARD_ITEM_FIELDS}])
        if quality is None:
            raise OrchestrationError(f"quality scorer failed on record {obj['id']!r}")
        with at(in_path, f"line {lineno}"):
            return rewards_mod.composite_reward(quality, *parts, weights)

    scored = iter(_fan_out(score, missing, jobs))
    out_rows = [dict(asdict(next(scored) if reward is None else reward), id=obj["id"])
                for _, (obj, _, reward) in records]
    write_jsonl(out_path, out_rows)
    return {
        "counts": {"records": len(out_rows)},
        "params": {"w_quality": w_quality, "w_terminology": w_terminology,
                   "w_repetition": w_repetition},
    }


@_command("grpo-advantages")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--epsilon", default=1e-8, show_default=True, type=click.FloatRange(min=0, min_open=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def grpo_advantages_cmd(in_path, epsilon, out_path, seed):
    """Normalize reward groups to group-relative advantages."""
    from . import rewards as rewards_mod

    out_rows = [
        {"id": obj["id"], "rewards": obj["rewards"], "advantages": advantages}
        for _, (obj, advantages) in read_records(
            in_path, {"id": "string", "rewards": "array"}, required=("rewards",), key="id",
            build=lambda obj: (obj, rewards_mod.grpo_advantages(obj["rewards"], epsilon=epsilon)))
    ]
    write_jsonl(out_path, out_rows)
    return {
        "counts": {"groups": len(out_rows)},
        "params": {"epsilon": epsilon},
    }


# -- generation and fusion -------------------------------------------------------


# translate/fuse config fields; backends, grid entries and the scorer are
# checked by their dataclasses' own field tables
_CHIMERA_FIELDS = {"schema_version": "integer", "backend": "object", "fusion_backend": "object",
                   "grid": "array", "per_slot_backends": "array", "fallback_scorer": "object"}
_CHIMERA_REQUIRED = ("schema_version", "backend")


def _load_chimera_config(path: str):
    """Backends, grid and fallback scorer from a config file."""
    from . import chimera as chimera_mod

    obj = _load_config(path, _CHIMERA_FIELDS, _CHIMERA_REQUIRED)
    backend = dataclass_from_obj(backends_mod.BackendSpec, obj["backend"], f"{path}: backend")
    fusion_backend = backend
    if "fusion_backend" in obj:
        fusion_backend = dataclass_from_obj(backends_mod.BackendSpec, obj["fusion_backend"], f"{path}: fusion_backend")
    grid = chimera_mod.default_grid()
    if "grid" in obj:
        if len(obj["grid"]) < 2:
            raise ValidationError(f"{path}: grid must have >= 2 entries, got {len(obj['grid'])}")
        grid = [dataclass_from_obj(backends_mod.GenerationParams, entry, f"{path}: grid[{i}]")
                for i, entry in enumerate(obj["grid"])]
    per_slot = None
    if "per_slot_backends" in obj:
        if len(obj["per_slot_backends"]) != len(grid):
            raise ValidationError(f"{path}: per_slot_backends must have one entry per grid entry ({len(grid)}), "
                                  f"got {len(obj['per_slot_backends'])}")
        per_slot = [None if entry is None
                    else dataclass_from_obj(backends_mod.BackendSpec, entry, f"{path}: per_slot_backends[{i}]")
                    for i, entry in enumerate(obj["per_slot_backends"])]
    scorer = None
    if "fallback_scorer" in obj:
        where = f"{path}: fallback_scorer"
        scorer = dataclass_from_obj(ScorerEndpoint, obj["fallback_scorer"], where)
        with at(where):
            scorer.check_item_fields(chimera_mod.FALLBACK_ITEM_FIELDS)
    return backend, fusion_backend, grid, per_slot, scorer


def _read_sources(path: str):
    """Source records, each with two known, different language tags, so a
    bad line fails before any request is sent."""
    fields = {"id": "string", "src_lang": "string", "tgt_lang": "string", "text": "string"}

    def source(obj):
        corpus_mod.classify_direction(obj["src_lang"], obj["tgt_lang"])
        return obj

    return [obj for _, obj in read_records(path, fields, required=fields, build=source, key="id")]


def _run_segments(sources, jobs, backend, grid, per_slot, fusion=None):
    """Candidate set, and fusion result when `fusion` = (backend, scorer) is
    given, for every segment, by `_fan_out` over the segments.

    Every request runs on one pool of `jobs` threads, so at most `jobs` are
    in flight at once whatever the number of segments, and each grid may
    use all of them. The segment threads only wait on that pool. It cannot
    deadlock: its threads run only leaf calls (`complete` and scoring) and
    never wait on another future.
    """
    from concurrent.futures import ThreadPoolExecutor

    from . import chimera as chimera_mod

    with ThreadPoolExecutor(max_workers=jobs) as requests:

        def run(src):
            # looked up per call so wrappers installed on the chimera module apply
            cand = chimera_mod.generate_candidates(
                backend, src["src_lang"], src["tgt_lang"], src["text"],
                grid=grid, per_slot_backends=per_slot, pool=requests,
            )
            if fusion is None:
                return cand, None
            return cand, chimera_mod.fuse(fusion[0], cand, fallback_scorer=fusion[1], pool=requests)

        return _fan_out(run, sources, jobs)


@_command("translate")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_jobs_option
def translate(config_path, in_path, out_path, jobs, seed):
    """Generate a candidate set per source segment over the sampling grid."""
    backend, _fusion, grid, per_slot, _scorer = _load_chimera_config(config_path)
    sources = _read_sources(in_path)
    results = _run_segments(sources, jobs, backend, grid, per_slot)
    out_rows = [
        {
            "id": src["id"],
            "source": cand.source_text,
            "src_lang": cand.src_lang,
            "tgt_lang": cand.tgt_lang,
            "candidates": list(cand.candidates),
            "params_used": [asdict(p) for p in cand.params_used],
            "failed_slots": [f.index for f in cand.failures],
        }
        for src, (cand, _) in zip(sources, results)
    ]
    write_jsonl(out_path, out_rows)
    return {
        "counts": {"sources": len(sources),
                   "candidates": sum(len(r["candidates"]) for r in out_rows)},
    }


@_command("fuse")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@_jobs_option
def fuse_cmd(config_path, in_path, out_path, jobs, seed):
    """Generate candidates and fuse them into one refined output per segment."""
    backend, fusion_backend, grid, per_slot, scorer = _load_chimera_config(config_path)
    sources = _read_sources(in_path)
    results = _run_segments(sources, jobs, backend, grid, per_slot, fusion=(fusion_backend, scorer))
    out_rows = [
        {
            "id": src["id"],
            "source": cand.source_text,
            "candidates": list(cand.candidates),
            "fused": result.fused_text,
            "fallback_used": result.fallback_used,
            "scores": list(result.candidate_scores) if result.candidate_scores else None,
        }
        for src, (cand, result) in zip(sources, results)
    ]
    write_jsonl(out_path, out_rows)
    return {
        "counts": {"sources": len(sources),
                   "fallbacks": sum(result.fallback_used for _, result in results)},
    }


# -- evaluation ------------------------------------------------------------------


@_command("eval")
@click.option("--pairs", "pairs_path", required=True, type=click.Path(exists=True))
@click.option("--hyps", "hyps_path", required=True, type=click.Path(exists=True))
@click.option("--metric", default="chrf", show_default=True,
              help="A scorer: a JSON config file, a registered local scorer such as 'chrf', or constant:<number>")
@click.option("--aggregation", default="micro", type=click.Choice(["micro", "macro"]), show_default=True)
@click.option("--out", "out_path", type=click.Path())
@click.option("--text", "text_mode", is_flag=True, help="Print the aligned text table")
def eval_cmd(pairs_path, hyps_path, metric, aggregation, out_path, text_mode, seed):
    """Score hypotheses against references and report per direction group."""
    from . import evalkit as evalkit_mod

    scorer = _load_scorer(metric, "--metric", evalkit_mod.SCORE_ITEM_FIELDS)
    pairs = corpus_mod.read_corpus(pairs_path, "parallel")
    fields = {"id": "string", "hypothesis": "string"}
    hyps = {obj["id"]: obj["hypothesis"] for _, obj in read_records(hyps_path, fields, required=fields, key="id")}
    scored, unscored = evalkit_mod.score_corpus(pairs, hyps, scorer)
    report = evalkit_mod.group_report(scored, scorer.name, aggregation=aggregation)
    if out_path:
        dump_json(out_path, report.to_obj())
    if text_mode:
        click.echo(report.render_text())
    return {
        "counts": {"pairs": len(pairs), "scored": len(scored), "failed": len(unscored)},
        "result": report.to_obj(),
    }


# -- pipeline --------------------------------------------------------------------


_PIPELINE_FIELDS = {"schema_version": "integer", "kind": ("mono", "parallel"), "input": "string",
                    "output": "string", "dropped_output": "string", "unscored_output": "string",
                    "seed": "integer", "stages": "array"}
_PIPELINE_REQUIRED = ("schema_version", "kind", "input", "output", "stages")


def _build_stages(config: dict, seed: int, path: str):
    """The configured stages, each entry checked against its class's FIELDS
    and given only the keys it sets (and a dedup stage the seed), so the
    schema, defaults and value checks live in the stage classes. A stage of
    the other record kind, a bad value or a second stage of one type names
    its entry as `<path>: stages[i]`; model files and scorers are loaded
    first and name their own place."""
    stages = []
    for i, entry in enumerate(config["stages"]):
        where = f"{path}: stages[{i}]"
        kind = check_fields(entry, {"type": tuple(filters_mod.STAGES)}, ("type",), where=where)["type"]
        make = filters_mod.STAGES[kind]
        if make.record_kind != config["kind"]:
            raise ValidationError(f"{where}: stage {kind!r} expects {make.record_kind} records, not {config['kind']}")
        check_fields(entry, {"type": "string", **make.FIELDS}, required_fields(make), closed=True, where=where)
        params = {key: value for key, value in entry.items() if key != "type"}
        if kind == "langid":
            from . import langid as langid_mod

            params["model"] = langid_mod.load_langid(params["model"])
        elif kind == "dedup":
            params["seed"] = seed
        elif kind == "perplexity":
            from . import ngram_lm as lm_mod

            params["model"] = lm_mod.load_lm(params["model"])
        else:
            params["scorer"] = dataclass_from_obj(ScorerEndpoint, params["scorer"], f"{where}.scorer")
        with at(where):
            stages.append(make(**params))
            if kind in [stage.name for stage in stages[:-1]]:
                raise ValidationError(f"a second {kind} stage; each stage type may appear once")
    return stages


def _dropped_with_stage(stage, record, reason, detail):
    return dict(corpus_mod.record_to_obj(record), stage=stage, reason=reason)


@_command("pipeline-run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@_process_jobs_option
def pipeline_run(config_path, jobs, seed):
    """Run a configured cleaning pipeline with per-stage accounting."""
    config = _load_config(config_path, _PIPELINE_FIELDS, _PIPELINE_REQUIRED)
    for key in ("input", "output"):
        if not config[key]:
            raise ValidationError(f"{config_path}: field {key!r} must name a file, not be empty")
    seed = config.get("seed", seed)
    if seed < 0:
        raise ValidationError(f"{config_path}: field 'seed' must be >= 0, got {seed}")
    stages = _build_stages(config, seed, config_path)
    result = _run_stages(config["input"], config["kind"], stages, config["output"], config.get("dropped_output"),
                         config.get("unscored_output"), dropped_row=_dropped_with_stage, jobs=jobs)
    return {
        "seed": seed,  # the config's seed, when it sets one
        "counts": {"input": len(result.final) + len(result.dropped) + len(result.unscored),
                   "output": len(result.final), "dropped": len(result.dropped), "unscored": len(result.unscored)},
        "stages": [asdict(r) for r in result.reports],
    }


def main(argv: list[str] | None = None) -> int:
    """Entry point: the exit code click gives (None, from a normal run, is 0) or the one an error maps to."""
    try:
        return cli.main(args=argv, prog_name="mtforge", standalone_mode=False) or 0
    except click.UsageError as exc:
        message = exc.format_message()
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        click.echo(f"error: {message}", err=True)
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except (MtforgeError, OSError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except MemoryError as exc:  # such as NumPy refusing an oversized array before allocating it
        click.echo(f"error: out of memory: {exc}" if str(exc) else
                   "error: out of memory; no output was written", err=True)
        return 2
