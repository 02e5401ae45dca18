"""Run the repair pipeline over a dataset and report scores.

Per sample: classify the signature change, collect and rerank contexts,
assemble the prompt, run the repair attempts, and score the selected
candidate against the ground truth.  Failures are recorded per sample
and never abort the run.  Report files are deterministic for a fixed
configuration: wall-clock timings are written to their own file.

Concurrency is decided here alone.  The static stages (load through
prompt) read process-wide caches that take no lock, so :func:`run_sample`
runs :func:`prepare_sample` under one module lock: at ``jobs`` above 1 one
sample at a time is prepared, while the repair's provider calls and the
metrics of the other samples overlap.
"""

from __future__ import annotations

import csv
import json
import logging
import shlex
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

from testmend import metrics
from testmend.collectors import TROCtxBundle, construct_bundle
from testmend.dataset import RepairSample
from testmend.errors import InputError, ProviderError, ScorerError
from testmend.javasrc.format import canonicalize
from testmend.prompting import (
    DEFAULT_ATTEMPTS,
    DEFAULT_TEMPERATURE,
    DEFAULT_TOKEN_CAP,
    RepairPrompt,
    assemble_prompt,
    repair,
)
from testmend.provider import ChatProvider
from testmend.queries import QuerySet, build_query_set
from testmend.rerank import (
    DEFAULT_K,
    LexicalScorer,
    RerankResult,
    Scorer,
    rerank_bundle,
)
from testmend.resolver import make_resolver, parse_source
from testmend.signatures import (
    focal_change,
    method_body_text,
    method_full_text,
    render_kinds,
)
from testmend.snapshot import unified_diff

log = logging.getLogger(__name__)

# Held around prepare_sample by run_sample: the static stages are
# single-threaded by contract (see the module docstring).
_STATIC_STAGES = threading.Lock()


class SampleScore:
    """One report row, filled in stage by stage as the sample runs.

    ``ROW`` names the fields of :meth:`as_dict`, in report order;
    ``timings`` holds each stage's seconds and stays out of the row.
    """

    ROW = (
        "sample_id", "code_bleu", "diff_bleu", "exact_match", "exact_match_raw",
        "syntax_ok", "prompt_token_count", "selection_reason", "selected_text",
        "ground_truth", "kinds", "scorer_fallback", "error",
    )
    __slots__ = (*ROW, "timings")

    def __init__(
        self,
        sample_id: str,
        code_bleu: float | None = None,
        diff_bleu: float | None = None,
        exact_match: bool | None = None,
        exact_match_raw: bool | None = None,
        syntax_ok: bool = False,
        prompt_token_count: int = 0,
        selection_reason: str = "",
        selected_text: str = "",
        ground_truth: str = "",
        kinds: str = "",
        scorer_fallback: bool = False,
        error: str | None = None,
    ):
        self.sample_id = sample_id
        self.code_bleu = code_bleu
        self.diff_bleu = diff_bleu
        self.exact_match = exact_match
        self.exact_match_raw = exact_match_raw
        self.syntax_ok = syntax_ok
        self.prompt_token_count = prompt_token_count
        self.selection_reason = selection_reason
        self.selected_text = selected_text
        self.ground_truth = ground_truth
        self.kinds = kinds
        self.scorer_fallback = scorer_fallback
        self.error = error
        self.timings: dict[str, float] = {}

    def as_dict(self) -> dict:
        row = {name: getattr(self, name) for name in self.ROW}
        for name in ("code_bleu", "diff_bleu"):
            if row[name] is not None:
                row[name] = round(row[name], 6)
        return row


class EvalSettings(NamedTuple):
    """Pipeline settings; field names double as config-file keys.

    A non-blank ``lsp_command`` selects the language-server resolver; a
    blank one, the default, selects the builtin resolver.
    """

    k: int = DEFAULT_K
    attempts: int = DEFAULT_ATTEMPTS
    temperature: float = DEFAULT_TEMPERATURE
    token_cap: int = DEFAULT_TOKEN_CAP
    jobs: int = 1
    llm_queries: bool = False  # statement queries via the provider
    lsp_command: str = ""  # language server command line


def split_lsp_command(settings: EvalSettings) -> tuple[str, ...]:
    """The language-server command words, empty for the builtin resolver."""
    try:
        return tuple(shlex.split(settings.lsp_command))
    except ValueError as exc:
        raise InputError(f"malformed --lsp-command {settings.lsp_command!r}: {exc}") from exc


@contextmanager
def _stage(timings: dict[str, float], name: str):
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - start


class PreparedSample(NamedTuple):
    """Everything the pipeline produces for one sample short of the repair."""

    sample: RepairSample
    kinds: str
    test_text: str
    bundle: TROCtxBundle
    queries: QuerySet
    ranked: RerankResult
    prompt: RepairPrompt
    scorer_fallback: bool = False


def prepare_sample(
    sample: RepairSample,
    *,
    scorer: Scorer | None = None,
    provider: ChatProvider | None = None,
    settings: EvalSettings | None = None,
    timings: dict[str, float] | None = None,
) -> PreparedSample:
    """Run every stage up to (and including) prompt assembly.

    Not thread-safe: callers that run samples in threads go through
    :func:`run_sample`, which serializes this call.
    """
    settings = settings or EvalSettings()
    scorer = scorer or LexicalScorer()
    timings = timings if timings is not None else {}
    with _stage(timings, "load"):
        snapshot = sample.snapshot()
        pre_source = snapshot.read("pre", sample.focal_pre.file)
        post_source = snapshot.read("post", sample.focal_post.file)
        test_source = snapshot.read("pre", sample.test.file)
    with _stage(timings, "classify"):
        pre_file = parse_source(pre_source)
        post_file = parse_source(post_source)
        focal = focal_change(pre_file, post_file, sample.focal_pre, sample.focal_post)
        kinds = render_kinds(focal.kinds)
        focal_pre_text = method_full_text(pre_file, sample.focal_pre)
        focal_post_text = method_full_text(post_file, sample.focal_post)
        test_file = parse_source(test_source)
        test_text = method_full_text(test_file, sample.test)
        test_body = method_body_text(test_file, sample.test)
    with _stage(timings, "collect"):
        resolver = make_resolver(snapshot, split_lsp_command(settings))
        try:
            bundle = construct_bundle(focal, sample.test, resolver)
        finally:
            resolver.close()
    with _stage(timings, "queries"):
        focal_diff = unified_diff(
            canonicalize(focal_pre_text), canonicalize(focal_post_text)
        )
        queries = build_query_set(
            focal,
            focal_diff,
            test_body,
            provider=provider if settings.llm_queries else None,
        )
    scorer_fallback = False
    with _stage(timings, "rerank"):
        try:
            ranked = rerank_bundle(bundle, queries, scorer, settings.k)
        except ScorerError as exc:
            log.warning(
                "sample %s: remote scorer failed (%s); falling back to lexical",
                sample.id,
                exc,
            )
            scorer_fallback = True
            ranked = rerank_bundle(bundle, queries, LexicalScorer(), settings.k)
    with _stage(timings, "prompt"):
        prompt = assemble_prompt(
            focal, test_text, ranked, focal_diff, token_cap=settings.token_cap
        )
    return PreparedSample(
        sample=sample,
        kinds=kinds,
        test_text=test_text,
        bundle=bundle,
        queries=queries,
        ranked=ranked,
        prompt=prompt,
        scorer_fallback=scorer_fallback,
    )


def run_sample(
    sample: RepairSample,
    *,
    scorer: Scorer | None = None,
    provider: ChatProvider | None = None,
    settings: EvalSettings | None = None,
) -> SampleScore:
    settings = settings or EvalSettings()
    score = SampleScore(sample_id=sample.id, ground_truth=sample.ground_truth or "")
    timings = score.timings
    try:
        with _STATIC_STAGES:
            prepared = prepare_sample(
                sample,
                scorer=scorer,
                provider=provider,
                settings=settings,
                timings=timings,
            )
        score.kinds = prepared.kinds
        score.scorer_fallback = prepared.scorer_fallback
        score.prompt_token_count = prepared.prompt.token_count()
        if provider is None:
            raise ProviderError("no chat provider configured")
        with _stage(timings, "repair"):
            result = repair(
                prepared.prompt,
                provider,
                attempts=settings.attempts,
                temperature=settings.temperature,
                ground_truth=sample.ground_truth,
            )
            score.syntax_ok = result.syntax_ok
            score.selection_reason = result.selection_reason
            score.selected_text = result.selected_text
        with _stage(timings, "metrics"):
            if sample.ground_truth is not None:
                records = result.records
                selected = metrics.record_in(records, result.selected_text)
                truth = metrics.record_in(records, sample.ground_truth)
                score.code_bleu = result.code_bleu[result.selected]
                # A candidate that repeats the obsolete test has its record.
                original = records.get(prepared.test_text)
                original_text = (
                    metrics.normalize_method_text(prepared.test_text)
                    if original is None
                    else original.text
                )
                score.diff_bleu = metrics.diff_bleu(original_text, selected, truth)
                score.exact_match = metrics.exact_match(selected, truth)
                score.exact_match_raw = metrics.exact_match_raw(
                    result.selected_text, sample.ground_truth
                )
    except Exception as exc:  # noqa: BLE001 — one bad sample must not stop the run
        log.warning("sample %s failed: %s", sample.id, exc)
        score.error = f"{type(exc).__name__}: {exc}"
    return score


class EvaluationReport(NamedTuple):
    rows: list[SampleScore]
    config: dict

    def aggregates(self) -> dict:
        total = len(self.rows)
        scored = [r for r in self.rows if r.error is None and r.code_bleu is not None]
        diffed = [r for r in self.rows if r.error is None and r.diff_bleu is not None]

        def mean(values):
            return round(sum(values) / len(values), 6) if values else 0.0

        return {
            "samples": total,
            "errors": sum(1 for r in self.rows if r.error is not None),
            "code_bleu": mean([r.code_bleu for r in scored]),
            "diff_bleu": mean([r.diff_bleu for r in diffed]),
            "accuracy": mean([1.0 if r.exact_match else 0.0 for r in self.rows]),
            "accuracy_raw": mean(
                [1.0 if r.exact_match_raw else 0.0 for r in self.rows]
            ),
            "spr": mean([1.0 if r.syntax_ok else 0.0 for r in self.rows]),
            "scorer_fallbacks": sum(1 for r in self.rows if r.scorer_fallback),
        }

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "aggregates": self.aggregates(),
            "rows": [r.as_dict() for r in self.rows],
        }


def evaluate_dataset(
    samples: list[RepairSample],
    *,
    scorer: Scorer | None = None,
    provider: ChatProvider | None = None,
    settings: EvalSettings | None = None,
) -> EvaluationReport:
    settings = settings or EvalSettings()
    scorer = scorer or LexicalScorer()
    config = {
        "scorer": scorer.kind,
        "provider": "none" if provider is None else provider.kind,
        # shlex.split gives words exactly when the text has more than its blanks.
        "backend": "lsp" if settings.lsp_command.strip(" \t\r\n") else "builtin",
        "k": settings.k,
        "attempts": settings.attempts,
        "temperature": settings.temperature,
        "token_cap": settings.token_cap,
        "llm_queries": settings.llm_queries,
    }
    if settings.jobs == 1:
        rows = [
            run_sample(s, scorer=scorer, provider=provider, settings=settings)
            for s in samples
        ]
    else:
        with ThreadPoolExecutor(max_workers=settings.jobs) as pool:
            futures = [
                pool.submit(
                    run_sample, s, scorer=scorer, provider=provider, settings=settings
                )
                for s in samples
            ]
            rows = [f.result() for f in futures]
    return EvaluationReport(rows=rows, config=config)


# ----------------------------------------------------------------------
# report files
# ----------------------------------------------------------------------


def _percent(value: float | None) -> str:
    return "-" if value is None else f"{100.0 * value:.1f}"


def _flag(value: bool | None) -> str:
    if value is None:
        return "-"
    return "yes" if value else "no"


def render_table(report: EvaluationReport) -> str:
    agg = report.aggregates()
    config_line = "  ".join(f"{k}={v}" for k, v in report.config.items())
    lines = [
        f"samples: {agg['samples']}  errors: {agg['errors']}",
        f"config: {config_line}",
        "",
        f"{'sample':<28} {'kinds':<22} {'CodeBLEU':>8} {'DiffBLEU':>8} "
        f"{'Acc':>4} {'Raw':>4} {'SPR':>4} {'tokens':>7}",
    ]
    for row in report.rows:
        lines.append(
            f"{row.sample_id:<28} {row.kinds or '-':<22} "
            f"{_percent(row.code_bleu):>8} {_percent(row.diff_bleu):>8} "
            f"{_flag(row.exact_match):>4} {_flag(row.exact_match_raw):>4} "
            f"{_flag(row.syntax_ok):>4} {row.prompt_token_count:>7}"
        )
        if row.error:
            lines.append(f"{'':<28} error: {row.error}")
    lines.append(
        f"{'aggregate':<28} {'':<22} {_percent(agg['code_bleu']):>8} "
        f"{_percent(agg['diff_bleu']):>8} {_percent(agg['accuracy']):>4} "
        f"{_percent(agg['accuracy_raw']):>4} {_percent(agg['spr']):>4} {'':>7}"
    )
    return "\n".join(lines) + "\n"


def write_report(report: EvaluationReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the report files; everything except timings is deterministic."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "json": out / "report.json",
        "jsonl": out / "report.jsonl",
        "text": out / "report.txt",
        "timings": out / "timings.jsonl",
        "worksheet": out / "repairability_worksheet.csv",
    }
    paths["json"].write_text(
        json.dumps(report.as_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    with paths["jsonl"].open("w", encoding="utf-8") as fh:
        for row in report.rows:
            fh.write(json.dumps(row.as_dict(), sort_keys=True) + "\n")
    paths["text"].write_text(render_table(report), encoding="utf-8")
    with paths["timings"].open("w", encoding="utf-8") as fh:
        for row in report.rows:
            entry = {
                "sample_id": row.sample_id,
                "timings": {k: round(v, 6) for k, v in sorted(row.timings.items())},
            }
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    with paths["worksheet"].open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "candidate", "ground_truth", "verdict"])
        for row in report.rows:
            writer.writerow([row.sample_id, row.selected_text, row.ground_truth, ""])
    return paths
