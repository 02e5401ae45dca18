"""Per-layer metrics: their definitions and their aggregation from spans.

``PER_LAYER`` lists every per-layer metric the traced run reports, with
its unit, its direction, and the end-to-end metric and workload it is
expected to move.  ``BENCHMARK.json`` repeats the names, units and
directions; the smoke test checks that the two agree.  Where a metric is
expected to move a figure on ``many-callers``, that workload is run by hand
(``run.py`` explains why ``BENCHMARK.json`` leaves it out).

Figures are totals over one traced eval of the whole workload.  Self time
is a span's duration minus the durations of its direct child spans.  With
``jobs`` above 1 the worker threads' spans overlap in wall time, and a
span's self time includes the time its thread waited for the interpreter
lock.
"""

from __future__ import annotations

from collections import defaultdict

_LARGE = "samples_per_s, sample_p50_s, cpu_s_per_sample on large-repo"
_MANY = "samples_per_s, sample_p50_s, cpu_s_per_sample on many-callers"
_SHARED = "samples_per_s, cpu_s_per_sample on shared-project"
_SMALL = "small on every workload"
_CHECK = "trace check: where a saving lands"

# (name, unit, better, expected to move)
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("javasrc.lexer.lex.calls", "count", "lower", f"{_LARGE} and many-callers; setup_s on shared-project"),
    ("javasrc.lexer.lex.bytes", "bytes", "lower", f"{_LARGE} and many-callers; setup_s on shared-project"),
    ("javasrc.lexer.lex.self_s", "s", "lower", f"{_LARGE} and many-callers; setup_s on shared-project"),
    ("javasrc.lexer.lex.relex_factor", "ratio", "lower", f"{_LARGE} and many-callers"),
    ("javasrc.format.canonicalize.calls", "count", "lower", "samples_per_s on many-callers and large-repo"),
    ("javasrc.format.canonicalize.bytes", "bytes", "lower", "samples_per_s on many-callers and large-repo"),
    ("javasrc.format.canonicalize.self_s", "s", "lower", "samples_per_s on many-callers and large-repo"),
    ("javasrc.ast.parse_java.calls", "count", "lower", "samples_per_s on large-repo"),
    ("javasrc.ast.parse_java.bytes", "bytes", "lower", "samples_per_s on large-repo"),
    ("javasrc.ast.parse_java.self_s", "s", "lower", "samples_per_s on large-repo"),
    ("javasrc.ast.parse_java.repeat_ratio", "ratio", "lower", "samples_per_s, peak_rss_mb on shared-project"),
    ("resolver.index_file.calls", "count", "lower", "samples_per_s on large-repo"),
    ("resolver.index_file.parses", "count", "lower", "samples_per_s on large-repo"),
    ("resolver.goto_definition.calls", "count", "lower", "samples_per_s on large-repo"),
    ("resolver.goto_definition.self_s", "s", "lower", "samples_per_s on large-repo"),
    ("resolver.find_references.calls", "count", "lower", "samples_per_s on large-repo"),
    ("resolver.find_references.self_s", "s", "lower", "samples_per_s on large-repo"),
    ("resolver.find_references.results", "count", "higher", "none: fixed by the workload"),
    ("resolver.resolve_class.calls", "count", "lower", "samples_per_s on large-repo"),
    ("resolver.resolve_class.self_s", "s", "lower", "samples_per_s on large-repo"),
    ("snapshot.read.calls", "count", "lower", "samples_per_s on many-callers"),
    ("snapshot.read.bytes", "bytes", "lower", "samples_per_s on many-callers"),
    ("snapshot.java_files.calls", "count", "lower", "samples_per_s on many-callers"),
    ("snapshot.unified_diff.calls", "count", "lower", "samples_per_s on many-callers"),
    ("snapshot.unified_diff.lines", "count", "lower", "samples_per_s on many-callers"),
    ("snapshot.unified_diff.self_s", "s", "lower", "samples_per_s on many-callers"),
    ("collectors.class_ctx.self_s", "s", "lower", "samples_per_s on large-repo"),
    ("collectors.usage_ctx.self_s", "s", "lower", _MANY),
    ("collectors.usage_ctx.chunks", "count", "higher", "none: recall, fixed by the workload"),
    ("collectors.env_ctx.self_s", "s", "lower", _SMALL),
    ("collectors.env_ctx.chunks", "count", "higher", "none: recall, fixed by the workload"),
    ("rerank.rerank_bundle.self_s", "s", "lower", "samples_per_s on many-callers"),
    ("rerank.score.calls", "count", "lower", "samples_per_s on many-callers"),
    ("rerank.score.documents", "count", "lower", "samples_per_s on many-callers"),
    ("rerank.score.self_s", "s", "lower", "samples_per_s on many-callers"),
    ("queries.build_query_set.self_s", "s", "lower", _SMALL),
    ("signatures.parse_method.self_s", "s", "lower", _SMALL),
    ("signatures.method_full_text.self_s", "s", "lower", _SMALL),
    ("signatures.method_body_text.self_s", "s", "lower", _SMALL),
    ("signatures.make_focal_change.self_s", "s", "lower", _SMALL),
    ("prompting.assemble_prompt.self_s", "s", "lower", _SHARED),
    ("prompting.assemble_prompt.tokens", "count", "lower", "none: fixed by the workload"),
    ("prompting.assemble_prompt.trimmed_chunks", "count", "lower", "none: fixed by the workload"),
    ("prompting.repair.self_s", "s", "lower", _SHARED),
    ("provider.complete.calls", "count", "lower", _SHARED),
    ("provider.complete.self_s", "s", "lower", _SHARED),
    ("metrics.code_bleu.calls", "count", "lower", _SHARED),
    ("metrics.code_bleu.self_s", "s", "lower", _SHARED),
    ("metrics.diff_bleu.calls", "count", "lower", _SHARED),
    ("metrics.diff_bleu.self_s", "s", "lower", _SHARED),
    ("dataflow.dataflow_edges.self_s", "s", "lower", _SHARED),
    ("dataset.validate_sample.calls", "count", "lower", "setup_s on shared-project"),
    ("dataset.validate_sample.self_s", "s", "lower", "setup_s on shared-project"),
    ("evaluate.write_report.self_s", "s", "lower", _SMALL),
]
STAGE_NAMES = ["load", "classify", "collect", "queries", "rerank", "prompt", "repair", "metrics"]
for _stage in STAGE_NAMES:
    PER_LAYER.append((f"stage.{_stage}.self_s", "s", "lower", _CHECK))
    PER_LAYER.append((f"stage.{_stage}.total_s", "s", "lower", _CHECK))
PER_LAYER += [
    ("stage.collect.javasrc_share", "ratio", "lower", "large-repo: lex + canonicalize + parse_java self time over collect"),
    ("stage.collect.usage_ctx_share", "ratio", "lower", "many-callers: usage_ctx time over collect"),
    ("trace.spans", "count", "lower", "tracing cost"),
    ("trace.overhead_pct", "%", "lower", "traced versus untraced samples_per_s"),
]

_JAVASRC = {"javasrc.lexer.lex", "javasrc.format.canonicalize", "javasrc.ast.parse_java"}


def aggregate(spans: list[tuple]) -> dict[str, float]:
    """Per-layer figures of one traced run (``trace.overhead_pct`` excepted)."""
    child_time: dict[int, float] = defaultdict(float)
    parents_of: dict[str, set[int]] = defaultdict(set)
    for span_id, name, start, end, parent, _sample, _stage, _extra in spans:
        child_time[parent] += end - start
        parents_of[name].add(parent)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    extras: dict[str, float] = defaultdict(float)
    digests: dict[str, set[int]] = defaultdict(set)
    read_bytes: dict[int, int] = {}
    index_file_ids: set[int] = set()
    javasrc_in_collect = 0.0
    usage_in_collect = 0.0
    for span_id, name, start, end, parent, _sample, stage, extra in spans:
        duration = end - start
        calls[name] += 1
        total_s[name] += duration
        own = duration - child_time.get(span_id, 0.0)
        self_s[name] += own
        if name == "resolver.index_file":
            index_file_ids.add(span_id)
        if stage == "collect" and name in _JAVASRC:
            javasrc_in_collect += own
        if stage == "collect" and name == "collectors.usage_ctx":
            usage_in_collect += duration
        if extra:
            for key, value in extra.items():
                if key == "digest":
                    digests[name].add(value)
                    if name == "snapshot.read":
                        read_bytes[value] = extra["bytes"]
                else:
                    extras[f"{name}.{key}"] += value
    out: dict[str, float] = {}
    for metric, _unit, _better, _moves in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = float(calls[layer])
        elif field == "self_s":
            out[metric] = self_s[layer]
        elif field == "total_s":
            out[metric] = total_s[layer]
        else:  # counted extras; derived figures are set below
            out[metric] = extras[metric]
    distinct_source = sum(read_bytes.values())
    out["javasrc.lexer.lex.relex_factor"] = (
        extras["javasrc.lexer.lex.bytes"] / distinct_source if distinct_source else 0.0
    )
    parse_digests = len(digests["javasrc.ast.parse_java"])
    out["javasrc.ast.parse_java.repeat_ratio"] = (
        calls["javasrc.ast.parse_java"] / parse_digests if parse_digests else 0.0
    )
    out["resolver.index_file.parses"] = float(
        len(index_file_ids & parents_of["javasrc.ast.parse_java"])
    )
    collect = total_s["stage.collect"]
    out["stage.collect.javasrc_share"] = javasrc_in_collect / collect if collect else 0.0
    out["stage.collect.usage_ctx_share"] = usage_in_collect / collect if collect else 0.0
    out["trace.spans"] = float(len(spans))
    return out
