"""Span tracing of testmend's layers from outside the program.

``Tracer.install()`` wraps each traced function at *every* module binding
under ``testmend`` (a function imported by name into five modules is
patched in all five) and each traced method on its class.  A span is
``(id, name, start, end, parent, sample, stage, extra)``; spans are kept
in memory, per thread nesting is tracked on a thread-local stack, and
``dump`` writes them out once the run is over.

Stage spans (``stage.load`` … ``stage.metrics``) are opened around the
public calls that make up each stage: a wrapped callable called directly
from ``evaluate.prepare_sample`` or ``evaluate.run_sample`` also opens the
span of the stage it belongs to.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable

# (module, attribute path) -> layer name; None traces the stage only.
LAYERS: list[tuple[str, str, str | None]] = [
    ("testmend.javasrc.lexer", "lex", "javasrc.lexer.lex"),
    ("testmend.javasrc.format", "canonicalize", "javasrc.format.canonicalize"),
    ("testmend.javasrc.format", "canonicalize_with_cursor", "javasrc.format.canonicalize"),
    ("testmend.javasrc.ast", "parse_java", "javasrc.ast.parse_java"),
    ("testmend.resolver", "CodeIndex.file", "resolver.index_file"),
    ("testmend.resolver", "CodeIndex.resolve_class", "resolver.resolve_class"),
    ("testmend.resolver", "BuiltinResolver.goto_definition", "resolver.goto_definition"),
    ("testmend.resolver", "BuiltinResolver.find_references", "resolver.find_references"),
    ("testmend.resolver", "make_resolver", None),
    ("testmend.snapshot", "RepoSnapshot.read", "snapshot.read"),
    ("testmend.snapshot", "RepoSnapshot.java_files", "snapshot.java_files"),
    ("testmend.snapshot", "unified_diff", "snapshot.unified_diff"),
    ("testmend.collectors", "ContextCollector.collect_class_ctx", "collectors.class_ctx"),
    ("testmend.collectors", "ContextCollector.collect_usage_ctx", "collectors.usage_ctx"),
    ("testmend.collectors", "ContextCollector.collect_env_ctx", "collectors.env_ctx"),
    ("testmend.collectors", "construct_bundle", None),
    ("testmend.rerank", "rerank_bundle", "rerank.rerank_bundle"),
    ("testmend.rerank", "LexicalScorer.score", "rerank.score"),
    ("testmend.queries", "build_query_set", "queries.build_query_set"),
    ("testmend.signatures", "parse_method", "signatures.parse_method"),
    ("testmend.signatures", "method_full_text", "signatures.method_full_text"),
    ("testmend.signatures", "method_body_text", "signatures.method_body_text"),
    ("testmend.signatures", "make_focal_change", "signatures.make_focal_change"),
    ("testmend.signatures", "render_kinds", None),
    ("testmend.prompting", "assemble_prompt", "prompting.assemble_prompt"),
    ("testmend.prompting", "repair", "prompting.repair"),
    ("testmend.provider", "ReplayProvider.complete", "provider.complete"),
    ("testmend.metrics", "code_bleu", "metrics.code_bleu"),
    ("testmend.metrics", "diff_bleu", "metrics.diff_bleu"),
    ("testmend.metrics", "exact_match", None),
    ("testmend.metrics", "exact_match_raw", None),
    ("testmend.dataflow", "dataflow_edges", "dataflow.dataflow_edges"),
    ("testmend.dataset", "validate_sample", "dataset.validate_sample"),
    ("testmend.dataset", "RepairSample.snapshot", None),
    ("testmend.evaluate", "run_sample", "evaluate.run_sample"),
    ("testmend.evaluate", "write_report", "evaluate.write_report"),
]

# Attribute name as called from prepare_sample/run_sample -> stage.
STAGES: dict[str, str] = {
    "snapshot": "load",
    "read": "load",
    "make_focal_change": "classify",
    "parse_method": "classify",
    "render_kinds": "classify",
    "method_full_text": "classify",
    "method_body_text": "classify",
    "make_resolver": "collect",
    "construct_bundle": "collect",
    "canonicalize": "queries",
    "unified_diff": "queries",
    "build_query_set": "queries",
    "rerank_bundle": "rerank",
    "assemble_prompt": "prompt",
    "repair": "repair",
    "code_bleu": "metrics",
    "diff_bleu": "metrics",
    "exact_match": "metrics",
    "exact_match_raw": "metrics",
}


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def _text_extra(args, kwargs, result) -> dict:
    text = args[0] if args else kwargs.get("text", kwargs.get("source", ""))
    return {"bytes": len(text), "digest": hash(text)}


def _read_extra(args, kwargs, result) -> dict:
    return {"bytes": len(result), "digest": hash(result)}


def _diff_extra(args, kwargs, result) -> dict:
    return {"lines": len(result.a_lines) + len(result.b_lines)}


def _count_extra(key: str, count: Callable) -> Callable:
    return lambda args, kwargs, result: {key: count(args, kwargs, result)}


EXTRAS: dict[str, Callable] = {
    "javasrc.lexer.lex": lambda a, k, r: {"bytes": len(a[0] if a else k["text"])},
    "javasrc.format.canonicalize": lambda a, k, r: {"bytes": len(a[0] if a else k["source"])},
    "javasrc.ast.parse_java": _text_extra,
    "snapshot.read": _read_extra,
    "snapshot.unified_diff": _diff_extra,
    "resolver.find_references": _count_extra("results", lambda a, k, r: len(r)),
    "collectors.class_ctx": _count_extra(
        "chunks", lambda a, k, r: sum(len(g.chunks) for g in r[0].values())
    ),
    "collectors.usage_ctx": _count_extra("chunks", lambda a, k, r: len(r[0])),
    "collectors.env_ctx": _count_extra("chunks", lambda a, k, r: len(r[0]) + len(r[1])),
    "rerank.score": _count_extra("documents", lambda a, k, r: len(r)),
    "prompting.assemble_prompt": lambda a, k, r: {
        "tokens": r.token_count(),
        "trimmed_chunks": r.trimmed_chunks,
    },
}

# Layers whose first argument is the sample the span belongs to.
SAMPLE_SCOPES = {"evaluate.run_sample", "dataset.validate_sample"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_callers: set = set()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = [0]
            state.sample = ""
            state.stage = ""
        return state

    def _wrap(self, fn: Callable, layer: str | None, attr: str) -> Callable:
        stage = STAGES.get(attr)
        extra_of = EXTRAS.get(layer) if layer else None
        sets_sample = layer in SAMPLE_SCOPES
        spans = self.spans
        ids = self._ids
        stage_callers = self._stage_callers
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._state()
            stack = state.stack
            opened: list[tuple] = []
            prior_sample, prior_stage = state.sample, state.stage
            if stage is not None and sys._getframe(1).f_code in stage_callers:
                span_id = next(ids)
                opened.append((span_id, f"stage.{stage}", stack[-1], perf()))
                stack.append(span_id)
                state.stage = stage
            if sets_sample:
                sample = _arg(args, kwargs, 0, "sample")
                state.sample = getattr(sample, "id", "")
            if layer is not None:
                span_id = next(ids)
                opened.append((span_id, layer, stack[-1], perf()))
                stack.append(span_id)
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf()
                sample_id, stage_name = state.sample, state.stage
                for span_id, name, parent, start in reversed(opened):
                    stack.pop()
                    extra = None
                    if ok and extra_of is not None and name == layer:
                        extra = extra_of(args, kwargs, result)
                    spans.append((span_id, name, start, end, parent, sample_id, stage_name, extra))
                state.sample, state.stage = prior_sample, prior_stage

        return traced

    def install(self) -> None:
        """Import the traced modules and patch every binding."""
        evaluate = importlib.import_module("testmend.evaluate")
        importlib.import_module("testmend.cli")
        self._stage_callers = {evaluate.prepare_sample.__code__, evaluate.run_sample.__code__}
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "testmend" or name.startswith("testmend."))
        ]
        for module_name, path, layer in LAYERS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(original, layer, attr))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(original, layer, path)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
