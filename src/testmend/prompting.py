"""Repair prompt assembly and the attempt/selection loop.

The prompt presents, in order: the expert role, the task, the
canonicalized obsolete test, a unified diff of the focal method, and the
retained context groups each under its own labelled section.  An empty
context bundle yields exactly the naive baseline prompt; over the token
cap, context chunks are dropped in the order :func:`assemble_prompt`
gives.  ``repair`` issues independent completion attempts, extracts one
method per response, syntax-checks it, and selects a winner.
"""

from __future__ import annotations

import functools
import logging
import re
from typing import Callable, NamedTuple

from testmend.errors import ParseError, ProviderError
from testmend.javasrc import lexer
from testmend.javasrc.ast import JavaFile, MethodDecl, parse_java
from testmend.javasrc.format import canonicalize
from testmend.metrics import MetricRecord, code_bleu, record_in
from testmend.provider import ChatProvider, Message, render_messages
from testmend.rerank import RerankResult
from testmend.signatures import FocalChange
from testmend.snapshot import DiffText

log = logging.getLogger(__name__)

DEFAULT_TOKEN_CAP = 8000
DEFAULT_ATTEMPTS = 3
DEFAULT_TEMPERATURE = 0.1

SYSTEM_TEXT = (
    "You are an expert in Java software evolution. You update unit tests "
    "that stopped compiling after the methods they exercise changed."
)
TASK_TEXT = (
    "The focal method's signature changed between two versions of the "
    "codebase, which broke the unit test below. Rewrite the test method so "
    "it works against the new version while preserving the original "
    "intent. Treat the reference sections that follow as guidance. Reply "
    "with exactly one fenced Java code block containing the complete "
    "repaired test method and nothing else."
)

USAGE_SECTION = ("Usage changes of the focal method",
                 "How other callers of {name} changed between versions.")
ENV_FOCAL_SECTION = ("Environment changes of the focal method",
                     "Changes in the focal method's class and parent classes.")
ENV_TEST_SECTION = ("Environment changes of the test",
                    "Changes in the test's class and parent classes.")
CLASS_SECTION_DESC = "Declarations available on the updated signature types."

_FENCE_RE = re.compile(r"```(?:java)?[ \t]*\r?\n(.*?)```", re.DOTALL | re.IGNORECASE)


class PromptSection(NamedTuple):
    label: str
    description: str
    chunk_texts: tuple[str, ...]


class RepairPrompt(NamedTuple):
    original_test_text: str
    focal_diff_text: str
    context_sections: tuple[PromptSection, ...] = ()
    trimmed_chunks: int = 0

    def user_text(self) -> str:
        parts = [
            TASK_TEXT,
            "## Original test method",
            f"```java\n{self.original_test_text}\n```",
            "## Focal method change",
            f"```diff\n{self.focal_diff_text}\n```",
        ]
        for section in self.context_sections:
            parts.append(f"## {section.label}")
            parts.append(section.description)
            parts.extend(section.chunk_texts)
        return "\n\n".join(parts)

    def messages(self) -> list[Message]:
        return [
            {"role": "system", "content": SYSTEM_TEXT},
            {"role": "user", "content": self.user_text()},
        ]

    def render(self) -> str:
        """The exact text hashed for replay keys (role-tagged messages)."""
        return render_messages(self.messages())

    def token_count(self) -> int:
        return len(self.render().split())


def focal_diff_text(focal: FocalChange, diff: DiffText) -> str:
    """Unified rendering of the focal method's diff, or a signature-level
    diff when the method texts do not differ line by line."""
    return diff.unified(context=3) or (
        f"- {focal.original.render()}\n+ {focal.updated.render()}"
    )


def assemble_prompt(
    focal: FocalChange,
    test_text: str,
    ranked: RerankResult,
    focal_diff: DiffText,
    *,
    token_cap: int = DEFAULT_TOKEN_CAP,
) -> RepairPrompt:
    """The repair prompt over the retained context of ``ranked``.

    Over ``token_cap`` tokens, chunks are dropped one at a time until the
    prompt fits: lowest rerank score first (a chunk rerank did not score
    counts 0); on equal scores the test's environment first, then the
    focal method's environment, usage and class members (the earlier
    class group first); within a section the later chunk first.
    Constructors are never dropped.
    """
    scores = {id(s.chunk): s.score for ranking in ranked.rankings.values() for s in ranking}
    troctx = ranked.bundle
    # (label, description, chunks, family rank); a lower rank is trimmed
    # first on equal scores.
    families = [
        *(
            (f"Defined in class {type_name}", CLASS_SECTION_DESC, group.chunks, 3)
            for type_name, group in troctx.class_ctx.items()
        ),
        (USAGE_SECTION[0], USAGE_SECTION[1].format(name=focal.updated.name), troctx.usage_ctx, 2),
        (*ENV_FOCAL_SECTION, troctx.env_ctx_focal, 1),
        (*ENV_TEST_SECTION, troctx.env_ctx_test, 0),
    ]
    # Each family's chunk texts; a dropped chunk's text becomes None.
    texts: list[list[str | None]] = [[c.text for c in chunks] for _, _, chunks, _ in families]
    victims = sorted(
        (scores.get(id(c), 0.0), rank, -pos, index)
        for index, (_, _, chunks, rank) in enumerate(families)
        for pos, c in enumerate(chunks)
        if not c.is_constructor
    )
    original_test_text = canonicalize(test_text)
    diff_text = focal_diff_text(focal, focal_diff)

    def build(trimmed: int) -> RepairPrompt:
        sections = []
        for (label, desc, _, _), family_texts in zip(families, texts):
            kept = tuple(t for t in family_texts if t is not None)
            if kept:
                sections.append(PromptSection(label, desc, kept))
        return RepairPrompt(original_test_text, diff_text, tuple(sections), trimmed)

    prompt = build(0)
    for trimmed, (score, _, neg_pos, index) in enumerate(victims, start=1):
        if prompt.token_count() <= token_cap:
            break
        texts[index][-neg_pos] = None
        log.info(
            "prompt over %d tokens; dropped a chunk from %r (score %.3f)",
            token_cap, families[index][0], score,
        )
        prompt = build(trimmed)
    return prompt


# ----------------------------------------------------------------------
# response handling
# ----------------------------------------------------------------------


# The lexer's whitespace: trimming it off a member body keeps its tokens.
_JAVA_SPACE = " \t\r\n\f"


def _parse_members(body: str) -> JavaFile | None:
    """``body`` parsed as the members of a wrapper class, or None if it
    does not parse."""
    try:
        return parse_java(f"class __Wrapper {{\n{body}\n}}")
    except ParseError:
        return None


def _first_method_slice(content: str, parse: Callable[[str], JavaFile | None]) -> str | None:
    java_file = parse(content.strip(_JAVA_SPACE))
    if java_file is None:
        return None
    methods = [
        m
        for cls in java_file.all_classes()
        for m in cls.members
        if isinstance(m, MethodDecl)
    ]
    if not methods:
        return None
    methods.sort(key=lambda m: (m.is_constructor, m.start))
    return java_file.slice(methods[0].start, methods[0].end)


_HEADER_PUNCT = frozenset({"(", ")", "[", "]", "<", ">", ",", ".", "...", "@", "&"})


def _refine_head(content: str, head: int, open_idx: int) -> int:
    """Walk back from the opening brace over plausible header tokens so
    surrounding prose is not swept into the extracted declaration."""
    try:
        kinds, texts, _, _, offsets = lexer.lex(content[head:open_idx])
    except ParseError:
        return head
    start = None
    for i in range(len(texts) - 1, -1, -1):
        if kinds[i] in lexer.WORD_KINDS or texts[i] in _HEADER_PUNCT:
            start = offsets[i]
        else:
            break
    return head + start if start is not None else head


def _brace_scan(content: str) -> str | None:
    open_idx = content.find("{")
    if open_idx == -1:
        return None
    head = max(content.rfind(";", 0, open_idx), content.rfind("}", 0, open_idx)) + 1
    head = _refine_head(content, head, open_idx)
    depth = 0
    for i in range(open_idx, len(content)):
        if content[i] == "{":
            depth += 1
        elif content[i] == "}":
            depth -= 1
            if depth == 0:
                return content[head : i + 1].strip()
    return None


def extract_method_text(
    raw: str, parse: Callable[[str], JavaFile | None] = _parse_members
) -> str:
    """The repaired method from a model response.

    Preference order: fenced code block, then the first structurally
    parsed method declaration, then a raw brace scan, then the stripped
    response.  The result is always a contiguous substring of ``raw``.
    ``parse`` parses a member body (see :func:`repair`, which shares one
    parse per body with :func:`validate_syntax`).
    """
    match = _FENCE_RE.search(raw)
    content = match.group(1) if match else raw
    parsed = _first_method_slice(content, parse)
    if parsed is not None:
        return parsed
    scanned = _brace_scan(content)
    if scanned is not None:
        return scanned
    return content.strip()


def validate_syntax(
    method_text: str, parse: Callable[[str], JavaFile | None] = _parse_members
) -> bool:
    """True iff the text is exactly one well-formed method declaration."""
    text = method_text.strip()
    if not text:
        return False
    java_file = parse(text)
    if java_file is None or len(java_file.classes) != 1:
        return False
    members = java_file.classes[0].members
    if len(members) != 1 or not isinstance(members[0], MethodDecl):
        return False
    # The method must span every token of the text: all tokens but the
    # wrapper's three before it and its closing brace.
    tokens = java_file.tokens
    last = len(tokens.offsets) - 2
    return (
        members[0].start == tokens.offsets[3]
        and members[0].end == tokens.offsets[last] + len(tokens.texts[last])
    )


def token_edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance over token sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i]
        for j, tok_b in enumerate(b, start=1):
            cost = 0 if tok_a == tok_b else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
            )
        previous = current
    return previous[-1]


class RepairCandidate(NamedTuple):
    attempt: int
    raw_text: str
    method_text: str
    syntax_ok: bool

    def as_dict(self) -> dict:
        return {
            "attempt": self.attempt,
            "raw_text": self.raw_text,
            "method_text": self.method_text,
            "syntax_ok": self.syntax_ok,
        }


class RepairResult(NamedTuple):
    """The candidates and the selected one.

    ``code_bleu`` holds each candidate's score against the ground truth,
    exactly when a ground truth is given; ``records`` holds the metric
    record of every text selection read (see
    :func:`~testmend.metrics.record_in`), so the metrics stage builds none
    of them again.
    """

    candidates: list[RepairCandidate]
    selected: int
    selection_reason: str
    code_bleu: list[float] | None
    records: dict[str, MetricRecord]

    @property
    def selected_text(self) -> str:
        return self.candidates[self.selected].method_text

    @property
    def syntax_ok(self) -> bool:
        return self.candidates[self.selected].syntax_ok

    def as_dict(self) -> dict:
        return {
            "candidates": [c.as_dict() for c in self.candidates],
            "selected": self.selected,
            "selection_reason": self.selection_reason,
        }


def _select(
    candidates: list[RepairCandidate],
    original_test: str,
    ground_truth: str | None,
) -> RepairResult:
    records: dict[str, MetricRecord] = {}

    def result(selected: int, reason: str, scores: list[float] | None = None):
        return RepairResult(candidates, selected, reason, scores, records)

    if ground_truth is not None:
        truth = record_in(records, ground_truth)
        scores = [code_bleu(record_in(records, c.method_text), truth) for c in candidates]
        best = min(range(len(candidates)), key=lambda i: (-scores[i], i))
        return result(best, "best-code-bleu", scores)
    valid = [i for i, c in enumerate(candidates) if c.syntax_ok]
    if not valid:
        return result(0, "all-invalid")
    original_tokens = record_in(records, original_test).tokens

    def distance(i: int) -> int:
        tokens = record_in(records, candidates[i].method_text).tokens
        return token_edit_distance(tokens, original_tokens)

    best = min(valid, key=lambda i: (distance(i), i))
    return result(best, "valid-min-edit")


def repair(
    prompt: RepairPrompt,
    provider: ChatProvider,
    attempts: int = DEFAULT_ATTEMPTS,
    temperature: float = DEFAULT_TEMPERATURE,
    ground_truth: str | None = None,
) -> RepairResult:
    """Run the attempt loop and select one repaired method.

    With a ground truth the highest-CodeBLEU candidate wins (evaluation
    setting; :class:`~testmend.errors.EmptyReference` if the ground truth
    has no code tokens); without one, the syntactically valid candidate
    closest to the original test wins.  Attempts that fail at the provider shrink
    the candidate pool; an empty pool is fatal for the sample.  Each
    distinct member body is parsed once: a bare or fenced single-method
    response is extracted and syntax-checked from one parse, and a
    method text that repeats is given its metric record once.
    """
    messages = prompt.messages()
    parse = functools.cache(_parse_members)
    candidates: list[RepairCandidate] = []
    for attempt in range(attempts):
        try:
            raw = provider.complete(messages, temperature=temperature, attempt=attempt)
        except ProviderError as exc:
            log.warning("repair attempt %d failed: %s", attempt, exc)
            continue
        method_text = extract_method_text(raw, parse)
        candidates.append(
            RepairCandidate(
                attempt=attempt,
                raw_text=raw,
                method_text=method_text,
                syntax_ok=validate_syntax(method_text, parse),
            )
        )
    if not candidates:
        raise ProviderError(f"all {attempts} repair attempts failed")
    return _select(candidates, prompt.original_test_text, ground_truth)
