"""Textual similarity metrics for repaired test methods.

``code_bleu`` follows the metric's standard four-component form: BLEU,
keyword-weighted BLEU, syntax-subtree match, and def-use dataflow match,
equally weighted.  ``diff_bleu`` scores only the lines a repair changed
relative to the obsolete test, so unchanged boilerplate cannot inflate
the score.  All component scores live in [0, 1].

The metrics read :class:`MetricRecord` values, one per method text,
which hold everything they need of that text: a sample builds one record
per distinct text and scores every pair from those.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Sequence

from testmend.dataflow import dataflow_edges
from testmend.errors import EmptyReference, ParseError
from testmend.javasrc import lexer
from testmend.javasrc.format import canonicalize

KEYWORD_WEIGHT = 5.0
_KEYWORD_WEIGHTS = {k: KEYWORD_WEIGHT for k in lexer.KEYWORDS}
_MAX_N = 4
_BRACKETS = {"(": ")", "{": "}", "[": "]"}
_AST_DEPTHS = (1, 2, 3)


def code_tokens(text: str) -> Sequence[str]:
    """Code-aware token texts; malformed text degrades to a word split."""
    try:
        return lexer.lex(text).texts
    except ParseError:
        return text.split()


def normalize_method_text(text: str) -> str:
    """Canonical, indentation-free rendering used for metric comparison."""
    try:
        canonical = canonicalize(text)
    except ParseError:
        canonical = text
    return "\n".join(line.strip() for line in lexer.split_lines(canonical) if line.strip())


def has_code_tokens(text: str) -> bool:
    """True iff ``text`` normalizes to code tokens, as a ``code_bleu``
    reference must.

    Canonicalizing keeps the token stream, so a text that lexes has code
    tokens exactly when it has tokens: one lex decides.
    """
    try:
        return bool(lexer.lex(text).texts)
    except ParseError:
        return bool(code_tokens(normalize_method_text(text)))


# ----------------------------------------------------------------------
# BLEU
# ----------------------------------------------------------------------


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ngrams(tokens: Sequence[str]) -> tuple[Counter, ...]:
    return tuple(_ngram_counts(tokens, n) for n in range(1, _MAX_N + 1))


def _precisions(
    candidate: Sequence[Counter],
    reference: Sequence[Counter],
    unigram_weight: dict[str, float] | None = None,
) -> list[float]:
    """Clipped n-gram precisions; add-one smoothed for n >= 2.

    ``unigram_weight`` optionally reweights unigram counts (keyword
    emphasis); higher orders are never weighted.
    """
    out: list[float] = []
    for n, (cand, ref) in enumerate(zip(candidate, reference), start=1):
        overlap = cand & ref
        if n == 1 and unigram_weight is not None:
            matched = sum(unigram_weight.get(g[0], 1.0) * c for g, c in overlap.items())
            total = sum(unigram_weight.get(g[0], 1.0) * c for g, c in cand.items())
        else:
            matched = sum(overlap.values())
            total = sum(cand.values())
        if n == 1:
            out.append(matched / total if total > 0 else 0.0)
        else:
            out.append((matched + 1.0) / (total + 1.0))
    return out


def _bleu(
    candidate: Sequence[Counter],
    reference: Sequence[Counter],
    cand_len: int,
    ref_len: int,
    unigram_weight: dict[str, float] | None = None,
) -> float:
    """BLEU-4 with brevity penalty from the n-gram counts of both sides."""
    precisions = _precisions(candidate, reference, unigram_weight)
    if cand_len == 0 or precisions[0] == 0.0:
        return 0.0
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    log_mean = sum(math.log(p) for p in precisions) / len(precisions)
    return brevity * math.exp(log_mean)


def bleu(candidate: Sequence[str], reference: Sequence[str]) -> float:
    """BLEU-4 with brevity penalty over pre-tokenized sequences."""
    if not reference:
        raise EmptyReference("bleu reference token sequence is empty")
    return _bleu(_ngrams(candidate), _ngrams(reference), len(candidate), len(reference))


# ----------------------------------------------------------------------
# syntax subtrees
# ----------------------------------------------------------------------


class _BracketNode(NamedTuple):
    label: str  # opening bracket, or "" for the root
    children: list  # _BracketNode | str


def _bracket_tree(tokens: Sequence[str]) -> _BracketNode | None:
    """Nest the token stream by bracket scopes; None if unbalanced."""
    root = _BracketNode("", [])
    stack = [root]
    for text in tokens:
        if text in _BRACKETS:
            node = _BracketNode(text, [])
            stack[-1].children.append(node)
            stack.append(node)
        elif text in _BRACKETS.values():
            if len(stack) == 1 or _BRACKETS[stack[-1].label] != text:
                return None
            stack.pop()
        else:
            stack[-1].children.append(text)
    return root if len(stack) == 1 else None


def _render_subtree(item, depth: int) -> str:
    if depth <= 0:
        return "#"
    if isinstance(item, _BracketNode):
        inner = " ".join(_render_subtree(c, depth - 1) for c in item.children)
        return f"{item.label}{inner}{_BRACKETS[item.label]}"
    return item


def _subtree_signatures(root: _BracketNode, depth: int) -> Counter:
    out: Counter = Counter()
    stack = list(root.children)
    while stack:
        item = stack.pop()
        if isinstance(item, _BracketNode):
            out[_render_subtree(item, depth)] += 1
            stack.extend(item.children)
    return out


# ----------------------------------------------------------------------
# one record per method text
# ----------------------------------------------------------------------


class MetricRecord(NamedTuple):
    """Everything the metrics read of one method text.

    ``tokens`` are the code tokens of ``text`` (its word split if it does
    not lex), ``ngrams`` their 1- to 4-gram counts, ``subtrees`` the
    bracket-subtree signature counts at depths 1 to 3 (None if the
    brackets do not balance), and ``edges`` the def-use edges of the
    same tokens (none if the text does not lex).
    """

    text: str  # normalize_method_text of the method text
    tokens: tuple[str, ...]
    ngrams: tuple[Counter, ...]
    subtrees: tuple[Counter, ...] | None
    edges: frozenset[tuple[str, int, int]]


def metric_record(text: str) -> MetricRecord:
    """The record of ``text``: one canonicalization and one lex."""
    normalized = normalize_method_text(text)
    try:
        kinds, tokens, *_ = lexer.lex(normalized)
    except ParseError:
        tokens = tuple(normalized.split())
        edges: frozenset = frozenset()
    else:
        edges = frozenset(dataflow_edges(kinds, tokens))
    root = _bracket_tree(tokens)
    subtrees = (
        None if root is None else tuple(_subtree_signatures(root, d) for d in _AST_DEPTHS)
    )
    return MetricRecord(normalized, tokens, _ngrams(tokens), subtrees, edges)


def record_in(records: dict[str, MetricRecord], text: str) -> MetricRecord:
    """``text``'s record in ``records``, built and added on first use."""
    record = records.get(text)
    if record is None:
        record = records[text] = metric_record(text)
    return record


# ----------------------------------------------------------------------
# components and composite metrics
# ----------------------------------------------------------------------


def ast_match(candidate: MetricRecord, reference: MetricRecord) -> float:
    """Fraction of reference bracket-scope subtrees (depth <= 3) present
    in the candidate, averaged over the depths."""
    ref_sigs = reference.subtrees
    if ref_sigs is None or not ref_sigs[0]:
        return 1.0
    cand_sigs = candidate.subtrees
    if cand_sigs is None:
        return 0.0
    fractions = [
        sum((ref & cand).values()) / sum(ref.values())
        for ref, cand in zip(ref_sigs, cand_sigs)
    ]
    return sum(fractions) / len(fractions)


def dataflow_match(candidate: MetricRecord, reference: MetricRecord) -> float:
    """Fraction of reference def-use edges present in the candidate."""
    if not reference.edges:
        return 1.0
    return len(reference.edges & candidate.edges) / len(reference.edges)


def code_bleu(candidate: MetricRecord, reference: MetricRecord) -> float:
    """0.25·BLEU + 0.25·keyword-weighted BLEU + 0.25·syntax match +
    0.25·dataflow match, over normalized method texts."""
    if not reference.tokens:
        raise EmptyReference("code_bleu reference has no tokens")
    grams = (candidate.ngrams, reference.ngrams, len(candidate.tokens), len(reference.tokens))
    return 0.25 * (
        _bleu(*grams)
        + _bleu(*grams, _KEYWORD_WEIGHTS)
        + ast_match(candidate, reference)
        + dataflow_match(candidate, reference)
    )


def diff_bleu(original_test: str, candidate: MetricRecord, reference: MetricRecord) -> float:
    """BLEU restricted to the lines each side changed vs the obsolete test.

    ``original_test`` is the obsolete test's normalized text
    (:func:`normalize_method_text`): line membership is judged set-wise
    on normalized lines, so no record of that test is needed.  Both
    sides unchanged scores 1.0; exactly one side unchanged scores 0.0 (a
    no-op repair against a real reference change, or vice versa).
    """
    original_lines = set(lexer.split_lines(original_test))
    cand_changed = [line for line in lexer.split_lines(candidate.text) if line not in original_lines]
    ref_changed = [line for line in lexer.split_lines(reference.text) if line not in original_lines]
    if not cand_changed and not ref_changed:
        return 1.0
    if not cand_changed or not ref_changed:
        return 0.0
    ref_tokens = code_tokens("\n".join(ref_changed))
    if cand_changed == ref_changed:
        return bleu(ref_tokens, ref_tokens)
    return bleu(code_tokens("\n".join(cand_changed)), ref_tokens)


def exact_match(candidate: MetricRecord, reference: MetricRecord) -> bool:
    return candidate.text == reference.text


def exact_match_raw(candidate: str, reference: str) -> bool:
    return candidate == reference
