"""The text-level metrics, kept as the oracle of the record-based ones.

Each function here takes method texts and derives everything it needs
from them on every call: it canonicalizes both sides, then lexes them
again for the tokens, the bracket subtrees and the dataflow edges.  This
is how :mod:`testmend.metrics` scored before it read one
:class:`~testmend.metrics.MetricRecord` per text;
``tests/test_metrics.py`` checks that both give the same floats, compared
with ``==``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from testmend import dataflow
from testmend.errors import EmptyReference, ParseError
from testmend.javasrc import lexer
from testmend.javasrc.format import canonicalize


def dataflow_edges(text: str) -> set[tuple[str, int, int]]:
    """Def-use edges of a code text; a text that does not lex has none."""
    try:
        tokens = lexer.lex(text)
    except ParseError:
        return set()
    return dataflow.dataflow_edges(tokens)


KEYWORD_WEIGHT = 5.0
_BRACKETS = {"(": ")", "{": "}", "[": "]"}
_AST_DEPTHS = (1, 2, 3)


def code_tokens(text: str) -> list[str]:
    """Code-aware token texts; malformed text degrades to a word split."""
    try:
        return lexer.token_texts(text)
    except ParseError:
        return text.split()


def normalize_method_text(text: str) -> str:
    """Canonical, indentation-free rendering used for metric comparison."""
    try:
        canonical = canonicalize(text)
    except ParseError:
        canonical = text
    return "\n".join(line.strip() for line in canonical.split("\n") if line.strip())


# ----------------------------------------------------------------------
# BLEU
# ----------------------------------------------------------------------


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _precisions(
    candidate: Sequence[str],
    reference: Sequence[str],
    max_n: int,
    unigram_weight: dict[str, float] | None = None,
) -> list[float]:
    """Clipped n-gram precisions; add-one smoothed for n >= 2.

    ``unigram_weight`` optionally reweights unigram counts (keyword
    emphasis); higher orders are never weighted.
    """
    out: list[float] = []
    for n in range(1, max_n + 1):
        cand = _ngram_counts(candidate, n)
        ref = _ngram_counts(reference, n)
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


def _bleu_from_precisions(
    precisions: Sequence[float], cand_len: int, ref_len: int
) -> float:
    if cand_len == 0 or precisions[0] == 0.0:
        return 0.0
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    log_mean = sum(math.log(p) for p in precisions) / len(precisions)
    return brevity * math.exp(log_mean)


def bleu(candidate: Sequence[str], reference: Sequence[str], max_n: int = 4) -> float:
    """BLEU with brevity penalty over pre-tokenized sequences."""
    if not reference:
        raise EmptyReference("bleu reference token sequence is empty")
    precisions = _precisions(candidate, reference, max_n)
    return _bleu_from_precisions(precisions, len(candidate), len(reference))


def weighted_bleu(
    candidate: Sequence[str],
    reference: Sequence[str],
    max_n: int = 4,
    keywords: frozenset[str] = lexer.KEYWORDS,
    weight: float = KEYWORD_WEIGHT,
) -> float:
    """BLEU whose unigram precision counts language keywords ``weight``-fold."""
    if not reference:
        raise EmptyReference("weighted bleu reference token sequence is empty")
    weights = {k: weight for k in keywords}
    precisions = _precisions(candidate, reference, max_n, unigram_weight=weights)
    return _bleu_from_precisions(precisions, len(candidate), len(reference))


# ----------------------------------------------------------------------
# syntax-subtree match
# ----------------------------------------------------------------------


@dataclass
class _BracketNode:
    label: str  # opening bracket, or "" for the root
    children: list = field(default_factory=list)  # _BracketNode | str


def _bracket_tree(tokens: Sequence[str]) -> _BracketNode | None:
    """Nest the token stream by bracket scopes; None if unbalanced."""
    root = _BracketNode("")
    stack = [root]
    for text in tokens:
        if text in _BRACKETS:
            node = _BracketNode(text)
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


def ast_match(candidate_text: str, reference_text: str) -> float:
    """Fraction of reference bracket-scope subtrees (depth <= 3) present
    in the candidate, averaged over the depths."""
    ref_root = _bracket_tree(code_tokens(reference_text))
    if ref_root is None:
        ref_root = _BracketNode("")
    if not _subtree_signatures(ref_root, 1):
        return 1.0
    cand_root = _bracket_tree(code_tokens(candidate_text))
    if cand_root is None:
        return 0.0
    fractions = []
    for depth in _AST_DEPTHS:
        ref_sigs = _subtree_signatures(ref_root, depth)
        cand_sigs = _subtree_signatures(cand_root, depth)
        matched = sum((ref_sigs & cand_sigs).values())
        fractions.append(matched / sum(ref_sigs.values()))
    return sum(fractions) / len(fractions)


def dataflow_match(candidate_text: str, reference_text: str) -> float:
    """Fraction of reference def-use edges present in the candidate."""
    ref_edges = dataflow_edges(reference_text)
    if not ref_edges:
        return 1.0
    cand_edges = dataflow_edges(candidate_text)
    return len(ref_edges & cand_edges) / len(ref_edges)


# ----------------------------------------------------------------------
# composite metrics
# ----------------------------------------------------------------------


def code_bleu(candidate: str, reference: str) -> float:
    """0.25·BLEU + 0.25·keyword-weighted BLEU + 0.25·syntax match +
    0.25·dataflow match, over canonicalized method texts."""
    cand_norm = normalize_method_text(candidate)
    ref_norm = normalize_method_text(reference)
    ref_tokens = code_tokens(ref_norm)
    if not ref_tokens:
        raise EmptyReference("code_bleu reference has no tokens")
    cand_tokens = code_tokens(cand_norm)
    return 0.25 * (
        bleu(cand_tokens, ref_tokens)
        + weighted_bleu(cand_tokens, ref_tokens)
        + ast_match(cand_norm, ref_norm)
        + dataflow_match(cand_norm, ref_norm)
    )


def _lines(normalized: str) -> list[str]:
    """The lines of a normalized text, which breaks lines at "\\n" only
    and never ends with one."""
    return normalized.split("\n") if normalized else []


def _changed_lines(text: str, original_lines: set[str]) -> list[str]:
    return [
        line
        for line in _lines(normalize_method_text(text))
        if line not in original_lines
    ]


def diff_bleu(original_test: str, candidate: str, reference: str) -> float:
    """BLEU restricted to the lines each side changed vs the obsolete test.

    Line membership is judged set-wise on canonicalized, stripped lines.
    Both sides unchanged scores 1.0; exactly one side unchanged scores
    0.0 (a no-op repair against a real reference change, or vice versa).
    """
    original_lines = set(_lines(normalize_method_text(original_test)))
    cand_changed = _changed_lines(candidate, original_lines)
    ref_changed = _changed_lines(reference, original_lines)
    if not cand_changed and not ref_changed:
        return 1.0
    if not cand_changed or not ref_changed:
        return 0.0
    return bleu(
        code_tokens("\n".join(cand_changed)), code_tokens("\n".join(ref_changed))
    )


def exact_match(candidate: str, reference: str) -> bool:
    return normalize_method_text(candidate) == normalize_method_text(reference)
