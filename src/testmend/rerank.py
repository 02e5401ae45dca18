"""Scoring context chunks against queries and selecting the retained set.

Two scorer backends share one interface: a deterministic lexical scorer
(TF-IDF cosine over identifier tokens, split on camelCase and
underscores, case-folded, lightly stemmed) and a remote neural scorer
speaking ``POST {"query", "documents"} -> {"scores"}``.  Selection keeps
the top ``k`` chunks per group; class-context constructors bypass
scoring and do not consume ``k``.
"""

from __future__ import annotations

import logging
import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Protocol, Sequence

import requests

from testmend.collectors import ClassCtxGroup, ContextChunk, TROCtxBundle
from testmend.errors import ScorerError
from testmend.queries import QuerySet

log = logging.getLogger(__name__)

DEFAULT_K = 3
UNRANKED = "unranked"

_WORD_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def identifier_tokens(text: str) -> list[str]:
    """Lowercased sub-tokens: camelCase and underscore split, stemmed.

    The stem rule strips one trailing ``s`` from tokens longer than
    three characters unless they end in ``ss`` (``options`` ->
    ``option``, ``class`` stays).
    """
    out: list[str] = []
    for word in _WORD_RE.findall(text):
        for part in word.split("_"):
            for piece in _CAMEL_RE.findall(part):
                token = piece.lower()
                if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
                    token = token[:-1]
                out.append(token)
    return out


class Scorer(Protocol):
    kind: str

    def score(self, query: str, documents: Sequence[str]) -> list[float]:
        """One relevance score per document, order-aligned."""
        ...


class LexicalScorer:
    """TF-IDF cosine relevance; fully deterministic."""

    kind = "lexical"

    def score(self, query: str, documents: Sequence[str]) -> list[float]:
        if not documents:
            return []
        doc_tokens = [identifier_tokens(d) for d in documents]
        query_tf = Counter(identifier_tokens(query))
        n_docs = len(documents)
        df: Counter[str] = Counter()
        for tokens in doc_tokens:
            df.update(set(tokens))
        idf = {
            t: math.log((n_docs + 1) / (df[t] + 1)) + 1.0
            for t in set(df) | set(query_tf)
        }
        q_vec = {t: tf * idf[t] for t, tf in query_tf.items()}
        q_norm = math.sqrt(sum(w * w for w in q_vec.values()))
        scores: list[float] = []
        for tokens in doc_tokens:
            d_tf = Counter(tokens)
            d_vec = {t: tf * idf[t] for t, tf in d_tf.items()}
            d_norm = math.sqrt(sum(w * w for w in d_vec.values()))
            if q_norm == 0.0 or d_norm == 0.0:
                scores.append(0.0)
                continue
            dot = sum(w * d_vec.get(t, 0.0) for t, w in q_vec.items())
            scores.append(dot / (q_norm * d_norm))
        return scores


class RemoteScorer:
    """Neural reranker endpoint; scores are min-max normalized per call."""

    kind = "remote"

    def __init__(
        self,
        endpoint: str,
        timeout: float = 30.0,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.timeout = timeout
        self.session = session or requests.Session()

    def score(self, query: str, documents: Sequence[str]) -> list[float]:
        if not documents:
            return []
        try:
            response = self.session.post(
                self.endpoint,
                json={"query": query, "documents": list(documents)},
                timeout=self.timeout,
            )
            response.raise_for_status()
            payload = response.json()
        except (requests.RequestException, ValueError) as exc:
            raise ScorerError(f"remote scorer request failed: {exc}") from exc
        scores = payload.get("scores") if isinstance(payload, dict) else None
        if not isinstance(scores, list) or len(scores) != len(documents):
            raise ScorerError(
                f"remote scorer returned {type(scores).__name__} of wrong shape "
                f"for {len(documents)} documents"
            )
        try:
            values = [float(s) for s in scores]
        except (TypeError, ValueError) as exc:
            raise ScorerError(f"remote scorer returned non-numeric score: {exc}") from exc
        return _min_max(values)

    def close(self) -> None:
        self.session.close()


def _min_max(values: list[float]) -> list[float]:
    low, high = min(values), max(values)
    if high == low:
        return [0.5] * len(values)
    return [(v - low) / (high - low) for v in values]


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


@dataclass
class ScoredChunk:
    chunk: ContextChunk
    score: float
    query_used: str

    def as_dict(self) -> dict:
        return {
            "text": self.chunk.text,
            "group_label": self.chunk.group_label,
            "is_constructor": self.chunk.is_constructor,
            "score": round(self.score, 6),
            "query_used": self.query_used,
        }


@dataclass
class RerankResult:
    bundle: TROCtxBundle
    rankings: dict[str, list[ScoredChunk]] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "rankings": {
                name: [s.as_dict() for s in ranked]
                for name, ranked in self.rankings.items()
            },
            "selected": self.bundle.as_dict(),
        }


def _rank(
    scorer: Scorer,
    queries: Sequence[str],
    chunks: Sequence[ContextChunk],
    texts: Sequence[Sequence[str]],
    k: int,
) -> list[ScoredChunk]:
    """Top-k chunks; each chunk's relevance = max over queries and texts.

    ``texts[i]`` holds the scoring document(s) for ``chunks[i]`` (usage
    chunks contribute their deleted-side and added-side texts
    separately).  Empty query sets keep the first ``k`` chunks in
    collection order, flagged unranked.
    """
    if not chunks:
        return []
    live_queries = [q for q in queries if q.strip()]
    if not live_queries:
        return [ScoredChunk(c, 0.0, UNRANKED) for c in chunks[:k]]
    flat_docs: list[str] = []
    owners: list[int] = []
    for i, docs in enumerate(texts):
        for doc in docs:
            flat_docs.append(doc)
            owners.append(i)
    best = [(-1.0, "") for _ in chunks]
    for query in live_queries:
        scores = scorer.score(query, flat_docs)
        for owner, score in zip(owners, scores):
            if score > best[owner][0]:
                best[owner] = (score, query)
    order = sorted(range(len(chunks)), key=lambda i: (-best[i][0], i))
    return [ScoredChunk(chunks[i], best[i][0], best[i][1]) for i in order[:k]]


def _class_queries(group: ClassCtxGroup, queries: QuerySet) -> tuple[str, ...]:
    if group.role == "param":
        return queries.param_op_queries
    if group.role == "return":
        return queries.ret_op_queries
    return (*queries.param_op_queries, *queries.ret_op_queries)


def _usage_sides(chunk: ContextChunk) -> list[str]:
    """The deleted-side and added-side texts of a usage diff chunk."""
    deleted: list[str] = []
    added: list[str] = []
    for line in chunk.text.splitlines():
        if line.startswith("- "):
            deleted.append(line[2:])
        elif line.startswith("+ "):
            added.append(line[2:])
    sides = []
    if deleted:
        sides.append("\n".join(deleted))
    if added:
        sides.append("\n".join(added))
    return sides or [chunk.text]


def rerank_bundle(
    bundle: TROCtxBundle,
    queries: QuerySet,
    scorer: Scorer | None = None,
    k: int = DEFAULT_K,
) -> RerankResult:
    scorer = scorer or LexicalScorer()
    result = RerankResult(
        bundle=TROCtxBundle(warnings=list(bundle.warnings)), rankings={}
    )
    for type_name, group in bundle.class_ctx.items():
        constructors = [c for c in group.chunks if c.is_constructor]
        others = [c for c in group.chunks if not c.is_constructor]
        ranked = _rank(
            scorer,
            _class_queries(group, queries),
            others,
            [[c.signature_form or c.text] for c in others],
            k,
        )
        result.rankings[f"class:{type_name}"] = ranked
        result.bundle.class_ctx[type_name] = replace(
            group, chunks=constructors + [s.chunk for s in ranked]
        )
    usage_ranked = _rank(
        scorer,
        (queries.obsolete_stmts,),
        bundle.usage_ctx,
        [_usage_sides(c) for c in bundle.usage_ctx],
        k,
    )
    result.rankings["usage"] = usage_ranked
    result.bundle.usage_ctx = [s.chunk for s in usage_ranked]
    env_focal_ranked = _rank(
        scorer,
        (queries.synbc_analysis,),
        bundle.env_ctx_focal,
        [[c.text] for c in bundle.env_ctx_focal],
        k,
    )
    result.rankings["env_focal"] = env_focal_ranked
    result.bundle.env_ctx_focal = [s.chunk for s in env_focal_ranked]
    env_test_ranked = _rank(
        scorer,
        (queries.obsolete_stmts,),
        bundle.env_ctx_test,
        [[c.text] for c in bundle.env_ctx_test],
        k,
    )
    result.rankings["env_test"] = env_test_ranked
    result.bundle.env_ctx_test = [s.chunk for s in env_test_ranked]
    return result
