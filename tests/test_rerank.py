"""Lexical/remote scorers and top-k context selection."""

import json
import math
import random
import threading
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from testmend.cli import RunConfig, build_scorer
from testmend.collectors import ClassCtxGroup, ContextChunk, TROCtxBundle
from testmend.errors import ScorerError
from testmend.queries import QuerySet
from testmend.rerank import (
    UNRANKED,
    LexicalScorer,
    RemoteScorer,
    identifier_tokens,
    rerank_bundle,
)

# The member chunks of the replacement option type from the worked
# mount() example, frozen as plain text.
MEMBER_DOCS = [
    "public static final int READONLY_FIELD_NUMBER = 1;",
    "public static MountPOptions getDefaultInstance();",
    "public MountPOptions getDefaultInstanceForType();",
    "public boolean hasReadOnly();",
    "public boolean getReadOnly();",
    "public void setReadOnly(boolean value);",
]
MEMBER_QUERY = "MountOptions.defaults()"

# Token lists written out by hand (camelCase/underscore split, folded,
# trailing-s stemmed) so the expected cosines are computed without
# touching the implementation's tokenizer.
HAND_TOKENS = {
    MEMBER_QUERY: ["mount", "option", "default"],
    MEMBER_DOCS[0]: ["public", "static", "final", "int", "readonly", "field", "number"],
    MEMBER_DOCS[1]: ["public", "static", "mount", "p", "option", "get", "default", "instance"],
    MEMBER_DOCS[2]: ["public", "mount", "p", "option", "get", "default", "instance", "for", "type"],
    MEMBER_DOCS[3]: ["public", "boolean", "has", "read", "only"],
    MEMBER_DOCS[4]: ["public", "boolean", "get", "read", "only"],
    MEMBER_DOCS[5]: ["public", "void", "set", "read", "only", "boolean", "value"],
}


def hand_cosines(query: str, documents: list[str]) -> list[float]:
    """Reference TF-IDF cosine computed from the hand-written tokens."""
    doc_tokens = [HAND_TOKENS[d] for d in documents]
    q_tf = Counter(HAND_TOKENS[query])
    df = Counter()
    for tokens in doc_tokens:
        df.update(set(tokens))
    n = len(documents)

    def idf(t):
        return math.log((n + 1) / (df[t] + 1)) + 1.0

    out = []
    q_norm = math.sqrt(sum((tf * idf(t)) ** 2 for t, tf in q_tf.items()))
    for tokens in doc_tokens:
        d_tf = Counter(tokens)
        d_norm = math.sqrt(sum((tf * idf(t)) ** 2 for t, tf in d_tf.items()))
        dot = sum(q_tf[t] * idf(t) * d_tf[t] * idf(t) for t in q_tf if t in d_tf)
        out.append(dot / (q_norm * d_norm) if q_norm and d_norm else 0.0)
    return out


def chunk(text, label="group", ctor=False, sig=None):
    return ContextChunk(
        text=text,
        group_label=label,
        signature_form=text if sig is None else sig,
        is_constructor=ctor,
    )


def qset(param=(), ret=(), analysis="", stmts=""):
    return QuerySet(
        param_op_queries=tuple(param),
        ret_op_queries=tuple(ret),
        synbc_analysis=analysis,
        obsolete_stmts=stmts,
    )


# ----------------------------------------------------------------------
# tokenizer
# ----------------------------------------------------------------------


def test_identifier_tokens_split_camel_underscore_and_acronyms():
    assert identifier_tokens("getDefaultInstance") == ["get", "default", "instance"]
    assert identifier_tokens("READONLY_FIELD_NUMBER") == ["readonly", "field", "number"]
    assert identifier_tokens("MountPOptions") == ["mount", "p", "option"]
    assert identifier_tokens("hasReadOnly()") == ["has", "read", "only"]


def test_identifier_tokens_stemming_rules():
    assert identifier_tokens("options") == ["option"]
    assert identifier_tokens("defaults") == ["default"]
    # Too short, or ss-final: left alone.
    assert identifier_tokens("has") == ["has"]
    assert identifier_tokens("class") == ["class"]
    assert identifier_tokens("miss") == ["miss"]


def test_identifier_tokens_digit_handling():
    # Standalone numbers carry no lexical signal; attached digits stay.
    assert identifier_tokens("x = 1;") == ["x"]
    assert identifier_tokens("arg0") == ["arg0"]


# ----------------------------------------------------------------------
# lexical scorer
# ----------------------------------------------------------------------


def test_lexical_matches_hand_computed_cosines():
    got = LexicalScorer().score(MEMBER_QUERY, MEMBER_DOCS)
    want = hand_cosines(MEMBER_QUERY, MEMBER_DOCS)
    assert got == pytest.approx(want, abs=1e-9)
    # getDefaultInstance shares mount/option/default and is shorter than
    # getDefaultInstanceForType, so it must score strictly highest.
    assert got[1] == max(got)
    assert got[1] > got[2] > 0.0
    assert got[1] == pytest.approx(0.6544, abs=1e-3)
    assert got[2] == pytest.approx(0.5780, abs=1e-3)
    assert got[0] == got[3] == got[4] == got[5] == 0.0


def test_lexical_self_similarity_is_maximal():
    docs = ["assertEquals(5, stats.total());", "mCounter.add(5);", "helper.reset();"]
    scores = LexicalScorer().score(docs[0], docs)
    assert scores[0] == pytest.approx(1.0)
    assert scores[0] == max(scores)


def test_lexical_scores_bounded_and_zero_for_disjoint_vocab():
    scores = LexicalScorer().score("alpha beta", ["gamma delta", "alpha gamma"])
    assert all(0.0 <= s <= 1.0 for s in scores)
    assert scores[0] == 0.0
    assert scores[1] > 0.0


def test_lexical_empty_inputs():
    scorer = LexicalScorer()
    assert scorer.score("anything", []) == []
    # A query with no identifier tokens scores everything zero.
    assert scorer.score("==>", ["foo bar"]) == [0.0]


def test_lexical_monotonicity_of_planted_query_token():
    rng = random.Random(7)
    vocab = [f"tok{i}" for i in range(30)]
    scorer = LexicalScorer()
    for _ in range(25):
        docs = [" ".join(rng.choices(vocab, k=rng.randint(3, 8))) for _ in range(5)]
        target = rng.randrange(5)
        docs[target] += " uniquemark"
        query = " ".join(rng.choices(vocab, k=3))
        before = scorer.score(query, docs)
        after = scorer.score(query + " uniquemark", docs)

        def rank(scores, i):
            return sorted(range(5), key=lambda j: (-scores[j], j)).index(i)

        assert rank(after, target) <= rank(before, target)


# ----------------------------------------------------------------------
# remote scorer
# ----------------------------------------------------------------------


@pytest.fixture()
def score_double():
    """A local reranker endpoint driven by a scripted response list."""
    state = {"script": [], "requests": []}

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            state["requests"].append(json.loads(self.rfile.read(length)))
            status, payload = (
                state["script"].pop(0) if state["script"] else (200, {"scores": []})
            )
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    state["endpoint"] = f"http://127.0.0.1:{server.server_address[1]}/rerank"
    yield state
    server.shutdown()
    server.server_close()


def test_remote_scorer_posts_wire_contract(score_double):
    score_double["script"] = [(200, {"scores": [0.1, 0.9]})]
    RemoteScorer(score_double["endpoint"]).score("q", ["d1", "d2"])
    body = score_double["requests"][0]
    assert body == {"query": "q", "documents": ["d1", "d2"]}


def test_remote_scorer_min_max_normalizes_per_call(score_double):
    score_double["script"] = [(200, {"scores": [1.0, 3.0, 2.0]})]
    got = RemoteScorer(score_double["endpoint"]).score("q", ["a", "b", "c"])
    assert got == pytest.approx([0.0, 1.0, 0.5])


def test_remote_scorer_constant_scores_become_half(score_double):
    score_double["script"] = [(200, {"scores": [2.5, 2.5]})]
    got = RemoteScorer(score_double["endpoint"]).score("q", ["a", "b"])
    assert got == [0.5, 0.5]


def test_remote_scorer_rejects_malformed_payloads(score_double):
    scorer = RemoteScorer(score_double["endpoint"])
    score_double["script"] = [(200, {"results": [1.0]})]
    with pytest.raises(ScorerError):
        scorer.score("q", ["a"])
    score_double["script"] = [(200, {"scores": [1.0, 2.0]})]
    with pytest.raises(ScorerError):
        scorer.score("q", ["only-one"])
    score_double["script"] = [(200, {"scores": ["high"]})]
    with pytest.raises(ScorerError):
        scorer.score("q", ["a"])


def test_remote_scorer_raises_on_http_failure(score_double):
    score_double["script"] = [(500, {"error": "boom"})]
    with pytest.raises(ScorerError):
        RemoteScorer(score_double["endpoint"]).score("q", ["a"])


def test_build_scorer_follows_config():
    assert build_scorer(RunConfig()).kind == "lexical"
    remote = build_scorer(
        RunConfig(scorer="remote", scorer_endpoint="http://127.0.0.1:1/rerank")
    )
    assert remote.kind == "remote"
    assert remote.endpoint == "http://127.0.0.1:1/rerank"
    assert remote.timeout == 30.0


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------


def test_constructors_retained_without_consuming_k():
    members = [chunk("public Box();", ctor=True)] + [
        chunk(f"public int plainMember{i}();") for i in range(5)
    ]
    bundle = TROCtxBundle(
        class_ctx={"Box": ClassCtxGroup("Box", "param", members, ["Box"])}
    )
    out = rerank_bundle(bundle, qset(param=("setLid()",)), k=2).bundle
    kept = out.class_ctx["Box"].chunks
    assert kept[0].is_constructor
    assert len(kept) == 3  # ctor + k non-constructors


def test_class_groups_routed_by_role():
    param_hit = chunk("public void setOptions(MountPOptions value);")
    ret_hit = chunk("public int total();")
    filler = chunk("public void unrelatedHelper();")
    queries = qset(param=("setOptions()",), ret=("total()",))

    def group(role):
        return TROCtxBundle(
            class_ctx={"T": ClassCtxGroup("T", role, [filler, param_hit, ret_hit], ["T"])}
        )

    by_param = rerank_bundle(group("param"), queries, k=1).bundle.class_ctx["T"].chunks
    assert by_param == [param_hit]
    by_ret = rerank_bundle(group("return"), queries, k=1).bundle.class_ctx["T"].chunks
    assert by_ret == [ret_hit]
    by_both = rerank_bundle(group("both"), queries, k=2).bundle.class_ctx["T"].chunks
    assert set(c.text for c in by_both) == {param_hit.text, ret_hit.text}


def test_class_scoring_uses_signature_form_not_text():
    decoy = chunk("zzz qqq", sig="public void setOptions(MountPOptions value);")
    loud_text = chunk("setOptions setOptions setOptions", sig="public void other();")
    bundle = TROCtxBundle(
        class_ctx={"T": ClassCtxGroup("T", "param", [loud_text, decoy], ["T"])}
    )
    out = rerank_bundle(bundle, qset(param=("setOptions()",)), k=1).bundle
    kept = out.class_ctx["T"].chunks
    assert kept == [decoy]
    assert kept[0].text == "zzz qqq"  # selection never rewrites chunk text


def test_usage_chunks_scored_by_best_side():
    relevant = chunk(
        "- MountOptions mountOptions = MountOptions.defaults();\n+ unrelatedNoise();"
    )
    noise = chunk("- aaa bbb;\n+ ccc ddd;")
    bundle = TROCtxBundle(usage_ctx=[noise, relevant])
    stmts = "MountOptions mountOptions = MountOptions.defaults();"
    out = rerank_bundle(bundle, qset(stmts=stmts), k=1).bundle
    assert out.usage_ctx == [relevant]


def test_usage_planted_tokens_match_exhaustive_scoring():
    rng = random.Random(11)
    vocab = [f"word{i}" for i in range(40)]
    stmts = "mFileSystem.mount(alluxioPath, ufsPath, mountOptions);"
    planted_at = {2: "mount", 5: "alluxioPath", 8: "mountOptions"}
    chunks = []
    for i in range(10):
        deleted = " ".join(rng.choices(vocab, k=4))
        added = " ".join(rng.choices(vocab, k=4))
        if i in planted_at:
            deleted += f" {planted_at[i]} mFileSystem"
        chunks.append(chunk(f"- {deleted}\n+ {added}"))
    bundle = TROCtxBundle(usage_ctx=list(chunks))
    out = rerank_bundle(bundle, qset(stmts=stmts), k=3).bundle

    # Exhaustive check: score every side text in one corpus-shaped call
    # and take each chunk's max, exactly as the selection contract says.
    flat, owners = [], []
    for i, c in enumerate(chunks):
        for line in c.text.splitlines():
            flat.append(line[2:])
            owners.append(i)
    side_scores = LexicalScorer().score(stmts, flat)
    best = {}
    for owner, s in zip(owners, side_scores):
        best[owner] = max(best.get(owner, 0.0), s)
    expected = sorted(range(10), key=lambda i: (-best[i], i))[:3]
    assert [c.text for c in out.usage_ctx] == [chunks[i].text for i in expected]


def test_env_groups_use_their_own_queries():
    focal_hit = chunk("- parameter type changed to MountPOptions")
    test_hit = chunk("- assertTrue(mFileSystem.exists(alluxioPath));")
    bundle = TROCtxBundle(
        env_ctx_focal=[test_hit, focal_hit],
        env_ctx_test=[focal_hit, test_hit],
    )
    queries = qset(
        analysis="parameter type changed to MountPOptions",
        stmts="assertTrue(mFileSystem.exists(alluxioPath));",
    )
    out = rerank_bundle(bundle, queries, k=1).bundle
    assert out.env_ctx_focal == [focal_hit]
    assert out.env_ctx_test == [test_hit]


def test_ties_keep_collection_order():
    chunks = [chunk(f"- same tokens here {'x' * 0}") for _ in range(4)]
    bundle = TROCtxBundle(usage_ctx=list(chunks))
    out = rerank_bundle(bundle, qset(stmts="different vocabulary entirely"), k=3).bundle
    assert out.usage_ctx == chunks[:3]


def test_empty_query_set_keeps_first_k_flagged_unranked():
    chunks = [chunk(f"- line {i}") for i in range(5)]
    bundle = TROCtxBundle(usage_ctx=list(chunks))
    result = rerank_bundle(bundle, qset(stmts="   "), k=3)
    assert result.bundle.usage_ctx == chunks[:3]
    assert all(s.query_used == UNRANKED for s in result.rankings["usage"])

    group = ClassCtxGroup("T", "param", [chunk("public void member();")], ["T"])
    result = rerank_bundle(TROCtxBundle(class_ctx={"T": group}), qset(), k=3)
    assert result.rankings["class:T"][0].query_used == UNRANKED


def test_small_groups_and_k_override():
    chunks = [chunk("- a b;"), chunk("- c d;")]
    bundle = TROCtxBundle(usage_ctx=list(chunks))
    assert len(rerank_bundle(bundle, qset(stmts="a"), k=5).bundle.usage_ctx) == 2
    assert len(rerank_bundle(bundle, qset(stmts="a"), k=1).bundle.usage_ctx) == 1


def test_selection_is_subset_and_deterministic():
    rng = random.Random(3)
    chunks = [chunk(" ".join(rng.choices(["mount", "path", "ufs", "opts"], k=4)))
              for _ in range(6)]
    bundle = TROCtxBundle(
        usage_ctx=chunks[:4], env_ctx_focal=chunks[4:], env_ctx_test=[]
    )
    queries = qset(analysis="mount path", stmts="ufs opts mount")
    first = rerank_bundle(bundle, queries, k=2)
    second = rerank_bundle(bundle, queries, k=2)
    assert first.as_dict() == second.as_dict()
    assert set(id(c) for c in first.bundle.all_chunks()) <= set(
        id(c) for c in bundle.all_chunks()
    )


def test_rerank_result_serializes():
    bundle = TROCtxBundle(usage_ctx=[chunk("- mFileSystem.mount(a, b, c);")])
    result = rerank_bundle(bundle, qset(stmts="mount"), k=3)
    payload = result.as_dict()
    assert "usage" in payload["rankings"]
    entry = payload["rankings"]["usage"][0]
    assert set(entry) == {"text", "group_label", "is_constructor", "score", "query_used"}
    assert entry["query_used"] == "mount"
