"""Prompt assembly, response extraction, syntax gate, and selection."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend import prompting
from testmend.collectors import ClassCtxGroup, ContextChunk, TROCtxBundle
from testmend.errors import EmptyReference, ProviderError
from testmend.javasrc.ast import MethodDecl, parse_java
from testmend.javasrc.format import canonicalize
from testmend.javasrc.lexer import lex
from testmend.prompting import (
    RepairPrompt,
    assemble_prompt,
    extract_method_text,
    focal_diff_text,
    repair,
    token_edit_distance,
    validate_syntax,
)
from testmend.provider import prompt_digest
from testmend.rerank import RerankResult, ScoredChunk
from testmend.signatures import MethodSignature, make_focal_change
from testmend.snapshot import unified_diff

import prompt_oracle

ORI_SIG = MethodSignature(
    name="mount",
    param_types=("AlluxioURI", "AlluxioURI", "MountOptions"),
    return_type="void",
    modifiers=frozenset({"public"}),
    param_names=("alluxioPath", "ufsPath", "options"),
)
UPD_SIG = MethodSignature(
    name="mount",
    param_types=("AlluxioURI", "AlluxioURI", "MountPOptions"),
    return_type="void",
    modifiers=frozenset({"public"}),
    param_names=("alluxioPath", "ufsPath", "options"),
)
FOCAL = make_focal_change(ORI_SIG, UPD_SIG)

TEST_BODY = """\
public void mount() {
    AlluxioURI alluxioPath = new AlluxioURI("/mnt");
    MountOptions mountOptions = MountOptions.defaults();
    mFileSystem.mount(alluxioPath, ufsPath, mountOptions);
}
"""

FOCAL_PRE = """\
public void mount(AlluxioURI alluxioPath, AlluxioURI ufsPath, MountOptions options) {
    mMountTable.add(alluxioPath, ufsPath, options.isReadOnly());
}
"""
FOCAL_POST = FOCAL_PRE.replace("MountOptions", "MountPOptions").replace(
    "isReadOnly", "hasReadOnly"
)
FOCAL_DIFF = unified_diff(canonicalize(FOCAL_PRE), canonicalize(FOCAL_POST))
NO_DIFF = unified_diff("", "")

VALID_REPAIR = """\
public void mount() {
    AlluxioURI alluxioPath = new AlluxioURI("/mnt");
    MountPOptions mountOptions = MountPOptions.getDefaultInstance();
    mFileSystem.mount(alluxioPath, ufsPath, mountOptions);
}"""


def chunk(text, ctor=False):
    return ContextChunk(text=text, group_label="x", is_constructor=ctor)


def sample_bundle():
    return TROCtxBundle(
        class_ctx={
            "MountPOptions": ClassCtxGroup(
                "MountPOptions",
                "param",
                [
                    chunk("public MountPOptions();", ctor=True),
                    chunk("public static MountPOptions getDefaultInstance();"),
                ],
                ["MountPOptions"],
            )
        },
        usage_ctx=[chunk("- mount(a, u, MountOptions.defaults());\n+ mount(a, u, MountPOptions.getDefaultInstance());")],
        env_ctx_focal=[chunk("- import alluxio.MountOptions;\n+ import alluxio.MountPOptions;")],
        env_ctx_test=[chunk("- int seed = 1;\n+ int seed = 2;")],
    )


def all_chunks(bundle):
    groups = [g.chunks for g in bundle.class_ctx.values()]
    return [c for chunks in groups for c in chunks] + (
        bundle.usage_ctx + bundle.env_ctx_focal + bundle.env_ctx_test
    )


class ScriptedProvider:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def complete(self, messages, *, temperature=0.0, attempt=0):
        self.calls.append(
            {"messages": messages, "temperature": temperature, "attempt": attempt}
        )
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


# ----------------------------------------------------------------------
# prompt assembly
# ----------------------------------------------------------------------


def test_prompt_section_order_and_verbatim_chunks():
    bundle = sample_bundle()
    prompt = assemble_prompt(FOCAL, TEST_BODY, RerankResult(bundle, {}), FOCAL_DIFF)
    text = prompt.user_text()
    order = [
        text.index("## Original test method"),
        text.index("## Focal method change"),
        text.index("## Defined in class MountPOptions"),
        text.index("## Usage changes of the focal method"),
        text.index("## Environment changes of the focal method"),
        text.index("## Environment changes of the test"),
    ]
    assert order == sorted(order)
    for c in all_chunks(bundle):
        assert c.text in text
    assert "How other callers of mount changed between versions." in text
    assert "@@" in prompt.focal_diff_text


def test_prompt_without_bodies_falls_back_to_signature_diff():
    rendered = focal_diff_text(FOCAL, NO_DIFF)
    assert rendered.splitlines()[0].startswith("- ")
    assert "MountOptions" in rendered and "MountPOptions" in rendered
    prompt = assemble_prompt(FOCAL, TEST_BODY, RerankResult(TROCtxBundle(), {}), NO_DIFF)
    assert prompt.focal_diff_text == rendered


def test_empty_bundle_prompt_equals_naive_baseline():
    with_empty = assemble_prompt(
        FOCAL, TEST_BODY, RerankResult(TROCtxBundle(), {}), FOCAL_DIFF
    )
    # The naive baseline: role, task, test and focal diff, nothing else.
    naive = RepairPrompt(
        original_test_text=canonicalize(TEST_BODY),
        focal_diff_text=focal_diff_text(FOCAL, FOCAL_DIFF),
    )
    assert with_empty == naive
    assert with_empty.render() == naive.render()
    assert "##" not in with_empty.render().split("## Focal method change")[1]


def test_prompt_rendering_is_deterministic_and_digest_aligned():
    one = assemble_prompt(FOCAL, TEST_BODY, RerankResult(sample_bundle(), {}), NO_DIFF)
    two = assemble_prompt(FOCAL, TEST_BODY, RerankResult(sample_bundle(), {}), NO_DIFF)
    assert one.render() == two.render()
    digest = hashlib.sha256(one.render().encode()).hexdigest()
    assert digest == prompt_digest(one.messages())


def user_lines(ranked):
    return assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF).user_text().splitlines()


def test_adding_a_chunk_only_appends_within_its_group():
    base = sample_bundle()
    grown = sample_bundle()
    grown.usage_ctx.append(chunk("- extra(old);\n+ extra(new);"))
    base_lines = user_lines(RerankResult(base, {}))
    grown_lines = user_lines(RerankResult(grown, {}))
    it = iter(grown_lines)
    assert all(line in it for line in base_lines)  # ordered subsequence


def test_token_cap_trims_env_test_first_by_default():
    bundle = sample_bundle()
    bundle.env_ctx_test.append(chunk("- more(old);\n+ more(new);"))
    full = assemble_prompt(FOCAL, TEST_BODY, RerankResult(bundle, {}), NO_DIFF)
    cap = full.token_count() - 1
    trimmed = assemble_prompt(
        FOCAL, TEST_BODY, RerankResult(bundle, {}), NO_DIFF, token_cap=cap
    )
    assert trimmed.trimmed_chunks == 1
    env_test = [s for s in trimmed.context_sections
                if s.label == "Environment changes of the test"]
    # The last env-test chunk went first; the rest of the prompt is intact.
    assert env_test[0].chunk_texts == ("- int seed = 1;\n+ int seed = 2;",)
    assert len(trimmed.context_sections) == len(full.context_sections)


def test_token_cap_trims_lowest_score_first_with_rankings():
    bundle = sample_bundle()
    member = bundle.class_ctx["MountPOptions"].chunks[1]
    rankings = {
        "usage": [ScoredChunk(bundle.usage_ctx[0], 0.05, "q")],
        "env_test": [ScoredChunk(bundle.env_ctx_test[0], 0.8, "q")],
        "env_focal": [ScoredChunk(bundle.env_ctx_focal[0], 0.9, "q")],
        "class:MountPOptions": [ScoredChunk(member, 0.7, "q")],
    }
    ranked = RerankResult(bundle, rankings)
    full = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF)
    cap = full.token_count() - 1
    trimmed = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF, token_cap=cap)
    labels = [s.label for s in trimmed.context_sections]
    assert "Usage changes of the focal method" not in labels
    assert "Environment changes of the test" in labels


def test_token_cap_trims_a_chunk_rerank_did_not_score_first():
    bundle = sample_bundle()
    rankings = {
        "usage": [ScoredChunk(bundle.usage_ctx[0], 0.1, "q")],
        "env_test": [ScoredChunk(bundle.env_ctx_test[0], 0.1, "q")],
        "env_focal": [ScoredChunk(bundle.env_ctx_focal[0], 0.1, "q")],
    }
    ranked = RerankResult(bundle, rankings)
    full = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF)
    cap = full.token_count() - 1
    trimmed = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF, token_cap=cap)
    # The unscored class member counts 0 and goes before any scored chunk.
    assert trimmed.trimmed_chunks == 1
    assert trimmed.context_sections[0].chunk_texts == ("public MountPOptions();",)
    assert len(trimmed.context_sections) == len(full.context_sections)


def test_token_cap_drops_the_chosen_chunk_of_repeated_texts():
    # Two chunks share a text: the lower-scored one, last in the section,
    # goes, not the first with that text.
    env_test = [chunk("x y"), chunk("b"), chunk("x y")]
    bundle = TROCtxBundle(env_ctx_test=env_test)
    rankings = {"env_test": [ScoredChunk(c, s, "q") for c, s in zip(env_test, (0.9, 0.8, 0.1))]}
    ranked = RerankResult(bundle, rankings)
    cap = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF).token_count() - 1
    trimmed = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF, token_cap=cap)
    assert trimmed.trimmed_chunks == 1
    assert trimmed.context_sections[-1].chunk_texts == ("x y", "b")


def test_token_cap_never_trims_constructors():
    bundle = sample_bundle()
    trimmed = assemble_prompt(
        FOCAL, TEST_BODY, RerankResult(bundle, {}), NO_DIFF, token_cap=0
    )
    labels = [s.label for s in trimmed.context_sections]
    assert labels == ["Defined in class MountPOptions"]
    assert trimmed.context_sections[0].chunk_texts == ("public MountPOptions();",)
    assert trimmed.trimmed_chunks == 4


# Few distinct texts and scores, so that duplicate texts and tied scores
# occur; None leaves a chunk unscored.
CHUNK_TEXTS = ["a", "b c", "- x(1);\n+ x(2);", "d e f g"]
SCORES = [None, 0.0, 0.25, 1.0]


@st.composite
def ranked_bundles(draw):
    """A RerankResult over 0-2 class groups (constructors among their
    chunks) and 0-4 chunks per family, each scored from SCORES; the
    rankings are empty or hold every scored chunk."""
    rankings = {}

    def family(name, ctor=False):
        chunks = []
        for _ in range(draw(st.integers(0, 4))):
            c = chunk(draw(st.sampled_from(CHUNK_TEXTS)), ctor=ctor and draw(st.booleans()))
            chunks.append(c)
            score = draw(st.sampled_from(SCORES))
            if score is not None:
                rankings.setdefault(name, []).append(ScoredChunk(c, score, "q"))
        return chunks

    bundle = TROCtxBundle(
        class_ctx={
            name: ClassCtxGroup(name, "param", family(f"class:{name}", ctor=True), [name])
            for name in ["A", "B"][: draw(st.integers(0, 2))]
        },
        usage_ctx=family("usage"),
        env_ctx_focal=family("env_focal"),
        env_ctx_test=family("env_test"),
    )
    return RerankResult(bundle, rankings if draw(st.booleans()) else {})


@settings(max_examples=500, deadline=None, database=None)
@given(ranked_bundles(), st.data())
def test_trimming_matches_the_per_drop_oracle(ranked, data):
    full = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF)
    cap = data.draw(st.integers(0, full.token_count() + 2))
    got = assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF, token_cap=cap)
    want = prompt_oracle.assemble_prompt(FOCAL, TEST_BODY, ranked, NO_DIFF, token_cap=cap)
    assert got == want
    assert got.render() == want.render()
    assert got.trimmed_chunks == want.trimmed_chunks


# ----------------------------------------------------------------------
# extraction
# ----------------------------------------------------------------------


def test_extract_prefers_fenced_block_and_stays_contiguous():
    raw = f"Here is the repaired test:\n```java\n{VALID_REPAIR}\n```\nHope this helps."
    got = extract_method_text(raw)
    assert got == VALID_REPAIR
    assert got in raw


def test_extract_fence_without_language_tag():
    raw = f"```\n{VALID_REPAIR}\n```"
    assert extract_method_text(raw) == VALID_REPAIR


def test_extract_bare_method_without_fence():
    raw = f"Sure!\n{VALID_REPAIR}\nLet me know."
    got = extract_method_text(raw)
    assert got == VALID_REPAIR
    assert got in raw


def test_extract_method_from_full_class_response():
    raw = f"```java\nclass FileSystemMasterTest {{\n{VALID_REPAIR}\n}}\n```"
    got = extract_method_text(raw)
    assert got == VALID_REPAIR


def test_extract_brace_scan_fallback():
    raw = "int x broken syntax ; then void almost() { stuff(); } trailing"
    got = extract_method_text(raw)
    assert got == "then void almost() { stuff(); }"
    assert got in raw


def test_extract_prose_falls_back_to_strip():
    raw = "  I cannot repair this test.  "
    assert extract_method_text(raw) == "I cannot repair this test."


# ----------------------------------------------------------------------
# syntax validation
# ----------------------------------------------------------------------


def test_validate_syntax_accepts_single_method():
    assert validate_syntax(VALID_REPAIR)
    assert validate_syntax("void tiny() {}")


def test_validate_syntax_rejects_malformed_and_non_methods():
    assert not validate_syntax("")
    assert not validate_syntax("void broken() {")
    assert not validate_syntax("int field = 1;")
    assert not validate_syntax("void a() {}\nvoid b() {}")
    assert not validate_syntax("class Inner {}")
    assert not validate_syntax("mFileSystem.mount(a, b, c);")


def test_validate_syntax_agrees_with_independent_full_file_parse():
    # 100 mutants by deleting random tokens, judged independently by
    # parsing a complete compilation unit with a different envelope.
    def oracle(text):
        source = f"package p;\nimport x.Y;\nclass Other {{}}\nclass Holder {{\n{text}\n}}"
        try:
            java_file = parse_java(source)
        except Exception:
            return False
        holder = java_file.find_class("Holder")
        if holder is None or len(holder.members) != 1:
            return False
        member = holder.members[0]
        if not isinstance(member, MethodDecl):
            return False
        try:
            return lex(source[member.start : member.end]).texts == lex(text).texts
        except Exception:
            return False

    rng = random.Random(42)
    base = lex(VALID_REPAIR).texts
    for _ in range(100):
        tokens = list(base)
        for _ in range(rng.randint(1, 3)):
            tokens.pop(rng.randrange(len(tokens)))
        mutant = " ".join(tokens)
        assert validate_syntax(mutant) == oracle(mutant), mutant


# ----------------------------------------------------------------------
# repair loop and selection
# ----------------------------------------------------------------------


def make_prompt():
    return assemble_prompt(FOCAL, TEST_BODY, RerankResult(TROCtxBundle(), {}), FOCAL_DIFF)


def test_repair_temperature_and_attempt_count():
    provider = ScriptedProvider([VALID_REPAIR] * 3)
    result = repair(make_prompt(), provider, attempts=3, temperature=0.1)
    assert len(provider.calls) == 3
    assert all(c["temperature"] == 0.1 for c in provider.calls)
    assert [c["attempt"] for c in provider.calls] == [0, 1, 2]
    assert [c.attempt for c in result.candidates] == [0, 1, 2]


@pytest.mark.parametrize(
    "response",
    [VALID_REPAIR, VALID_REPAIR + "\n", f"```java\n{VALID_REPAIR}\n```\n"],
    ids=["bare", "bare-newline", "fenced"],
)
def test_repair_parses_a_single_method_response_once(monkeypatch, response):
    """Extraction and the syntax gate share one parse of the method."""
    parsed = []

    def counting_parse(text):
        parsed.append(text)
        return parse_java(text)

    monkeypatch.setattr(prompting, "parse_java", counting_parse)
    result = repair(make_prompt(), ScriptedProvider([response] * 3), attempts=3)
    assert len(parsed) == 1
    assert [c.method_text for c in result.candidates] == [VALID_REPAIR] * 3
    assert all(c.syntax_ok for c in result.candidates)


def test_identical_candidates_select_first_attempt():
    provider = ScriptedProvider([VALID_REPAIR] * 3)
    result = repair(make_prompt(), provider, ground_truth=VALID_REPAIR)
    assert result.selected == 0
    assert result.selection_reason == "best-code-bleu"
    assert result.selected_text == VALID_REPAIR


def test_eval_mode_selects_highest_code_bleu():
    near_miss = VALID_REPAIR.replace("getDefaultInstance", "newBuilder")
    provider = ScriptedProvider([near_miss, VALID_REPAIR, near_miss])
    result = repair(make_prompt(), provider, ground_truth=VALID_REPAIR)
    assert result.selected == 1
    assert result.selected_text == VALID_REPAIR


def test_eval_mode_rejects_a_ground_truth_without_tokens():
    provider = ScriptedProvider([VALID_REPAIR])
    with pytest.raises(EmptyReference):
        repair(make_prompt(), provider, attempts=1, ground_truth="/* no code */")


def test_repair_mode_prefers_valid_minimal_edit():
    invalid = "void broken() {"
    far = "public void mount() { totally.different(); body.here(); now(); }"
    near = VALID_REPAIR
    provider = ScriptedProvider([invalid, far, near])
    result = repair(make_prompt(), provider)
    assert result.selected == 2
    assert result.selection_reason == "valid-min-edit"
    assert not result.candidates[0].syntax_ok


def test_all_invalid_selects_candidate_zero():
    provider = ScriptedProvider(["void broken() {", "also broken ("])
    result = repair(make_prompt(), provider, attempts=2)
    assert result.selected == 0
    assert result.selection_reason == "all-invalid"
    assert not result.syntax_ok


def test_provider_failures_shrink_the_pool():
    provider = ScriptedProvider(
        [VALID_REPAIR, ProviderError("down"), VALID_REPAIR]
    )
    result = repair(make_prompt(), provider)
    assert [c.attempt for c in result.candidates] == [0, 2]


def test_all_attempts_failing_is_fatal():
    provider = ScriptedProvider([ProviderError("down")] * 3)
    with pytest.raises(ProviderError):
        repair(make_prompt(), provider)


def test_token_edit_distance_basics():
    assert token_edit_distance(["a", "b"], ["a", "b"]) == 0
    assert token_edit_distance(["a", "x"], ["a", "b"]) == 1
    assert token_edit_distance(["a"], ["a", "b"]) == 1
    assert token_edit_distance([], ["a", "b"]) == 2


def test_repair_result_serializes():
    provider = ScriptedProvider([VALID_REPAIR])
    result = repair(make_prompt(), provider, attempts=1)
    payload = result.as_dict()
    assert payload["selected"] == 0
    assert payload["candidates"][0]["syntax_ok"] is True
    assert payload["candidates"][0]["method_text"] == VALID_REPAIR
