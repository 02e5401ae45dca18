"""Operation- and statement-query construction."""

import re

import pytest

from testmend.errors import FocalInvocationNotFound, ProviderError
from testmend.javasrc import lexer
from testmend.queries import (
    NO_CHANGE_ANALYSIS,
    STATEMENT_QUERY_CAP,
    QuerySet,
    build_operation_queries,
    build_query_set,
    build_statement_queries,
    fallback_obsolete_stmts,
    fallback_synbc_analysis,
    find_focal_invocation,
    load_fewshot_exemplars,
    simple_type_name,
    upper_camel,
)
from testmend.dataflow import split_statements
from testmend.signatures import MethodSignature, make_focal_change
from testmend.snapshot import unified_diff


def sig(name="mount", params=(), ret="void", names=()):
    return MethodSignature(
        name=name,
        param_types=tuple(params),
        return_type=ret,
        modifiers=frozenset({"public"}),
        param_names=tuple(names),
    )


MOUNT_ORI = sig(
    params=("AlluxioURI", "AlluxioURI", "MountOptions"),
    names=("alluxioPath", "ufsPath", "options"),
)
MOUNT_UPD = sig(
    params=("AlluxioURI", "AlluxioURI", "MountPOptions"),
    names=("alluxioPath", "ufsPath", "options"),
)

MOUNT_TEST_BODY = """\
{
    AlluxioURI alluxioPath = new AlluxioURI("/mnt/alluxio");
    AlluxioURI ufsPath = new AlluxioURI("/mnt/ufs");
    MountOptions mountOptions = MountOptions.defaults();
    mFileSystem.mount(alluxioPath, ufsPath, mountOptions);
    assertTrue(mFileSystem.exists(alluxioPath));
}
"""


def test_upper_camel_and_simple_type():
    assert upper_camel("options") == "Options"
    assert upper_camel("readType") == "ReadType"
    assert simple_type_name("MountOptions") == "MountOptions"
    assert simple_type_name("java.util.List<Foo>") == "List"
    assert simple_type_name("int[]") == "int"
    assert simple_type_name("Map<String, List<Integer>>") == "Map"


def test_param_queries_setters_then_def_use_accesses():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    param_q, ret_q = build_operation_queries(focal, split_statements(MOUNT_TEST_BODY))
    assert ret_q == ()
    assert param_q == ("setOptions()", "setMountOptions()", "MountOptions.defaults()")
    # the documented query pair is present
    assert {"MountOptions.defaults()", "setOptions()"} <= set(param_q)


def test_param_queries_literal_argument_yields_setters_only():
    focal = make_focal_change(
        sig(name="f", params=("int",), names=("count",)),
        sig(name="f", params=("long",), names=("count",)),
    )
    param_q, _ = build_operation_queries(focal, split_statements("{\n    svc.f(3);\n}"))
    assert param_q == ("setCount()", "setInt()")


def test_synthesized_setters_match_shape():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    param_q, _ = build_operation_queries(focal, split_statements(MOUNT_TEST_BODY))
    setters = [q for q in param_q if q.startswith("set")]
    assert setters
    for q in setters:
        assert re.fullmatch(r"set[A-Z].*\(\)", q)


def test_operation_queries_are_grounded_in_test_or_synthesized():
    SEP = chr(0)
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    param_q, _ = build_operation_queries(focal, split_statements(MOUNT_TEST_BODY))
    body_tokens = lexer.lex(MOUNT_TEST_BODY).texts
    joined = SEP.join(body_tokens)
    for q in param_q:
        if re.fullmatch(r"set[A-Z].*\(\)", q):
            continue
        q_tokens = lexer.lex(q.removesuffix("()")).texts
        assert SEP.join(q_tokens) in joined


def test_ret_queries_follow_forward_uses():
    focal = make_focal_change(
        sig(name="query", ret="List<Item>"), sig(name="query", ret="ItemPage")
    )
    body = """\
{
    List<Item> r = svc.query();
    assertEquals(2, r.size());
    assertEquals(expected, r.get(0));
}
"""
    param_q, ret_q = build_operation_queries(focal, split_statements(body))
    assert param_q == ()
    assert ret_q == ("size()", "get()")


def test_ret_queries_empty_without_binding():
    focal = make_focal_change(sig(name="total", ret="int"), sig(name="total", ret="Summary"))
    _, ret_q = build_operation_queries(focal, split_statements("{\n    assertEquals(5, svc.total());\n}"))
    assert ret_q == ()


def test_norm_only_change_produces_no_operation_queries():
    focal = make_focal_change(sig(name="f"), sig(name="g"))
    assert build_operation_queries(focal, split_statements("{\n    svc.f();\n}")) == ((), ())


def test_missing_invocation_raises():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    with pytest.raises(FocalInvocationNotFound):
        build_operation_queries(focal, split_statements("{\n    int x = 1;\n}"))


def test_find_focal_invocation_requires_call_parens():
    statements = split_statements("{\n    log(mount);\n    fs.mount(a);\n}")
    hit = find_focal_invocation(statements, "mount")
    assert hit is not None and hit.text == "fs.mount(a);"
    assert find_focal_invocation(statements, "absent") is None


# ----------------------------------------------------------------------
# statement queries: deterministic fallback
# ----------------------------------------------------------------------


def test_fallback_analysis_no_change():
    focal = make_focal_change(sig(name="f"), sig(name="f"))
    assert fallback_synbc_analysis(focal) == NO_CHANGE_ANALYSIS


def test_fallback_analysis_param_and_ret():
    focal = make_focal_change(
        sig(name="f", params=("MountOptions",), names=("o",), ret="int"),
        sig(name="f", params=("MountPOptions",), names=("o",), ret="long"),
    )
    text = fallback_synbc_analysis(focal)
    assert "parameter types from (MountOptions) to (MountPOptions)" in text
    assert "return type from int to long" in text


def test_fallback_analysis_norm_rename():
    focal = make_focal_change(sig(name="f"), sig(name="g"))
    assert "renamed to g()" in fallback_synbc_analysis(focal)


def test_fallback_analysis_norm_modifiers_only():
    original = sig(name="close")
    updated = original._replace(modifiers=frozenset({"public", "synchronized"}))
    assert fallback_synbc_analysis(make_focal_change(original, updated)) == (
        "The method close() has been updated: its modifiers changed from "
        "[public] to [public synchronized]."
    )


def test_fallback_analysis_norm_throws_only():
    original = sig(name="close")._replace(throws=frozenset({"IOException"}))
    updated = original._replace(throws=frozenset())
    assert fallback_synbc_analysis(make_focal_change(original, updated)) == (
        "The method close() has been updated: its declared exceptions changed from "
        "[IOException] to [none]."
    )


def test_fallback_analysis_deterministic():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    assert fallback_synbc_analysis(focal) == fallback_synbc_analysis(focal)


def test_fallback_stmts_cover_documented_pair():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    stmts = fallback_obsolete_stmts(focal, split_statements(MOUNT_TEST_BODY))
    assert "MountOptions mountOptions = MountOptions.defaults();" in stmts
    assert "mFileSystem.mount(alluxioPath, ufsPath, mountOptions);" in stmts


def test_fallback_stmts_only_focal_statements_for_no_change():
    focal = make_focal_change(sig(name="f"), sig(name="f"))
    stmts = fallback_obsolete_stmts(focal, split_statements("{\n    int a = 1;\n    svc.f();\n}"))
    assert stmts == "svc.f();"


def test_fallback_stmts_capped_nearest_invocation():
    lines = []
    for i in range(30):
        lines.append(f"svc.f({i});" if i == 15 else f"keep{i}(f);")
    body = "{\n" + "\n".join(f"    {line}" for line in lines) + "\n}"
    focal = make_focal_change(
        sig(name="f", params=("int",), names=("n",)),
        sig(name="f", params=("long",), names=("n",)),
    )
    stmts = fallback_obsolete_stmts(focal, split_statements(body))
    assert stmts.count(";") == STATEMENT_QUERY_CAP
    kept = {9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20}
    for i in kept:
        assert f"keep{i}(f);" in stmts
    assert "svc.f(15);" in stmts
    assert "keep0(f);" not in stmts and "keep29(f);" not in stmts


def test_fallback_stmts_empty_body_uses_signature():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    assert "mount" in fallback_obsolete_stmts(focal, split_statements("{\n}"))


# ----------------------------------------------------------------------
# statement queries: provider path
# ----------------------------------------------------------------------


class ScriptedProvider:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def complete(self, messages, *, temperature=0.0, attempt=0):
        self.calls.append((list(messages), temperature, attempt))
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def fig_inputs():
    focal = make_focal_change(MOUNT_ORI, MOUNT_UPD)
    diff = unified_diff(
        "public void mount(AlluxioURI a, AlluxioURI u, MountOptions o) {",
        "public void mount(AlluxioURI a, AlluxioURI u, MountPOptions o) {",
    )
    return focal, diff


def test_provider_two_step_flow():
    focal, diff = fig_inputs()
    provider = ScriptedProvider(["THE ANALYSIS", "THE STMTS"])
    analysis, stmts = build_statement_queries(
        diff, MOUNT_TEST_BODY, split_statements(MOUNT_TEST_BODY), provider, focal
    )
    assert (analysis, stmts) == ("THE ANALYSIS", "THE STMTS")
    assert len(provider.calls) == 2
    first_messages, first_temp, first_attempt = provider.calls[0]
    assert (first_temp, first_attempt) == (0.0, 0)
    assert first_messages[0]["role"] == "system"
    # two exemplars contribute four messages each
    assert len(first_messages) == 1 + 8 + 1
    assert "MountPOptions" in first_messages[-1]["content"]
    second_messages, _, second_attempt = provider.calls[1]
    assert second_attempt == 0
    assert second_messages[-2] == {"role": "assistant", "content": "THE ANALYSIS"}
    assert "invalidated" in second_messages[-1]["content"]


def test_provider_failure_falls_back():
    focal, diff = fig_inputs()
    provider = ScriptedProvider([ProviderError("down")])
    analysis, stmts = build_statement_queries(
        diff, MOUNT_TEST_BODY, split_statements(MOUNT_TEST_BODY), provider, focal
    )
    assert analysis == fallback_synbc_analysis(focal)
    assert stmts == fallback_obsolete_stmts(focal, split_statements(MOUNT_TEST_BODY))


def test_provider_second_step_failure_falls_back():
    focal, diff = fig_inputs()
    provider = ScriptedProvider(["fine", ProviderError("down")])
    analysis, stmts = build_statement_queries(
        diff, MOUNT_TEST_BODY, split_statements(MOUNT_TEST_BODY), provider, focal
    )
    assert analysis == fallback_synbc_analysis(focal)
    assert stmts == fallback_obsolete_stmts(focal, split_statements(MOUNT_TEST_BODY))


def test_provider_blank_answers_use_fallback_values():
    focal, diff = fig_inputs()
    provider = ScriptedProvider(["   ", "\n"])
    analysis, stmts = build_statement_queries(
        diff, MOUNT_TEST_BODY, split_statements(MOUNT_TEST_BODY), provider, focal
    )
    assert analysis == fallback_synbc_analysis(focal)
    assert stmts == fallback_obsolete_stmts(focal, split_statements(MOUNT_TEST_BODY))


def test_fewshot_exemplars_shape():
    exemplars = load_fewshot_exemplars()
    assert len(exemplars) == 2
    for exemplar in exemplars:
        assert set(exemplar) == {
            "signature_change",
            "test",
            "analysis",
            "obsolete_statements",
        }


def test_build_query_set_gating_and_population():
    focal, diff = fig_inputs()
    qs = build_query_set(focal, diff, MOUNT_TEST_BODY)
    assert isinstance(qs, QuerySet)
    assert qs.param_op_queries and not qs.ret_op_queries
    assert qs.synbc_analysis and qs.obsolete_stmts
    norm = make_focal_change(sig(name="f"), sig(name="g"))
    norm_qs = build_query_set(norm, unified_diff("a", "b"), "{\n    svc.f();\n}")
    assert norm_qs.param_op_queries == () and norm_qs.ret_op_queries == ()
    assert norm_qs.synbc_analysis and norm_qs.obsolete_stmts
