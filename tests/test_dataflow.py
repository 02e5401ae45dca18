"""Statement splitting, member-access scanning, def-use edge tests."""

from testmend.dataflow import (
    Statement,
    dataflow_edges,
    declared_type,
    member_accesses,
    split_statements,
)

BODY = """{
    AlluxioURI alluxioPath = new AlluxioURI("/mnt");
    MountOptions mountOptions = MountOptions.defaults();
    if (ready) {
        mFileSystem.mount(alluxioPath, ufsPath, mountOptions);
    }
    assertTrue(mFileSystem.exists(alluxioPath));
}"""


def test_split_statements_skips_headers_and_braces():
    stmts = split_statements(BODY)
    texts = [s.text for s in stmts]
    assert texts == [
        'AlluxioURI alluxioPath = new AlluxioURI("/mnt");',
        "MountOptions mountOptions = MountOptions.defaults();",
        "mFileSystem.mount(alluxioPath, ufsPath, mountOptions);",
        "assertTrue(mFileSystem.exists(alluxioPath));",
    ]
    assert [s.index for s in stmts] == [0, 1, 2, 3]
    # line numbers refer to the canonical body rendering
    assert stmts[2].line > stmts[1].line


def test_split_statements_accepts_unbraced_fragment():
    stmts = split_statements("int a = 1; int b = a + 1;")
    assert [s.text for s in stmts] == ["int a = 1;", "int b = a + 1;"]


def test_member_accesses_first_link_only():
    stmts = split_statements("x = opts.toBuilder().setReadOnly(true).build();")
    accesses = member_accesses(stmts[0], {"opts"})
    assert [(a.member, a.is_call) for a in accesses] == [("toBuilder", True)]


def test_member_accesses_field_and_call():
    stmts = split_statements("int n = w.rate; w.spin(n);")
    a0 = member_accesses(stmts[0], {"w"})
    a1 = member_accesses(stmts[1], {"w"})
    assert [(a.member, a.is_call) for a in a0] == [("rate", False)]
    assert [(a.member, a.is_call) for a in a1] == [("spin", True)]
    assert a0[0].render() == "rate"
    assert a1[0].render() == "spin()"
    assert a1[0].render(static=True) == "w.spin()"


def test_member_access_receiver_must_head_the_chain():
    stmts = split_statements("y = holder.opts.value;")
    assert member_accesses(stmts[0], {"opts"}) == []
    assert [(a.member,) for a in member_accesses(stmts[0], {"holder"})] == [("opts",)]


def test_dataflow_edges_def_sites():
    # The declaration defines mountOptions; passing it as an argument is a use.
    edges = dataflow_edges(BODY)
    assert {e for e in edges if e[0] == "mountOptions"} == {("mountOptions", 0, 0)}
    # A compound assignment uses the old definition and starts a new one.
    assert dataflow_edges("int total = 0; total += delta; use(total);") == {
        ("total", 0, 0),
        ("total", 1, 1),
    }


def test_declared_type():
    stmts = split_statements(BODY)
    assert declared_type(stmts[1], "mountOptions") == "MountOptions"
    assert declared_type(stmts[0], "alluxioPath") == "AlluxioURI"
    assert declared_type(stmts[2], "mountOptions") is None
    generics = split_statements("Map<String, Widget> index = build();")[0]
    assert declared_type(generics, "index") == "Map"
    prim = split_statements("int count = 3;")[0]
    assert declared_type(prim, "count") == "int"


def test_dataflow_edges_hand_computed():
    text = "int a = 1; int b = a + a; a = b;"
    # defs: a@0, b@0, a@1  uses: a (x2, def 0), b (def 0)
    assert dataflow_edges(text) == {
        ("a", 0, 0),
        ("a", 0, 1),
        ("b", 0, 0),
    }


def test_dataflow_edges_reassignment_advances_ordinal():
    text = "int a = 1; a = 2; use(a);"
    assert dataflow_edges(text) == {("a", 1, 0)}


def test_dataflow_edges_identity_and_rename():
    text = "int x = source(); sink(x);"
    assert dataflow_edges(text) == dataflow_edges(text)
    renamed = "int y = source(); sink(y);"
    assert dataflow_edges(text) != dataflow_edges(renamed)


def test_dataflow_edges_ignores_member_names():
    text = "int n = obj.count; obj.countolis(n);"
    edges = dataflow_edges(text)
    names = {e[0] for e in edges}
    assert names == {"n"}


def test_dataflow_edges_unlexable_text_is_empty():
    assert dataflow_edges("int a = #;") == set()
