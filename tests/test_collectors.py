"""Context collection over synthetic two-version repositories."""

from collections import Counter
from pathlib import Path

import pytest

from testmend import resolver
from testmend.collectors import (
    TRUNCATION_MARKER,
    ContextCollector,
    cap_chunk_text,
    construct_bundle,
)
from testmend.javasrc.ast import parse_java
from testmend.resolver import BuiltinResolver
from testmend.signatures import MethodLocator, focal_change
from testmend.snapshot import POST, PRE, RepoSnapshot, VersionText

import scanner_oracle


def all_chunks(bundle):
    groups = [g.chunks for g in bundle.class_ctx.values()]
    return [c for chunks in groups for c in chunks] + (
        bundle.usage_ctx + bundle.env_ctx_focal + bundle.env_ctx_test
    )


def write_repo(root: Path, pre: dict[str, str], post: dict[str, str]) -> RepoSnapshot:
    for version, mapping in (("pre", pre), ("post", post)):
        for rel, text in mapping.items():
            path = root / version / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    return RepoSnapshot(root / "pre", root / "post")


def focal_for(
    snap: RepoSnapshot,
    path: str,
    classes: tuple[str, ...],
    method: str,
):
    locator = MethodLocator(path, classes, method)
    pre_file, post_file = parse_java(snap.read(PRE, path)), parse_java(snap.read(POST, path))
    return focal_change(pre_file, post_file, locator, locator)


def collector_for(snap: RepoSnapshot) -> ContextCollector:
    return ContextCollector(BuiltinResolver(snap))


# ----------------------------------------------------------------------
# the shared fixture repository: a parameter-type change with one caller,
# one obsolete test, a new options class with a parent, and incidental
# edits inside and outside the focal/test methods.
# ----------------------------------------------------------------------

SERVICE_PRE = """\
package app;

public class Service extends BaseService {
    public void mount(MountOptions opts) {
        prepare();
        apply(opts);
    }

    public int helperValue() {
        return 1;
    }
}
"""

SERVICE_POST = SERVICE_PRE.replace("MountOptions opts", "MountPOptions opts").replace(
    "apply(opts)", "applyNew(opts)"
).replace("return 1;", "return 2;")

BASE_SERVICE_PRE = """\
package app;

public class BaseService {
    protected void prepare() {
    }
}
"""

BASE_SERVICE_POST = BASE_SERVICE_PRE.replace(
    "protected void prepare() {\n", "protected void prepare() {\n        reset();\n"
)

MOUNT_OPTIONS = """\
package app;

public class MountOptions {
    public boolean rw;

    public void setRw(boolean v) {
        this.rw = v;
    }
}
"""

MOUNT_P_OPTIONS = """\
package app;

public class MountPOptions extends BaseOptions {
    private int hidden;
    public boolean readOnly;

    public MountPOptions() {
    }

    public void setReadOnly(boolean v) {
        this.readOnly = v;
    }

    public boolean isReadOnly() {
        return this.readOnly;
    }

    private void internalCheck() {
    }
}
"""

BASE_OPTIONS = """\
package app;

public class BaseOptions {
    public String name;
    private long secret;

    public void setName(String n) {
        this.name = n;
    }
}
"""

CALLER_PRE = """\
package app;

public class Caller {
    public int tag = 1;

    public void run(Service svc) {
        MountOptions o = new MountOptions();
        o.setRw(true);
        svc.mount(o);
        int after = compute();
    }

    public void unrelated() {
        int x = 1;
    }
}
"""

CALLER_POST = (
    CALLER_PRE.replace("int tag = 1;", "int tag = 2;")
    .replace("MountOptions o = new MountOptions();", "MountPOptions o = new MountPOptions();")
    .replace("o.setRw(true);", "o.setReadOnly(true);")
    .replace("int after = compute();", "int after = computeMore();")
    .replace("int x = 1;", "int x = 2;")
)

TEST_PRE = """\
package app;

public class ServiceTest {
    public void setUpValue() {
        int seed = 1;
    }

    public void testMount() {
        Service svc = new Service();
        MountOptions o = new MountOptions();
        o.setRw(true);
        svc.mount(o);
    }
}
"""

TEST_POST = TEST_PRE.replace("int seed = 1;", "int seed = 2;").replace(
    "o.setRw(true);", "o.setRw(false);"
)


@pytest.fixture()
def mini(tmp_path):
    shared = {
        "app/BaseOptions.java": BASE_OPTIONS,
        "app/MountOptions.java": MOUNT_OPTIONS,
    }
    snap = write_repo(
        tmp_path,
        pre={
            **shared,
            "app/Service.java": SERVICE_PRE,
            "app/BaseService.java": BASE_SERVICE_PRE,
            "app/Caller.java": CALLER_PRE,
            "app/ServiceTest.java": TEST_PRE,
        },
        post={
            **shared,
            "app/Service.java": SERVICE_POST,
            "app/BaseService.java": BASE_SERVICE_POST,
            "app/MountPOptions.java": MOUNT_P_OPTIONS,
            "app/Caller.java": CALLER_POST,
            "app/ServiceTest.java": TEST_POST,
        },
    )
    focal = focal_for(snap, "app/Service.java", ("Service",), "mount")
    test_loc = MethodLocator("app/ServiceTest.java", ("ServiceTest",), "testMount")
    return snap, collector_for(snap), focal, test_loc


# ----------------------------------------------------------------------
# class context
# ----------------------------------------------------------------------


def test_new_type_names_roles(mini):
    _, collector, focal, _ = mini
    assert collector.new_type_names(focal) == {"MountPOptions": "param"}


def test_class_ctx_member_counts_and_privacy(mini):
    _, collector, focal, _ = mini
    groups, warnings = collector.collect_class_ctx(focal)
    assert warnings == []
    assert list(groups) == ["MountPOptions"]
    group = groups["MountPOptions"]
    assert group.role == "param"
    assert group.defining_classes == ["MountPOptions", "BaseOptions"]
    texts = [c.text for c in group.chunks]
    # 4 non-private members of MountPOptions + 2 of its parent.
    assert len(texts) == 6
    joined = "\n".join(texts)
    assert "readOnly" in joined and "setReadOnly" in joined and "isReadOnly" in joined
    assert "setName" in joined and "public String name" in joined
    assert "hidden" not in joined  # private field, no Lombok
    assert "internalCheck" not in joined  # private method
    assert "secret" not in joined  # private parent field


def test_class_ctx_constructor_flagged(mini):
    _, collector, focal, _ = mini
    groups, _ = collector.collect_class_ctx(focal)
    ctors = [c for c in groups["MountPOptions"].chunks if c.is_constructor]
    assert len(ctors) == 1
    assert ctors[0].text == "public MountPOptions();"


def test_class_ctx_method_chunks_are_headers_only(mini):
    _, collector, focal, _ = mini
    groups, _ = collector.collect_class_ctx(focal)
    for chunk in groups["MountPOptions"].chunks:
        assert "{" not in chunk.text and "}" not in chunk.text
        assert chunk.text.endswith(";")
        assert chunk.signature_form == chunk.text


def test_class_ctx_group_labels_name_defining_class(mini):
    _, collector, focal, _ = mini
    groups, _ = collector.collect_class_ctx(focal)
    labels = {c.group_label for c in groups["MountPOptions"].chunks}
    assert labels == {"Defined in class MountPOptions", "Defined in class BaseOptions"}


def test_class_ctx_lombok_data_and_getter(tmp_path):
    lombok = """\
package app;

@Data
public class LombokOpts {
    private int alpha;
    private String beta;
}
"""
    getter = """\
package app;

public class GetterOpts {
    @Getter
    private int kept;
    private int dropped;
}
"""
    snap = write_repo(
        tmp_path,
        pre={
            "app/S.java": "package app;\npublic class S {\n    public void go(int a) {\n    }\n}\n",
            "app/LombokOpts.java": lombok,
            "app/GetterOpts.java": getter,
        },
        post={
            "app/S.java": "package app;\npublic class S {\n    public void go(LombokOpts a, GetterOpts b) {\n    }\n}\n",
            "app/LombokOpts.java": lombok,
            "app/GetterOpts.java": getter,
        },
    )
    focal = focal_for(snap, "app/S.java", ("S",), "go")
    groups, warnings = collector_for(snap).collect_class_ctx(focal)
    assert warnings == []
    lombok_texts = [c.text for c in groups["LombokOpts"].chunks]
    assert len(lombok_texts) == 2  # class-level @Data keeps both private fields
    assert any("alpha" in t for t in lombok_texts)
    assert any("beta" in t for t in lombok_texts)
    getter_texts = [c.text for c in groups["GetterOpts"].chunks]
    assert len(getter_texts) == 1  # only the @Getter-annotated field survives
    assert "kept" in getter_texts[0]
    assert all("dropped" not in t for t in getter_texts)


def test_class_ctx_unresolved_type_warns(tmp_path, monkeypatch):
    snap = write_repo(
        tmp_path,
        pre={"app/S.java": "package app;\npublic class S {\n    public void go(int a) {\n    }\n}\n"},
        post={"app/S.java": "package app;\npublic class S {\n    public void go(ExternalThing a) {\n    }\n}\n"},
    )
    scans = Counter()
    declaring = VersionText.declaring

    def counted(version_text, name):
        scans[name] += 1
        return declaring(version_text, name)

    monkeypatch.setattr(VersionText, "declaring", counted)
    focal = focal_for(snap, "app/S.java", ("S",), "go")
    groups, warnings = collector_for(snap).collect_class_ctx(focal)
    assert groups["ExternalThing"].chunks == []
    assert any("ExternalThing" in w for w in warnings)
    # goto_definition already ends in resolve_class; the fallback lookup of
    # the same name must not scan the snapshot a second time.
    assert scans == Counter({"ExternalThing": 1})


def test_class_ctx_parent_chain_capped_at_five(tmp_path):
    files = {
        f"app/C{i}.java": (
            f"package app;\npublic class C{i} extends C{i + 1} {{\n"
            f"    public int f{i};\n}}\n"
        )
        for i in range(7)
    }
    files["app/C7.java"] = "package app;\npublic class C7 {\n    public int f7;\n}\n"
    files["app/S.java"] = "package app;\npublic class S {\n    public void go(int a) {\n    }\n}\n"
    post = dict(files)
    post["app/S.java"] = "package app;\npublic class S {\n    public void go(C0 a) {\n    }\n}\n"
    snap = write_repo(tmp_path, pre=files, post=post)
    focal = focal_for(snap, "app/S.java", ("S",), "go")
    groups, warnings = collector_for(snap).collect_class_ctx(focal)
    group = groups["C0"]
    # the class itself plus at most five parents
    assert group.defining_classes == [f"C{i}" for i in range(6)]
    assert any("exceeds" in w for w in warnings)


def _class_ctx_of_new_parameter(tmp_path, files, type_name):
    """The class context of ``S.go`` when its ``int`` parameter becomes ``type_name``."""
    service = "package p;\npublic class S {\n    public void go(int a) {\n    }\n}\n"
    post = {**files, "p/S.java": service.replace("int a", f"{type_name} a")}
    snap = write_repo(tmp_path, pre={**files, "p/S.java": service}, post=post)
    return collector_for(snap).collect_class_ctx(focal_for(snap, "p/S.java", ("S",), "go"))


def test_class_ctx_follows_a_nested_superclass(tmp_path):
    files = {
        "p/A.java": (
            "package p;\npublic class A {\n    public void outerOnly() {\n    }\n\n"
            "    public static class Inner {\n        public void innerOnly() {\n        }\n    }\n}\n"
        ),
        "p/B.java": "package p;\npublic class B extends A.Inner<String> {\n    public int own;\n}\n",
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path, files, "B")
    assert groups["B"].defining_classes == ["B", "Inner"]
    assert [c.text for c in groups["B"].chunks] == ["public int own;", "public void innerOnly();"]
    assert warnings == []


def test_class_ctx_follows_a_qualified_superclass(tmp_path):
    files = {
        "q/Base.java": "package q;\npublic class Base {\n    public void inherited() {\n    }\n}\n",
        "p/Child.java": "package p;\npublic class Child extends q.Base {\n    public int own;\n}\n",
        "p/Ext.java": (
            "package p;\npublic class Ext extends java.util.AbstractList<String> {\n"
            "    public int own;\n}\n"
        ),
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path, files, "Child")
    assert groups["Child"].defining_classes == ["Child", "Base"]
    assert warnings == []
    # A qualified superclass outside the snapshot is named as written,
    # without its type arguments.
    _, warnings = _class_ctx_of_new_parameter(tmp_path / "ext", files, "Ext")
    assert warnings == ["parent class java.util.AbstractList of Ext is outside the snapshot"]


def test_class_ctx_follows_super_interfaces(tmp_path):
    files = {
        "p/Base.java": "package p;\npublic interface Base {\n    void base();\n}\n",
        "p/Opts.java": "package p;\npublic interface Opts extends Base {\n    int size();\n}\n",
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path, files, "Opts")
    assert groups["Opts"].defining_classes == ["Opts", "Base"]
    assert [c.text for c in groups["Opts"].chunks] == ["int size();", "void base();"]
    assert warnings == []
    # Breadth first, in written order, each type once, past a missing one.
    files = {
        "p/Root.java": "package p;\npublic interface Root {\n    void root();\n}\n",
        "p/Base.java": "package p;\npublic interface Base extends Root {\n    void base();\n}\n",
        "p/Extra.java": "package p;\npublic interface Extra extends Root {\n    void extra();\n}\n",
        "p/Opts.java": (
            "package p;\npublic interface Opts extends Base, Missing, Extra {\n    int size();\n}\n"
        ),
        # A class's interfaces are not followed.
        "p/Impl.java": "package p;\npublic class Impl implements Opts {\n    public int own;\n}\n",
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path / "bfs", files, "Opts")
    assert groups["Opts"].defining_classes == ["Opts", "Base", "Extra", "Root"]
    assert warnings == ["parent class Missing of Opts is outside the snapshot"]
    groups, warnings = _class_ctx_of_new_parameter(tmp_path / "impl", files, "Impl")
    assert groups["Impl"].defining_classes == ["Impl"]
    assert warnings == []


def test_class_ctx_skips_package_qualifiers(tmp_path, monkeypatch):
    """``java`` and ``util`` qualify ``Map``: they get no group, no warning
    and no lookup, so only the focal file and ``Opts`` are parsed."""
    parses = []
    parse_java_of_cache = resolver.parse_java

    def counted(*args):
        parses.append(args[0])
        return parse_java_of_cache(*args)

    monkeypatch.setattr(resolver, "_SOURCES", resolver.SourceCache())
    monkeypatch.setattr(resolver, "parse_java", counted)
    files = {
        f"p/U{i}.java": (
            f"package p;\nimport java.util.List;\nclass U{i} {{\n    List<U{i}> items;\n}}\n"
        )
        for i in range(20)
    }
    files["p/Opts.java"] = "package p;\npublic class Opts {\n    public int size;\n}\n"
    groups, warnings = _class_ctx_of_new_parameter(
        tmp_path, files, "java.util.Map<String, Opts>"
    )
    assert list(groups) == ["Map", "String", "Opts"]
    assert [c.text for c in groups["Opts"].chunks] == ["public int size;"]
    assert warnings == [
        "type Map is not defined inside the snapshot",
        "type String is not defined inside the snapshot",
    ]
    assert len(parses) == 2


def test_class_ctx_stops_at_an_inheritance_cycle(tmp_path):
    files = {
        "p/A.java": "package p;\npublic class A extends B {\n    public int a;\n}\n",
        "p/B.java": "package p;\npublic class B extends A {\n    public int b;\n}\n",
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path, files, "A")
    assert groups["A"].defining_classes == ["A", "B"]
    assert [c.text for c in groups["A"].chunks] == ["public int a;", "public int b;"]
    assert warnings == []


def test_class_ctx_lists_interface_methods_without_a_body_whole(tmp_path):
    files = {
        "p/Opts.java": (
            "package p;\npublic interface Opts {\n    int size();\n\n"
            "    default boolean empty() {\n        return size() == 0;\n    }\n\n"
            "    static Opts none() {\n        return null;\n    }\n}\n"
        ),
    }
    groups, warnings = _class_ctx_of_new_parameter(tmp_path, files, "Opts")
    assert [c.text for c in groups["Opts"].chunks] == [
        "int size();",
        "default boolean empty();",
        "static Opts none();",
    ]
    assert warnings == []


def test_class_ctx_return_role(tmp_path):
    stats = """\
package app;

public class Stats {
    public int total;

    public int getTotal() {
        return this.total;
    }
}
"""
    snap = write_repo(
        tmp_path,
        pre={"app/C.java": "package app;\npublic class C {\n    public int count() {\n        return 0;\n    }\n}\n"},
        post={
            "app/C.java": "package app;\npublic class C {\n    public Stats count() {\n        return null;\n    }\n}\n",
            "app/Stats.java": stats,
        },
    )
    focal = focal_for(snap, "app/C.java", ("C",), "count")
    groups, _ = collector_for(snap).collect_class_ctx(focal)
    assert groups["Stats"].role == "return"
    assert len(groups["Stats"].chunks) == 2


# ----------------------------------------------------------------------
# usage context
# ----------------------------------------------------------------------


def test_usage_param_takes_before_context_only(mini):
    _, collector, focal, test_loc = mini
    chunks, _ = collector.collect_usage_ctx(focal, test_loc)
    assert len(chunks) == 1
    chunk = chunks[0]
    assert chunk.group_label == "Usage change in app/Caller.java"
    assert chunk.text == (
        "- MountOptions o = new MountOptions();\n"
        "- o.setRw(true);\n"
        "+ MountPOptions o = new MountPOptions();\n"
        "+ o.setReadOnly(true);"
    )
    # the after-invocation edit and out-of-method edits stay out
    assert "computeMore" not in chunk.text
    assert "tag" not in chunk.text
    assert "int x" not in chunk.text


def test_usage_excludes_obsolete_test_method(mini):
    _, collector, focal, test_loc = mini
    chunks, _ = collector.collect_usage_ctx(focal, test_loc)
    assert all("ServiceTest" not in c.group_label for c in chunks)
    # without the test locator the test-file reference is eligible
    chunks_all, _ = collector.collect_usage_ctx(focal, None)
    assert any("ServiceTest" in c.group_label for c in chunks_all)


def test_usage_ret_takes_invocation_and_after_context(tmp_path):
    counter_pre = """\
package app;

public class Counter {
    public int count() {
        return 0;
    }
}
"""
    counter_post = counter_pre.replace("int count()", "Stats count()").replace(
        "return 0;", "return null;"
    )
    use_pre = """\
package app;

public class Use {
    public void show(Counter c) {
        String tag = "a";
        c.warm();
        int n = c.count();
        c.touch();
        int doubled = n * 2;
    }
}
"""
    use_post = (
        use_pre.replace('String tag = "a";', 'String tag = "b";')
        .replace("int n = c.count();", "Stats n = c.count();")
        .replace("int doubled = n * 2;", "int doubled = n.getTotal() * 2;")
    )
    stats = "package app;\npublic class Stats {\n    public int getTotal() {\n        return 0;\n    }\n}\n"
    snap = write_repo(
        tmp_path,
        pre={"app/Counter.java": counter_pre, "app/Use.java": use_pre},
        post={"app/Counter.java": counter_post, "app/Use.java": use_post, "app/Stats.java": stats},
    )
    focal = focal_for(snap, "app/Counter.java", ("Counter",), "count")
    assert focal.is_ret and not focal.is_param
    chunks, _ = collector_for(snap).collect_usage_ctx(focal)
    assert len(chunks) == 1
    text = chunks[0].text
    assert "- int n = c.count();" in text
    assert "+ Stats n = c.count();" in text
    assert "getTotal" in text  # after-invocation context for a return change
    assert "tag" not in text  # before-invocation context is param-only


def test_usage_excludes_focal_body_self_reference(tmp_path):
    rec_pre = """\
package app;

public class R {
    public int fib(int n) {
        return fib(n - 1) + fib(n - 2);
    }
}
"""
    rec_post = rec_pre.replace("int fib(int n)", "int fib(long n)")
    caller_pre = """\
package app;

public class C {
    public void go(R r) {
        int v = r.fib(3);
    }
}
"""
    caller_post = caller_pre.replace("int v = r.fib(3);", "int v = r.fib(3L);")
    snap = write_repo(
        tmp_path,
        pre={"app/R.java": rec_pre, "app/C.java": caller_pre},
        post={"app/R.java": rec_post, "app/C.java": caller_post},
    )
    focal = focal_for(snap, "app/R.java", ("R",), "fib")
    chunks, _ = collector_for(snap).collect_usage_ctx(focal)
    assert len(chunks) == 1
    assert chunks[0].group_label == "Usage change in app/C.java"


def test_usage_dedups_identical_chunks(tmp_path):
    def caller(name: str, stmt: str) -> str:
        return (
            f"package app;\n\npublic class {name} {{\n"
            f"    public void go(S s) {{\n        {stmt}\n        s.run(1);\n    }}\n}}\n"
        )

    snap = write_repo(
        tmp_path,
        pre={
            "app/S.java": "package app;\npublic class S {\n    public void run(int a) {\n    }\n}\n",
            "app/A.java": caller("A", "int k = 1;"),
            "app/B.java": caller("B", "int k = 1;"),
        },
        post={
            "app/S.java": "package app;\npublic class S {\n    public void run(long a) {\n    }\n}\n",
            "app/A.java": caller("A", "int k = 2;"),
            "app/B.java": caller("B", "int k = 2;"),
        },
    )
    focal = focal_for(snap, "app/S.java", ("S",), "run")
    chunks, _ = collector_for(snap).collect_usage_ctx(focal)
    assert len(chunks) == 1  # both callers produce the same changed lines


def test_usage_chunk_capped_with_marker(tmp_path):
    pre_lines = "\n".join(f"        int a{i} = 0;" for i in range(30))
    post_lines = "\n".join(f"        int a{i} = 1;" for i in range(30))
    caller = (
        "package app;\n\npublic class Big {\n    public void go(S s) {\n%s\n        s.run(1);\n    }\n}\n"
    )
    snap = write_repo(
        tmp_path,
        pre={
            "app/S.java": "package app;\npublic class S {\n    public void run(int a) {\n    }\n}\n",
            "app/Big.java": caller % pre_lines,
        },
        post={
            "app/S.java": "package app;\npublic class S {\n    public void run(long a) {\n    }\n}\n",
            "app/Big.java": caller % post_lines,
        },
    )
    focal = focal_for(snap, "app/S.java", ("S",), "run")
    chunks, _ = collector_for(snap).collect_usage_ctx(focal)
    assert len(chunks) == 1
    lines = chunks[0].text.splitlines()
    assert len(lines) == 41
    assert lines[-1] == TRUNCATION_MARKER


def test_cap_chunk_text_boundaries():
    at_cap = "\n".join(str(i) for i in range(40))
    assert cap_chunk_text(at_cap) == at_cap
    over = "\n".join(str(i) for i in range(41))
    capped = cap_chunk_text(over)
    assert capped.splitlines()[:40] == [str(i) for i in range(40)]
    assert capped.splitlines()[40] == TRUNCATION_MARKER


def test_usage_chunks_contain_no_comment_syntax(tmp_path):
    caller_pre = """\
package app;

public class C {
    public void go(S s) {
        // prepare the argument
        int k = 1; /* inline note */
        s.run(k);
    }
}
"""
    caller_post = caller_pre.replace("int k = 1;", "long k = 2;").replace(
        "s.run(k);", "s.run(k, true);"
    )
    snap = write_repo(
        tmp_path,
        pre={
            "app/S.java": "package app;\npublic class S {\n    public void run(int a) {\n    }\n}\n",
            "app/C.java": caller_pre,
        },
        post={
            "app/S.java": "package app;\npublic class S {\n    public void run(long a, boolean b) {\n    }\n}\n",
            "app/C.java": caller_post,
        },
    )
    focal = focal_for(snap, "app/S.java", ("S",), "run")
    chunks, _ = collector_for(snap).collect_usage_ctx(focal)
    assert chunks
    for chunk in chunks:
        assert "//" not in chunk.text and "/*" not in chunk.text
        assert "prepare the argument" not in chunk.text


# ----------------------------------------------------------------------
# environment context
# ----------------------------------------------------------------------


def test_env_ctx_excludes_focal_and_test_method_hunks(mini):
    _, collector, focal, test_loc = mini
    focal_chunks, test_chunks, warnings = collector.collect_env_ctx(focal, test_loc)
    focal_text = "\n".join(c.text for c in focal_chunks)
    assert "return 1;" in focal_text and "return 2;" in focal_text  # helper edit kept
    assert "MountPOptions" not in focal_text  # focal signature hunk excluded
    assert "applyNew" not in focal_text  # focal body hunk excluded
    test_text = "\n".join(c.text for c in test_chunks)
    assert "seed" in test_text  # edit outside the test method kept
    assert "setRw" not in test_text  # edit inside the test method excluded


def test_env_ctx_includes_parent_file_changes(mini):
    _, collector, focal, test_loc = mini
    focal_chunks, _, _ = collector.collect_env_ctx(focal, test_loc)
    labels = [c.group_label for c in focal_chunks]
    assert "Environment change in app/BaseService.java" in labels
    parent = [c for c in focal_chunks if "BaseService" in c.group_label][0]
    assert parent.text == "+ reset();"


def test_env_ctx_diffs_a_file_that_canonicalizes_but_does_not_parse(tmp_path):
    # The test class has an unbalanced '{': it lexes and canonicalizes, but
    # does not parse, so its diff must not depend on the parse.
    test_pre = """\
package app;

public class T {
    int LIMIT = 1;

    public void testRun() {
        new S().run(1);
    {
}
"""
    service_pre = "package app;\npublic class S {\n    public void run(int a) {\n    }\n}\n"
    snap = write_repo(
        tmp_path,
        pre={"app/S.java": service_pre, "app/T.java": test_pre},
        post={
            "app/S.java": service_pre.replace("int a", "long a"),
            "app/T.java": test_pre.replace("LIMIT = 1", "LIMIT = 2"),
        },
    )
    focal = focal_for(snap, "app/S.java", ("S",), "run")
    test_loc = MethodLocator("app/T.java", ("T",), "testRun")
    focal_chunks, test_chunks, _ = collector_for(snap).collect_env_ctx(focal, test_loc)
    assert focal_chunks == []
    assert [c.text for c in test_chunks] == ["- int LIMIT = 1;\n+ int LIMIT = 2;"]


def test_env_ctx_parent_chain_capped_at_five(tmp_path):
    pre = {
        f"app/C{i}.java": (
            f"package app;\npublic class C{i} extends C{i + 1} {{\n"
            f"    public int f{i} = 1;\n\n    void keep() {{\n    }}\n\n"
            f"    public void run(int a) {{\n    }}\n}}\n"
        )
        for i in range(6)
    }
    pre["app/C6.java"] = "package app;\npublic class C6 {\n    public int f6 = 1;\n}\n"
    pre["app/T.java"] = (
        "package app;\npublic class T {\n    public void testRun() {\n"
        "        new C0().run(1);\n    }\n}\n"
    )
    post = {path: text.replace(" = 1;", " = 2;") for path, text in pre.items()}
    post["app/C0.java"] = post["app/C0.java"].replace("int a", "long a")
    snap = write_repo(tmp_path, pre=pre, post=post)
    focal = focal_for(snap, "app/C0.java", ("C0",), "run")
    test_loc = MethodLocator("app/T.java", ("T",), "testRun")
    focal_chunks, test_chunks, warnings = collector_for(snap).collect_env_ctx(focal, test_loc)
    # the anchor file plus at most five parent files
    assert [c.group_label for c in focal_chunks] == [
        f"Environment change in app/C{i}.java" for i in range(6)
    ]
    assert test_chunks == []
    assert warnings == ["parent chain of C0 exceeds 5 levels; truncated"]


def test_env_ctx_changed_lines_have_diff_markers(mini):
    _, collector, focal, test_loc = mini
    focal_chunks, test_chunks, _ = collector.collect_env_ctx(focal, test_loc)
    for chunk in [*focal_chunks, *test_chunks]:
        for line in chunk.text.splitlines():
            assert line.startswith("- ") or line.startswith("+ ") or line == TRUNCATION_MARKER


# ----------------------------------------------------------------------
# bundle assembly
# ----------------------------------------------------------------------


def test_bundle_gathers_all_families(mini):
    snap, _, focal, test_loc = mini
    bundle = construct_bundle(focal, test_loc, BuiltinResolver(snap))
    assert list(bundle.class_ctx) == ["MountPOptions"]
    assert len(bundle.usage_ctx) == 1
    assert len(bundle.env_ctx_focal) == 2
    assert len(bundle.env_ctx_test) == 1
    assert bundle.warnings == []
    assert len(all_chunks(bundle)) == 6 + 1 + 2 + 1


def test_bundle_skips_class_ctx_for_norm_only_change(tmp_path):
    pre = "package app;\npublic class S {\n    public int f(int a) {\n        return a;\n    }\n}\n"
    post = pre.replace("int f(int a)", "int f(int a) throws Exception")
    caller = "package app;\npublic class C {\n    public void go(S s) {\n        int v = s.f(1);\n    }\n}\n"
    snap = write_repo(
        tmp_path,
        pre={"app/S.java": pre, "app/C.java": caller},
        post={"app/S.java": post, "app/C.java": caller},
    )
    focal = focal_for(snap, "app/S.java", ("S",), "f")
    assert not focal.is_param and not focal.is_ret and focal.kinds
    test_loc = MethodLocator("app/C.java", ("C",), "go")
    bundle = construct_bundle(focal, test_loc, BuiltinResolver(snap))
    assert bundle.class_ctx == {}


def test_bundle_keeps_one_copy_of_each_warning(tmp_path):
    # The class context (new type S) and both environment walks (from S,
    # and from T through S) each meet the parent Ext outside the snapshot.
    service_pre = (
        "package app;\npublic class S extends Ext {\n"
        "    public void go(int a) {\n    }\n}\n"
    )
    test = (
        "package app;\npublic class T extends S {\n"
        "    public void testGo() {\n        go(1);\n    }\n}\n"
    )
    snap = write_repo(
        tmp_path,
        pre={"app/S.java": service_pre, "app/T.java": test},
        post={"app/S.java": service_pre.replace("int a", "S a"), "app/T.java": test},
    )
    focal = focal_for(snap, "app/S.java", ("S",), "go")
    test_loc = MethodLocator("app/T.java", ("T",), "testGo")
    bundle = construct_bundle(focal, test_loc, BuiltinResolver(snap))
    assert list(bundle.class_ctx) == ["S"]
    assert bundle.warnings == ["parent class Ext of S is outside the snapshot"]


def test_bundle_chunks_lex_cleanly(mini):
    snap, _, focal, test_loc = mini
    bundle = construct_bundle(focal, test_loc, BuiltinResolver(snap))
    for chunk in all_chunks(bundle):
        for line in chunk.text.splitlines():
            body = line[2:] if line[:2] in ("- ", "+ ") else line
            if body == TRUNCATION_MARKER:
                continue
            toks = scanner_oracle.lex(body, keep_comments=True)
            assert all(t.kind != scanner_oracle.COMMENT for t in toks)
