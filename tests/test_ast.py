"""Structural parser tests: declarations, spans, nesting, recovery."""

import signal

import pytest

from testmend.errors import ParseError
from testmend.javasrc.ast import FieldDecl, find_method, parse_java
from testmend.javasrc.format import canonicalize

SAMPLE = """\
package alluxio.master.file;

import alluxio.AlluxioURI;
import alluxio.options.MountOptions;
import java.util.*;
import static org.junit.Assert.assertTrue;

public class FileSystemMaster extends BaseFileSystem {
    public static final int LIMIT = 10;
    private MountTable mMountTable;
    int a, b = 2;

    public FileSystemMaster(MountTable table) {
        mMountTable = table;
    }

    public void mount(AlluxioURI alluxioPath, AlluxioURI ufsPath, MountOptions options)
            throws FileAlreadyExistsException, InvalidPathException {
        if (options.isReadOnly()) {
            mMountTable.addReadOnly(alluxioPath, ufsPath);
        }
    }

    List<String> names(Map<String, List<Integer>> input) { return null; }

    abstract void pending();

    static class Helper {
        void help() { }
    }
}
"""


def test_package_and_imports():
    jf = parse_java(SAMPLE)
    assert jf.package == "alluxio.master.file"
    assert jf.imports["AlluxioURI"] == "alluxio.AlluxioURI"
    assert jf.imports["MountOptions"] == "alluxio.options.MountOptions"
    assert jf.wildcard_imports == ["java.util"]
    # static import of a member still records the qualified name
    assert jf.imports["assertTrue"] == "org.junit.Assert.assertTrue"


def test_class_structure():
    jf = parse_java(SAMPLE)
    assert [c.name for c in jf.classes] == ["FileSystemMaster"]
    cls = jf.classes[0]
    assert cls.extends == "BaseFileSystem"
    assert cls.modifiers == {"public"}
    nested = cls.nested_classes()
    assert [c.name for c in nested] == ["Helper"]
    assert nested[0].qualified_name == "FileSystemMaster.Helper"


def test_fields():
    cls = parse_java(SAMPLE).classes[0]
    fields = [m for m in cls.members if isinstance(m, FieldDecl)]
    assert [f.names for f in fields] == [["LIMIT"], ["mMountTable"], ["a", "b"]]
    assert fields[0].modifiers == {"public", "static", "final"}
    assert fields[1].type_text == "MountTable"


def test_methods_and_constructor():
    cls = parse_java(SAMPLE).classes[0]
    methods = cls.methods()
    names = [m.name for m in methods]
    assert names == ["FileSystemMaster", "mount", "names", "pending"]
    ctor = methods[0]
    assert ctor.is_constructor and ctor.return_type == ""
    mount = methods[1]
    assert mount.param_types() == ["AlluxioURI", "AlluxioURI", "MountOptions"]
    assert [p.name for p in mount.parameters] == ["alluxioPath", "ufsPath", "options"]
    assert mount.throws == ["FileAlreadyExistsException", "InvalidPathException"]
    assert mount.return_type == "void"
    assert mount.modifiers == {"public"}


def test_generic_type_texts_normalized():
    cls = parse_java(SAMPLE).classes[0]
    names = [m for m in cls.methods() if m.name == "names"][0]
    assert names.return_type == "List<String>"
    assert names.param_types() == ["Map<String, List<Integer>>"]


def test_spans_slice_back_to_source():
    jf = parse_java(SAMPLE)
    cls = jf.classes[0]
    mount = [m for m in cls.methods() if m.name == "mount"][0]
    text = jf.slice(mount.start, mount.end)
    assert text.startswith("public void mount(")
    assert text.endswith("}")
    header = jf.slice(mount.start, mount.header_end)
    assert "isReadOnly" not in header
    body = jf.slice(mount.body_start, mount.body_end)
    assert body.startswith("{") and body.endswith("}")
    assert "addReadOnly" in body


def test_abstract_method_has_no_body():
    cls = parse_java(SAMPLE).classes[0]
    pending = [m for m in cls.methods() if m.name == "pending"][0]
    assert pending.body_start is None
    assert cls.name_token is not None


def test_find_method_by_locator():
    jf = parse_java(SAMPLE)
    hit = find_method(jf, ["FileSystemMaster"], "mount",
                      ["AlluxioURI", "AlluxioURI", "MountOptions"])
    assert hit is not None
    cls, method = hit
    assert cls.name == "FileSystemMaster" and method.name == "mount"
    assert find_method(jf, ["FileSystemMaster"], "mount", ["int"]) is None
    assert find_method(jf, ["FileSystemMaster"], "mount") is not None
    assert find_method(jf, ["FileSystemMaster", "Helper"], "help") is not None


def test_annotations_on_members():
    jf = parse_java("""
        public class T {
            @Deprecated @SuppressWarnings("unchecked")
            public int go() { return 1; }
            @Getter private int count;
        }
    """)
    cls = jf.classes[0]
    go = cls.methods()[0]
    assert go.annotations == ["Deprecated", "SuppressWarnings"]
    fields = [m for m in cls.members if isinstance(m, FieldDecl)]
    assert fields[0].annotations == ["Getter"]


def test_class_level_annotations():
    jf = parse_java("@Data\npublic class Holder { private int x; }")
    assert jf.classes[0].annotations == ["Data"]


def test_interface_and_enum():
    jf = parse_java("""
        interface Op extends Runnable, Closeable {
            int apply(int x);
            default int twice(int x) { return apply(apply(x)); }
        }
        enum Color {
            RED("r"), GREEN("g");
            private final String code;
            Color(String code) { this.code = code; }
            String code() { return code; }
        }
    """)
    op, color = jf.classes
    assert op.keyword == "interface"
    assert op.implements == ["Runnable", "Closeable"]
    assert [m.name for m in op.methods()] == ["apply", "twice"]
    assert color.keyword == "enum"
    assert [m.name for m in color.methods()] == ["Color", "code"]
    assert color.methods()[0].is_constructor


def test_varargs_and_arrays():
    jf = parse_java("class V { void log(String fmt, Object... args) {} int[] grid(int[][] m) { return m[0]; } }")
    log, grid = jf.classes[0].methods()
    assert log.param_types() == ["String", "Object..."]
    assert grid.return_type == "int[]"
    assert grid.param_types() == ["int[][]"]


def test_initializers_and_field_expressions():
    jf = parse_java("""
        class I {
            static { setup(); }
            { register(this); }
            private Map<String, Integer> idx = new HashMap<>(Map.of("a", 1));
            int[] nums = {1, 2, 3};
            String s = cond ? "a" : "b", t = "c";
            int a = f(x, y), b, c[] = {1, 2}, d = a < b, e;
            void after() { }
        }
    """)
    cls = jf.classes[0]
    fields = [m for m in cls.members if isinstance(m, FieldDecl)]
    assert [f.names for f in fields] == [["idx"], ["nums"], ["s", "t"], ["a", "b", "c", "d", "e"]]
    assert [m.name for m in cls.methods()] == ["after"]


@pytest.mark.parametrize(
    "field",
    [
        "Map<A, B> m = new HashMap<A, B>();",
        "Pair<A, B> p = new Pair<A, B>(a, b);",
        "static final Map<String, List<Integer>> M = new HashMap<String, List<Integer>>();",
        "Object o = flag ? Map.<A, B>of() : null;",
    ],
)
def test_comma_between_type_arguments_does_not_end_an_initializer(field):
    source = f"class A {{ {field} int g() {{ return 1; }} }}"
    jf = parse_java(source)
    decl, method = jf.classes[0].members
    assert isinstance(decl, FieldDecl) and len(decl.names) == 1
    assert jf.slice(decl.start, decl.end) == field
    assert method.name == "g"


@pytest.mark.parametrize(
    "source, members",
    [
        ("record R(int a) { R { } int f() { return 1; } }", [("R", "R { }"), ("f", "int f() { return 1; }")]),
        (
            "record R(int a) { R { if (a < 0) throw new X(); } int f() { return 1; } }",
            [("R", "R { if (a < 0) throw new X(); }"), ("f", "int f() { return 1; }")],
        ),
        ("record R(int a) { public R { } }", [("R", "public R { }")]),
    ],
)
def test_compact_canonical_constructor_of_a_record(source, members):
    jf = parse_java(source)
    record = jf.classes[0]
    assert jf.slice(record.start, record.end) == source
    assert [(m.name, jf.slice(m.start, m.end)) for m in record.members] == members
    compact = record.members[0]
    assert compact.is_constructor and compact.parameters == [] and compact.body_end == compact.end


def test_import_without_semicolon_keeps_the_next_class():
    jf = parse_java("package p\nimport a.B\nimport static c.D.*\nclass X { int f = 1; void g() { } }")
    assert (jf.package, jf.imports, jf.wildcard_imports) == ("p", {"B": "a.B"}, ["c.D"])
    assert [c.name for c in jf.classes] == ["X"]
    assert [m.name for m in jf.classes[0].methods()] == ["g"]


@pytest.mark.parametrize(
    "source, package",
    [
        # A '.' that no name or '*' follows breaks the name: the rest of
        # the declaration up to its ';' is skipped, so a keyword after the
        # '.' starts nothing.
        ("package p;\nimport java.package util.Map;\nclass A { }", "p"),
        ("import java.class util.List;\nclass A { }", ""),
        # A name that ends on an identifier still ends there.
        ("import a.B\nclass A { int f = 1; }", ""),
    ],
)
def test_a_header_name_ending_in_a_dot_is_skipped_to_its_semicolon(source, package):
    jf = parse_java(source)
    assert jf.package == package
    assert [c.name for c in jf.classes] == ["A"]


def parse_within(source, seconds=5):
    """``parse_java(source)``, raising TimeoutError after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"parse_java did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return parse_java(source)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_annotation_type_where_an_annotation_may_stand_ends_no_loop():
    # '@interface' starts no annotation: it ends an enum's constants, and
    # a parameter list cannot hold it (both looped forever).
    jf = parse_within("enum E { A, @interface X { } }")
    assert [(c.name, c.keyword) for c in jf.all_classes()] == [("E", "enum"), ("X", "@interface")]
    with pytest.raises(ParseError, match="expected a type, found '@'"):
        parse_within("class A { void f(@interface x) { } }")


def test_member_recovery_leaves_a_closing_brace():
    # A '}' where a member name should be closes the body; the tokens
    # after it are skipped at the top level.
    source = "class U { private Master } mMaster; void restore() { } }\nclass V { }"
    jf = parse_java(source)
    assert [c.name for c in jf.classes] == ["U", "V"]
    assert jf.slice(jf.classes[0].start, jf.classes[0].end) == "class U { private Master }"
    assert jf.classes[0].members == []


def test_non_sealed_is_one_modifier_at_the_top_level_and_in_a_class_body():
    # The lexer reads "non-sealed" as the three tokens non, -, sealed, and
    # the canonical text spaces them apart.
    source = "non-sealed class Leaf extends Node {\n    non-sealed static class Inner extends Node { }\n}\n"
    for text in (source, canonicalize(source)):
        [leaf] = parse_java(text).classes
        [inner] = leaf.members
        assert (leaf.name, leaf.modifiers, leaf.extends) == ("Leaf", {"non-sealed"}, "Node")
        assert (inner.name, inner.modifiers) == ("Inner", {"non-sealed", "static"})
        assert text[leaf.start :].startswith("non") and text[inner.start :].startswith("non")


def test_unbalanced_source_raises():
    with pytest.raises(ParseError):
        parse_java("class A { void m() { ")


def test_all_classes_order():
    jf = parse_java("class A { class B { class C {} } } class D {}")
    assert [c.qualified_name for c in jf.all_classes()] == ["A", "A.B", "A.B.C", "D"]
