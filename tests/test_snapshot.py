"""Snapshot access and diff round-trip / rendering tests."""

import os
import random
import stat
import tempfile
from difflib import SequenceMatcher
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from testmend import snapshot
from testmend.errors import InputError
from testmend.javasrc.lexer import split_lines
from testmend.resolver import CodeIndex
from testmend.snapshot import POST, PRE, DiffText, RepoSnapshot, unified_diff

from diff_oracle import apply_diff


@pytest.fixture()
def snap(tmp_path):
    pre = tmp_path / "pre"
    post = tmp_path / "post"
    (pre / "src").mkdir(parents=True)
    (post / "src").mkdir(parents=True)
    (pre / "src" / "A.java").write_text("class A { void m() { old(); } }\n")
    (post / "src" / "A.java").write_text("class A { void m() { updated(); } }\n")
    (pre / "src" / "Gone.java").write_text("class Gone { }\n")
    (post / "src" / "New.java").write_text("class New { }\n")
    (pre / "README.md").write_text("not java\n")
    return RepoSnapshot(pre, post)


def test_read_and_exists(snap):
    assert "old();" in snap.read(PRE, "src/A.java")
    assert "updated();" in snap.read(POST, "src/A.java")
    assert snap.exists(PRE, "src/Gone.java")
    assert not snap.exists(POST, "src/Gone.java")
    assert snap.read_or_empty(POST, "src/Gone.java") == ""
    with pytest.raises(InputError):
        snap.read(POST, "src/Gone.java")


def test_crlf_normalized(tmp_path):
    pre = tmp_path / "p"
    post = tmp_path / "q"
    pre.mkdir()
    post.mkdir()
    (pre / "X.java").write_bytes(b"class X {\r\n}\r\n")
    (post / "X.java").write_bytes(b"class X {\n}\n")
    s = RepoSnapshot(pre, post)
    assert s.read(PRE, "X.java") == s.read(POST, "X.java")


def test_non_utf8_file_reads_as_latin1(tmp_path):
    pre = tmp_path / "p"
    post = tmp_path / "q"
    pre.mkdir()
    post.mkdir()
    # The same text as ISO-8859-1 bytes (with CR LF and CR newlines) and as UTF-8.
    utf8 = "// Ren\u00e9 \u00ff\nclass X {\n}\n"
    (pre / "X.java").write_bytes(b"// Ren\xe9 \xff\r\nclass X {\r}\n")
    (post / "X.java").write_bytes(utf8.encode("utf-8"))
    s = RepoSnapshot(pre, post)
    assert s.read(PRE, "X.java") == utf8
    assert s.read(POST, "X.java") == utf8


def test_diff_lines_are_token_lines_past_a_latin1_0x85(tmp_path):
    # Byte 0x85 (a cp1252 "\u2026") is not UTF-8, so the file reads as
    # ISO-8859-1 and the literal holds U+0085, where str.splitlines()
    # would break a line that the lexer does not.
    source = b'class A {\n    String s = "Loading\x85";\n    void f() {\n        g(1);\n    }\n}\n'
    for version, text in (("pre", source), ("post", source.replace(b"g(1)", b"g(2)"))):
        (tmp_path / version).mkdir()
        (tmp_path / version / "A.java").write_bytes(text)
    index = CodeIndex(RepoSnapshot(tmp_path / "pre", tmp_path / "post"))
    [hunk] = index.diff("A.java").hunks
    tokens = index.tokens(POST, "A.java")
    [two] = [tokens.token(i) for i, text in enumerate(tokens.texts) if text == "2"]
    assert hunk.added == ("        g(2);",)
    assert hunk.post_start == two.line == 3


def test_exists_takes_a_listed_path_from_the_listing(tmp_path, monkeypatch):
    pre, post = two_roots(tmp_path)
    (pre / "Top.java").write_text("class Top { }\n")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "Out.java").write_text("class Out { }\n")
    (pre / "linked").symlink_to(outside, target_is_directory=True)
    s = RepoSnapshot(pre, post)
    stats = []
    real_isfile = os.path.isfile

    def counting_isfile(path):
        stats.append(os.path.relpath(path, pre))
        return real_isfile(path)

    monkeypatch.setattr(os.path, "isfile", counting_isfile)
    assert s.exists(PRE, "Top.java")  # no buffer yet: a stat answers
    assert stats == ["Top.java"]
    assert s.version_text(PRE).paths == ["Top.java"]
    stats.clear()
    assert s.exists(PRE, "Top.java")
    assert stats == []
    # Unlisted paths keep the stat: under a symlinked directory, or absent.
    assert s.exists(PRE, "linked/Out.java")
    assert not s.exists(PRE, "Absent.java")
    assert stats == ["linked/Out.java", "Absent.java"]


def test_java_files_sorted(snap):
    assert snap.java_files(PRE) == ["src/A.java", "src/Gone.java"]
    assert snap.java_files(POST) == ["src/A.java", "src/New.java"]


def two_roots(tmp_path):
    pre = tmp_path / "pre"
    post = tmp_path / "post"
    pre.mkdir()
    post.mkdir()
    return pre, post


def test_java_files_listing_contract(tmp_path):
    pre, post = two_roots(tmp_path)
    (pre / "a" / "b").mkdir(parents=True)
    (pre / "a" / "b" / "Deep.java").write_text("class Deep { }\n")
    (pre / "a" / "Notes.txt").write_text("text\n")
    (pre / "a" / "Java.java.bak").write_text("class Bak { }\n")
    (pre / "Top.java").write_text("class Top { }\n")
    (pre / "Dir.java").mkdir()  # a directory with a .java name
    (pre / "Dir.java" / "Inner.java").write_text("class Inner { }\n")
    (pre / ".hidden").mkdir()
    (pre / ".hidden" / "H.java").write_text("class H { }\n")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "Out.java").write_text("class Out { }\n")
    (pre / "linked").symlink_to(outside, target_is_directory=True)
    (pre / "Alias.java").symlink_to(pre / "Top.java")
    (pre / "Broken.java").symlink_to(pre / "missing.java")
    (pre / "Loop.java").symlink_to(pre / "Loop.java")
    s = RepoSnapshot(pre, post)
    assert s.java_files(PRE) == [
        ".hidden/H.java",
        "Alias.java",
        "Dir.java/Inner.java",
        "Top.java",
        "a/b/Deep.java",
    ]
    assert s.java_files(POST) == []
    assert s.read(PRE, "Alias.java") == "class Top { }\n"


@pytest.mark.skipif(os.geteuid() == 0, reason="root reads every directory")
def test_java_files_skips_unreadable_directory(tmp_path):
    pre, post = two_roots(tmp_path)
    (pre / "open").mkdir()
    (pre / "open" / "A.java").write_text("class A { }\n")
    closed = pre / "closed"
    closed.mkdir()
    (closed / "B.java").write_text("class B { }\n")
    closed.chmod(0)
    try:
        assert RepoSnapshot(pre, post).java_files(PRE) == ["open/A.java"]
    finally:
        closed.chmod(stat.S_IRWXU)


def test_java_files_skips_directory_that_denies_listing(tmp_path, monkeypatch):
    # The same contract as above for any user: listing the directory
    # raises PermissionError.
    pre, post = two_roots(tmp_path)
    (pre / "open").mkdir()
    (pre / "open" / "A.java").write_text("class A { }\n")
    (pre / "closed").mkdir()
    (pre / "closed" / "B.java").write_text("class B { }\n")
    scandir = os.scandir

    def denying(path="."):
        if os.path.basename(os.fspath(path).rstrip("/")) == "closed":
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", denying)
    assert RepoSnapshot(pre, post).java_files(PRE) == ["open/A.java"]


def test_read_newlines_and_bom(tmp_path):
    pre, post = two_roots(tmp_path)
    (pre / "Cr.java").write_bytes(b"class X {\r  int a;\r}\r")
    (pre / "Mixed.java").write_bytes(b"class X {\r\n  int a;\r\r\n}\n\r")
    (pre / "Bom.java").write_bytes(b"\xef\xbb\xbfclass X {\r\n}\n")
    s = RepoSnapshot(pre, post)
    assert s.read(PRE, "Cr.java") == "class X {\n  int a;\n}\n"
    assert s.read(PRE, "Mixed.java") == "class X {\n  int a;\n\n}\n\n"
    assert s.read(PRE, "Bom.java") == "\ufeffclass X {\n}\n"


def test_read_directory_or_missing_path_raises(tmp_path):
    pre, post = two_roots(tmp_path)
    (pre / "pkg").mkdir()
    (pre / "A.java").write_text("class A { }\n")
    s = RepoSnapshot(pre, post)
    for relpath in ("pkg", "Missing.java", "pkg/Missing.java", "A.java/B.java"):
        assert not s.exists(PRE, relpath)
        assert s.read_or_empty(PRE, relpath) == ""
        with pytest.raises(InputError):
            s.read(PRE, relpath)
    with pytest.raises(InputError):
        s.read("mid", "A.java")


# ----------------------------------------------------------------------
# raw reads leave no file descriptor open
#
# A raw fd that is never closed raises no ResourceWarning, so these tests
# count the process's open descriptors instead.
# ----------------------------------------------------------------------

FD_DIR = "/proc/self/fd"
needs_fd_dir = pytest.mark.skipif(not os.path.isdir(FD_DIR), reason=f"no {FD_DIR}")


def open_fds() -> int:
    return len(os.listdir(FD_DIR))


@needs_fd_dir
def test_reads_close_their_descriptors(tmp_path):
    pre, post = two_roots(tmp_path)
    (pre / "pkg").mkdir()
    (pre / "A.java").write_text("class A { }\n")
    big = "class Big {\n" + "    int field;\n" * 10_000 + "}\n"  # several 64 KiB chunks
    (pre / "Big.java").write_text(big)
    s = RepoSnapshot(pre, post)
    before = open_fds()
    assert s.read(PRE, "A.java") == "class A { }\n"
    assert s.read(PRE, "Big.java") == big
    assert len(big) > 2 * 65536
    assert open_fds() == before
    for relpath in ("pkg", "Missing.java", "A.java/B.java"):
        with pytest.raises(InputError):
            s.read(PRE, relpath)
        assert open_fds() == before, relpath


@needs_fd_dir
def test_version_load_closes_its_descriptors(tmp_path):
    pre, post = two_roots(tmp_path)
    for i in range(40):
        (post / f"C{i}.java").write_text(f"class C{i} {{ void run() {{ }} }}\n")
    index = CodeIndex(RepoSnapshot(pre, post))
    before = open_fds()
    assert len(index.files_mentioning(POST, "run")) == 40
    assert open_fds() == before


def test_indexes_of_one_snapshot_read_each_file_once(tmp_path, monkeypatch):
    pre, post = two_roots(tmp_path)
    for i in range(3):
        (post / f"C{i}.java").write_text(f"class C{i} {{ void run() {{ }} }}\n")
    snap = RepoSnapshot(pre, post)
    opened = []
    os_open = os.open

    def counted(path, *args, **kwargs):
        opened.append(os.path.basename(path))
        return os_open(path, *args, **kwargs)

    monkeypatch.setattr(os, "open", counted)
    for index in (CodeIndex(snap), CodeIndex(snap)):
        assert [p.path for p in index.files_mentioning(POST, "run")] == [
            "C0.java", "C1.java", "C2.java"
        ]
        assert [p.path for p in index.files_mentioning(POST, "C1")] == ["C1.java"]
        assert "C2" in index.canonical(POST, "C2.java")
    assert sorted(opened) == ["C0.java", "C1.java", "C2.java"]


# ----------------------------------------------------------------------
# searching a version as one buffer
# ----------------------------------------------------------------------


def version_of(tmp_path, files: dict[str, bytes]) -> tuple[RepoSnapshot, list[str]]:
    """A snapshot whose POST tree holds ``files`` (name -> bytes), and its listing."""
    pre, post = two_roots(tmp_path)
    for name, data in files.items():
        (post / name).write_bytes(data)
    s = RepoSnapshot(pre, post)
    return s, s.java_files(POST)


def containing(s: RepoSnapshot, name: str) -> list[str]:
    return s.version_text(POST).containing(name)


def test_search_never_joins_two_files(tmp_path):
    s, _ = version_of(tmp_path, {"A.java": b"class A { int foo", "B.java": b"Bar; }"})
    assert containing(s, "foo") == ["A.java"]
    assert containing(s, "Bar") == ["B.java"]
    assert containing(s, "fooBar") == []


def test_search_edges_of_files(tmp_path):
    files = {
        "A.java": b"",
        "B.java": b"Name x Name",  # the name at the first and the last character
        "C.java": b"",
        "D.java": b"x\0Name\0y",  # a NUL of the file's own
        "E.java": b"Name Name Name",  # several hits, one file
        "F.java": b"",
    }
    s, paths = version_of(tmp_path, files)
    assert containing(s, "Name") == ["B.java", "D.java", "E.java"]
    assert containing(s, "y") == ["D.java"]
    assert containing(s, "") == paths
    assert containing(s, "x\0Name") == ["D.java"]
    assert containing(s, "Name\0") == ["D.java"]
    # What read() gives for a file of the buffer is what the disk gives.
    fresh = RepoSnapshot(s.root(PRE), s.root(POST))
    assert [s.read(POST, p) for p in paths] == [fresh.read(POST, p) for p in paths]


def test_search_sees_decoded_folded_text(tmp_path):
    files = {
        "Crlf.java": b"int a;\r\nint b;\rint c;\n",
        "Latin.java": b"// Ren\xe9\r\nclass Latin { }",
        "Utf8.java": "// Ren\u00e9\nclass Utf8 { }".encode("utf-8"),
    }
    s, _ = version_of(tmp_path, files)
    assert containing(s, "Ren\u00e9") == ["Latin.java", "Utf8.java"]
    assert containing(s, "Ren\u00e9\nclass") == ["Latin.java", "Utf8.java"]
    assert containing(s, "a;\nint b;\nint c") == ["Crlf.java"]
    assert containing(s, "\r") == []
    assert containing(s, "class") == ["Latin.java", "Utf8.java"]
    assert containing(s, "\u00c3") == []  # no UTF-8 byte read as ISO-8859-1
    assert s.read(POST, "Latin.java") == "// Ren\u00e9\nclass Latin { }"


def test_declaring_reads_the_gap_as_the_lexer_does(tmp_path):
    files = {
        "A.java": b"package java.util;\nclass /* c */ Block {}\n",
        "B.java": b"interface // c\r\n  Line {}\n",
        "C.java": b"record\tRec(int a) {}\n@interface\fNote {}\nenum E {}\n",
        "D.java": b"import java.util.List;\nclass ListHolder { java.util.List<String> x; }\n",
        "F.java": b"@myrecord class Foo {}\n",
        "G.java": b"class G { Subclass Other; int enumerated = Block.size(); }\n",
        "H.java": "class Caf\u00e9 {}\n".encode("utf-8"),
        "I.java": "// Caf\u00e9 Block E\n".encode("utf-8"),
    }
    s, _ = version_of(tmp_path, files)
    version = s.version_text(POST)
    expected = {
        "Block": ["A.java"],
        "Line": ["B.java"],
        "Rec": ["C.java"],
        "Note": ["C.java"],
        "E": ["C.java"],
        "ListHolder": ["D.java"],
        # A keyword that ends an identifier does not hide the declaration after it.
        "Foo": ["F.java"],
        "G": ["G.java"],
        # A keyword inside an identifier reads as a keyword: a superset of
        # the declaring files, which the parse then filters.
        "Other": ["G.java"],
        "Caf\u00e9": ["H.java", "I.java"],  # not ASCII: every file that mentions it
    }
    for name, paths in expected.items():
        assert version.declaring(name) == paths, name
    for name in ("java", "util", "List", "c", "Bloc", "String", "x", "myrecord", "size"):
        assert version.declaring(name) == [], name


def test_declaring_reads_each_files_declarations_once(tmp_path, monkeypatch):
    files = {
        "A.java": b"package p;\nclass A extends java.util.AbstractList { }\n",
        "B.java": b"package p;\nclass B extends java.util.AbstractList { }\n",
        "C.java": b"package p;\nclass C { }\n",
    }
    s, _ = version_of(tmp_path, files)
    starts = s.version_text(POST).starts
    scanned = []
    pattern = snapshot._DECLARATION

    class Counted:
        def finditer(self, data, start, end):
            scanned.append(start)
            return pattern.finditer(data, start, end)

    monkeypatch.setattr(snapshot, "_DECLARATION", Counted())
    index = CodeIndex(s)
    assert index.resolve_class(POST, "A.java", "java.util.AbstractList") is None
    assert index.resolve_class(POST, "B.java", "java.util.AbstractList") is None
    assert scanned == starts[:2]  # A.java and B.java, once each; C.java never


PIECES = [b"a", b"b", b"ab", b" ", b"\0", b"\r", b"\n", b"\r\n", b"\xe9", b"\xff",
          "\u00e9".encode("utf-8"), "\u2014".encode("utf-8")]


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(st.lists(st.sampled_from(PIECES), max_size=12).map(b"".join), max_size=5),
    st.text(alphabet="ab \0\r\n\u00e9\u00ff\u2014", max_size=4),
)
def test_search_equals_a_scan_of_each_text(datas, name):
    with tempfile.TemporaryDirectory() as tmp:
        s, paths = version_of(Path(tmp), {f"F{i}.java": data for i, data in enumerate(datas)})
        expected = [p for p in s.java_files(POST) if name in s.read(POST, p)]
        joined = RepoSnapshot(s.root(PRE), s.root(POST))
        assert containing(joined, name) == expected
        assert [joined.read(POST, p) for p in paths] == [s.read(POST, p) for p in paths]


def test_missing_root_raises(tmp_path):
    with pytest.raises(InputError):
        RepoSnapshot(tmp_path / "nope", tmp_path)


@pytest.mark.parametrize("text", ["", "one\n", "one\ntwo\n\nthree", "a\r\nb\n"])
def test_diff_of_equal_texts_builds_no_matcher(monkeypatch, text):
    lines = tuple(split_lines(text))
    # What the matcher gives for equal texts: no hunk.
    opcodes = SequenceMatcher(a=lines, b=lines, autojunk=False).get_opcodes()
    assert all(tag == "equal" for tag, *_ in opcodes)

    def no_matcher(*args, **kwargs):
        raise AssertionError("SequenceMatcher built for equal texts")

    monkeypatch.setattr(snapshot, "SequenceMatcher", no_matcher)
    assert unified_diff(text, text) == DiffText(lines, lines, ())


def test_diff_structure():
    a = "one\ntwo\nthree\nfour\n"
    b = "one\ntwo-changed\nthree\nfour\nfive\n"
    diff = unified_diff(a, b)
    assert len(diff.hunks) == 2
    first, second = diff.hunks
    assert first.pre_start == 1 and first.deleted == ("two",) and first.added == ("two-changed",)
    assert second.pre_start == 4 and second.deleted == () and second.added == ("five",)
    assert not diff.is_empty()
    assert unified_diff(a, a).is_empty()


def test_changed_only_rendering():
    diff = unified_diff("keep\nold line\nkeep2\n", "keep\nnew line\nkeep2\n")
    assert diff.changed_only() == "- old line\n+ new line"


def test_unified_rendering_contains_context_and_header():
    a = "\n".join(f"line{i}" for i in range(10)) + "\n"
    b = a.replace("line5", "line5-changed")
    rendered = unified_diff(a, b).unified(context=2)
    lines = rendered.splitlines()
    assert lines[0] == "@@ -4,5 +4,5 @@"
    assert " line3" in lines and " line4" in lines
    assert "-line5" in lines and "+line5-changed" in lines
    assert " line6" in lines and " line7" in lines
    assert "line8" not in rendered


def test_unified_merges_nearby_hunks():
    a = "a\nb\nc\nd\ne\nf\n"
    b = "a\nB\nc\nd\nE\nf\n"
    rendered = unified_diff(a, b).unified(context=3)
    assert rendered.count("@@") == 2  # one merged group, header has two @@


def test_diff_breaks_lines_only_at_newline():
    a = "x = \"a\x85b\u2028c\x0cd\x0be\";\nkeep\n"
    diff = unified_diff(a, a.replace("keep", "kept"))
    assert diff.a_lines == ('x = "a\x85b\u2028c\x0cd\x0be";', "keep")
    assert [(h.pre_start, h.deleted, h.added) for h in diff.hunks] == [(1, ("keep",), ("kept",))]
    assert apply_diff(a, diff, True) == a.replace("keep", "kept")


def test_round_trip_explicit():
    a = "class A {\n  int x;\n}\n"
    b = "class A {\n  long x;\n  long y;\n}"
    assert apply_diff(a, unified_diff(a, b), False) == b
    assert apply_diff(b, unified_diff(b, a), True) == a
    assert apply_diff("", unified_diff("", b), False) == b
    assert apply_diff(a, unified_diff(a, ""), False) == ""


WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def random_text(rng):
    lines = [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5)))
        for _ in range(rng.randint(0, 30))
    ]
    text = "\n".join(lines)
    if lines and rng.random() < 0.9:
        text += "\n"
    return text


def mutate_text(rng, text):
    lines = text.splitlines()
    for _ in range(rng.randint(0, 6)):
        op = rng.random()
        if op < 0.35 and lines:
            lines[rng.randrange(len(lines))] = " ".join(
                rng.choice(WORDS) for _ in range(rng.randint(1, 5))
            )
        elif op < 0.65 and lines:
            del lines[rng.randrange(len(lines))]
        else:
            lines.insert(rng.randint(0, len(lines)), rng.choice(WORDS))
    out = "\n".join(lines)
    if lines and rng.random() < 0.9:
        out += "\n"
    return out


def test_round_trip_randomized_hundred_pairs():
    rng = random.Random(77)
    for i in range(100):
        a = random_text(rng)
        b = mutate_text(rng, a) if rng.random() < 0.8 else random_text(rng)
        diff = unified_diff(a, b)
        assert apply_diff(a, diff, b.endswith("\n")) == b, (i, a, b)
