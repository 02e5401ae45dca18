"""Manifest parsing and sample hygiene rules."""

import json
from pathlib import Path

import pytest

from testmend.dataset import (
    RULE_FOCAL_NOT_USED,
    RULE_INCOMPLETE_TEST,
    RULE_MISSING_SNAPSHOT,
    RULE_SIGNATURE_ONLY_FOCAL,
    load_manifest,
    read_manifest,
)
from testmend.errors import ManifestError

FIXTURES = Path(__file__).parent / "fixtures"

CALC_PRE = """\
class Calc {
    int add(int a, int b) {
        return a + b;
    }
}
"""
CALC_POST = """\
class Calc {
    long add(long a, long b) {
        return a + b;
    }
}
"""
CALC_TEST = """\
class CalcTest {
    void testAdd() {
        int got = calc.add(1, 2);
        assertEquals(3, got);
    }
}
"""
GROUND_TRUTH = """\
void testAdd() {
    long got = calc.add(1L, 2L);
    assertEquals(3L, got);
}
"""


def base_entry(sample_id="calc-001"):
    return {
        "id": sample_id,
        "pre_root": "pre",
        "post_root": "post",
        "focal": {
            "file_pre": "src/Calc.java",
            "file_post": "src/Calc.java",
            "classes": ["Calc"],
            "method": "add",
            "params_pre": ["int", "int"],
            "params_post": ["long", "long"],
        },
        "test": {
            "file": "src/CalcTest.java",
            "classes": ["CalcTest"],
            "method": "testAdd",
            "params": [],
        },
        "ground_truth_path": "gt/testAdd.java",
        "project": "demo",
        "commit": "abc123",
    }


def write_workspace(tmp_path, entries, pre=CALC_PRE, post=CALC_POST, test=CALC_TEST):
    for rel, text in [
        ("pre/src/Calc.java", pre),
        ("post/src/Calc.java", post),
        ("pre/src/CalcTest.java", test),
        ("gt/testAdd.java", GROUND_TRUTH),
    ]:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(entries, indent=2))
    return manifest


def test_read_manifest_checks_shape_only(tmp_path):
    entries = [{"id": f"sample-{i:03d}"} for i in range(137)]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(entries))
    assert len(read_manifest(path)) == 137


def test_read_manifest_rejects_structural_problems(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(ManifestError):
        read_manifest(path)
    path.write_text(json.dumps({"id": "x"}))
    with pytest.raises(ManifestError):
        read_manifest(path)
    path.write_text(json.dumps([{"name": "missing id"}]))
    with pytest.raises(ManifestError):
        read_manifest(path)
    with pytest.raises(ManifestError):
        read_manifest(tmp_path / "absent.json")


def test_load_valid_sample_with_ground_truth_file(tmp_path):
    manifest = write_workspace(tmp_path, [base_entry()])
    load = load_manifest(manifest)
    assert load.rejects == []
    assert len(load.samples) == 1
    sample = load.samples[0]
    assert sample.id == "calc-001"
    assert sample.focal_pre.method == "add"
    assert sample.focal_pre.params == ("int", "int")
    assert sample.focal_post.params == ("long", "long")
    assert sample.test.describe().endswith("CalcTest.testAdd()")
    assert sample.ground_truth == GROUND_TRUTH.strip()
    assert sample.project == "demo"
    assert sample.commit == "abc123"
    snapshot = sample.snapshot()
    assert "long add" in snapshot.read("post", "src/Calc.java")


def test_inline_ground_truth_and_renamed_focal(tmp_path):
    entry = base_entry()
    del entry["ground_truth_path"]
    entry["ground_truth"] = "void t() {}"
    entry["focal"]["method_post"] = "addExact"
    post = CALC_POST.replace("long add", "long addExact")
    manifest = write_workspace(tmp_path, [entry], post=post)
    load = load_manifest(manifest)
    assert load.rejects == []
    sample = load.samples[0]
    assert sample.ground_truth == "void t() {}"
    assert sample.focal_post.method == "addExact"
    assert sample.focal_pre.method == "add"


def test_sample_without_ground_truth_is_allowed(tmp_path):
    entry = base_entry()
    del entry["ground_truth_path"]
    manifest = write_workspace(tmp_path, [entry])
    load = load_manifest(manifest)
    assert load.samples[0].ground_truth is None


def test_reject_test_that_never_uses_focal(tmp_path):
    test = CALC_TEST.replace("calc.add(1, 2)", "calc.subtract(1, 2)").replace(
        "int got = ", "int got2 = "
    )
    manifest = write_workspace(tmp_path, [base_entry()], test=test)
    load = load_manifest(manifest)
    assert load.samples == []
    assert load.rejects == [("calc-001", RULE_FOCAL_NOT_USED)]


def test_reject_incomplete_test(tmp_path):
    statements = "int got = calc.add(1, 2);\n        assertEquals(3, got);"
    empty_body = CALC_TEST.replace(statements, "")
    # Hygiene reads the canonical form, which holds no comments.
    comment_only = CALC_TEST.replace(
        statements, "// TODO calc.add(1, 2)\n        /* assertEquals(3, got); */"
    )
    missing = CALC_TEST.replace("testAdd", "testOther")
    for test in (empty_body, comment_only, missing):
        manifest = write_workspace(tmp_path, [base_entry()], test=test)
        assert load_manifest(manifest).rejects == [("calc-001", RULE_INCOMPLETE_TEST)]


def test_reject_signature_only_focal(tmp_path):
    hollow = CALC_POST.replace("return a + b;", "")
    comment_only = CALC_POST.replace("return a + b;", "// return a + b;")
    gone = "class Calc {\n}\n"
    for post in (hollow, comment_only, gone):
        manifest = write_workspace(tmp_path, [base_entry()], post=post)
        assert load_manifest(manifest).rejects == [
            ("calc-001", RULE_SIGNATURE_ONLY_FOCAL)
        ]


@pytest.mark.parametrize("ground_truth", ["   \n", "// nothing here\n"])
def test_reject_ground_truth_without_code_tokens(tmp_path, ground_truth):
    """A ground truth that normalizes to no code tokens cannot be scored;
    one that does not lex still has tokens (its word split) and is kept."""
    mount = json.loads((FIXTURES / "manifest.json").read_text())[0]
    entry = {**mount, "pre_root": str(FIXTURES / mount["pre_root"]),
             "post_root": str(FIXTURES / mount["post_root"])}
    del entry["ground_truth_path"]
    empty = {**entry, "id": "mount-empty", "ground_truth": ground_truth}
    unlexable = {**entry, "id": "mount-unlexable", "ground_truth": "void t() { # }"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([empty, unlexable]))
    load = load_manifest(manifest)
    assert load.rejects == [("mount-empty", "empty-ground-truth")]
    assert [s.id for s in load.samples] == ["mount-unlexable"]


def test_reject_malformed_and_duplicate_entries(tmp_path):
    broken = {"id": "calc-002"}  # no focal/test records
    manifest = write_workspace(tmp_path, [base_entry(), broken, base_entry()])
    load = load_manifest(manifest)
    assert [s.id for s in load.samples] == ["calc-001"]
    assert ("calc-002", "malformed-entry") in load.rejects
    assert ("calc-001", "duplicate-id") in load.rejects


@pytest.mark.parametrize(
    "record, key, value",
    [
        ("test", "file", 7),
        ("test", "params", [1]),
        ("test", "classes", "CalcTest"),
        ("focal", "method", 5),
        ("focal", "params_pre", "int"),
        ("focal", "classes_post", "Calc"),
    ],
)
def test_locator_field_of_the_wrong_type_is_malformed(tmp_path, record, key, value):
    entry = base_entry()
    entry[record][key] = value
    manifest = write_workspace(tmp_path, [entry])
    assert load_manifest(manifest).rejects == [("calc-001", "malformed-entry")]


def test_reject_missing_snapshot_root(tmp_path):
    entry = base_entry()
    entry["pre_root"] = "nowhere"
    manifest = write_workspace(tmp_path, [entry])
    assert load_manifest(manifest).rejects == [("calc-001", RULE_MISSING_SNAPSHOT)]


def test_missing_ground_truth_file_rejects_entry(tmp_path):
    (tmp_path / "gt").mkdir()
    (tmp_path / "gt" / "latin1.java").write_bytes(b"void testAdd() { } // Ren\xe9\n")
    for key, value in [
        ("ground_truth_path", "gt/absent.java"),
        ("ground_truth_path", "gt/latin1.java"),
        ("ground_truth_path", 7),
        ("ground_truth", 5),
    ]:
        entry = base_entry()
        entry[key] = value
        manifest = write_workspace(tmp_path, [entry])
        assert load_manifest(manifest).rejects == [("calc-001", "malformed-entry")]


def test_loading_preserves_order_and_is_deterministic(tmp_path):
    entries = [base_entry("calc-b"), base_entry("calc-a"), base_entry("calc-c")]
    manifest = write_workspace(tmp_path, entries)
    first = load_manifest(manifest)
    second = load_manifest(manifest)
    assert [s.id for s in first.samples] == ["calc-b", "calc-a", "calc-c"]
    assert [s.id for s in first.samples] == [s.id for s in second.samples]
    assert first.rejects == second.rejects
