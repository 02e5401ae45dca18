"""Benchmark sample format: manifest loading and hygiene validation.

A manifest is a JSON array.  Each entry names a sample id, the pre/post
snapshot roots, the focal method's locators in both versions, the test
method's locator in the pre version, the ground-truth repaired test
(inline or by path), and optional project/commit metadata.  Entries that
fail a hygiene rule are skipped and reported with the violated rule:
an unresolvable or empty test (``incomplete-test``), a focal method
without bodies on both sides (``signature-only-focal``), a test that
never names the focal method (``focal-not-used``), or a ground truth
with no code tokens, which no metric can score against
(``empty-ground-truth``).  Hygiene reads the cached parse of each
source's canonical form (:func:`~testmend.resolver.parse_source`), which
holds no comments, so a body of only comments is empty.  Files not in
UTF-8 are read as ISO-8859-1.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import NamedTuple

from testmend.errors import InputError, ManifestError
from testmend.javasrc.lexer import lex
from testmend.metrics import has_code_tokens
from testmend.resolver import parse_source
from testmend.signatures import MethodLocator, method_body_text, method_full_text
from testmend.snapshot import RepoSnapshot

log = logging.getLogger(__name__)

RULE_INCOMPLETE_TEST = "incomplete-test"
RULE_SIGNATURE_ONLY_FOCAL = "signature-only-focal"
RULE_FOCAL_NOT_USED = "focal-not-used"
RULE_MISSING_SNAPSHOT = "missing-snapshot"
RULE_EMPTY_GROUND_TRUTH = "empty-ground-truth"


class RepairSample(NamedTuple):
    id: str
    pre_root: str
    post_root: str
    focal_pre: MethodLocator
    focal_post: MethodLocator
    test: MethodLocator
    ground_truth: str | None = None
    project: str = ""
    commit: str = ""

    def snapshot(self) -> RepoSnapshot:
        return RepoSnapshot(self.pre_root, self.post_root)


class ManifestLoad(NamedTuple):
    samples: list[RepairSample]
    rejects: list[tuple[str, str]]  # (id, rule)


def read_manifest(path: str | Path) -> list[dict]:
    """The manifest's entry objects, shape-checked but not validated."""
    p = Path(path)
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"manifest {p} is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ManifestError(f"manifest {p} must be a JSON array of entries")
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise ManifestError(f"manifest entry {i} lacks a string 'id'")
    return data


def _strings(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _locator(record: dict, file_key: str, params_key: str, post: bool = False) -> MethodLocator:
    params = record.get(params_key)
    classes = record["classes"]
    method = record["method"]
    if post:
        # Renames may move or rename the method in the post tree.
        classes = record.get("classes_post", classes)
        method = record.get("method_post", method)
    file = record[file_key]
    if not (
        isinstance(file, str)
        and isinstance(method, str)
        and _strings(classes)
        and (params is None or _strings(params))
    ):
        raise ManifestError(
            f"locator with {file_key}: file and method must be strings, "
            f"classes and {params_key} lists of strings"
        )
    return MethodLocator(
        file=file,
        classes=tuple(classes),
        method=method,
        params=tuple(params) if params is not None else None,
    )


def _build_sample(entry: dict, base: Path) -> RepairSample:
    ground_truth = entry.get("ground_truth")
    gt_path = entry.get("ground_truth_path")
    for key, value in (("ground_truth", ground_truth), ("ground_truth_path", gt_path)):
        if value is not None and not isinstance(value, str):
            raise ManifestError(f"entry {entry['id']}: {key} is not a string")
    if ground_truth is None and gt_path is not None:
        try:
            ground_truth = (base / gt_path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ManifestError(
                f"entry {entry['id']}: ground truth file {gt_path} unreadable: {exc}"
            ) from exc
    try:
        focal = entry["focal"]
        test = entry["test"]
        return RepairSample(
            id=entry["id"],
            pre_root=str((base / entry["pre_root"]).resolve()),
            post_root=str((base / entry["post_root"]).resolve()),
            focal_pre=_locator(focal, "file_pre", "params_pre"),
            focal_post=_locator(focal, "file_post", "params_post", post=True),
            test=_locator(test, "file", "params"),
            # Candidates are compared stripped; surrounding whitespace in a
            # ground-truth file is a storage artifact, not part of the answer.
            ground_truth=None if ground_truth is None else ground_truth.strip(),
            project=entry.get("project", ""),
            commit=entry.get("commit", ""),
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"entry {entry.get('id', '?')} is malformed: {exc}") from exc


def validate_sample(sample: RepairSample) -> str | None:
    """The violated hygiene rule, or None for a clean sample."""
    try:
        snapshot = sample.snapshot()
    except InputError:
        return RULE_MISSING_SNAPSHOT
    try:
        test_file = parse_source(snapshot.read("pre", sample.test.file))
        test_text = method_full_text(test_file, sample.test)
        test_body = method_body_text(test_file, sample.test)
    except (InputError, OSError):
        return RULE_INCOMPLETE_TEST
    if not test_body.strip("{} \t\n"):
        return RULE_INCOMPLETE_TEST
    try:
        pre_file = parse_source(snapshot.read("pre", sample.focal_pre.file))
        pre_body = method_body_text(pre_file, sample.focal_pre)
        post_file = parse_source(snapshot.read("post", sample.focal_post.file))
        post_body = method_body_text(post_file, sample.focal_post)
    except (InputError, OSError):
        return RULE_SIGNATURE_ONLY_FOCAL
    if not pre_body.strip("{} \t\n") or not post_body.strip("{} \t\n"):
        return RULE_SIGNATURE_ONLY_FOCAL
    if sample.focal_pre.method not in lex(test_text).texts:
        return RULE_FOCAL_NOT_USED
    if sample.ground_truth is not None and not has_code_tokens(sample.ground_truth):
        return RULE_EMPTY_GROUND_TRUTH
    return None


def _admit(entry: dict, base: Path) -> RepairSample | str:
    """The entry's sample if it is well formed and clean, else the rule it breaks."""
    try:
        sample = _build_sample(entry, base)
    except ManifestError as exc:
        log.warning("skipping manifest entry: %s", exc)
        return "malformed-entry"
    return validate_sample(sample) or sample


def load_manifest(path: str | Path) -> ManifestLoad:
    """Samples that pass hygiene, plus (id, rule) pairs for the rest."""
    p = Path(path)
    entries = read_manifest(p)
    samples: list[RepairSample] = []
    rejects: list[tuple[str, str]] = []
    seen: set[str] = set()
    for entry in entries:
        entry_id = entry["id"]
        if entry_id in seen:
            rejects.append((entry_id, "duplicate-id"))
            continue
        seen.add(entry_id)
        admitted = _admit(entry, p.parent)
        if isinstance(admitted, str):
            rejects.append((entry_id, admitted))
        else:
            samples.append(admitted)
    return ManifestLoad(samples, rejects)


def load_sample(path: str | Path, sample_id: str) -> RepairSample:
    """The manifest's first entry with ``sample_id``; no other entry is validated.

    Raises :class:`~testmend.errors.InputError` if no entry has that id or
    the entry is rejected, naming the rule it breaks.
    """
    p = Path(path)
    entry = next((e for e in read_manifest(p) if e["id"] == sample_id), None)
    if entry is None:
        raise InputError(f"sample {sample_id} is not in {path}")
    admitted = _admit(entry, p.parent)
    if isinstance(admitted, str):
        raise InputError(f"sample {sample_id} was rejected: {admitted}")
    return admitted
