"""Untimed pass: seed the replay directory and check collected context.

Run as a child process against the code under test::

    python bench/gate.py --src SRC --work WORKDIR --out RESULT.json

For each sample of the work directory's manifest it calls
``prepare_sample``, writes ``replay/<prompt digest>.txt`` answering every
attempt with the ground truth, and checks the unranked bundle against
``truth/<id>.json``:

* every planted caller file has a usage chunk for each planted call site;
* the new type resolves to the planted class chain and every public
  member of that chain (constructors and inherited members included) is
  present;
* every planted environment hunk is present.

It also fails any sample whose files the index skipped as unparsable.
The checks read only the planted truth and the bundle's plain fields.
"""

from __future__ import annotations

import argparse
import json
import logging
import re
import sys
from pathlib import Path


class _Unparsable(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if "unparsable" in message:
            self.messages.append(message)


def check_bundle(bundle: dict, truth: dict) -> list[str]:
    """Misses of ``bundle`` (``TROCtxBundle.as_dict()``) against ``truth``."""
    misses: list[str] = []
    group = bundle["class_ctx"].get(truth["new_type"])
    if group is None:
        misses.append(f"no class context for {truth['new_type']}")
    else:
        if group["defining_classes"] != truth["defining_classes"]:
            misses.append(
                f"class chain {group['defining_classes']} != {truth['defining_classes']}"
            )
        for member in truth["members"]:
            label = f"Defined in class {member['declaring_class']}"
            pattern = re.compile(
                rf"\b{re.escape(member['name'])}\b"
                + (r"\s*\(" if member["kind"] != "field" else "")
            )
            found = any(
                c["group_label"] == label
                and pattern.search(c["text"])
                and c["is_constructor"] == (member["kind"] == "constructor")
                for c in group["chunks"]
            )
            if not found:
                misses.append(f"member {member['declaring_class']}.{member['name']} missing")
    for caller in truth["callers"]:
        label = f"Usage change in {caller['file']}"
        texts = [c["text"] for c in bundle["usage_ctx"] if c["group_label"] == label]
        if not texts:
            misses.append(f"no usage chunk for caller {caller['file']}")
            continue
        for marker in caller["sites"]:
            if not any(re.search(rf"\b{marker}\b", t) for t in texts):
                misses.append(f"call site {marker} of {caller['file']} missing")
    for hunk in truth["env_hunks"]:
        label = f"Environment change in {hunk['file']}"
        if not any(
            c["group_label"] == label and hunk["marker"] in c["text"]
            for c in bundle[hunk["family"]]
        ):
            misses.append(f"env hunk {hunk['marker']} of {hunk['file']} missing")
    return misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from testmend.dataset import load_manifest
    from testmend.evaluate import prepare_sample
    from testmend.javasrc.ast import parse_java
    from testmend.javasrc.format import canonicalize
    from testmend.provider import prompt_digest

    work = Path(args.work)
    replay = work / "replay"
    replay.mkdir(exist_ok=True)
    unparsable = _Unparsable()
    logging.getLogger("testmend").addHandler(unparsable)
    load = load_manifest(work / "manifest.json")
    results: dict[str, dict] = {}
    for rejected_id, rule in load.rejects:
        results[rejected_id] = {"misses": [f"rejected by hygiene: {rule}"], "digest": ""}
    for sample in load.samples:
        unparsable.messages.clear()
        truth = json.loads((work / "truth" / f"{sample.id}.json").read_text(encoding="utf-8"))
        prepared = prepare_sample(sample)
        digest = prompt_digest(prepared.prompt.messages())
        (replay / f"{digest}.txt").write_text(
            f"```java\n{sample.ground_truth}\n```\n", encoding="utf-8"
        )
        misses = check_bundle(prepared.bundle.as_dict(), truth)
        # Pre versions of changed files are only canonicalized by the
        # pipeline; parse them here so none of them is silently malformed.
        snapshot = sample.snapshot()
        for path in snapshot.java_files("pre"):
            pre = snapshot.read("pre", path)
            if snapshot.read_or_empty("post", path) != pre:
                parse_java(canonicalize(pre))
        misses += [f"unparsable: {m}" for m in unparsable.messages]
        results[sample.id] = {"misses": misses, "digest": digest}
    Path(args.out).write_text(json.dumps(results, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
