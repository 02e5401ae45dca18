"""Applying a :class:`~testmend.snapshot.DiffText`, kept as a round-trip oracle.

The pipeline only ever renders diffs; nothing in it patches a text.  The
tests use :func:`apply_diff` to check that :func:`~testmend.snapshot.unified_diff`
records every change: ``apply_diff(a, unified_diff(a, b),
b.endswith("\\n")) == b`` must hold exactly.
"""

from __future__ import annotations

from testmend.snapshot import DiffText


class PatchConflict(Exception):
    """A diff does not apply cleanly to the text it is patched onto."""


def apply_diff(a: str, diff: DiffText, trailing_newline: bool) -> str:
    """Apply ``diff`` to ``a``; end the result with a newline if asked."""
    a_lines = a.split("\n")  # lines break at "\n" only, as tokens count them
    if not a_lines[-1]:
        a_lines.pop()
    out: list[str] = []
    cursor = 0
    for hunk in diff.hunks:
        if hunk.pre_start < cursor or hunk.pre_end > len(a_lines):
            raise PatchConflict(f"hunk at line {hunk.pre_start + 1} out of range")
        expected = list(hunk.deleted)
        actual = a_lines[hunk.pre_start : hunk.pre_end]
        if actual != expected:
            raise PatchConflict(
                f"hunk at line {hunk.pre_start + 1} does not match: "
                f"expected {expected!r}, found {actual!r}"
            )
        out.extend(a_lines[cursor : hunk.pre_start])
        out.extend(hunk.added)
        cursor = hunk.pre_end
    out.extend(a_lines[cursor:])
    text = "\n".join(out)
    if trailing_newline and out:
        text += "\n"
    return text
