"""Two-version repository snapshots and line-diff utilities.

A snapshot is a pair of directory trees (``pre`` and ``post``) holding
the repository before and after the focal change.  Files are addressed
by version + relative path.  Diffs are computed with
:class:`difflib.SequenceMatcher` and kept as structured hunks, each
holding the exact deleted and added lines, so they can be rendered
unified or changed-lines-only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from difflib import SequenceMatcher
from pathlib import Path

from testmend.errors import InputError
from testmend.javasrc.format import CursorPos

PRE = "pre"
POST = "post"
VERSIONS = (PRE, POST)


@dataclass(frozen=True)
class Location:
    """A range inside one file of one snapshot version."""

    version: str
    file: str
    start: CursorPos
    end: CursorPos

    def describe(self) -> str:
        return f"{self.version}:{self.file}:{self.start.line + 1}:{self.start.col + 1}"


class RepoSnapshot:
    """Read-only access to the two version trees.

    Paths are ``/``-separated and relative to a version's root.  The
    listing holds the ``.java`` files under the root: symlinks to files
    are listed, symlinked directories are not descended, and a directory
    that cannot be listed is skipped.
    """

    def __init__(self, pre_root: str | Path, post_root: str | Path):
        self._roots = {PRE: str(Path(pre_root)), POST: str(Path(post_root))}
        for root in self._roots.values():
            if not os.path.isdir(root):
                raise InputError(f"snapshot root is not a directory: {root}")
        self._cache: dict[tuple[str, str], str] = {}

    def _root(self, version: str) -> str:
        root = self._roots.get(version)
        if root is None:
            raise InputError(f"unknown snapshot version {version!r}")
        return root

    def root(self, version: str) -> Path:
        return Path(self._root(version))

    def exists(self, version: str, relpath: str) -> bool:
        return os.path.isfile(os.path.join(self._root(version), relpath))

    def read(self, version: str, relpath: str) -> str:
        """File content as UTF-8, else ISO-8859-1, with CR LF and CR read
        as LF (as text mode reads them); cached per file."""
        key = (version, relpath)
        text = self._cache.get(key)
        if text is None:
            try:
                with open(os.path.join(self._root(version), relpath), "rb") as f:
                    data = f.read()
            except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
                raise InputError(f"no such file in {version} tree: {relpath}") from None
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError:  # ISO-8859-1 decodes every byte
                text = data.decode("iso-8859-1")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            self._cache[key] = text
        return text

    def read_or_empty(self, version: str, relpath: str) -> str:
        return self.read(version, relpath) if self.exists(version, relpath) else ""

    def java_files(self, version: str) -> list[str]:
        """Relative paths of all .java files, sorted for determinism."""
        found: list[str] = []
        pending = [(self._root(version), "")]
        while pending:
            directory, prefix = pending.pop()
            try:
                with os.scandir(directory) as listing:
                    entries = list(listing)
            except PermissionError:
                continue
            for entry in entries:
                if entry.is_dir(follow_symlinks=False):
                    pending.append((entry.path, f"{prefix}{entry.name}/"))
                elif entry.name.endswith(".java") and _is_file(entry):
                    found.append(prefix + entry.name)
        return sorted(found)


def _is_file(entry: os.DirEntry) -> bool:
    """Whether ``entry`` is a file or a symlink to one; a symlink loop is
    neither (``DirEntry.is_file`` raises on it)."""
    try:
        return entry.is_file()
    except OSError:
        return False


@dataclass(frozen=True)
class Hunk:
    """One contiguous change: ``deleted`` lines at ``pre_start`` in the
    old text are replaced by ``added`` lines at ``post_start`` in the
    new text (0-based line indexes; either side may be empty)."""

    pre_start: int
    post_start: int
    deleted: tuple[str, ...]
    added: tuple[str, ...]

    @property
    def pre_end(self) -> int:
        return self.pre_start + len(self.deleted)

    @property
    def post_end(self) -> int:
        return self.post_start + len(self.added)

    def changed_lines(self) -> list[str]:
        return [f"- {line}" for line in self.deleted] + [f"+ {line}" for line in self.added]


@dataclass(frozen=True)
class DiffText:
    """A structured line diff between two texts."""

    a_lines: tuple[str, ...]
    b_lines: tuple[str, ...]
    hunks: tuple[Hunk, ...]

    def is_empty(self) -> bool:
        return not self.hunks

    def changed_only(self) -> str:
        """Only the -/+ lines, hunks in order, no positional headers."""
        out: list[str] = []
        for hunk in self.hunks:
            out.extend(hunk.changed_lines())
        return "\n".join(out)

    def unified(self, context: int = 3) -> str:
        """Classic unified rendering with ``@@`` headers."""
        if not self.hunks:
            return ""
        groups: list[list[Hunk]] = []
        for hunk in self.hunks:
            if groups and hunk.pre_start - groups[-1][-1].pre_end <= 2 * context:
                groups[-1].append(hunk)
            else:
                groups.append([hunk])
        out: list[str] = []
        for group in groups:
            a_lo = max(0, group[0].pre_start - context)
            a_hi = min(len(self.a_lines), group[-1].pre_end + context)
            b_lo = group[0].post_start - (group[0].pre_start - a_lo)
            a_count = a_hi - a_lo
            b_count = a_count
            for hunk in group:
                b_count += len(hunk.added) - len(hunk.deleted)
            out.append(f"@@ -{a_lo + 1},{a_count} +{b_lo + 1},{b_count} @@")
            cursor = a_lo
            for hunk in group:
                for line in self.a_lines[cursor : hunk.pre_start]:
                    out.append(f" {line}")
                for line in hunk.deleted:
                    out.append(f"-{line}")
                for line in hunk.added:
                    out.append(f"+{line}")
                cursor = hunk.pre_end
            for line in self.a_lines[cursor:a_hi]:
                out.append(f" {line}")
        return "\n".join(out)


def unified_diff(a: str, b: str) -> DiffText:
    """Line diff of two texts (SequenceMatcher alignment, autojunk off)."""
    a_lines = tuple(a.splitlines())
    b_lines = tuple(b.splitlines())
    matcher = SequenceMatcher(a=a_lines, b=b_lines, autojunk=False)
    hunks = [
        Hunk(
            pre_start=i1,
            post_start=j1,
            deleted=a_lines[i1:i2],
            added=b_lines[j1:j2],
        )
        for tag, i1, i2, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    ]
    return DiffText(a_lines=a_lines, b_lines=b_lines, hunks=tuple(hunks))


__all__ = [
    "PRE",
    "POST",
    "VERSIONS",
    "CursorPos",
    "Location",
    "RepoSnapshot",
    "Hunk",
    "DiffText",
    "unified_diff",
]
