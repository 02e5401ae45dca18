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
from bisect import bisect_left, bisect_right
from difflib import SequenceMatcher
from pathlib import Path
from typing import NamedTuple

from testmend.errors import InputError
from testmend.javasrc.format import CursorPos
from testmend.javasrc.lexer import split_lines

PRE = "pre"
POST = "post"
VERSIONS = (PRE, POST)

_CHUNK = 1 << 16  # bytes asked of each os.read

class Location(NamedTuple):
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

    A file is read with raw system calls (``os.open``, then ``os.read``
    until an empty read, then ``os.close``), decoded once and its text
    cached.  The snapshot owns each version's buffer: the first
    :meth:`version_text` of a version lists it and reads every listed file
    into one byte buffer, each once, and keeps it for every later caller.
    From then on :meth:`read` decodes such a file from the buffer,
    :meth:`exists` takes its existence from the listing without a stat,
    and a search by name (:meth:`VersionText.containing`) decodes none.
    The buffer holds each file's bytes once; as ``str``, a text with one
    character past U+00FF would take two or four bytes for each of its
    characters.
    """

    def __init__(self, pre_root: str | Path, post_root: str | Path):
        self._roots = {PRE: str(Path(pre_root)), POST: str(Path(post_root))}
        for root in self._roots.values():
            if not os.path.isdir(root):
                raise InputError(f"snapshot root is not a directory: {root}")
        self._cache: dict[tuple[str, str], str] = {}
        self._versions: dict[str, VersionText] = {}

    def _root(self, version: str) -> str:
        root = self._roots.get(version)
        if root is None:
            raise InputError(f"unknown snapshot version {version!r}")
        return root

    def root(self, version: str) -> Path:
        return Path(self._root(version))

    def exists(self, version: str, relpath: str) -> bool:
        """Whether ``relpath`` is a file (or a symlink to one) of ``version``.

        Once the version's buffer is built (:meth:`version_text`), a path
        of its listing is answered from the listing; any other path, such
        as one under a symlinked directory, by a stat.
        """
        joined = self._versions.get(version)
        if joined is not None and joined.has(relpath):
            return True
        return os.path.isfile(os.path.join(self._root(version), relpath))

    def read(self, version: str, relpath: str) -> str:
        """File content as UTF-8, else ISO-8859-1, with CR LF and CR read
        as LF (as text mode reads them); cached per file."""
        key = (version, relpath)
        text = self._cache.get(key)
        if text is None:
            joined = self._versions.get(version)
            text = joined.read(relpath) if joined is not None else None
            if text is None:
                data = bytearray()
                self._read_into(data, version, relpath, os.path.join(self._root(version), relpath))
                text = _decode(data)
            self._cache[key] = text
        return text

    def _read_into(self, out: bytearray, version: str, relpath: str, path: str) -> None:
        """Append the bytes of the file at ``path`` to ``out``.

        Reads until an empty read: on some file systems a short read is not
        the end of the file.  On Linux, opening a directory succeeds and the
        first read raises ``IsADirectoryError``.
        """
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                while chunk := os.read(fd, _CHUNK):
                    out += chunk
            finally:
                os.close(fd)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
            raise InputError(f"no such file in {version} tree: {relpath}") from None

    def read_or_empty(self, version: str, relpath: str) -> str:
        return self.read(version, relpath) if self.exists(version, relpath) else ""

    def version_text(self, version: str) -> VersionText:
        """The listed files of ``version``, each read from disk once, in one buffer.

        Built on the first call and kept; from then on :meth:`read` decodes
        these files from the buffer.
        """
        joined = self._versions.get(version)
        if joined is None:
            paths = self.java_files(version)
            prefix = os.path.join(self._root(version), "")
            data = bytearray()
            starts = []
            for path in paths:
                starts.append(len(data))
                self._read_into(data, version, path, prefix + path)
                data += b"\0"
            starts.append(len(data))
            joined = self._versions[version] = VersionText(paths, data, starts)
        return joined

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


class VersionText:
    """A version's files in one buffer: each file's bytes, then ``b"\\0"``.

    ``paths`` is the sorted listing, so a bisect finds a file's index *i*,
    and file *i* is ``data[starts[i] : starts[i + 1] - 1]``.  A name of
    printable ASCII characters is looked for in the bytes themselves, and
    the answer is that of the decoded text (:meth:`RepoSnapshot.read`):
    such a name holds no CR, LF or NUL, so CR folding cannot make or break
    a match and no match spans two files; and an ASCII byte stands for
    the same character, and only for it, under UTF-8 and ISO-8859-1.

    It only holds a version's bytes and searches them: :meth:`containing`
    finds the files that mention a name, and :meth:`read` decodes one.
    What a text declares is a fact of the text, which
    :class:`testmend.resolver.SourceCache` keeps once per distinct text.
    """

    __slots__ = ("paths", "data", "starts")

    def __init__(self, paths: list[str], data: bytearray, starts: list[int]):
        self.paths = paths
        self.data = data
        self.starts = starts

    def text(self, i: int) -> str:
        """The text of file *i*, decoded as :meth:`RepoSnapshot.read` decodes it."""
        return _decode(self.data[self.starts[i] : self.starts[i + 1] - 1])

    def has(self, path: str) -> bool:
        """Whether the listing holds ``path``."""
        i = bisect_left(self.paths, path)
        return self.paths[i : i + 1] == [path]

    def read(self, path: str) -> str | None:
        """The text of ``path``; None if the listing lacks it."""
        i = bisect_left(self.paths, path)
        return self.text(i) if self.paths[i : i + 1] == [path] else None

    def containing(self, name: str) -> list[str]:
        """The paths whose text contains ``name``, in path order.

        One C-level ``find`` per hit: ``bisect`` maps the hit to its file,
        and the search goes on from the next file's start.  Any other name
        (one with a non-ASCII character, or a control character that no
        identifier holds) is looked for in each decoded text.
        """
        paths, starts = self.paths, self.starts
        if not (name.isascii() and name.isprintable()):
            return [path for i, path in enumerate(paths) if name in self.text(i)]
        find, needle, end = self.data.find, name.encode("ascii"), len(self.data)
        out = []
        at = find(needle)
        while 0 <= at < end:  # an empty name is found at the end, past every file
            i = bisect_right(starts, at) - 1
            out.append(paths[i])
            at = find(needle, starts[i + 1])
        return out


def _decode(data: bytes | bytearray) -> str:
    """UTF-8, else ISO-8859-1, with CR LF and CR read as LF (as text mode reads them)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:  # ISO-8859-1 decodes every byte
        text = data.decode("iso-8859-1")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _is_file(entry: os.DirEntry) -> bool:
    """Whether ``entry`` is a file or a symlink to one; a symlink loop is
    neither (``DirEntry.is_file`` raises on it)."""
    try:
        return entry.is_file()
    except OSError:
        return False


class Hunk(NamedTuple):
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


class DiffText(NamedTuple):
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
    """Line diff of two texts (SequenceMatcher alignment, autojunk off).

    Equal texts have no hunks, and no matcher is built for them.
    """
    a_lines = tuple(split_lines(a))
    if a == b:
        return DiffText(a_lines=a_lines, b_lines=a_lines, hunks=())
    b_lines = tuple(split_lines(b))
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
    "VersionText",
    "Hunk",
    "DiffText",
    "unified_diff",
]
