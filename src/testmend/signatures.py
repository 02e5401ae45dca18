"""Method signatures and classification of signature-level changes.

A signature is the tuple (name, parameter types, return type, modifiers,
declared exceptions).  A change between two versions of the same focal
method is classified into a set of flags:

* ``PARAM``  — the parameter type lists differ;
* ``RET``    — the return types differ;
* ``NORM``   — parameter types and return type are unchanged but some
  other tuple element (name, modifiers, declared exceptions) differs.

``PARAM`` and ``RET`` may co-occur; ``NORM`` is only ever reported alone.
An empty set means the signatures are identical.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from testmend.errors import LocatorNotFound, ParseError
from testmend.javasrc import lexer
from testmend.javasrc.ast import ClassDecl, JavaFile, MethodDecl, find_method


class SynBCKind(enum.Enum):
    PARAM = "param"
    RET = "ret"
    NORM = "norm"

    def __repr__(self) -> str:  # terse in test output
        return f"SynBCKind.{self.name}"


_KIND_LABELS = [
    (SynBCKind.PARAM, "ParamSynBC"),
    (SynBCKind.RET, "RetSynBC"),
    (SynBCKind.NORM, "NormSynBC"),
]


def render_kinds(kinds: frozenset[SynBCKind]) -> str:
    """Stable human-readable form, e.g. ``ParamSynBC+RetSynBC`` or ``none``."""
    parts = [label for kind, label in _KIND_LABELS if kind in kinds]
    return "+".join(parts) if parts else "none"


class MethodSignature(NamedTuple):
    name: str
    param_types: tuple[str, ...]
    return_type: str
    modifiers: frozenset[str] = frozenset()
    throws: frozenset[str] = frozenset()
    param_names: tuple[str, ...] = ()

    def render(self) -> str:
        mods = " ".join(sorted(self.modifiers))
        params = ", ".join(
            f"{t} {n}".strip()
            for t, n in zip(
                self.param_types,
                list(self.param_names) + [""] * len(self.param_types),
            )
        )
        head = f"{mods} " if mods else ""
        ret = f"{self.return_type} " if self.return_type else ""
        tail = f" throws {', '.join(sorted(self.throws))}" if self.throws else ""
        return f"{head}{ret}{self.name}({params}){tail}"


class MethodLocator(NamedTuple):
    """Addresses one method declaration inside one file.

    ``classes`` is the nesting path of declaring types (outermost first);
    ``params`` optionally pins an overload by its normalized parameter
    type texts (``None`` matches the first method of that name).
    """

    file: str
    classes: tuple[str, ...]
    method: str
    params: tuple[str, ...] | None = None

    def describe(self) -> str:
        path = ".".join(self.classes)
        sig = f"({', '.join(self.params)})" if self.params is not None else ""
        return f"{self.file}:{path}.{self.method}{sig}"


class FocalChange(NamedTuple):
    """The focal method before and after the breaking change."""

    original: MethodSignature
    updated: MethodSignature
    kinds: frozenset[SynBCKind]
    pre_locator: MethodLocator | None = None
    post_locator: MethodLocator | None = None

    @property
    def is_param(self) -> bool:
        return SynBCKind.PARAM in self.kinds

    @property
    def is_ret(self) -> bool:
        return SynBCKind.RET in self.kinds


def type_identifiers(type_text: str) -> list[str]:
    """Identifier tokens of a type text, in order, deduplicated, without
    the qualifiers before a ``.``: ``java.util.Map<K, V>`` gives ``Map``,
    ``K`` and ``V``, and ``Outer.Inner`` gives ``Inner``."""
    seen: list[str] = []
    try:
        kinds, texts, *_ = lexer.lex(type_text)
    except ParseError:
        return seen
    for kind, text, after in zip(kinds, texts, [*texts[1:], ""]):
        if kind == lexer.IDENT and after != "." and text not in seen:
            seen.append(text)
    return seen


def signature_of(method: MethodDecl) -> MethodSignature:
    return MethodSignature(
        name=method.name,
        param_types=tuple(method.param_types()),
        return_type=method.return_type,
        modifiers=frozenset(method.modifiers),
        throws=frozenset(method.throws),
        param_names=tuple(p.name for p in method.parameters),
    )


def find_located(
    java_file: JavaFile, locator: MethodLocator
) -> tuple[ClassDecl, MethodDecl]:
    """The declaration a locator addresses in a parsed file; raises LocatorNotFound."""
    hit = find_method(
        java_file,
        list(locator.classes),
        locator.method,
        list(locator.params) if locator.params is not None else None,
    )
    if hit is None:
        raise LocatorNotFound(f"no method matches {locator.describe()}")
    return hit


def parse_method(java_file: JavaFile, locator: MethodLocator) -> MethodSignature:
    """Extract the signature of the method a locator addresses."""
    _, method = find_located(java_file, locator)
    return signature_of(method)


def method_body_text(java_file: JavaFile, locator: MethodLocator) -> str:
    """The method's body text including braces ('' for abstract methods)."""
    _, method = find_located(java_file, locator)
    if method.body_start is None:
        return ""
    return java_file.slice(method.body_start, method.body_end)


def method_full_text(java_file: JavaFile, locator: MethodLocator) -> str:
    _, method = find_located(java_file, locator)
    return java_file.slice(method.start, method.end)


def diff_signatures(
    original: MethodSignature, updated: MethodSignature
) -> frozenset[SynBCKind]:
    """Classify the change between two signatures (see module docstring)."""
    kinds: set[SynBCKind] = set()
    if original.param_types != updated.param_types:
        kinds.add(SynBCKind.PARAM)
    if original.return_type != updated.return_type:
        kinds.add(SynBCKind.RET)
    if not kinds:
        if (
            original.name != updated.name
            or original.modifiers != updated.modifiers
            or original.throws != updated.throws
        ):
            kinds.add(SynBCKind.NORM)
    return frozenset(kinds)


def make_focal_change(
    original: MethodSignature,
    updated: MethodSignature,
    pre_locator: MethodLocator | None = None,
    post_locator: MethodLocator | None = None,
) -> FocalChange:
    return FocalChange(
        original=original,
        updated=updated,
        kinds=diff_signatures(original, updated),
        pre_locator=pre_locator,
        post_locator=post_locator,
    )


def focal_change(
    pre_file: JavaFile,
    post_file: JavaFile,
    pre_locator: MethodLocator,
    post_locator: MethodLocator,
) -> FocalChange:
    """Classify the change between the methods two locators address."""
    return make_focal_change(
        parse_method(pre_file, pre_locator),
        parse_method(post_file, post_locator),
        pre_locator=pre_locator,
        post_locator=post_locator,
    )


class ObsoleteParam(NamedTuple):
    type_text: str
    name: str
    position: int  # index in the original parameter list


def get_obsolete_params(
    original: MethodSignature, updated: MethodSignature
) -> list[ObsoleteParam]:
    """Original parameters with no surviving counterpart in the update.

    Parameters are matched by a longest common subsequence over
    ``(type, name)`` pairs; originals outside the LCS are obsolete.  A
    parameter whose type changed (same name) is therefore reported as
    obsolete — its original type vanished from the list.
    """
    a = list(zip(original.param_types, original.param_names))
    b = list(zip(updated.param_types, updated.param_names))
    n, m = len(a), len(b)
    # Classic LCS table.
    table = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if a[i] == b[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    kept: set[int] = set()
    i = j = 0
    while i < n and j < m:
        if a[i] == b[j]:
            kept.add(i)
            i += 1
            j += 1
        elif table[i + 1][j] >= table[i][j + 1]:
            i += 1
        else:
            j += 1
    return [
        ObsoleteParam(type_text=t, name=name, position=idx)
        for idx, (t, name) in enumerate(a)
        if idx not in kept
    ]
