"""Statement-level views of method bodies and lightweight def-use facts.

Everything here operates on canonicalized text: one statement per line,
comments gone.  Three consumers:

* operation-query building walks def-use chains of selected variables
  (backward from an invocation for parameters, forward for the return
  binding) and collects the member accesses applied to them;
* statement-query fallback needs a statement list ordered by distance
  from the invocation;
* the composite similarity metric needs per-variable def-use edges.

The analysis is intra-method, flow-insensitive and name-based — no type
checking, no aliasing.  It reads token kinds and texts by index: a
:class:`Statement` holds slices of its body's canonical arrays
(:func:`~testmend.javasrc.format.canonical_arrays`), and
:func:`dataflow_edges` takes a stream's kinds and texts.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from testmend.javasrc.format import canonical_arrays
from testmend.javasrc.lexer import IDENT, KEYWORD

PRIMITIVES = frozenset(
    "boolean byte char short int long float double var".split()
)


class Statement(NamedTuple):
    index: int  # position among *simple* statements
    line: int  # line index in the canonical body
    text: str  # stripped canonical line, e.g. "int a = b.size();"
    kinds: tuple[str, ...]  # its tokens' kinds and texts, sliced from
    texts: tuple[str, ...]  # the canonical arrays of the whole body


def split_statements(body_text: str) -> list[Statement]:
    """Simple (semicolon-terminated) statements of a method body.

    ``body_text`` may be a raw or canonical fragment, with or without the
    surrounding braces; it is canonicalized here.  Control-flow headers
    and braces are not statements.  A statement is a canonical line and
    its tokens; a literal that holds a line break (a text block) keeps
    the tokens up to the end of its last line in its statement.
    """
    text = body_text.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    canonical, (kinds, texts, lines, _, offsets) = canonical_arrays(text)
    firsts: list[int] = []  # the index of each line's first token
    end_line = -1  # the line the previous token ends on
    for i, token_text in enumerate(texts):
        if lines[i] > end_line:
            firsts.append(i)
        end_line = lines[i] + token_text.count("\n")
    statements: list[Statement] = []
    for lo, hi in zip(firsts, [*firsts[1:], len(texts)]):
        last = texts[hi - 1]
        line_text = canonical[offsets[lo] : offsets[hi - 1] + len(last)]
        if last != ";" or line_text.startswith(("package ", "import ")):
            continue
        statements.append(
            Statement(len(statements), lines[lo], line_text, kinds[lo:hi], texts[lo:hi])
        )
    return statements


class MemberAccess(NamedTuple):
    receiver: str
    member: str
    is_call: bool

    def render(self, static: bool = False) -> str:
        """Query text form: ``m()`` / ``f`` or ``Type.m()`` / ``Type.f``."""
        suffix = "()" if self.is_call else ""
        if static:
            return f"{self.receiver}.{self.member}{suffix}"
        return f"{self.member}{suffix}"


def member_accesses(statement: Statement, receivers: set[str]) -> list[MemberAccess]:
    """``recv.member`` chains whose receiver identifier is in ``receivers``.

    Only the first link of a chain counts (``v.a().b()`` yields ``a``):
    the receiver of the second link is an expression, not the variable.
    """
    out: list[MemberAccess] = []
    kinds, texts = statement.kinds, statement.texts
    n = len(texts)
    for i, text in enumerate(texts):
        if kinds[i] != IDENT or text not in receivers:
            continue
        if i + 2 >= n or texts[i + 1] != "." or kinds[i + 2] != IDENT:
            continue
        if i > 0 and texts[i - 1] == ".":
            continue  # not the head of the chain
        is_call = i + 3 < n and texts[i + 3] == "("
        out.append(MemberAccess(receiver=text, member=texts[i + 2], is_call=is_call))
    return out


def declared_type(statement: Statement, name: str) -> str | None:
    """Simple type name if the statement *declares* ``name``, else None.

    ``MountOptions opts = ...`` -> ``MountOptions``;
    ``Map<String, X> m = ...`` -> ``Map``; plain assignments yield None.
    """
    kinds, texts = statement.kinds, statement.texts
    for i, text in enumerate(texts):
        if kinds[i] != IDENT or text != name or i == 0:
            continue
        nxt = texts[i + 1] if i + 1 < len(texts) else ""
        if nxt not in ("=", ";", ":") :
            continue
        if not _looks_like_type(kinds[i - 1], texts[i - 1]):
            continue
        for j in range(i):
            if kinds[j] == IDENT or (kinds[j] == KEYWORD and texts[j] in PRIMITIVES):
                return texts[j]
        return None
    return None


def _looks_like_type(kind: str, text: str) -> bool:
    if kind == IDENT:
        return True
    if kind == KEYWORD and text in PRIMITIVES:
        return True
    return text in (">", ">>", ">>>", "]")


# -- def-use edges for the similarity metric ----------------------------


def dataflow_edges(kinds: Sequence[str], texts: Sequence[str]) -> set[tuple[str, int, int]]:
    """Def-use edges ``(var, def_ordinal, use_ordinal)`` of a token stream,
    given as its kinds and texts.

    A variable is any identifier that is defined in the stream (declared,
    assigned, or bound in an enhanced-for).  Each later occurrence is a
    use and links to the latest definition's ordinal.
    """
    edges: set[tuple[str, int, int]] = set()
    def_count: dict[str, int] = {}  # definitions so far; a name without one has no use
    use_count: dict[str, int] = {}
    for i, name in enumerate(texts):
        if kinds[i] != IDENT or (i > 0 and texts[i - 1] == "."):
            continue  # not an identifier, or a member name, not the variable
        if _is_def_site(kinds, texts, i):
            if _is_compound_def(texts, i) and name in def_count:
                edges.add((name, def_count[name] - 1, use_count.get(name, 0)))
                use_count[name] = use_count.get(name, 0) + 1
            def_count[name] = def_count.get(name, 0) + 1
        elif name in def_count:
            edges.add((name, def_count[name] - 1, use_count.get(name, 0)))
            use_count[name] = use_count.get(name, 0) + 1
    return edges


def _is_def_site(kinds: Sequence[str], texts: Sequence[str], i: int) -> bool:
    prev = texts[i - 1] if i > 0 else None
    if prev == ".":
        return False  # member access, not a variable binding
    nxt = texts[i + 1] if i + 1 < len(texts) else ""
    if nxt == "=":
        return True
    if nxt.endswith("=") and nxt not in ("==", "<=", ">=", "!="):
        return True  # compound assignment
    if nxt in (";", ":", ",", ")") and prev is not None and _looks_like_type(kinds[i - 1], prev):
        # declaration without initializer / enhanced-for binding / parameter
        return True
    return False


def _is_compound_def(texts: Sequence[str], i: int) -> bool:
    nxt = texts[i + 1] if i + 1 < len(texts) else ""
    return nxt.endswith("=") and nxt not in ("=", "==", "<=", ">=", "!=")
