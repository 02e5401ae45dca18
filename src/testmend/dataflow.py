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
checking, no aliasing.
"""

from __future__ import annotations

from dataclasses import dataclass

from testmend.javasrc.format import canonical_tokens
from testmend.javasrc.lexer import IDENT, KEYWORD, Token

PRIMITIVES = frozenset(
    "boolean byte char short int long float double var".split()
)


@dataclass(frozen=True)
class Statement:
    index: int  # position among *simple* statements
    line: int  # line index in the canonical body
    text: str  # stripped canonical line, e.g. "int a = b.size();"
    tokens: tuple[Token, ...]


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
    canonical, tokens = canonical_tokens(text)
    lines: list[list[Token]] = []
    end_line = -1  # the line the previous token ends on
    for tok in tokens:
        if tok.line > end_line:
            lines.append([])
        lines[-1].append(tok)
        end_line = tok.line + tok.text.count("\n")
    statements: list[Statement] = []
    for line in lines:
        line_text = canonical[line[0].offset : line[-1].end_offset]
        if line[-1].text != ";" or line_text.startswith(("package ", "import ")):
            continue
        statements.append(
            Statement(index=len(statements), line=line[0].line, text=line_text, tokens=tuple(line))
        )
    return statements


@dataclass(frozen=True)
class MemberAccess:
    receiver: str
    member: str
    is_call: bool
    statement_index: int
    token_index: int

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
    toks = statement.tokens
    for i, tok in enumerate(toks):
        if tok.kind != IDENT or tok.text not in receivers:
            continue
        if i + 2 >= len(toks) or toks[i + 1].text != "." or toks[i + 2].kind != IDENT:
            continue
        if i > 0 and toks[i - 1].text == ".":
            continue  # not the head of the chain
        member = toks[i + 2].text
        is_call = i + 3 < len(toks) and toks[i + 3].text == "("
        out.append(
            MemberAccess(
                receiver=tok.text,
                member=member,
                is_call=is_call,
                statement_index=statement.index,
                token_index=i,
            )
        )
    return out


def declared_type(statement: Statement, name: str) -> str | None:
    """Simple type name if the statement *declares* ``name``, else None.

    ``MountOptions opts = ...`` -> ``MountOptions``;
    ``Map<String, X> m = ...`` -> ``Map``; plain assignments yield None.
    """
    toks = statement.tokens
    for i, tok in enumerate(toks):
        if tok.kind != IDENT or tok.text != name or i == 0:
            continue
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        if nxt not in ("=", ";", ":") :
            continue
        if not _looks_like_type(toks[i - 1]):
            continue
        for candidate in toks[:i]:
            if candidate.kind == IDENT:
                return candidate.text
            if candidate.kind == KEYWORD and candidate.text in PRIMITIVES:
                return candidate.text
        return None
    return None


def _looks_like_type(tok: Token) -> bool:
    if tok.kind == IDENT:
        return True
    if tok.kind == KEYWORD and tok.text in PRIMITIVES:
        return True
    return tok.text in (">", ">>", ">>>", "]")


# -- def-use edges for the similarity metric ----------------------------


def dataflow_edges(tokens: list[Token]) -> set[tuple[str, int, int]]:
    """Def-use edges ``(var, def_ordinal, use_ordinal)`` of a token stream.

    A variable is any identifier that is defined in the stream (declared,
    assigned, or bound in an enhanced-for).  Each later occurrence is a
    use and links to the latest definition's ordinal.
    """
    defined: set[str] = set()
    for i, tok in enumerate(tokens):
        if tok.kind != IDENT:
            continue
        if _is_def_site(tokens, i):
            defined.add(tok.text)
    edges: set[tuple[str, int, int]] = set()
    def_count: dict[str, int] = {}
    use_count: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        if tok.kind != IDENT or tok.text not in defined:
            continue
        name = tok.text
        if i > 0 and tokens[i - 1].text == ".":
            continue  # member name, not the variable
        if _is_def_site(tokens, i):
            if _is_compound_def(tokens, i) and name in def_count:
                edges.add((name, def_count[name] - 1, use_count.get(name, 0)))
                use_count[name] = use_count.get(name, 0) + 1
            def_count[name] = def_count.get(name, 0) + 1
        elif name in def_count:
            edges.add((name, def_count[name] - 1, use_count.get(name, 0)))
            use_count[name] = use_count.get(name, 0) + 1
    return edges


def _is_def_site(tokens: list[Token], i: int) -> bool:
    prev = tokens[i - 1] if i > 0 else None
    if prev is not None and prev.text == ".":
        return False  # member access, not a variable binding
    nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
    if nxt == "=":
        return True
    if nxt.endswith("=") and nxt not in ("==", "<=", ">=", "!="):
        return True  # compound assignment
    if nxt in (";", ":", ",", ")") and prev is not None and _looks_like_type(prev):
        # declaration without initializer / enhanced-for binding / parameter
        return True
    return False


def _is_compound_def(tokens: list[Token], i: int) -> bool:
    nxt = tokens[i + 1].text if i + 1 < len(tokens) else ""
    return nxt.endswith("=") and nxt not in ("=", "==", "<=", ">=", "!=")
