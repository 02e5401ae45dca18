"""Building reranking queries from the focal change and the original test.

Two granularities:

* **operation queries** — short member-access texts that the repaired
  test will likely need, derived from the obsolete parameters (synthetic
  ``setXxx()`` forms plus a backward def-use walk from the focal
  invocation) and from forward uses of the focal call's return binding.
* **statement queries** — a natural-language summary of the signature
  change plus the obsolete test statements.  A chat provider extracts
  both with a two-step few-shot prompt; without a provider (or when it
  fails) a deterministic fallback renders them from the classified
  change and a token scan of the test.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from testmend.dataflow import (
    Statement,
    declared_type,
    member_accesses,
    split_statements,
)
from testmend.errors import FocalInvocationNotFound, ParseError, ProviderError
from testmend.javasrc import lexer
from testmend.provider import ChatProvider, Message
from testmend.signatures import (
    FocalChange,
    SynBCKind,
    get_obsolete_params,
    type_identifiers,
)
from testmend.snapshot import DiffText

log = logging.getLogger(__name__)

STATEMENT_QUERY_CAP = 12
NO_CHANGE_ANALYSIS = "no signature change detected"

FEWSHOT_FILES = ("param_change.json", "return_change.json")

_SYSTEM_TEXT = (
    "You analyze Java method signature changes and identify the test "
    "statements they make obsolete. Answer concisely and use only the "
    "given code."
)
_STEP1_TEMPLATE = (
    "Signature change of the focal method:\n{diff}\n\n"
    "Original test method:\n{test}\n\n"
    "Summarize the syntactic change of the focal method in one sentence."
)
_STEP2_TEXT = (
    "List the original test statements invalidated by this change, "
    "verbatim, separated by single spaces."
)


@dataclass(frozen=True)
class QuerySet:
    param_op_queries: tuple[str, ...]
    ret_op_queries: tuple[str, ...]
    synbc_analysis: str
    obsolete_stmts: str


def upper_camel(name: str) -> str:
    return name[:1].upper() + name[1:] if name else name


def simple_type_name(type_text: str) -> str:
    """Last base-type word: ``java.util.List<Foo>[]`` -> ``List``."""
    base = type_text.split("<", 1)[0]
    last = ""
    try:
        for tok in lexer.lex(base):
            if tok.is_word():
                last = tok.text
    except ParseError:  # unlexable type text: fall back to a crude split
        last = base.replace("[", ".").replace("]", ".").split(".")[-1].strip()
    return last


def find_focal_invocation(
    statements: Sequence[Statement], focal_name: str
) -> Statement | None:
    """First statement that calls ``focal_name``."""
    for stmt in statements:
        toks = stmt.tokens
        for i, tok in enumerate(toks):
            if (
                tok.kind == lexer.IDENT
                and tok.text == focal_name
                and i + 1 < len(toks)
                and toks[i + 1].text == "("
            ):
                return stmt
    return None


def _invocation_arguments(stmt: Statement, focal_name: str) -> list[list[lexer.Token]]:
    """Top-level argument token groups of the focal call in ``stmt``."""
    toks = stmt.tokens
    for i, tok in enumerate(toks):
        if not (tok.kind == lexer.IDENT and tok.text == focal_name):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        args: list[list[lexer.Token]] = [[]]
        depth = 0
        for t in toks[i + 1 :]:
            if t.text in "([{":
                depth += 1
                if depth == 1:
                    continue
            elif t.text in ")]}":
                depth -= 1
                if depth == 0:
                    break
            if depth >= 1:
                if t.text == "," and depth == 1:
                    args.append([])
                else:
                    args[-1].append(t)
        return args if any(args) else []
    return []


def _add(queries: list[str], text: str) -> None:
    if text and text not in queries:
        queries.append(text)


def build_operation_queries(
    focal: FocalChange, test_body: str
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Algorithm: synthesized setters + backward/forward def-use walks."""
    if not (focal.is_param or focal.is_ret):
        return (), ()
    statements = split_statements(test_body)
    invocation = find_focal_invocation(statements, focal.original.name)
    if invocation is None:
        raise FocalInvocationNotFound(
            f"test never invokes focal method {focal.original.name}()"
        )
    param_q: list[str] = []
    ret_q: list[str] = []
    if focal.is_param:
        obsolete = get_obsolete_params(focal.original, focal.updated)
        for param in obsolete:
            _add(param_q, f"set{upper_camel(param.name)}()")
            _add(param_q, f"set{upper_camel(simple_type_name(param.type_text))}()")
        receivers: set[str] = set()
        type_names: set[str] = set()
        args = _invocation_arguments(invocation, focal.original.name)
        for param in obsolete:
            type_name = simple_type_name(param.type_text)
            if type_name:
                type_names.add(type_name)
                receivers.add(type_name)
            if param.position < len(args):
                arg = args[param.position]
                if len(arg) == 1 and arg[0].kind == lexer.IDENT:
                    var = arg[0].text
                    receivers.add(var)
                    for stmt in statements[: invocation.index + 1]:
                        declared = declared_type(stmt, var)
                        if declared:
                            type_names.add(declared)
                            receivers.add(declared)
        for stmt in statements[: invocation.index + 1]:
            for access in member_accesses(stmt, receivers):
                _add(param_q, access.render(static=access.receiver in type_names))
    if focal.is_ret:
        binding = _return_binding(invocation, focal.original.name)
        if binding is not None:
            for stmt in statements[invocation.index + 1 :]:
                for access in member_accesses(stmt, {binding}):
                    _add(ret_q, access.render())
    return tuple(param_q), tuple(ret_q)


def _return_binding(stmt: Statement, focal_name: str) -> str | None:
    """Variable the focal call's return value is assigned to, if any."""
    toks = stmt.tokens
    depth = 0
    eq_index: int | None = None
    for i, tok in enumerate(toks):
        if tok.text in "([{":
            depth += 1
        elif tok.text in ")]}":
            depth -= 1
        elif depth == 0 and tok.kind == lexer.OP and tok.text == "=":
            eq_index = i
            break
    if eq_index is None:
        return None
    if not any(
        t.kind == lexer.IDENT and t.text == focal_name for t in toks[eq_index + 1 :]
    ):
        return None
    for tok in reversed(toks[:eq_index]):
        if tok.kind == lexer.IDENT:
            return tok.text
    return None


# ----------------------------------------------------------------------
# statement queries
# ----------------------------------------------------------------------


def fallback_synbc_analysis(focal: FocalChange) -> str:
    if not focal.kinds:
        return NO_CHANGE_ANALYSIS
    name = focal.original.name
    sentences: list[str] = []
    if SynBCKind.PARAM in focal.kinds:
        sentences.append(
            f"The method {name}() has been updated to change its parameter "
            f"types from ({', '.join(focal.original.param_types) or 'none'}) "
            f"to ({', '.join(focal.updated.param_types) or 'none'})."
        )
    if SynBCKind.RET in focal.kinds:
        sentences.append(
            f"The method {name}() has been updated to change its return type "
            f"from {focal.original.return_type} to {focal.updated.return_type}."
        )
    if SynBCKind.NORM in focal.kinds:
        parts: list[str] = []
        if focal.original.name != focal.updated.name:
            parts.append(f"it was renamed to {focal.updated.name}()")
        if focal.original.modifiers != focal.updated.modifiers:
            parts.append(
                "its modifiers changed from "
                f"[{' '.join(sorted(focal.original.modifiers)) or 'none'}] to "
                f"[{' '.join(sorted(focal.updated.modifiers)) or 'none'}]"
            )
        if focal.original.throws != focal.updated.throws:
            parts.append(
                "its declared exceptions changed from "
                f"[{', '.join(sorted(focal.original.throws)) or 'none'}] to "
                f"[{', '.join(sorted(focal.updated.throws)) or 'none'}]"
            )
        detail = "; ".join(parts) if parts else "its declaration changed"
        sentences.append(f"The method {name}() has been updated: {detail}.")
    return " ".join(sentences)


def fallback_obsolete_stmts(focal: FocalChange, test_body: str) -> str:
    statements = split_statements(test_body)
    if not statements:
        return focal.original.render()
    interest: set[str] = {focal.original.name}
    for param in get_obsolete_params(focal.original, focal.updated):
        interest.add(param.name)
        interest.update(type_identifiers(param.type_text))
    matched = [
        s
        for s in statements
        if any(t.kind == lexer.IDENT and t.text in interest for t in s.tokens)
    ]
    if not matched:
        matched = list(statements)
    invocation = find_focal_invocation(statements, focal.original.name)
    anchor = invocation.index if invocation is not None else 0
    if len(matched) > STATEMENT_QUERY_CAP:
        matched = sorted(matched, key=lambda s: (abs(s.index - anchor), s.index))
        matched = sorted(matched[:STATEMENT_QUERY_CAP], key=lambda s: s.index)
    return " ".join(s.text for s in matched)


def load_fewshot_exemplars() -> list[dict]:
    exemplars = []
    package_dir = resources.files("testmend") / "fewshot"
    for name in FEWSHOT_FILES:
        exemplars.append(json.loads((package_dir / name).read_text(encoding="utf-8")))
    return exemplars


def _statement_query_messages(diff_text: str, test_body: str) -> list[Message]:
    messages: list[Message] = [{"role": "system", "content": _SYSTEM_TEXT}]
    for exemplar in load_fewshot_exemplars():
        messages.append(
            {
                "role": "user",
                "content": _STEP1_TEMPLATE.format(
                    diff=exemplar["signature_change"], test=exemplar["test"]
                ),
            }
        )
        messages.append({"role": "assistant", "content": exemplar["analysis"]})
        messages.append({"role": "user", "content": _STEP2_TEXT})
        messages.append(
            {"role": "assistant", "content": exemplar["obsolete_statements"]}
        )
    messages.append(
        {
            "role": "user",
            "content": _STEP1_TEMPLATE.format(diff=diff_text, test=test_body.strip()),
        }
    )
    return messages


def build_statement_queries(
    focal_diff: DiffText,
    test_body: str,
    provider: ChatProvider | None,
    focal: FocalChange,
) -> tuple[str, str]:
    """(SynBC analysis, obsolete statements) via provider or fallback."""
    analysis = fallback_synbc_analysis(focal)
    stmts = fallback_obsolete_stmts(focal, test_body)
    if provider is None:
        return analysis, stmts
    try:
        messages = _statement_query_messages(focal_diff.changed_only(), test_body)
        provider_analysis = provider.complete(messages, temperature=0.0).strip()
        followup = [
            *messages,
            {"role": "assistant", "content": provider_analysis},
            {"role": "user", "content": _STEP2_TEXT},
        ]
        provider_stmts = provider.complete(followup, temperature=0.0).strip()
    except ProviderError as exc:
        log.warning("statement-query provider failed, using fallback: %s", exc)
        return analysis, stmts
    return provider_analysis or analysis, provider_stmts or stmts


def build_query_set(
    focal: FocalChange,
    focal_diff: DiffText,
    test_body: str,
    provider: ChatProvider | None = None,
) -> QuerySet:
    param_q, ret_q = build_operation_queries(focal, test_body)
    analysis, stmts = build_statement_queries(focal_diff, test_body, provider, focal)
    return QuerySet(
        param_op_queries=param_q,
        ret_op_queries=ret_q,
        synbc_analysis=analysis,
        obsolete_stmts=stmts,
    )
