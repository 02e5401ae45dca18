"""A lenient declaration-level parser for Java compilation units.

The parser recovers the structure the toolkit actually needs — packages,
imports, type declarations, and per-type member declarations (fields,
methods, constructors, nested types) with exact source spans — without
attempting to parse statements or expressions.  Bodies and initializers
are skipped with balanced-delimiter scanning.  A record's compact
canonical constructor (``R { ... }``) is a constructor without
parameters.

Spans are character offsets into the text handed to :func:`parse_java`;
callers slice the same text to recover declaration snippets.  What a
span guarantees is what ``tests/test_decl_spans.py`` checks against the
token stream alone, on fixture files, their mutants and generated class
bodies: every class, method and field span lies inside its enclosing
class body and overlaps no sibling; it starts at its first annotation,
modifier or keyword/type token and ends at a balanced ``}`` or ``;``;
and the classes are those a brace-depth scan finds.

Recovery, where the text is not valid Java: at the top level a token
that starts no type declaration is skipped, and a ``package`` or
``import`` ends where its dotted name does (a missing ``;`` loses no
class).  In a class body, a member whose type no name follows is
dropped, with the token after the type unless that is a ``}``, which
closes the body.  A field initializer ends at a ``;``, or a ``,`` that a
declarator (a name, then ``=``, ``,``, ``;`` or ``[``) follows, outside
brackets; an annotation member's ``default`` value runs to the next
``;``.  Anything else that does not fit raises :class:`ParseError`.
"""

from __future__ import annotations

from typing import NamedTuple

from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.lexer import IDENT, KEYWORD, Token

MODIFIER_WORDS = frozenset(
    "public private protected static final abstract native synchronized "
    "transient volatile strictfp default".split()
)

PRIMITIVE_WORDS = frozenset("boolean byte char short int long float double void".split())

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})


class Parameter(NamedTuple):
    type_text: str
    name: str


class FieldDecl(NamedTuple):
    names: list[str]
    type_text: str
    modifiers: set[str]
    annotations: list[str]
    start: int
    end: int
    name_token: Token


class MethodDecl(NamedTuple):
    name: str
    modifiers: set[str]
    annotations: list[str]
    return_type: str  # "" for constructors
    parameters: list[Parameter]
    throws: list[str]
    is_constructor: bool
    start: int
    end: int
    name_token: Token
    body_start: int | None  # offset of the opening brace, None for abstract
    body_end: int | None  # offset just past the closing brace

    @property
    def header_end(self) -> int:
        return self.body_start if self.body_start is not None else self.end

    def param_types(self) -> list[str]:
        return [p.type_text for p in self.parameters]


class ClassDecl(NamedTuple):
    name: str
    keyword: str  # class | interface | enum | record | @interface
    modifiers: set[str]
    annotations: list[str]
    extends: str | None
    implements: list[str]
    members: list[object]
    start: int
    end: int
    name_token: Token
    enclosing: list[str]

    @property
    def qualified_name(self) -> str:
        return ".".join([*self.enclosing, self.name])

    def methods(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl)]

    def nested_classes(self) -> list["ClassDecl"]:
        return [m for m in self.members if isinstance(m, ClassDecl)]


class JavaFile(NamedTuple):
    text: str
    package: str
    imports: dict[str, str]  # simple name -> fully qualified name
    wildcard_imports: list[str]  # imported package prefixes
    classes: list[ClassDecl]
    tokens: list[Token]

    def slice(self, start: int, end: int) -> str:
        return self.text[start:end]

    def all_classes(self) -> list[ClassDecl]:
        """All type declarations, outer before nested, in source order."""
        out: list[ClassDecl] = []

        def walk(cls: ClassDecl) -> None:
            out.append(cls)
            for nested in cls.nested_classes():
                walk(nested)

        for cls in self.classes:
            walk(cls)
        return out

    def find_class(self, name: str) -> ClassDecl | None:
        for cls in self.all_classes():
            if cls.name == name or cls.qualified_name == name:
                return cls
        return None


def _render_type(tokens: list[Token]) -> str:
    """Join type tokens into a normalized single-space-free rendering."""
    parts: list[str] = []
    prev: Token | None = None
    for t in tokens:
        if prev is not None:
            prev_wordish = prev.is_word() or prev.text == "?"
            cur_wordish = t.is_word() or t.text == "?"
            if prev.text == ",":
                parts.append(" ")
            elif prev_wordish and cur_wordish:
                parts.append(" ")
            elif prev.text == "&" or t.text == "&":
                parts.append(" ")
        parts.append(t.text)
        prev = t
    return "".join(parts)


class _Parser:
    """One recursive-descent pass over ``tokens``; ``pos`` is the next token."""

    def __init__(self, text: str, tokens: list[Token] | None):
        self.text = text
        self.tokens = lexer.lex(text) if tokens is None else tokens
        self.pos = 0

    # -- token cursor ---------------------------------------------------

    def peek(self, ahead: int = 0) -> Token | None:
        j = self.pos + ahead
        return self.tokens[j] if j < len(self.tokens) else None

    def at(self, text: str, ahead: int = 0) -> bool:
        j = self.pos + ahead
        return j < len(self.tokens) and self.tokens[j].text == text

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of source")
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            found = t.text if t else "end of source"
            line = t.line if t else None
            col = t.col if t else None
            raise ParseError(f"expected {text!r}, found {found!r}", line, col)
        self.pos += 1
        return t

    def skip_balanced(self, open_text: str, close_text: str) -> Token:
        """Consume from the current ``open_text`` token through its match."""
        opener = self.expect(open_text)
        depth = 1
        tokens = self.tokens
        for j in range(self.pos, len(tokens)):
            text = tokens[j].text
            if text == open_text:
                depth += 1
            elif text == close_text:
                depth -= 1
                if not depth:
                    self.pos = j + 1
                    return tokens[j]
        raise ParseError(f"unbalanced {open_text!r}", opener.line, opener.col)

    def skip_generics(self) -> None:
        """Consume a balanced ``<...>`` region, honoring shift tokens."""
        opener = self.expect("<")
        depth = 1
        while depth > 0:
            t = self.peek()
            if t is None:
                raise ParseError("unbalanced '<'", opener.line, opener.col)
            self.pos += 1
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
            elif t.text == ">>":
                depth -= 2
            elif t.text == ">>>":
                depth -= 3

    def skip_dims(self) -> str:
        """Consume ``[]`` pairs and return them as text."""
        dims = ""
        while self.at("[") and self.at("]", 1):
            self.pos += 2
            dims += "[]"
        return dims

    def _skip_to_semicolon(self) -> None:
        while (t := self.peek()) is not None:
            self.pos += 1
            if t.text == ";":
                return

    # -- annotations, modifiers and types -------------------------------

    def parse_annotations_and_modifiers(self) -> tuple[list[str], set[str]]:
        annotations: list[str] = []
        modifiers: set[str] = set()
        while (t := self.peek()) is not None:
            if t.text == "@" and not self.at("interface", 1):
                self.pos += 1
                name = self.next().text
                while self.at(".") and _is_name(self.peek(1)):
                    name += "." + self.tokens[self.pos + 1].text
                    self.pos += 2
                if self.at("("):
                    self.skip_balanced("(", ")")
                annotations.append(name)
            elif (t.kind == KEYWORD and t.text in MODIFIER_WORDS) or (
                t.kind == IDENT and t.text == "sealed"
            ):
                # "default" starts interface default methods but is also a
                # switch label; at member level it is always a modifier.
                self.pos += 1
                modifiers.add(t.text)
            else:
                break
        return annotations, modifiers

    def parse_type(self) -> str:
        tokens: list[Token] = []
        t = self.peek()
        if t is None:
            raise ParseError("expected a type, found end of source")
        if t.text == "@":  # type annotation, e.g. @Nullable String
            self.parse_annotations_and_modifiers()
            t = self.peek()
            if t is None:
                raise ParseError("expected a type after annotation")
        if t.kind == KEYWORD and t.text in PRIMITIVE_WORDS:
            tokens.append(self.next())
        elif t.kind == IDENT:
            tokens.append(self.next())
            while True:
                if self.at("<"):
                    start = self.pos
                    self.skip_generics()
                    tokens.extend(self.tokens[start : self.pos])
                elif self.at(".") and _is_name(self.peek(1)):
                    tokens.extend(self.tokens[self.pos : self.pos + 2])
                    self.pos += 2
                else:
                    break
        else:
            raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)
        return _render_type(tokens) + self.skip_dims()

    def parse_type_list(self) -> list[str]:
        """Comma-separated types, as after ``implements`` or ``throws``."""
        types = [self.parse_type()]
        while self.at(","):
            self.pos += 1
            types.append(self.parse_type())
        return types

    # -- compilation unit -----------------------------------------------

    def parse_file(self) -> JavaFile:
        package = ""
        imports: dict[str, str] = {}
        wildcards: list[str] = []
        classes: list[ClassDecl] = []
        while (t := self.peek()) is not None:
            if t.text == "package":
                self.pos += 1
                package = self._qualified_name()
            elif t.text == "import":
                self.pos += 1
                if self.at("static"):
                    self.pos += 1
                name = self._qualified_name()
                if self.at("*"):
                    self.pos += 1
                    wildcards.append(name.rstrip("."))
                else:
                    imports.setdefault(name.rsplit(".", 1)[-1], name)
            else:
                mark = self.pos
                decl = self._type_decl(t.offset, *self.parse_annotations_and_modifiers(), [])
                if decl is None:
                    self.pos = mark + 1  # lenient: skip a stray token, such as ';'
                else:
                    classes.append(decl)
        return JavaFile(
            text=self.text,
            package=package,
            imports=imports,
            wildcard_imports=wildcards,
            classes=classes,
            tokens=self.tokens,
        )

    def _qualified_name(self) -> str:
        parts = []
        while _is_name(self.peek()):
            parts.append(self.next().text)
            if self.at(".") and (_is_name(self.peek(1)) or self.at("*", 1)):
                self.pos += 1
                if self.at("*"):
                    parts.append("")
                    break
            else:
                break
        return ".".join(parts).rstrip(".")

    # -- type declarations ----------------------------------------------

    def _type_decl(
        self, start: int, annotations: list[str], modifiers: set[str], enclosing: list[str]
    ) -> ClassDecl | None:
        """The type declaration at the cursor, its annotations and modifiers
        already parsed from ``start``; None, consuming nothing, if no type
        keyword is next."""
        t = self.peek()
        if t is None:
            return None
        at_interface = t.text == "@" and self.at("interface", 1)
        is_record = t.kind == IDENT and t.text == "record" and _is_name(self.peek(1))
        if not (at_interface or is_record or (t.kind == KEYWORD and t.text in _TYPE_KEYWORDS)):
            return None
        if at_interface:
            self.pos += 1
        keyword = self.next().text
        name_tok = self.next()
        if self.at("<"):
            self.skip_generics()
        if is_record and self.at("("):
            self.skip_balanced("(", ")")
        extends = None
        implements: list[str] = []
        if self.at("extends"):
            self.pos += 1
            if keyword == "interface":
                implements.extend(self.parse_type_list())
            else:
                extends = self.parse_type()
        if self.at("implements"):
            self.pos += 1
            implements.extend(self.parse_type_list())
        while self.at("permits"):  # sealed classes: skip the permits list
            self.pos += 1
            self.parse_type_list()
        self.expect("{")
        if keyword == "enum":
            self._parse_enum_constants()
        members = self._parse_members([*enclosing, name_tok.text], is_record)
        return ClassDecl(
            name=name_tok.text,
            keyword="@interface" if at_interface else keyword,
            modifiers=modifiers,
            annotations=annotations,
            extends=extends,
            implements=implements,
            members=members,
            start=start,
            end=self.expect("}").end_offset,
            name_token=name_tok,
            enclosing=enclosing,
        )

    def _parse_enum_constants(self) -> None:
        while True:
            t = self.peek()
            if t is None or t.text in ("}", ";"):
                break
            if t.text == "@":
                self.parse_annotations_and_modifiers()
                continue
            if t.kind in (IDENT, KEYWORD):
                self.pos += 1
                if self.at("("):
                    self.skip_balanced("(", ")")
                if self.at("{"):
                    self.skip_balanced("{", "}")
            if self.at(","):
                self.pos += 1
            else:
                break
        if self.at(";"):
            self.pos += 1

    # -- members ---------------------------------------------------------

    def _parse_members(self, path: list[str], is_record: bool) -> list[object]:
        """The members of a class body, up to its closing ``}``; ``path`` is
        the class's nesting path, its own name last."""
        members: list[object] = []
        while True:
            t = self.peek()
            if t is None:
                raise ParseError(f"unterminated body of {path[-1]}")
            if t.text == "}":
                return members
            if t.text == ";":
                self.pos += 1
                continue
            member = self._parse_member(path, is_record, t.offset)
            if member is not None:
                members.append(member)

    def _parse_member(self, path: list[str], is_record: bool, start: int) -> object | None:
        annotations, modifiers = self.parse_annotations_and_modifiers()
        nested = self._type_decl(start, annotations, modifiers, path)
        if nested is not None:
            return nested
        name = path[-1]
        t = self.peek()
        if t is None:
            raise ParseError(f"unterminated body of {name}")
        if t.text == "<":  # generic method type parameters
            self.skip_generics()
            t = self.peek()
            if t is None:
                raise ParseError("dangling type parameters")
        # Constructor: bare class name followed by '(', or in a record by
        # '{' (a compact canonical constructor, without parameters).
        if t.kind == IDENT and t.text == name and (
            self.at("(", 1) or (is_record and self.at("{", 1))
        ):
            self.pos += 1
            return self._finish_method(
                t, "", modifiers, annotations, start, is_constructor=True
            )
        if t.text == "{":  # an initializer, static or not
            self.skip_balanced("{", "}")
            return None
        type_text = self.parse_type()
        name_tok = self.peek()
        if name_tok is None:
            raise ParseError("unexpected end of member declaration")
        if not _is_name(name_tok):
            if name_tok.text != "}":  # lenient: skip it, but leave '}' to close the body
                self.pos += 1
            return None
        self.pos += 1
        if self.at("("):
            return self._finish_method(
                name_tok, type_text, modifiers, annotations, start, is_constructor=False
            )
        return self._finish_field(name_tok, type_text, modifiers, annotations, start)

    def _finish_method(
        self,
        name_tok: Token,
        return_type: str,
        modifiers: set[str],
        annotations: list[str],
        start: int,
        is_constructor: bool,
    ) -> MethodDecl:
        params = self._parse_parameters() if self.at("(") else []
        self.skip_dims()  # archaic int foo()[]
        throws: list[str] = []
        if self.at("throws"):
            self.pos += 1
            throws = self.parse_type_list()
        body_start = body_end = None
        if self.at("{"):
            body_start = self.tokens[self.pos].offset
            body_end = end = self.skip_balanced("{", "}").end_offset
        elif self.at("default"):  # annotation member default value
            self._skip_to_semicolon()
            end = self.tokens[self.pos - 1].end_offset
        else:
            end = self.expect(";").end_offset
        return MethodDecl(
            name=name_tok.text,
            modifiers=modifiers,
            annotations=annotations,
            return_type=return_type,
            parameters=params,
            throws=throws,
            is_constructor=is_constructor,
            start=start,
            end=end,
            name_token=name_tok,
            body_start=body_start,
            body_end=body_end,
        )

    def _parse_parameters(self) -> list[Parameter]:
        self.expect("(")
        params: list[Parameter] = []
        if self.at(")"):
            self.pos += 1
            return params
        while True:
            while self.at("@"):
                self.parse_annotations_and_modifiers()
            if self.at("final"):
                self.pos += 1
            type_text = self.parse_type()
            if self.at("..."):
                self.pos += 1
                type_text += "..."
            name_t = self.peek()
            if name_t is not None and (_is_name(name_t) or name_t.text == "this"):
                self.pos += 1
                name = name_t.text
            else:
                name = ""
            params.append(Parameter(type_text=type_text + self.skip_dims(), name=name))
            if self.at(","):
                self.pos += 1
                continue
            self.expect(")")
            return params

    def _finish_field(
        self,
        name_tok: Token,
        type_text: str,
        modifiers: set[str],
        annotations: list[str],
        start: int,
    ) -> FieldDecl:
        names = [name_tok.text]
        type_text += self.skip_dims()
        self._skip_field_tail()
        while self.at(","):
            self.pos += 1
            extra = self.peek()
            if extra is not None and _is_name(extra):
                self.pos += 1
                names.append(extra.text)
            self.skip_dims()
            self._skip_field_tail()
        return FieldDecl(
            names=names,
            type_text=type_text,
            modifiers=modifiers,
            annotations=annotations,
            start=start,
            end=self.expect(";").end_offset,
            name_token=name_tok,
        )

    def _skip_field_tail(self) -> None:
        """Skip an optional initializer up to a top-level ';', or a
        top-level ',' that a declarator follows (not the ',' of
        ``new HashMap<A, B>()``)."""
        if not self.at("="):
            return
        self.pos += 1
        depth = 0
        while True:
            t = self.peek()
            if t is None:
                raise ParseError("unterminated field initializer")
            if depth == 0 and (t.text == ";" or (t.text == "," and self._declarator_next())):
                return
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            self.pos += 1

    def _declarator_next(self) -> bool:
        """Whether a name, then '=', ',', ';' or '[', follows the cursor."""
        return _is_name(self.peek(1)) and any(self.at(s, 2) for s in ("=", ",", ";", "["))


def _is_name(t: Token | None) -> bool:
    return t is not None and t.kind == IDENT


def parse_java(text: str, tokens: list[Token] | None = None) -> JavaFile:
    """Parse ``text`` into a :class:`JavaFile`; raises :class:`ParseError`.

    ``tokens`` are ``lex(text)`` if the caller has them already (as
    :func:`~testmend.javasrc.format.canonical_tokens` gives them for a
    canonical text); without them the text is lexed here.
    """
    return _Parser(text, tokens).parse_file()


def find_method(
    java_file: JavaFile,
    class_path: list[str],
    method_name: str,
    param_types: list[str] | None = None,
) -> tuple[ClassDecl, MethodDecl] | None:
    """Locate a method by class nesting path, name, and optional param types.

    ``param_types`` compares normalized full type texts; ``None`` matches any
    overload (the first in declaration order).
    """
    target: ClassDecl | None = None
    if class_path:
        for cls in java_file.all_classes():
            if [*cls.enclosing, cls.name][-len(class_path) :] == class_path:
                target = cls
                break
        candidates = [target] if target else []
    else:
        candidates = java_file.all_classes()
    for cls in candidates:
        for method in cls.methods():
            if method.name != method_name:
                continue
            if param_types is not None and method.param_types() != param_types:
                continue
            return cls, method
    return None
