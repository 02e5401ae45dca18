"""A lenient declaration-level parser for Java compilation units.

The parser recovers the structure the toolkit actually needs — packages,
imports, type declarations, and per-type member declarations (fields,
methods, constructors, nested types) with exact source spans — without
attempting to parse statements or expressions.  Bodies and initializers
are skipped with balanced-delimiter scanning.

Spans are character offsets into the text handed to :func:`parse_java`;
callers slice the same text to recover declaration snippets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.lexer import IDENT, KEYWORD, OP, Token

MODIFIER_WORDS = frozenset(
    "public private protected static final abstract native synchronized "
    "transient volatile strictfp default".split()
)

PRIMITIVE_WORDS = frozenset("boolean byte char short int long float double void".split())

_TYPE_KEYWORDS = frozenset({"class", "interface", "enum"})


@dataclass
class Parameter:
    type_text: str
    name: str


@dataclass
class FieldDecl:
    names: list[str]
    type_text: str
    modifiers: set[str]
    annotations: list[str]
    start: int
    end: int
    name_token: Token


@dataclass
class MethodDecl:
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


@dataclass
class ClassDecl:
    name: str
    keyword: str  # class | interface | enum | record
    modifiers: set[str]
    annotations: list[str]
    extends: str | None
    implements: list[str]
    members: list[object] = field(default_factory=list)
    start: int = 0
    end: int = 0
    name_token: Token | None = None
    enclosing: list[str] = field(default_factory=list)

    @property
    def qualified_name(self) -> str:
        return ".".join([*self.enclosing, self.name])

    def methods(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl)]

    def nested_classes(self) -> list["ClassDecl"]:
        return [m for m in self.members if isinstance(m, ClassDecl)]


@dataclass
class JavaFile:
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


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self, ahead: int = 0) -> Token | None:
        j = self.pos + ahead
        return self.tokens[j] if 0 <= j < len(self.tokens) else None

    def at(self, text: str, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t is not None and t.text == text

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
        return self.next()

    def skip_balanced(self, open_text: str, close_text: str) -> Token:
        """Consume from the current ``open_text`` token through its match."""
        opener = self.expect(open_text)
        depth = 1
        while depth:
            t = self.peek()
            if t is None:
                raise ParseError(
                    f"unbalanced {open_text!r}", opener.line, opener.col
                )
            self.pos += 1
            if t.text == open_text:
                depth += 1
            elif t.text == close_text:
                depth -= 1
        return self.tokens[self.pos - 1]

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
    def __init__(self, text: str, tokens: list[Token] | None):
        self.text = text
        self.cur = _Cursor(lexer.lex(text) if tokens is None else tokens)

    # -- annotations and modifiers -------------------------------------

    def parse_annotations_and_modifiers(self) -> tuple[list[str], set[str], int | None]:
        annotations: list[str] = []
        modifiers: set[str] = set()
        first_offset: int | None = None
        while True:
            t = self.cur.peek()
            if t is None:
                break
            if t.text == "@" and not self.cur.at("interface", 1):
                if first_offset is None:
                    first_offset = t.offset
                self.cur.next()
                name = self.cur.next().text
                while self.cur.at(".") and _is_name(self.cur.peek(1)):
                    self.cur.next()
                    name += "." + self.cur.next().text
                if self.cur.at("("):
                    self.cur.skip_balanced("(", ")")
                annotations.append(name)
            elif t.kind == KEYWORD and t.text in MODIFIER_WORDS:
                # "default" starts interface default methods but is also a
                # switch label; at member level it is always a modifier.
                if first_offset is None:
                    first_offset = t.offset
                self.cur.next()
                modifiers.add(t.text)
            elif t.kind == IDENT and t.text == "sealed":
                if first_offset is None:
                    first_offset = t.offset
                self.cur.next()
                modifiers.add(t.text)
            else:
                break
        return annotations, modifiers, first_offset

    # -- types ----------------------------------------------------------

    def parse_type(self) -> str:
        tokens: list[Token] = []
        t = self.cur.peek()
        if t is None:
            raise ParseError("expected a type, found end of source")
        if t.text == "@":  # type annotation, e.g. @Nullable String
            self.parse_annotations_and_modifiers()
            t = self.cur.peek()
            if t is None:
                raise ParseError("expected a type after annotation")
        if t.kind == KEYWORD and t.text in PRIMITIVE_WORDS:
            tokens.append(self.cur.next())
        elif t.kind == IDENT or (t.kind == KEYWORD and t.text == "var"):
            tokens.append(self.cur.next())
            while True:
                if self.cur.at("<"):
                    start = self.cur.pos
                    self.cur.skip_generics()
                    tokens.extend(self.cur.tokens[start : self.cur.pos])
                    continue
                if self.cur.at(".") and _is_name(self.cur.peek(1)):
                    tokens.append(self.cur.next())
                    tokens.append(self.cur.next())
                    continue
                break
        else:
            raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)
        while self.cur.at("[") and self.cur.at("]", 1):
            tokens.append(self.cur.next())
            tokens.append(self.cur.next())
        return _render_type(tokens)

    # -- compilation unit -----------------------------------------------

    def parse_file(self) -> JavaFile:
        package = ""
        imports: dict[str, str] = {}
        wildcards: list[str] = []
        classes: list[ClassDecl] = []
        while not self.cur.eof():
            t = self.cur.peek()
            assert t is not None
            if t.text == "package":
                self.cur.next()
                package = self._qualified_name()
                self._skip_to_semicolon()
            elif t.text == "import":
                self.cur.next()
                if self.cur.at("static"):
                    self.cur.next()
                name = self._qualified_name()
                if self.cur.at("*"):
                    self.cur.next()
                    wildcards.append(name.rstrip("."))
                else:
                    imports.setdefault(name.rsplit(".", 1)[-1], name)
                self._skip_to_semicolon()
            elif t.text == ";":
                self.cur.next()
            else:
                decl = self._try_type_decl(enclosing=[])
                if decl is None:
                    self.cur.next()  # lenient: skip stray token
                else:
                    classes.append(decl)
        return JavaFile(
            text=self.text,
            package=package,
            imports=imports,
            wildcard_imports=wildcards,
            classes=classes,
            tokens=self.cur.tokens,
        )

    def _qualified_name(self) -> str:
        parts = []
        while _is_name(self.cur.peek()):
            parts.append(self.cur.next().text)
            if self.cur.at(".") and (_is_name(self.cur.peek(1)) or self.cur.at("*", 1)):
                self.cur.next()
                if self.cur.at("*"):
                    parts.append("")
                    break
            else:
                break
        return ".".join(parts).rstrip(".")

    def _skip_to_semicolon(self) -> None:
        while not self.cur.eof() and not self.cur.at(";"):
            self.cur.next()
        if self.cur.at(";"):
            self.cur.next()

    # -- type declarations ----------------------------------------------

    def _try_type_decl(self, enclosing: list[str]) -> ClassDecl | None:
        mark = self.cur.pos
        annotations, modifiers, first_offset = self.parse_annotations_and_modifiers()
        t = self.cur.peek()
        is_record = (
            t is not None
            and t.kind == IDENT
            and t.text == "record"
            and _is_name(self.cur.peek(1))
        )
        at_interface = t is not None and t.text == "@" and self.cur.at("interface", 1)
        if t is None or (
            not (t.kind == KEYWORD and t.text in _TYPE_KEYWORDS)
            and not is_record
            and not at_interface
        ):
            self.cur.pos = mark
            return None
        kw_tok = t
        if at_interface:
            self.cur.next()
            keyword = self.cur.next().text  # 'interface'
        else:
            keyword = self.cur.next().text
        name_tok = self.cur.next()
        start = first_offset if first_offset is not None else kw_tok.offset
        decl = ClassDecl(
            name=name_tok.text,
            keyword="@interface" if at_interface else keyword,
            modifiers=modifiers,
            annotations=annotations,
            extends=None,
            implements=[],
            start=start,
            name_token=name_tok,
            enclosing=list(enclosing),
        )
        if self.cur.at("<"):
            self.cur.skip_generics()
        if is_record and self.cur.at("("):
            self.cur.skip_balanced("(", ")")
        if self.cur.at("extends"):
            self.cur.next()
            first = self.parse_type()
            if keyword == "interface":
                decl.implements.append(first)
                while self.cur.at(","):
                    self.cur.next()
                    decl.implements.append(self.parse_type())
            else:
                decl.extends = first
        if self.cur.at("implements"):
            self.cur.next()
            decl.implements.append(self.parse_type())
            while self.cur.at(","):
                self.cur.next()
                decl.implements.append(self.parse_type())
        while self.cur.peek() is not None and self.cur.peek().text in (
            "permits",
        ):  # sealed classes: skip the permits list
            self.cur.next()
            self.parse_type()
            while self.cur.at(","):
                self.cur.next()
                self.parse_type()
        open_brace = self.cur.expect("{")
        if keyword == "enum":
            self._parse_enum_constants()
        self._parse_members(decl)
        close = self.cur.expect("}")
        decl.end = close.end_offset
        assert open_brace is not None
        return decl

    def _parse_enum_constants(self) -> None:
        while True:
            t = self.cur.peek()
            if t is None or t.text in ("}", ";"):
                break
            if t.text == "@":
                self.parse_annotations_and_modifiers()
                continue
            if t.kind in (IDENT, KEYWORD):
                self.cur.next()
                if self.cur.at("("):
                    self.cur.skip_balanced("(", ")")
                if self.cur.at("{"):
                    self.cur.skip_balanced("{", "}")
            if self.cur.at(","):
                self.cur.next()
            else:
                break
        if self.cur.at(";"):
            self.cur.next()

    # -- members ---------------------------------------------------------

    def _parse_members(self, decl: ClassDecl) -> None:
        while True:
            t = self.cur.peek()
            if t is None:
                raise ParseError(f"unterminated body of {decl.name}")
            if t.text == "}":
                return
            if t.text == ";":
                self.cur.next()
                continue
            if t.text == "{":  # instance initializer
                self.cur.skip_balanced("{", "}")
                continue
            if t.text == "static" and self.cur.at("{", 1):  # static initializer
                self.cur.next()
                self.cur.skip_balanced("{", "}")
                continue
            member = self._parse_member(decl)
            if member is not None:
                decl.members.append(member)

    def _parse_member(self, decl: ClassDecl) -> object | None:
        nested = self._try_type_decl([*decl.enclosing, decl.name])
        if nested is not None:
            return nested
        annotations, modifiers, first_offset = self.parse_annotations_and_modifiers()
        t = self.cur.peek()
        if t is None:
            raise ParseError(f"unterminated body of {decl.name}")
        start = first_offset if first_offset is not None else t.offset
        if t.text == "<":  # generic method type parameters
            self.cur.skip_generics()
            t = self.cur.peek()
            if t is None:
                raise ParseError("dangling type parameters")
        # Constructor: bare class name followed by '('.
        if t.kind == IDENT and t.text == decl.name and self.cur.at("(", 1):
            name_tok = self.cur.next()
            return self._finish_method(
                name_tok, "", modifiers, annotations, start, is_constructor=True
            )
        if t.text == "{":  # initializer after modifiers (e.g. static handled above)
            self.cur.skip_balanced("{", "}")
            return None
        type_text = self.parse_type()
        name_tok = self.cur.peek()
        if name_tok is None:
            raise ParseError("unexpected end of member declaration")
        if not _is_name(name_tok):
            # Lenient recovery: skip one token and move on.
            self.cur.next()
            return None
        self.cur.next()
        if self.cur.at("("):
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
        params = self._parse_parameters()
        while self.cur.at("[") and self.cur.at("]", 1):  # archaic int foo()[]
            self.cur.next()
            self.cur.next()
        throws: list[str] = []
        if self.cur.at("throws"):
            self.cur.next()
            throws.append(self.parse_type())
            while self.cur.at(","):
                self.cur.next()
                throws.append(self.parse_type())
        body_start = body_end = None
        if self.cur.at("{"):
            open_tok = self.cur.peek()
            close_tok = self.cur.skip_balanced("{", "}")
            body_start = open_tok.offset
            body_end = close_tok.end_offset
            end = body_end
        elif self.cur.at("default"):  # annotation member default value
            self._skip_to_semicolon()
            end = self.cur.tokens[self.cur.pos - 1].end_offset
        else:
            semi = self.cur.expect(";")
            end = semi.end_offset
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
        self.cur.expect("(")
        params: list[Parameter] = []
        if self.cur.at(")"):
            self.cur.next()
            return params
        while True:
            while self.cur.at("@"):
                self.parse_annotations_and_modifiers()
            if self.cur.at("final"):
                self.cur.next()
            type_text = self.parse_type()
            if self.cur.at("..."):
                self.cur.next()
                type_text += "..."
            name_t = self.cur.peek()
            if name_t is not None and (_is_name(name_t) or name_t.text == "this"):
                self.cur.next()
                name = name_t.text
            else:
                name = ""
            while self.cur.at("[") and self.cur.at("]", 1):
                self.cur.next()
                self.cur.next()
                type_text += "[]"
            params.append(Parameter(type_text=type_text, name=name))
            if self.cur.at(","):
                self.cur.next()
                continue
            self.cur.expect(")")
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
        suffix = ""
        while self.cur.at("[") and self.cur.at("]", 1):
            self.cur.next()
            self.cur.next()
            suffix += "[]"
        self._skip_field_tail()
        while self.cur.at(","):
            self.cur.next()
            extra = self.cur.peek()
            if extra is not None and _is_name(extra):
                names.append(self.cur.next().text)
            while self.cur.at("[") and self.cur.at("]", 1):
                self.cur.next()
                self.cur.next()
            self._skip_field_tail()
        semi = self.cur.expect(";")
        return FieldDecl(
            names=names,
            type_text=type_text + suffix,
            modifiers=modifiers,
            annotations=annotations,
            start=start,
            end=semi.end_offset,
            name_token=name_tok,
        )

    def _skip_field_tail(self) -> None:
        """Skip an optional initializer up to a top-level ',' or ';'."""
        if not self.cur.at("="):
            return
        self.cur.next()
        depth = 0
        while True:
            t = self.cur.peek()
            if t is None:
                raise ParseError("unterminated field initializer")
            if depth == 0 and t.text in (",", ";"):
                return
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            self.cur.next()


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
