"""A lenient declaration-level parser for Java compilation units.

The parser recovers the structure the toolkit actually needs — packages,
imports, type declarations, and per-type member declarations (fields,
methods, constructors, nested types) with exact source spans — without
attempting to parse statements or expressions.  Bodies and initializers
are skipped with balanced-delimiter scanning.  A record's compact
canonical constructor (``R { ... }``) is a constructor without
parameters.

The parser reads a :class:`~testmend.javasrc.lexer.TokenArrays` by
index (the canonicalizer's, or the one ``lex`` returns when it is given
none) and builds a :class:`~testmend.javasrc.lexer.Token` only for each
declaration's ``name_token``; skipping a balanced body is a C-level
search of the token texts.  The three tokens ``non`` ``-`` ``sealed``
are read as the one modifier ``non-sealed``.

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
class), unless a ``.`` that neither a name nor ``*`` follows ends the
name: then it is broken, and skipped through its next ``;``.  In a
class body, a member whose type no name follows is dropped, with the
token after the type unless that is a ``}``, which closes the body.  An
``@interface`` ends an enum's constants.  A field initializer ends at a
``;``, or a ``,`` that a declarator (a name, then ``=``, ``,``, ``;`` or
``[``) follows, outside brackets; an annotation member's ``default``
value runs to the next ``;``.  Anything else that does not fit raises
:class:`ParseError`.
"""

from __future__ import annotations

from typing import NamedTuple

from testmend.errors import ParseError
from testmend.javasrc import lexer
from testmend.javasrc.lexer import IDENT, KEYWORD, WORD_KINDS, Token, TokenArrays

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
    tokens: TokenArrays

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


def _render_type(kinds: tuple[str, ...], texts: tuple[str, ...], lo: int, hi: int) -> str:
    """Join the type tokens ``lo`` to ``hi`` into a normalized rendering:
    a space after ``,``, around ``&`` and between two words, none elsewhere."""
    parts = [texts[lo]]
    for j in range(lo + 1, hi):
        prev, text = texts[j - 1], texts[j]
        if prev == "," or prev == "&" or text == "&":
            parts.append(" ")
        elif (kinds[j - 1] in WORD_KINDS or prev == "?") and (kinds[j] in WORD_KINDS or text == "?"):
            parts.append(" ")
        parts.append(text)
    return "".join(parts)


# Past the last token the parser reads these, so a lookahead of up to two
# tokens needs no bounds check; no token has an empty kind or text.
_PAST_END = ("", "", "")


class _Parser:
    """One recursive-descent pass over a token stream read by index.

    ``kinds`` and ``texts`` are the stream's arrays with :data:`_PAST_END`
    appended, ``n`` its length and ``pos`` the index of the next token.
    """

    def __init__(self, text: str, tokens: TokenArrays):
        self.text = text
        self.tokens = tokens
        self.kinds = tokens.kinds + _PAST_END
        self.texts = tokens.texts + _PAST_END
        self.offsets = tokens.offsets
        self.n = len(tokens.texts)
        self.pos = 0

    # -- token cursor ---------------------------------------------------

    def at(self, text: str, ahead: int = 0) -> bool:
        return self.texts[self.pos + ahead] == text

    def error(self, message: str, j: int) -> ParseError:
        """``message`` at token ``j``, or without a position past the end."""
        if j < self.n:
            return ParseError(message, self.tokens.lines[j], self.tokens.cols[j])
        return ParseError(message)

    def end_offset(self, j: int) -> int:
        return self.offsets[j] + len(self.texts[j])

    def expect(self, text: str) -> int:
        """Consume the token ``text`` at the cursor; its index."""
        j = self.pos
        found = self.texts[j]
        if found != text:
            raise self.error(f"expected {text!r}, found {found or 'end of source'!r}", j)
        self.pos = j + 1
        return j

    def skip_balanced(self, open_text: str, close_text: str) -> int:
        """Consume from the current ``open_text`` token through its match;
        the index of the match.  Each step finds the next ``close_text``
        and counts the ``open_text`` tokens before it, by C-level search."""
        opener = self.expect(open_text)
        texts = self.texts
        depth = 1
        j = self.pos
        while True:
            try:
                close = texts.index(close_text, j, self.n)
            except ValueError:
                raise self.error(f"unbalanced {open_text!r}", opener) from None
            depth += texts[j:close].count(open_text) - 1
            if not depth:
                self.pos = close + 1
                return close
            j = close + 1

    def skip_generics(self) -> None:
        """Consume a balanced ``<...>`` region, honoring shift tokens."""
        opener = self.expect("<")
        texts = self.texts
        depth = 1
        j = self.pos
        while depth > 0:
            if j >= self.n:
                raise self.error("unbalanced '<'", opener)
            text = texts[j]
            j += 1
            if text == "<":
                depth += 1
            elif text == ">":
                depth -= 1
            elif text == ">>":
                depth -= 2
            elif text == ">>>":
                depth -= 3
        self.pos = j

    def skip_dims(self) -> str:
        """Consume ``[]`` pairs and return them as text."""
        texts = self.texts
        j = self.pos
        dims = ""
        while texts[j] == "[" and texts[j + 1] == "]":
            j += 2
            dims += "[]"
        self.pos = j
        return dims

    def _skip_to_semicolon(self) -> None:
        """Consume through the next ``;``, or to the end."""
        try:
            self.pos = self.texts.index(";", self.pos, self.n) + 1
        except ValueError:
            self.pos = self.n

    # -- annotations, modifiers and types -------------------------------

    def parse_annotations_and_modifiers(self) -> tuple[list[str], set[str]]:
        annotations: list[str] = []
        modifiers: set[str] = set()
        kinds, texts = self.kinds, self.texts
        while True:
            j = self.pos
            text = texts[j]
            if text == "@" and texts[j + 1] != "interface":
                if j + 1 >= self.n:
                    raise ParseError("unexpected end of source")
                name = texts[j + 1]
                j += 2
                while texts[j] == "." and kinds[j + 1] == IDENT:
                    name += "." + texts[j + 1]
                    j += 2
                self.pos = j
                if texts[j] == "(":
                    self.skip_balanced("(", ")")
                annotations.append(name)
            elif (kinds[j] == KEYWORD and text in MODIFIER_WORDS) or (
                kinds[j] == IDENT and text == "sealed"
            ):
                # "default" starts interface default methods but is also a
                # switch label; at member level it is always a modifier.
                self.pos = j + 1
                modifiers.add(text)
            elif text == "non" and texts[j + 1] == "-" and texts[j + 2] == "sealed":
                # The lexer reads "non-sealed" as three tokens.
                self.pos = j + 3
                modifiers.add("non-sealed")
            else:
                return annotations, modifiers

    def parse_type(self) -> str:
        kinds, texts = self.kinds, self.texts
        j = self.pos
        if j >= self.n:
            raise ParseError("expected a type, found end of source")
        if texts[j] == "@":  # type annotation, e.g. @Nullable String
            self.parse_annotations_and_modifiers()
            j = self.pos
            if j >= self.n:
                raise ParseError("expected a type after annotation")
        first = j
        if kinds[j] == KEYWORD and texts[j] in PRIMITIVE_WORDS:
            j += 1
        elif kinds[j] == IDENT:
            j += 1
            while True:
                if texts[j] == "<":
                    self.pos = j
                    self.skip_generics()
                    j = self.pos
                elif texts[j] == "." and kinds[j + 1] == IDENT:
                    j += 2
                else:
                    break
        else:
            raise self.error(f"expected a type, found {texts[j]!r}", j)
        self.pos = j
        rendered = texts[first] if j == first + 1 else _render_type(kinds, texts, first, j)
        return rendered + self.skip_dims()

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
        texts = self.texts
        while self.pos < self.n:
            text = texts[self.pos]
            if text == "package" or text == "import":
                self.pos += 1
                if text == "import" and texts[self.pos] == "static":
                    self.pos += 1
                name = self._qualified_name()
                if text == "package":
                    package = name
                elif texts[self.pos] == "*":
                    self.pos += 1
                    wildcards.append(name)
                else:
                    imports.setdefault(name.rsplit(".", 1)[-1], name)
                if name and texts[self.pos] == ".":  # broken: a '.' ends the name
                    self._skip_to_semicolon()
            else:
                mark = self.pos
                start = self.offsets[mark]
                decl = self._type_decl(start, *self.parse_annotations_and_modifiers(), [])
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
        """The dotted name at the cursor; a ``.*`` ending it is left at its
        ``*``, and a '.' that neither a name nor ``*`` follows at its '.'."""
        kinds, texts = self.kinds, self.texts
        j = self.pos
        parts = []
        while kinds[j] == IDENT:
            parts.append(texts[j])
            j += 1
            if texts[j] != ".":
                break
            if texts[j + 1] == "*":
                j += 1
                break
            if kinds[j + 1] != IDENT:
                break
            j += 1
        self.pos = j
        return ".".join(parts)

    # -- type declarations ----------------------------------------------

    def _type_decl(
        self, start: int, annotations: list[str], modifiers: set[str], enclosing: list[str]
    ) -> ClassDecl | None:
        """The type declaration at the cursor, its annotations and modifiers
        already parsed from ``start``; None, consuming nothing, if no type
        keyword is next."""
        kinds, texts = self.kinds, self.texts
        j = self.pos
        text = texts[j]
        at_interface = text == "@" and texts[j + 1] == "interface"
        is_record = kinds[j] == IDENT and text == "record" and kinds[j + 1] == IDENT
        if not (at_interface or is_record or (kinds[j] == KEYWORD and text in _TYPE_KEYWORDS)):
            return None
        if at_interface:
            j += 1
        keyword = texts[j]
        name = j + 1
        if name >= self.n:
            raise ParseError("unexpected end of source")
        self.pos = name + 1
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
        members = self._parse_members([*enclosing, texts[name]], is_record)
        return ClassDecl(
            name=texts[name],
            keyword="@interface" if at_interface else keyword,
            modifiers=modifiers,
            annotations=annotations,
            extends=extends,
            implements=implements,
            members=members,
            start=start,
            end=self.end_offset(self.expect("}")),
            name_token=self.tokens.token(name),
            enclosing=enclosing,
        )

    def _parse_enum_constants(self) -> None:
        kinds, texts = self.kinds, self.texts
        while True:
            j = self.pos
            text = texts[j]
            if j >= self.n or text == "}" or text == ";":
                break
            if text == "@" and texts[j + 1] != "interface":
                self.parse_annotations_and_modifiers()
                continue
            if kinds[j] == IDENT or kinds[j] == KEYWORD:
                self.pos = j + 1
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
        texts = self.texts
        while True:
            j = self.pos
            if j >= self.n:
                raise ParseError(f"unterminated body of {path[-1]}")
            text = texts[j]
            if text == "}":
                return members
            if text == ";":
                self.pos = j + 1
                continue
            member = self._parse_member(path, is_record, self.offsets[j])
            if member is not None:
                members.append(member)

    def _parse_member(self, path: list[str], is_record: bool, start: int) -> object | None:
        annotations, modifiers = self.parse_annotations_and_modifiers()
        nested = self._type_decl(start, annotations, modifiers, path)
        if nested is not None:
            return nested
        kinds, texts = self.kinds, self.texts
        name = path[-1]
        j = self.pos
        if j >= self.n:
            raise ParseError(f"unterminated body of {name}")
        if texts[j] == "<":  # generic method type parameters
            self.skip_generics()
            j = self.pos
            if j >= self.n:
                raise ParseError("dangling type parameters")
        # Constructor: bare class name followed by '(', or in a record by
        # '{' (a compact canonical constructor, without parameters).
        if kinds[j] == IDENT and texts[j] == name and (
            texts[j + 1] == "(" or (is_record and texts[j + 1] == "{")
        ):
            self.pos = j + 1
            return self._finish_method(j, "", modifiers, annotations, start, is_constructor=True)
        if texts[j] == "{":  # an initializer, static or not
            self.skip_balanced("{", "}")
            return None
        type_text = self.parse_type()
        j = self.pos
        if j >= self.n:
            raise ParseError("unexpected end of member declaration")
        if kinds[j] != IDENT:
            if texts[j] != "}":  # lenient: skip it, but leave '}' to close the body
                self.pos = j + 1
            return None
        self.pos = j + 1
        if texts[j + 1] == "(":
            return self._finish_method(
                j, type_text, modifiers, annotations, start, is_constructor=False
            )
        return self._finish_field(j, type_text, modifiers, annotations, start)

    def _finish_method(
        self,
        name: int,
        return_type: str,
        modifiers: set[str],
        annotations: list[str],
        start: int,
        is_constructor: bool,
    ) -> MethodDecl:
        """The method whose name is token ``name``, the cursor after it."""
        params = self._parse_parameters() if self.at("(") else []
        self.skip_dims()  # archaic int foo()[]
        throws: list[str] = []
        if self.at("throws"):
            self.pos += 1
            throws = self.parse_type_list()
        body_start = body_end = None
        if self.at("{"):
            body_start = self.offsets[self.pos]
            body_end = end = self.end_offset(self.skip_balanced("{", "}"))
        elif self.at("default"):  # annotation member default value
            self._skip_to_semicolon()
            end = self.end_offset(self.pos - 1)
        else:
            end = self.end_offset(self.expect(";"))
        return MethodDecl(
            name=self.texts[name],
            modifiers=modifiers,
            annotations=annotations,
            return_type=return_type,
            parameters=params,
            throws=throws,
            is_constructor=is_constructor,
            start=start,
            end=end,
            name_token=self.tokens.token(name),
            body_start=body_start,
            body_end=body_end,
        )

    def _parse_parameters(self) -> list[Parameter]:
        self.expect("(")
        params: list[Parameter] = []
        if self.at(")"):
            self.pos += 1
            return params
        kinds, texts = self.kinds, self.texts
        while True:
            while self.at("@") and not self.at("interface", 1):
                self.parse_annotations_and_modifiers()
            if self.at("final"):
                self.pos += 1
            type_text = self.parse_type()
            if self.at("..."):
                self.pos += 1
                type_text += "..."
            j = self.pos
            if kinds[j] == IDENT or texts[j] == "this":
                self.pos = j + 1
                name = texts[j]
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
        name: int,
        type_text: str,
        modifiers: set[str],
        annotations: list[str],
        start: int,
    ) -> FieldDecl:
        """The field whose first name is token ``name``, the cursor after it."""
        kinds, texts = self.kinds, self.texts
        names = [texts[name]]
        type_text += self.skip_dims()
        self._skip_field_tail()
        while self.at(","):
            self.pos += 1
            if kinds[self.pos] == IDENT:
                names.append(texts[self.pos])
                self.pos += 1
            self.skip_dims()
            self._skip_field_tail()
        return FieldDecl(
            names=names,
            type_text=type_text,
            modifiers=modifiers,
            annotations=annotations,
            start=start,
            end=self.end_offset(self.expect(";")),
            name_token=self.tokens.token(name),
        )

    def _skip_field_tail(self) -> None:
        """Skip an optional initializer up to a top-level ';', or a
        top-level ',' that a declarator (a name, then '=', ',', ';' or
        '[') follows: not the ',' of ``new HashMap<A, B>()``."""
        if not self.at("="):
            return
        kinds, texts = self.kinds, self.texts
        depth = 0
        for j in range(self.pos + 1, self.n):
            text = texts[j]
            if depth == 0 and (
                text == ";"
                or (text == "," and kinds[j + 1] == IDENT and texts[j + 2] in ("=", ",", ";", "["))
            ):
                self.pos = j
                return
            if text in ("(", "[", "{"):
                depth += 1
            elif text in (")", "]", "}"):
                depth -= 1
        raise ParseError("unterminated field initializer")


def parse_java(text: str, tokens: TokenArrays | None = None) -> JavaFile:
    """Parse ``text`` into a :class:`JavaFile`; raises :class:`ParseError`.

    ``tokens`` are the arrays of ``lex(text)`` if the caller has them
    already (as :func:`~testmend.javasrc.format.canonical_arrays` gives
    them for a canonical text); without them the text is lexed here.
    """
    if tokens is None:
        tokens = lexer.lex(text)
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
