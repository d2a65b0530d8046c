"""Parser and canonical serializer for the ``.ofn`` ontology file format.

The format is a fixed subset of OWL 2 functional-style syntax: ``Prefix``
lines followed by one ``Ontology(<iri> ...)`` block holding ``Declaration``
axioms and the axioms whose keywords :data:`ontomap.model.AXIOM_KEYWORDS`
lists.  ``#`` starts a comment.  The parser recovers at the next top-level
axiom, so one file can report many errors.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (
    AXIOM_KEYWORDS,
    AXIOM_SLOTS,
    Axiom,
    ClassExpr,
    DATATYPES,
    EntityKind,
    KindMismatch,
    Label,
    Literal,
    LOCAL_NAME_PATTERN,
    Name,
    Ontology,
    PREFIX_PATTERN,
    UndeclaredEntity,
    UnionOf,
    axiom_keyword,
    axiom_signature,
    check_reference,
)

DECLARATION_KINDS = {k.value: k for k in EntityKind}


@dataclass(frozen=True)
class SourceSpan:
    line: int
    column: int
    length: int


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    span: SourceSpan
    code: str
    message: str

    def __str__(self):
        return (f"{self.severity}:{self.span.line}:{self.span.column}:"
                f"{self.code}:{self.message}")


@dataclass(frozen=True)
class ParseResult:
    ontology: Optional[Ontology]
    diagnostics: tuple

    @property
    def errors(self):
        return tuple(d for d in self.diagnostics if d.severity == "error")


class _Halt(Exception):
    """Internal: abandon the current top-level axiom and resynchronize."""


# One match per token.  The skip in front folds whitespace and comments into
# the match, so a token is read from its group.  The skip cannot backtrack:
# where it stops, the next character is neither whitespace nor ``#`` (which
# always starts a comment), so ``bad`` or ``eof`` matches there.
_TOKEN_RE = re.compile(
    rf"""(?:\s+|\#[^\n]*)*
    (?: (?P<lparen>\() | (?P<rparen>\)) | (?P<eq>=) | (?P<dcaret>\^\^)
      | (?P<iri><[^<>\s]*>)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<name>(?:{PREFIX_PATTERN})?:(?:{LOCAL_NAME_PATTERN})?
                 |{PREFIX_PATTERN})
      | (?P<open_string>")[^\n]*\n? | (?P<open_iri><)[^\n]*\n?
      | (?P<bad>.) | (?P<eof>\Z))
    """,
    re.VERBOSE,
)

# lexical error kinds, each one character long: code and message
_LEXICAL_ERRORS = {
    "open_string": ("unterminated", "unterminated string literal"),
    "open_iri": ("unterminated", "unterminated IRI"),
    "bad": ("syntax", "unexpected character {!r}"),
}


class _Token(NamedTuple):
    kind: str  # lparen rparen eq dcaret iri string name eof
    text: str
    pos: int


def _unescape(raw: str) -> str:
    return re.sub(r"\\(.)", r"\1", raw[1:-1])


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


class _Parser:
    def __init__(self, text: str):
        self.diagnostics: list[ParseDiagnostic] = []
        self.line_starts = [0] + [m.end() for m in re.finditer(r"\n", text)]
        self.tokens = self._tokenize(text)
        self.i = 0
        self.depth = 0
        self.prefixes: dict[str, str] = {}
        self.declarations: set[tuple[Name, EntityKind]] = set()
        self.axioms: list[Axiom] = []
        # (name, required kind, token) checked once declarations are known
        self.references: list[tuple[Name, Optional[EntityKind], _Token]] = []
        self.ontology_id = ""

    # -- low-level machinery --

    def _tok_span(self, tok: _Token) -> SourceSpan:
        line = bisect_right(self.line_starts, tok.pos)
        col = tok.pos - self.line_starts[line - 1] + 1
        return SourceSpan(line, col, len(tok.text))

    def _tokenize(self, text: str) -> list[_Token]:
        toks = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            tok = _Token(kind, m.group(kind), m.start(kind))
            if kind in _LEXICAL_ERRORS:
                code, message = _LEXICAL_ERRORS[kind]
                self._diag("error", self._tok_span(tok), code,
                           message.format(tok.text))
                continue
            toks.append(tok)
            if kind == "eof":  # a match after trailing space is another eof
                break
        return toks

    def _diag(self, severity, span, code, message):
        self.diagnostics.append(ParseDiagnostic(severity, span, code, message))

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        if tok.kind == "lparen":
            self.depth += 1
        elif tok.kind == "rparen":
            self.depth -= 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self._diag("error", self._tok_span(tok), "syntax",
                       f"expected {what}, found {tok.text or 'end of file'!r}")
            raise _Halt()
        return tok

    def _recover(self):
        """Skip to the next plausible top-level axiom keyword."""
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                return
            if self.depth <= 1:
                if tok.kind == "rparen":
                    return  # let the caller close the enclosing block
                if tok.kind == "name" and ":" not in tok.text:
                    return
            self.next()

    def _close_axiom(self, keyword_tok: _Token):
        tok = self.next()
        if tok.kind == "rparen":
            return
        self._diag("error", self._tok_span(tok), "arity",
                   f"too many arguments to {keyword_tok.text}")
        raise _Halt()

    # -- leaf productions --

    def parse_name(self, what="entity name") -> tuple[Name, _Token]:
        tok = self.expect("name", what)
        if ":" not in tok.text:
            self._diag("error", self._tok_span(tok), "syntax",
                       f"expected {what}, found keyword {tok.text!r}")
            raise _Halt()
        prefix, _, local = tok.text.partition(":")
        if not local:
            self._diag("error", self._tok_span(tok), "syntax",
                       f"expected {what}, found bare prefix {tok.text!r}")
            raise _Halt()
        return Name(prefix, local), tok

    def parse_ref(self, kind: Optional[EntityKind], what="entity name") -> Name:
        name, tok = self.parse_name(what)
        self.references.append((name, kind, tok))
        return name

    def parse_class_names(self) -> list[Name]:
        names = []
        while self.peek().kind == "name":
            names.append(self.parse_ref(EntityKind.CLASS, "class name"))
        return names

    def _distinct(self, names: list[Name], tok: _Token, what: str) -> tuple:
        """``names`` as a tuple, or an arity error on ``tok`` unless at
        least two of them are distinct."""
        if len(set(names)) < 2:
            self._diag("error", self._tok_span(tok), "arity",
                       f"{tok.text} needs at least two distinct {what}")
            raise _Halt()
        return tuple(names)

    def parse_class_expr(self) -> ClassExpr:
        tok = self.peek()
        if tok.kind == "name" and tok.text == "ObjectUnionOf":
            self.next()
            self.expect("lparen", "'('")
            members = self.parse_class_names()
            end = self.next()
            if end.kind != "rparen":
                self._diag("error", self._tok_span(end), "syntax",
                           "expected ')' after ObjectUnionOf members")
                raise _Halt()
            return UnionOf(self._distinct(members, tok, "classes"))
        return self.parse_ref(EntityKind.CLASS, "class expression")

    def parse_literal(self) -> Literal:
        tok = self.expect("string", "literal")
        lexical = _unescape(tok.text)
        datatype = "xsd:string"
        if self.peek().kind == "dcaret":
            self.next()
            datatype = self.parse_datatype()
        return Literal(lexical, datatype)

    def parse_datatype(self) -> str:
        tok = self.expect("name", "datatype")
        if tok.text not in DATATYPES:
            self._diag("error", self._tok_span(tok), "datatype",
                       f"unsupported datatype {tok.text!r}")
            raise _Halt()
        return tok.text

    def parse_slot(self, slot, field: str, keyword_tok: _Token):
        """Parse one argument slot (see :data:`ontomap.model.AXIOM_SLOTS`)
        of the axiom that ``keyword_tok`` opened."""
        if slot == "expr":
            return self.parse_class_expr()
        if slot == "classes":
            return self._distinct(self.parse_class_names(), keyword_tok, field)
        if slot == "literal":
            return self.parse_literal()
        if slot == "datatype":
            return self.parse_datatype()
        if slot == "text":
            return self.parse_literal().lexical
        kind, noun = slot
        return self.parse_ref(kind, noun)

    # -- grammar --

    def parse_document(self):
        while self.peek().kind == "name" and self.peek().text == "Prefix":
            try:
                self.parse_prefix()
            except _Halt:
                self._recover()
        tok = self.next()
        if not (tok.kind == "name" and tok.text == "Ontology"):
            self._diag("error", self._tok_span(tok), "syntax",
                       "expected Ontology(...) block")
            return
        try:
            self.expect("lparen", "'('")
            iri = self.expect("iri", "ontology IRI")
            self.ontology_id = iri.text[1:-1]
        except _Halt:
            self._recover()
        while True:
            tok = self.peek()
            if tok.kind == "rparen":
                self.next()
                break
            if tok.kind == "eof":
                self._diag("error", self._tok_span(tok), "unterminated",
                           "unterminated Ontology(...) block")
                break
            try:
                self.parse_axiom()
            except _Halt:
                self._recover()
        tail = self.peek()
        if tail.kind != "eof":
            self._diag("error", self._tok_span(tail), "syntax",
                       "content after the Ontology(...) block")

    def parse_prefix(self):
        self.next()  # 'Prefix'
        self.expect("lparen", "'('")
        tok = self.expect("name", "prefix name")
        if not tok.text.endswith(":"):
            self._diag("error", self._tok_span(tok), "syntax",
                       "prefix declaration must end with ':'")
            raise _Halt()
        self.expect("eq", "'='")
        iri = self.expect("iri", "prefix IRI")
        self.expect("rparen", "')'")
        self.prefixes[tok.text[:-1]] = iri.text[1:-1]

    def parse_axiom(self):
        tok = self.next()
        if tok.kind != "name" or ":" in tok.text:
            self._diag("error", self._tok_span(tok), "syntax",
                       f"expected an axiom keyword, found {tok.text!r}")
            raise _Halt()
        if tok.text == "Declaration":
            self.parse_declaration()
            return
        entry = AXIOM_KEYWORDS.get(tok.text)
        if entry is None:
            self._diag("error", self._tok_span(tok), "unknown-keyword",
                       f"unknown axiom keyword {tok.text!r}")
            raise _Halt()
        ax_type, fixed = entry
        fields = dict(fixed)
        self.expect("lparen", "'('")
        if ax_type is Label:
            prop = self.expect("name", "annotation property")
        for field, slot in AXIOM_SLOTS[ax_type]:
            fields[field] = self.parse_slot(slot, field, tok)
        ax = ax_type(**fields)
        if ax_type is Label and prop.text != "rdfs:label":
            # only labels feed the pipeline; other annotations are dropped
            self._diag("warning", self._tok_span(prop), "annotation-dropped",
                       f"annotation property {prop.text!r} is not preserved")
            ax = None
        self._close_axiom(tok)
        if ax is not None:
            self.axioms.append(ax)

    def parse_declaration(self):
        self.expect("lparen", "'('")
        kind_tok = self.expect("name", "entity kind")
        kind = DECLARATION_KINDS.get(kind_tok.text)
        if kind is None:
            self._diag("error", self._tok_span(kind_tok), "unknown-keyword",
                       f"unknown declaration kind {kind_tok.text!r}")
            raise _Halt()
        self.expect("lparen", "'('")
        name, _tok = self.parse_name()
        self.expect("rparen", "')'")
        self.expect("rparen", "')'")
        self.declarations.add((name, kind))

    # -- finalization --

    def finish(self) -> ParseResult:
        onto = Ontology(
            ontology_id=self.ontology_id,
            declarations=frozenset(self.declarations),
            axioms=tuple(dict.fromkeys(self.axioms)),  # first occurrences
            prefixes=tuple(sorted(self.prefixes.items())),
        )
        for name, kind, tok in self.references:
            try:
                check_reference(onto, name, kind)
            except (UndeclaredEntity, KindMismatch) as error:
                code = ("undeclared" if isinstance(error, UndeclaredEntity)
                        else "kind-mismatch")
                self._diag("error", self._tok_span(tok), code, str(error))
        diagnostics = tuple(self.diagnostics)
        if any(d.severity == "error" for d in diagnostics):
            return ParseResult(None, diagnostics)
        return ParseResult(onto, diagnostics)


def parse(text: str) -> ParseResult:
    p = _Parser(text)
    p.parse_document()
    return p.finish()


def parse_file(path) -> ParseResult:
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read())


# --- serialization ----------------------------------------------------------

_KIND_ORDER = {
    EntityKind.CLASS: 0,
    EntityKind.OBJECT_PROPERTY: 1,
    EntityKind.DATA_PROPERTY: 2,
    EntityKind.INDIVIDUAL: 3,
}


def _render_expr(expr: ClassExpr) -> str:
    if isinstance(expr, Name):
        return str(expr)
    return "ObjectUnionOf(" + " ".join(str(m) for m in expr.members) + ")"


def _render_slot(value, slot) -> str:
    if slot == "expr":
        return _render_expr(value)
    if slot == "classes":
        return " ".join(map(str, value))
    if slot == "literal":
        suffix = "" if value.datatype == "xsd:string" else f"^^{value.datatype}"
        return f'"{_escape(value.lexical)}"{suffix}'
    if slot == "text":
        return f'"{_escape(value)}"'
    return str(value)  # a name or a datatype


def render_axiom(ax: Axiom) -> str:
    args = [_render_slot(getattr(ax, field), slot)
            for field, slot in AXIOM_SLOTS[type(ax)]]
    if isinstance(ax, Label):
        args.insert(0, "rdfs:label")
    return f"{axiom_keyword(ax)}({' '.join(args)})"


def serialize(o: Ontology) -> str:
    """Canonical text form: stable ordering, one axiom per line."""
    prefixes = dict(o.prefixes)
    used = {n.prefix for (n, _) in o.declarations}
    for ax in o.axioms:
        used.update(n.prefix for n, _ in axiom_signature(ax))
    base = o.ontology_id or "urn:ontomap"
    for p in sorted(used):
        if p not in prefixes:
            prefixes[p] = f"{base}#" if p == "" else f"{base}/{p}#"
    lines = [f"Prefix({p}:=<{iri}>)" for p, iri in sorted(prefixes.items())]
    lines.append(f"Ontology(<{o.ontology_id}>")
    for name, kind in sorted(o.declarations,
                             key=lambda nk: (_KIND_ORDER[nk[1]], nk[0])):
        lines.append(f"Declaration({kind.value}({name}))")
    logical = [render_axiom(ax) for ax in o.axioms if not isinstance(ax, Label)]
    lines.extend(sorted(logical, key=lambda line: (line.split("(", 1)[0], line)))
    annotations = [ax for ax in o.axioms if isinstance(ax, Label)]
    for ax in sorted(annotations, key=lambda a: (a.entity, a.text)):
        lines.append(render_axiom(ax))
    lines.append(")")
    return "\n".join(lines) + "\n"
