"""Line-oriented script language for declaring patches, sections and checks.

One statement per line; ``#`` starts a comment.  Declarations bind a name
exactly once (``patch``, ``algebroid``, ``jacobi``, ``bialgebroid``,
``lift``, ``form``, ``section``, ``scalar``, ``map``, ``let``) and ``check``
lines queue verdicts.  The expression language has ``+``/``-``, scalar
``*``, type-directed ``^`` (wedge, or wedge power against an integer),
map composition ``.``, unary minus, rational literals ``p/q``, function
calls, and tuple literals ``(a, b)`` for pair sections over an extension.

Check arguments are compact: a name, a number, a call, an optional leading
minus, or a parenthesized expression; anything with infix operators needs
the parentheses.  ``(sharp pi)`` and ``(flat omega)`` are graph-relation
literals for the pair checks.  Key=value options (``weak=true``) trail
the positional arguments.

This module only builds and prints the syntax tree; evaluation lives in
the command-line front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, TypeVar, Union


class ScriptError(Exception):
    """Syntax or evaluation problem, tagged with a source location."""

    def __init__(self, message: str, line: int, column: int = 0) -> None:
        super().__init__(f"line {line}: {message}")
        self.message = message
        self.line = line
        self.column = column


# The parser, the printer and the evaluator recurse on the expression tree;
# a line too deep for Python's stack is reported with this message.
TOO_DEEP = "expression nested too deeply"


# -- expression nodes -------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Call:
    func: str
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class Tup:
    items: Tuple["Expr", ...]


@dataclass(frozen=True)
class Neg:
    inner: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class GraphLit:
    kind: str
    inner: "Expr"


Expr = Union[Num, Name, Call, Tup, Neg, Bin, GraphLit]


# -- statements -------------------------------------------------------------

@dataclass(frozen=True)
class PatchDecl:
    name: str
    coords: Tuple[str, ...]
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class Decl:
    keyword: str
    name: str
    value: Expr
    line: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CheckStmt:
    subcommand: str
    args: Tuple[Expr, ...]
    options: Tuple[Tuple[str, str], ...]
    line: int = field(compare=False, default=0)


Statement = Union[PatchDecl, Decl, CheckStmt]


@dataclass(frozen=True)
class Script:
    statements: Tuple[Statement, ...]


DECL_KEYWORDS = (
    "algebroid",
    "bialgebroid",
    "form",
    "jacobi",
    "let",
    "lift",
    "map",
    "scalar",
    "section",
)


# -- tokenizer --------------------------------------------------------------

_PUNCT = "()=,+-*^."


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "number" | punctuation character
    text: str
    column: int


def _tokenize_line(text: str, line: int) -> List[_Token]:
    out: List[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("number", text[i:j], i))
            i = j
            continue
        if c == "/":
            out.append(_Token("/", c, i))
            i += 1
            continue
        if c in _PUNCT:
            out.append(_Token(c, c, i))
            i += 1
            continue
        raise ScriptError(f"unexpected character {c!r}", line, i)
    return out


# -- parser -----------------------------------------------------------------

T = TypeVar("T")


class _LineParser:
    def __init__(self, tokens: List[_Token], line: int) -> None:
        self.tokens = tokens
        self.line = line
        self.pos = 0

    def peek(self, ahead: int = 0) -> Optional[_Token]:
        """The token ``ahead`` places after the next one, or None past the end."""
        pos = self.pos + ahead
        return self.tokens[pos] if pos < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ScriptError("unexpected end of line", self.line)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            found = tok.text if tok else "end of line"
            raise ScriptError(
                f"expected {kind!r}, found {found!r}",
                self.line,
                tok.column if tok else 0,
            )
        return self.next()

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def comma_list(self, item: Callable[[], T]) -> List[T]:
        """One or more items separated by commas."""
        items = [item()]
        while self.peek() is not None and self.peek().kind == ",":
            self.next()
            items.append(item())
        return items

    # expression grammar: sums of products, right-to-left unary minus

    def parse_expr(self) -> Expr:
        node = self.parse_addend()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind in ("+", "-"):
                self.next()
                node = Bin(tok.kind, node, self.parse_addend())
            else:
                return node

    def parse_addend(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind in ("*", "^", "."):
                self.next()
                node = Bin(tok.kind, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            return Neg(self.parse_factor())
        return self.parse_primary()

    def integer(self, tok: _Token) -> int:
        # int() rejects a literal over the interpreter's digit limit and a
        # digit that is not decimal, such as a superscript
        try:
            return int(tok.text)
        except ValueError:
            raise ScriptError(
                "number too long or not decimal", self.line, tok.column
            ) from None

    def parse_primary(self, adjacent_call_only: bool = False) -> Expr:
        tok = self.next()
        if tok.kind == "number":
            numer = self.integer(tok)
            nxt, after = self.peek(), self.peek(1)
            if nxt is not None and nxt.kind == "/":
                if after is not None and after.kind == "number":
                    self.next()
                    denom = self.integer(self.next())
                    if denom == 0:
                        raise ScriptError("zero denominator", self.line, tok.column)
                    return Num(Fraction(numer, denom))
            return Num(Fraction(numer))
        if tok.kind == "name":
            nxt = self.peek()
            # in compact check-argument position, "name (" with a space is two
            # separate arguments, not a call
            if (
                nxt is not None
                and nxt.kind == "("
                and not (
                    adjacent_call_only
                    and nxt.column != tok.column + len(tok.text)
                )
            ):
                self.next()
                args: List[Expr] = []
                if self.peek() is not None and self.peek().kind != ")":
                    args = self.comma_list(self.parse_expr)
                self.expect(")")
                return Call(tok.text, tuple(args))
            return Name(tok.text)
        if tok.kind == "(":
            first, after = self.peek(), self.peek(1)
            if first is not None and first.kind == "name" and first.text in (
                "sharp",
                "flat",
            ):
                # distinguish the literal "(sharp pi)" from a call "(sharp(pi))"
                if after is not None and after.kind != "(":
                    kind = self.next().text
                    inner = self.parse_expr()
                    self.expect(")")
                    return GraphLit(kind, inner)
            items = self.comma_list(self.parse_expr)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return Tup(tuple(items))
        raise ScriptError(f"unexpected token {tok.text!r}", self.line, tok.column)

    # compact argument for check lines: optional minus + primary

    def parse_check_arg(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.next()
            return Neg(self.parse_primary(adjacent_call_only=True))
        return self.parse_primary(adjacent_call_only=True)


def _parse_statement(tokens: List[_Token], line: int) -> Statement:
    p = _LineParser(tokens, line)
    head = p.expect("name")
    if head.text == "patch":
        name = p.expect("name").text
        p.expect("=")
        p.expect("(")
        coords = p.comma_list(lambda: p.expect("name").text)
        p.expect(")")
        if not p.done():
            raise ScriptError("trailing tokens after patch declaration", line)
        return PatchDecl(name, tuple(coords), line)
    if head.text in DECL_KEYWORDS:
        name = p.expect("name").text
        p.expect("=")
        value = p.parse_expr()
        if not p.done():
            raise ScriptError("trailing tokens after declaration", line)
        return Decl(head.text, name, value, line)
    if head.text == "check":
        sub = p.expect("name").text
        args: List[Expr] = []
        options: List[Tuple[str, str]] = []
        while not p.done():
            tok, nxt = p.peek(), p.peek(1)
            if tok.kind == "name" and nxt is not None and nxt.kind == "=":
                key = p.next().text
                p.next()
                options.append((key, p.expect("name").text))
                continue
            if options:
                raise ScriptError("positional argument after options", line)
            args.append(p.parse_check_arg())
        return CheckStmt(sub, tuple(args), tuple(options), line)
    raise ScriptError(f"unknown statement {head.text!r}", line, head.column)


def parse(text: str) -> Script:
    statements: List[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, lineno)
        if not tokens:
            continue
        try:
            statements.append(_parse_statement(tokens, lineno))
        except RecursionError:
            raise ScriptError(TOO_DEEP, lineno) from None
    return Script(tuple(statements))


# -- printer ----------------------------------------------------------------

def render_expr(e: Expr) -> str:
    if isinstance(e, Num):
        if e.value.denominator == 1:
            return str(e.value.numerator)
        return f"{e.value.numerator}/{e.value.denominator}"
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, Call):
        return f"{e.func}({', '.join(render_expr(a) for a in e.args)})"
    if isinstance(e, Tup):
        return f"({', '.join(render_expr(a) for a in e.items)})"
    if isinstance(e, Neg):
        return f"-{_wrap(e.inner)}"
    if isinstance(e, Bin):
        return f"{_wrap(e.left)} {e.op} {_wrap(e.right)}"
    if isinstance(e, GraphLit):
        return f"({e.kind} {render_expr(e.inner)})"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expr) -> str:
    if isinstance(e, (Bin, Neg)):
        return f"({render_expr(e)})"
    return render_expr(e)


def render_statement(s: Statement) -> str:
    if isinstance(s, PatchDecl):
        return f"patch {s.name} = ({', '.join(s.coords)})"
    if isinstance(s, Decl):
        return f"{s.keyword} {s.name} = {render_expr(s.value)}"
    if isinstance(s, CheckStmt):
        parts = ["check", s.subcommand]
        parts += [render_expr(a) if isinstance(a, Neg) else _wrap(a) for a in s.args]
        for key, value in s.options:
            parts.append(f"{key}={value}")
        return " ".join(parts)
    raise TypeError(f"not a statement: {s!r}")


def render(script: Script) -> str:
    return "\n".join(render_statement(s) for s in script.statements) + "\n"
