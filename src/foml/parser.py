"""Text syntax for formulas: parser and pretty-printer.

Grammar, loosest to tightest: `<->`, `->` (both right-associative), `|`, `&`,
then the prefix operators `~`, `[]`, `<>` and dot-scoped quantifiers
`forall x.` / `exists x.`, whose body extends as far right as possible.
Predicates start uppercase, variables lowercase; arity is inferred from the
first occurrence and checked globally. Unicode connectives are accepted as
aliases. `#` starts a line comment.

`->` and `<->` are sugar and end here: `a -> b` parses as `~a | b`, and
`a <-> b` as `(a & b) | (~a & ~b)`, whose repeated operands are shared nodes.
The printer writes only `~`, `&`, `|`, so a printed formula shows its
desugared form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    Formula,
    FomlError,
    Not,
    Or,
    Pred,
)


@dataclass(frozen=True)
class SourceSpan:
    """Half-open offsets into the input text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end or self.start < 0:
            raise ValueError(f"bad span {self.start}..{self.end}")


class ParseError(FomlError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} at {span.start}..{span.end}")
        self.span = span


class _Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


# One named group per token kind, tried in order: `word` is a keyword,
# predicate or variable, `skip` a comment, and `stray` and `bad` catch what
# no token starts with. `finditer` steps over whitespace, which no group
# matches.
_TOKEN = re.compile(
    r"""
    (?P<word>[A-Za-z][A-Za-z0-9_]*)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<and>[&∧])
  | (?P<or>[|∨])
  | (?P<not>[~¬])
  | (?P<iff><->|↔)
  | (?P<implies>->|→)
  | (?P<diamond><>|[◇◊])
  | (?P<box>\[\]|□)
  | (?P<forall>∀)
  | (?P<exists>∃)
  | (?P<skip>\#[^\n]*)
  | (?P<stray>[-<\[])
  | (?P<bad>[^ \t\r\n])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        word = m.group()
        start, end = m.span()
        if kind == "word":
            if word in ("forall", "exists"):
                kind = word
            else:
                kind = "pred" if word[0].isupper() else "var"
        elif kind == "stray":
            raise ParseError(f"stray {word!r}", SourceSpan(start, end))
        elif kind == "bad":
            raise ParseError(f"unexpected character {word!r}", SourceSpan(start, end))
        toks.append(_Token(kind, word, start, end))
    toks.append(_Token("eof", "", len(text), len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.arities: dict[str, int] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, what: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            expected = what or f"'{kind}'"
            raise ParseError(
                f"expected {expected}, found {tok.text or 'end of input'!r}", tok.span
            )
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        phi = self.iff()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
        return phi

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek().kind == "iff":
            self.pos += 1
            right = self.iff()
            return Or(And(left, right), And(Not(left), Not(right)))
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "implies":
            self.pos += 1
            return Or(Not(left), self.implies())
        return left

    def disjunction(self) -> Formula:
        phi = self.conjunction()
        while self.peek().kind == "or":
            self.pos += 1
            phi = Or(phi, self.conjunction())
        return phi

    def conjunction(self) -> Formula:
        phi = self.unary()
        while self.peek().kind == "and":
            self.pos += 1
            phi = And(phi, self.unary())
        return phi

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "not":
            self.pos += 1
            return Not(self.unary())
        if tok.kind == "box":
            self.pos += 1
            return Box(self.unary())
        if tok.kind == "diamond":
            self.pos += 1
            return Diamond(self.unary())
        if tok.kind in ("forall", "exists"):
            self.pos += 1
            var = self.take("var", "a variable")
            self.take("dot", "'.'")
            body = self.iff()
            return (Forall if tok.kind == "forall" else Exists)(var.text, body)
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lparen":
            self.pos += 1
            phi = self.iff()
            self.take("rparen", "')'")
            return phi
        if tok.kind == "pred":
            self.pos += 1
            args: list[str] = []
            end = tok.end
            if self.peek().kind == "lparen":
                self.pos += 1
                args.append(self.take("var", "a variable").text)
                while self.peek().kind == "comma":
                    self.pos += 1
                    args.append(self.take("var", "a variable").text)
                end = self.take("rparen", "')'").end
            known = self.arities.setdefault(tok.text, len(args))
            if known != len(args):
                raise ParseError(
                    f"predicate {tok.text!r} used with arity {len(args)},"
                    f" earlier with arity {known}",
                    SourceSpan(tok.start, end),
                )
            return Pred(tok.text, tuple(args))
        raise ParseError(
            f"expected a formula, found {tok.text or 'end of input'!r}", tok.span
        )


def parse_formula(text: str) -> Formula:
    """Parse one formula. Raises ParseError with a span on bad input."""
    return _Parser(text).parse()


_LEVEL_OR = 1
_LEVEL_AND = 2
_LEVEL_UNARY = 3


def _render(phi: Formula) -> tuple[str, int, bool]:
    """Returns (text, precedence level, ends-in-open-quantifier-scope)."""
    if isinstance(phi, Pred):
        if phi.args:
            return f"{phi.name}({', '.join(phi.args)})", _LEVEL_UNARY, False
        return phi.name, _LEVEL_UNARY, False
    if isinstance(phi, (Not, Box, Diamond)):
        op = {"Not": "~", "Box": "[] ", "Diamond": "<> "}[type(phi).__name__]
        text, level, open_scope = _render(phi.body)
        if level < _LEVEL_UNARY:
            text, open_scope = f"({text})", False
        return op + text, _LEVEL_UNARY, open_scope
    if isinstance(phi, (Exists, Forall)):
        kw = "exists" if isinstance(phi, Exists) else "forall"
        body, _, _ = _render(phi.body)
        return f"{kw} {phi.var}. {body}", _LEVEL_UNARY, True
    if isinstance(phi, And):
        return _binary(phi, "&", _LEVEL_AND)
    return _binary(phi, "|", _LEVEL_OR)


def _binary(phi, op: str, level: int) -> tuple[str, int, bool]:
    """`&` and `|` associate to the left: a right child at the same level is
    parenthesised."""
    ltext, llevel, lopen = _render(phi.left)
    # The operator follows the left child, so an open quantifier scope there
    # would swallow it on re-parse.
    if llevel < level or lopen:
        ltext = f"({ltext})"
    rtext, rlevel, ropen = _render(phi.right)
    if rlevel <= level:
        rtext, ropen = f"({rtext})", False
    return f"{ltext} {op} {rtext}", level, ropen


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts it exactly."""
    return _render(phi)[0]
