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
    ORIGIN_SEP,
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
# matches. A word may carry `ORIGIN_SEP` after its first letter: instance
# binders are named `b@e` (`formulas.instance`), and certificates print them.
_TOKEN = re.compile(
    rf"""
    (?P<word>[A-Za-z][A-Za-z0-9_{ORIGIN_SEP}]*)
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


# Binding levels: `|` 1, `&` 2, and 3, the tightest, for every other kind.
_LEVEL = {Or: 1, And: 2}
_PREFIX = {Not: "~", Box: "[] ", Diamond: "<> "}


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula inverts it exactly.

    `&` and `|` associate to the left, so a right operand at the same level
    is parenthesised, and so is a left operand whose text ends in an open
    quantifier scope (`_ends_open`), which would swallow the operator on
    re-parse. The text is written off an explicit stack, so any depth
    prints."""
    parts: list[str] = []
    out = parts.append
    stack: list = [phi]
    push, pop = stack.append, stack.pop
    while stack:
        node = pop()
        t = type(node)
        if t is str:
            out(node)
        elif t is Pred:
            out(f"{node.name}({', '.join(node.args)})" if node.args else node.name)
        elif t is Exists or t is Forall:
            out(f"{node._op} {node.var}. ")
            push(node.body)
        elif t in _PREFIX:
            out(_PREFIX[t])
            body = node.body
            if type(body) in _LEVEL:
                stack += (")", body, "(")
            else:
                push(body)
        else:
            level, left, right = _LEVEL[t], node.left, node.right
            if _LEVEL.get(type(right), 3) <= level:
                stack += (")", right, "(")
            else:
                push(right)
            push(node._op)
            if _LEVEL.get(type(left), 3) < level or _ends_open(left):
                stack += (")", left, "(")
            else:
                push(left)
    return "".join(parts)


def _ends_open(phi: Formula) -> bool:
    """Whether phi's text ends in an open quantifier scope: its right spine,
    through unary bodies and unparenthesised right operands, reaches a
    quantifier. Each node lies on the spine of one left operand, so the
    checks of one print walk each node once."""
    while True:
        t = type(phi)
        if t is Exists or t is Forall:
            return True
        if t is Pred:
            return False
        if t in _LEVEL:
            if _LEVEL.get(type(phi.right), 3) <= _LEVEL[t]:
                return False
            phi = phi.right
        elif type(phi.body) in _LEVEL:
            return False
        else:
            phi = phi.body
