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


# A token is a word (a keyword, predicate or variable), one of the longer
# operators, a comment, or any other non-blank character; `finditer` steps
# over blanks. A word may carry `ORIGIN_SEP` after its first letter: instance
# binders are named `b@e` (`formulas.instance`), and certificates print them.
_TOKEN = re.compile(rf"[A-Za-z][A-Za-z0-9_{ORIGIN_SEP}]*|<->|->|<>|\[\]|#.*|[^ \t\r\n]")

# The kind of each keyword and operator, aliases included; a quantifier's is
# its symbol. Any other word is its own kind: a predicate if it starts
# uppercase, else a variable.
_KIND = {
    "(": "(", ")": ")", ",": ",", ".": ".", "&": "&", "∧": "&", "|": "|",
    "∨": "|", "~": "~", "¬": "~", "<->": "<->", "↔": "<->", "->": "->",
    "→": "->", "<>": "<>", "◇": "<>", "◊": "<>", "[]": "[]", "□": "[]",
    "forall": "∀", "∀": "∀", "exists": "∃", "∃": "∃",
}
_STRAY = "-<["  # what starts an operator but is none


def _tokenize(text: str) -> tuple[list[str], list[re.Match]]:
    """Each token's kind, then "" for the end, and each token's match."""
    kinds: list[str] = []
    marks: list[re.Match] = []
    for m in _TOKEN.finditer(text):
        word = m.group()
        kind = _KIND.get(word)
        if kind is None:
            c = word[0]
            if c == "#":
                continue
            if c in _STRAY:
                raise ParseError(f"stray {word!r}", SourceSpan(*m.span()))
            if not ("a" <= c <= "z" or "A" <= c <= "Z"):
                raise ParseError(f"unexpected character {word!r}", SourceSpan(*m.span()))
            kind = word
        kinds.append(kind)
        marks.append(m)
    kinds.append("")
    return kinds, marks


def _at(text: str, marks: list[re.Match], i: int) -> tuple[str, SourceSpan]:
    """Token i's text and span; "" at the end of the input."""
    if i < len(marks):
        return marks[i].group(), SourceSpan(*marks[i].span())
    return "", SourceSpan(len(text), len(text))


def _expected(what: str, text: str, marks: list[re.Match], i: int) -> ParseError:
    found, span = _at(text, marks, i)
    return ParseError(f"expected {what}, found {found or 'end of input'!r}", span)


def _implies(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def _iff(a: Formula, b: Formula) -> Formula:
    return Or(And(a, b), And(Not(a), Not(b)))


# The operator stack holds (level, build) for a prefix operator or a binary
# one, (_QUANT, class, variable) for a quantifier head and (_OPEN,) for an open
# parenthesis, above a (_BOTTOM,) entry. A binary operator first reduces every
# entry at or above its floor: its own level when it associates to the left,
# the next one up when to the right. A quantifier's body runs to the closing
# parenthesis or the end of the input, which reduce down to the floor _QUANT.
_BOTTOM, _OPEN, _QUANT, _TIGHTEST = -2, -1, 0, 5
_UNARY = {"~": (_TIGHTEST, Not), "[]": (_TIGHTEST, Box), "<>": (_TIGHTEST, Diamond)}
_QUANTIFIER = {"∀": Forall, "∃": Exists}
_BINARY = {  # kind: (floor, entry)
    "&": (4, (4, And)),
    "|": (3, (3, Or)),
    "->": (3, (2, _implies)),
    "<->": (2, (1, _iff)),
}


def parse_formula(text: str) -> Formula:
    """Parse one formula. Raises ParseError with a span on bad input.

    One loop over the tokens with an explicit operator stack (operator
    precedence, after Pratt's "Top Down Operator Precedence"), so any depth
    parses. It reads an operand's prefix operators, quantifier heads and
    open parentheses up to a predicate, then the closing parentheses and
    the binary operator after it, reducing the stack as it goes."""
    kinds, marks = _tokenize(text)
    arities: dict[str, int] = {}
    values: list[Formula] = []
    ops: list[tuple] = [(_BOTTOM,)]
    opened = 0  # parentheses open
    i = 0
    while True:
        kind = kinds[i]
        i += 1
        if kind in _UNARY:
            ops.append(_UNARY[kind])
            continue
        if kind in _QUANTIFIER:
            var = kinds[i]
            if not "a" <= var[:1] <= "z":
                raise _expected("a variable", text, marks, i)
            if kinds[i + 1] != ".":
                raise _expected("'.'", text, marks, i + 1)
            ops.append((_QUANT, _QUANTIFIER[kind], var))
            i += 2
            continue
        if kind == "(":
            ops.append((_OPEN,))
            opened += 1
            continue
        if not "A" <= kind[:1] <= "Z":
            raise _expected("a formula", text, marks, i - 1)
        first, args = i - 1, []
        if kinds[i] == "(":
            while True:
                var = kinds[i + 1]
                if not "a" <= var[:1] <= "z":
                    raise _expected("a variable", text, marks, i + 1)
                args.append(var)
                i += 2
                if kinds[i] != ",":
                    break
            if kinds[i] != ")":
                raise _expected("')'", text, marks, i)
            i += 1
        known = arities.setdefault(kind, len(args))
        if known != len(args):
            raise ParseError(
                f"predicate {kind!r} used with arity {len(args)}, earlier with arity {known}",
                SourceSpan(marks[first].start(), marks[i - 1].end()),
            )
        values.append(Pred(kind, tuple(args)))
        while True:  # after an operand
            kind = kinds[i]
            i += 1
            floor, entry = _BINARY.get(kind, (_QUANT, None))
            while ops[-1][0] >= floor:
                op = ops.pop()
                if op[0] == _TIGHTEST:
                    values[-1] = op[1](values[-1])
                elif op[0] == _QUANT:
                    values[-1] = op[1](op[2], values[-1])
                else:
                    right = values.pop()
                    values[-1] = op[1](values[-1], right)
            if entry is not None:
                ops.append(entry)
                break
            if kind == ")" and opened:
                ops.pop()
                opened -= 1
            elif opened:
                raise _expected("')'", text, marks, i - 1)
            elif kind:
                found, span = _at(text, marks, i - 1)
                raise ParseError(f"unexpected {found!r} after formula", span)
            else:
                return values[0]


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
