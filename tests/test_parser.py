import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PHI1_TEXT, random_raw_formula
from oracles import ref_parse_formula
from foml.formulas import (
    And,
    Box,
    Diamond,
    Exists,
    Forall,
    Not,
    Or,
    Pred,
    clean_rename,
    to_nnf,
)
from foml.parser import ParseError, parse_formula, print_formula
from foml.testgen import GenConfig, gen_formula


def test_parse_exists_box():
    assert parse_formula("exists x. [] P(x)") == Exists(
        "x", Box(Pred("P", ("x",)))
    )


def test_parse_flagship_prefix():
    phi = parse_formula("<> forall x. ((exists y. [] [] P(x,y)) & [] [] ~P(x,x))")
    P = lambda *a: Pred("P", a)
    assert phi == Diamond(
        Forall(
            "x",
            And(
                Exists("y", Box(Box(P("x", "y")))),
                Box(Box(Not(P("x", "x")))),
            ),
        )
    )


def test_parse_arity_clash():
    with pytest.raises(ParseError, match="P"):
        parse_formula("P(x) & P(x,y)")


def test_parse_full_flagship_round_trips():
    phi = parse_formula(PHI1_TEXT)
    assert parse_formula(print_formula(phi)) == phi


def test_precedence_and_associativity():
    assert parse_formula("P(x) & Q(x) | R(x)") == Or(
        And(Pred("P", ("x",)), Pred("Q", ("x",))), Pred("R", ("x",))
    )
    p, q, r = Pred("P"), Pred("Q"), Pred("R")
    # `->` and `<->` associate to the right and desugar on parse.
    assert parse_formula("P -> Q -> R") == Or(Not(p), Or(Not(q), r))
    assert parse_formula("P <-> Q") == Or(And(p, q), And(Not(p), Not(q)))
    assert parse_formula("P <-> Q <-> R") == parse_formula("P <-> (Q <-> R)")
    assert parse_formula("P | Q -> R <-> P") == parse_formula("((P | Q) -> R) <-> P")


def test_quantifier_scope_is_maximal():
    phi = parse_formula("forall x. P(x) & Q(x)")
    assert isinstance(phi, Forall) and isinstance(phi.body, And)


def test_unicode_aliases():
    a = parse_formula("◇∀x.(¬P(x) ∨ □Q(x)) ∧ P(y)")
    b = parse_formula("<> forall x. (~P(x) | [] Q(x)) & P(y)")
    assert a == b


def test_comments_and_whitespace():
    text = "# leading note\nP(x)\n  & Q(x) # trailing\n"
    assert parse_formula(text) == And(Pred("P", ("x",)), Pred("Q", ("x",)))


def test_error_spans_point_inside_input():
    for text in ["P(x", "& Q(x)", "forall . P(x)", "P(x) @ Q(x)", ""]:
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        span = err.value.span
        assert 0 <= span.start <= span.end <= max(len(text), 1)


def test_variable_names_may_carry_the_separator_after_a_letter():
    """Certificates print instance binders such as `z@v1@v5`, so the parser
    reads `@` inside a name; a word cannot start with it."""
    phi = parse_formula("forall z@v1@v5. P(z@v1@v5, a)")
    assert phi == Forall("z@v1@v5", Pred("P", ("z@v1@v5", "a")))
    assert parse_formula(print_formula(phi)) is phi


@pytest.mark.parametrize(
    "text, message, span",
    [
        ("P(x) <- Q(x)", "stray '<'", (5, 6)),
        ("P - Q", "stray '-'", (2, 3)),
        ("[ P", "stray '['", (0, 1)),
        ("P @ Q", "unexpected character '@'", (2, 3)),
        ("Pé", "unexpected character 'é'", (1, 2)),
    ],
)
def test_tokenizer_errors_name_the_character_and_its_span(text, message, span):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert str(err.value) == f"{message} at {span[0]}..{span[1]}"
    assert (err.value.span.start, err.value.span.end) == span


def test_comments_end_a_line_and_diamond_aliases_mix():
    assert parse_formula("P # note") is Pred("P")
    assert parse_formula("<>◊P") is parse_formula("<><>P")


@given(st.integers(0, 1_000_000))
@settings(max_examples=500, deadline=None)
def test_round_trip_raw_formulas(seed):
    phi = random_raw_formula(random.Random(seed), 5, ["x", "u"])
    assert parse_formula(print_formula(phi)) == phi


@given(st.integers(0, 1_000_000))
@settings(max_examples=500, deadline=None)
def test_round_trip_generated_fragment(seed):
    phi = gen_formula(GenConfig(seed=seed))
    assert parse_formula(print_formula(phi)) == phi


@given(st.integers(0, 1_000_000))
@settings(max_examples=200, deadline=None)
def test_round_trip_after_normalization(seed):
    phi = clean_rename(to_nnf(random_raw_formula(random.Random(seed), 4, ["x"])))
    assert parse_formula(print_formula(phi)) == phi


# Pieces of text for the parser fuzz test: what may start an operand, what
# may follow one, and pieces that break the grammar or the tokenizer.
_OPERAND = (
    "P", "Q(x)", "R(x, y@v0)", "(", "~", "¬", "[]", "□", "<>", "◇", "◊",
    "forall x.", "exists y@v0 .", "∀x.", "∃ y.",
)
_AFTER = (")", "&", "∧", "|", "∨", "->", "→", "<->", "↔", "# note\n")
_WRONG = (
    "P(x", "Q(x,", "R()", "Q", "x", ".", ",", "forall", "exists x", "(", ")",
    "<", "-", "[", "@", "1", "é",
)


def token_soup(rng):
    """Up to 16 pieces, each one the grammar allows in 19 of 20 cases; most
    soups are then completed to a formula, so both outcomes are common."""
    parts, after = [], False
    for _ in range(rng.randint(0, 16)):
        piece = rng.choice(_WRONG if rng.random() < 0.05 else _AFTER if after else _OPERAND)
        parts.append(piece + rng.choice(("", " ")))
        if piece[0] != "#":
            after = piece[0].isupper() or piece == ")"
    if rng.random() < 0.8:
        text = "".join(parts)
        parts.append(("" if after else "P") + ")" * (text.count("(") - text.count(")")))
    return "".join(parts)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.span


def test_the_parser_agrees_with_the_recursive_descent_reference():
    """On the seed-2026 corpus texts and 20,000 seeded token soups, the
    parser returns the reference parser's node (`tests/oracles.py`), or
    raises its error message at its span."""
    cfg, gen = GenConfig(seed=2026), random.Random(2026)
    texts = [print_formula(gen_formula(cfg, gen)) for _ in range(1000)]
    rng = random.Random(29)
    texts += [token_soup(rng) for _ in range(20_000)]
    parsed = Counter()
    for text in texts:
        want, got = _outcome(ref_parse_formula, text), _outcome(parse_formula, text)
        assert got is want or (type(want) is tuple and got == want), text
        parsed[type(want) is not tuple] += 1
    assert parsed[True] > 5_000 and parsed[False] > 5_000
