import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PHI1_TEXT, random_raw_formula
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
