"""Concrete syntax: parsing, printing, round trips."""

import itertools
import random

import pytest
import syntax_reference as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspi.generate import (
    ccs_plus_terms_upto,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_ccs_open,
    random_pi,
)
from ccspi.pi import PI_NIL, BoundName, FreeName, PiInput, PiOutput, late_transitions
from ccspi.syntax import (
    ParseError,
    parse_ccs,
    parse_ccs_plus,
    parse_pi,
    print_ccs,
    print_pi,
    print_term,
    tokenize,
)
from ccspi.terms import NIL, Act, Par, Prefix, Sum, Var


# parsing --------------------------------------------------------------------


def test_parse_ccs_basics():
    assert parse_ccs("0") == NIL
    assert parse_ccs("a.b.0") == Act(Prefix("a"), Act(Prefix("b"), NIL))
    assert parse_ccs("'a.0") == Act(Prefix("a", co=True), NIL)
    assert parse_ccs("a") == parse_ccs("a.0")
    assert parse_ccs("a.b") == parse_ccs("a.b.0")


def test_parse_ccs_par_and_grouping():
    assert parse_ccs("a.0 | b.0") == Par([parse_ccs("a.0"), parse_ccs("b.0")])
    assert parse_ccs("a.(b.0 | c.0)") == Act(Prefix("a"), parse_ccs("b.0 | c.0"))
    assert parse_ccs("((a.0))") == parse_ccs("a.0")
    assert parse_ccs("b.0|a.0") == parse_ccs("a.0 | b.0")  # canonical order


def test_parse_ccs_variables():
    assert parse_ccs("X") == Var("X")
    assert parse_ccs("a.X | Y") == Par([Act(Prefix("a"), Var("X")), Var("Y")])


def test_parse_precedence():
    # "." over "+" over "|"
    t = parse_ccs_plus("a.0 + b.0 | c.0")
    assert t == Par([Sum([parse_ccs("a.0"), parse_ccs("b.0")]), parse_ccs("c.0")])
    assert parse_ccs_plus("a.b + c") == Sum([parse_ccs("a.b.0"), parse_ccs("c.0")])


def test_parse_ccs_rejects_sums():
    with pytest.raises(ParseError, match="sums are not part of this calculus"):
        parse_ccs("a.0 + b.0")


def test_parse_ccs_plus_rejects_variables():
    with pytest.raises(ParseError, match="variables are not part of this calculus"):
        parse_ccs_plus("X")


def test_parse_sum_needs_guarded_summands():
    with pytest.raises(ParseError, match="summands must be prefixed"):
        parse_ccs_plus("a.0 + 0")
    with pytest.raises(ParseError, match="summands must be prefixed"):
        parse_ccs_plus("a.0 + (b.0 | c.0)")


def test_parse_error_reporting():
    with pytest.raises(ParseError) as exc:
        parse_ccs("a.0 |")
    assert exc.value.span.start == 5
    with pytest.raises(ParseError, match="unexpected character"):
        parse_ccs("a.0 ; b.0")
    with pytest.raises(ParseError, match="after the term"):
        parse_ccs("a.0 b.0")
    with pytest.raises(ParseError) as exc:
        parse_ccs("(a.0")
    assert "')'" in " or ".join(exc.value.expected)


# Each malformed input with the message, span and expected tokens of its
# ParseError.  A character that starts no token is reported before any
# parsing, wherever it sits.
MALFORMED = [
    ("ccs", "a.0 ; b.0", "unexpected character ';'", (4, 5), ()),
    ("ccs", "a.(b.0 | c.\u00e9)", "unexpected character '\u00e9'", (11, 12), ()),
    ("pi", "a(x).0 |\n  b<x>.0 $", "unexpected character '$'", (18, 19), ()),
    ("ccs", "a.+ ;", "unexpected character ';'", (4, 5), ()),
    ("ccs", "a.0 |", "unexpected end of input", (5, 5), ("a term",)),
    ("ccs+", "a.(b.0 + c.0", "unexpected end of input", (12, 12), ("')'",)),
    ("pi", "(nu p)(p(x).0", "unexpected end of input", (13, 13), ("')'",)),
    ("pi", "a(x).b", "a bare name is not a pi term", (5, 6), ("'('", "'<'")),
    ("ccs", "a.0 + b.0", "sums are not part of this calculus", (4, 5), ()),
    ("ccs+", "a.X", "variables are not part of this calculus", (2, 3), ()),
    ("ccs", "a.0 b.0", "unexpected 'b' after the term", (4, 5), ()),
    ("pi", "a(x).0 )", "unexpected ')' after the term", (7, 8), ()),
    ("ccs+", "a.0 + (b.0 | c.0)", "summands must be prefixed", (6, 7), ()),
    ("ccs", "'(a.0)", "unexpected '('", (1, 2), ("a name",)),
    ("pi", "a<b", "unexpected end of input", (3, 3), ("'>'",)),
    ("pi", "(nu)0", "unexpected ')'", (3, 4), ("a binder name",)),
]


@pytest.mark.parametrize("calculus, text, message, span, expected", MALFORMED)
def test_parse_error_message_span_and_expected(calculus, text, message, span, expected):
    parse = {"ccs": parse_ccs, "ccs+": parse_ccs_plus, "pi": parse_pi}[calculus]
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert (err.message, (err.span.start, err.span.end), err.expected) == (message, span, expected)


def _outcome(parse, text):
    """The node parse builds from text, or its error's message, span and
    expected tokens."""
    try:
        return parse(text)
    except ParseError as e:
        return (e.message, (e.span.start, e.span.end), e.expected)


def _mutants(count):
    """Printed random CCS, CCS+ and pi terms, each with one character
    inserted, deleted or replaced."""
    rng = random.Random(18)
    plus = ccs_plus_terms_upto(3, prefix_alphabet(("a", "b", "c")))
    chars = (";", "\u00e9", "1", "_", "<", ")", "(", " ", "\n")
    texts = []
    for i in range(count):
        if i % 3 == 0:
            text = print_ccs(random_ccs_open(rng, 6, ("X", "Y")))
        elif i % 3 == 1:
            text = print_ccs(rng.choice(plus))
        else:
            text = print_pi(random_pi(rng, 4, 2, ("a", "b", "c")))
        at = rng.randrange(len(text) + 1)
        edit = rng.choice(("insert", "delete", "replace"))
        if edit == "insert":
            text = text[:at] + rng.choice(chars) + text[at:]
        elif at < len(text):
            text = text[:at] + (rng.choice(chars) if edit == "replace" else "") + text[at + 1 :]
        texts.append(text)
    return texts


def test_tokenize_agrees_with_the_reference_on_every_short_text():
    # the first character that starts no token is found by one search, not
    # by a token scan; a digit or underscore is one only where no letter
    # precedes it in its run of identifier characters
    for k in range(5):
        for chars in itertools.product("0 1_aZ;\u00e9.", repeat=k):
            text = "".join(chars)
            try:
                expected = [tok[1] for tok in ref.tokenize(text)]
            except ParseError as e:
                expected = (e.message, e.span)
            try:
                got = tokenize(text)
            except ParseError as e:
                got = (e.message, e.span)
            assert got == expected, text


def test_parsers_agree_with_the_reference_on_mutated_terms():
    # the reference keeps each token's kind and offsets in a tuple; the
    # parsers read kinds off bare texts and find offsets only for an error
    outcomes = set()
    for text in _mutants(2000):
        for parse, reference in (
            (parse_ccs, ref.parse_ccs),
            (parse_ccs_plus, ref.parse_ccs_plus),
            (parse_pi, ref.parse_pi),
        ):
            got = _outcome(parse, text)
            assert got == _outcome(reference, text), text
            outcomes.add(got[0] if isinstance(got, tuple) else "parsed")
    # the texts reach parsed terms and errors of the tokenizer and parsers
    assert {"parsed", "a bare name is not a pi term", "summands must be prefixed"} < outcomes
    assert any(o.startswith("unexpected character") for o in outcomes)


@pytest.mark.parametrize("parse", [parse_ccs, parse_ccs_plus])
def test_deep_prefix_chain_parses(parse):
    t = parse("a.b." * 2500 + "0")
    for i in range(5000):  # a loop: a recursive walk would overflow the stack
        assert isinstance(t, Act) and t.prefix is Prefix("ab"[i % 2])
        t = t.cont
    assert t is NIL


def test_deep_pi_chain_parses():
    t = parse_pi("a(x)." * 5000 + "x<a>.0")
    for _ in range(5000):
        assert isinstance(t, PiInput) and t.chan is FreeName("a")
        t = t.body
    assert t == PiOutput(BoundName(0), FreeName("a"), PI_NIL)


def test_parse_pi_basics():
    assert parse_pi("0") == PI_NIL
    assert parse_pi("a(x)") == PiInput(FreeName("a"), PI_NIL)
    assert parse_pi("a(x).x<a>.0") == PiInput(
        FreeName("a"), PiOutput(BoundName(0), FreeName("a"), PI_NIL)
    )
    assert parse_pi("a<b>.0") == PiOutput(FreeName("a"), FreeName("b"), PI_NIL)
    assert parse_pi("(nu p)(p(x).0)") == parse_pi("(nu q)(q(y).0)")


def test_parse_pi_scoping():
    # the nu binder reaches to the end of its prefix chain
    t = parse_pi("(nu p)(a<p>.p(x).0)")
    assert t == parse_pi("(nu q)(a<q>.q(x).0)")
    shadowed = parse_pi("a(x).a(x).x<a>.0")
    inner = shadowed.body.body
    assert inner.chan == BoundName(0)  # the innermost x wins


def test_parse_pi_bare_name_is_an_error():
    with pytest.raises(ParseError, match="bare name"):
        parse_pi("a")
    with pytest.raises(ParseError):
        parse_pi("a(x).b")


def test_parse_pi_vacuous_nu():
    assert parse_pi("(nu p)(a(x).0)") == parse_pi("a(x).0")


# printing -------------------------------------------------------------------


def test_print_ccs():
    assert print_ccs(parse_ccs("a.('b.0 | a.0)")) == "a.(a.0 | 'b.0)"
    assert print_ccs(NIL) == "0"
    assert print_ccs(parse_ccs("a.X | Y")) == "a.X | Y"
    assert print_ccs(parse_ccs_plus("b.0 + a.0")) == "a.0 + b.0"


def test_print_pi_renames_shadowed_binders():
    t = parse_pi("a(x).a(x).x<a>.0")
    s = print_pi(t)
    assert s == "a(x).a(x1).x1<a>.0"
    assert parse_pi(s) == t


def test_print_pi_trailing_zero_always_there():
    assert print_pi(parse_pi("a(x)")) == "a(x).0"


def test_print_pi_rejects_open_terms():
    ((_, res),) = late_transitions(parse_pi("a(x).x<a>.0"))
    with pytest.raises(ValueError, match="dangling"):
        print_pi(res)


def test_print_term_dispatches():
    assert print_term(parse_ccs("a.0")) == "a.0"
    assert print_term(parse_pi("a(x).0")) == "a(x).0"


def test_roundtrip_enumerated():
    for t in ccs_terms_upto(3, prefix_alphabet(("a", "b"))):
        assert parse_ccs(print_ccs(t)) == t
    for t in ccs_plus_terms_upto(3, prefix_alphabet(("a", "b"))):
        assert parse_ccs_plus(print_ccs(t)) == t
    for t in pi_terms_upto(2, 1, ("a", "b")):
        assert parse_pi(print_pi(t)) == t


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_roundtrip_random_open_ccs(seed):
    t = random_ccs_open(random.Random(seed), 5, ("X", "Y"))
    assert parse_ccs(print_ccs(t)) == t


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_roundtrip_random_pi(seed):
    t = random_pi(random.Random(seed), 5, 2, ("a", "b", "c"))
    assert parse_pi(print_pi(t)) == t
