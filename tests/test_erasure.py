"""Erasure from the pi fragment to sum-free CCS and the transfer of
bisimilarity along it."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspi.erasure import ErasureContext, check_erasure_transitions, erase
from ccspi.generate import random_pi
from ccspi.lts import transitions
from ccspi.pi import FreeName, PiInput, PiNu, ground_bisim
from ccspi.rewrite import decide_bisim
from ccspi.syntax import parse_ccs, parse_pi
from ccspi.terms import NIL, Act, Prefix

CTX = ErasureContext("a", "b")


def test_context_needs_distinct_names():
    with pytest.raises(ValueError, match="distinct"):
        ErasureContext("a", "a")


def test_erase_keeps_observed_prefixes_only():
    # inputs on a survive as a, outputs on b as 'b, everything else is cut
    assert erase(parse_pi("a(x).c<d>.0 | c(y).b<d>.0"), CTX) == parse_ccs("a.0")
    assert erase(parse_pi("(nu p)(b<p>.a(x).0)"), CTX) == parse_ccs("'b.a.0")
    assert erase(parse_pi("0"), CTX) == NIL
    assert erase(parse_pi("a<c>.0"), CTX) == NIL  # output on the input name
    assert erase(parse_pi("b(y).a(x).0"), CTX) == NIL


def test_erase_drops_restriction_but_not_its_body():
    assert erase(parse_pi("(nu p)(a(x).a(y).0 | p(z).0)"), CTX) == parse_ccs("a.a.0")
    # an unobserved prefix cuts its whole continuation
    assert erase(parse_pi("a(x).c<d>.a(y).0"), CTX) == parse_ccs("a.0")


def test_erasure_never_syncs():
    # a-inputs and 'b-outputs cannot meet, so the erasure is tau-free
    t = erase(parse_pi("a(x).0 | b<c>.0 | a<d>.0"), CTX)
    for action, _ in transitions(t):
        assert str(action) in {"a", "'b"}


def test_transition_correspondence_examples():
    for src in [
        "a(x).0 | a<b>.0",          # pi tau is allowed, just not mirrored
        "(nu p)(b<p>.a(x).0)",      # bound output counts as a b-output
        "c<d>.0",                   # erases to 0, vacuously fine
        "a(x).x<b>.0",              # received name disappears with erasure
        "b<a>.b<b>.0 | a(y).0",
    ]:
        assert check_erasure_transitions(parse_pi(src), CTX), src


# Faulty erasures, each written as a wrapper that treats the top node its
# own way and hands the rest to the real erase, which recurses back through
# the wrapper once it is patched in.
def _keep_unobserved_inputs(p, ctx):
    if isinstance(p, PiInput) and isinstance(p.chan, FreeName):
        return Act(Prefix(p.chan.name), erase(p.body, ctx))
    return erase(p, ctx)


def _drop_continuations(p, ctx):
    t = erase(p, ctx)
    return Act(t.prefix, NIL) if isinstance(t, Act) else t


def _restrictions_to_nil(p, ctx):
    return NIL if isinstance(p, PiNu) else erase(p, ctx)


@pytest.mark.parametrize(
    "fault, src",
    [
        (_keep_unobserved_inputs, "c(x).0"),
        (_drop_continuations, "a(x).a(y).0"),
        (_restrictions_to_nil, "(nu p)(b<p>.0)"),
    ],
    ids=["keep-unobserved-inputs", "drop-continuations", "restrictions-to-nil"],
)
def test_transition_correspondence_refutes_a_faulty_erasure(monkeypatch, fault, src):
    p = parse_pi(src)
    assert check_erasure_transitions(p, CTX)
    monkeypatch.setattr("ccspi.erasure.erase", fault)
    assert not check_erasure_transitions(p, CTX)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_transition_correspondence_random(seed):
    t = random_pi(random.Random(seed), 5, 2, ("a", "b", "c"))
    assert check_erasure_transitions(t, CTX)


def test_transfer_on_interleaving_law():
    p = parse_pi("a(x).0 | a(y).0")
    q = parse_pi("a(x).a(y).0")
    assert ground_bisim(p, q)
    assert decide_bisim(erase(p, CTX), erase(q, CTX))


def test_transfer_premise_fails_and_the_erasures_differ():
    p, q = parse_pi("a(x).0"), parse_pi("b(x).0")
    assert not ground_bisim(p, q)
    assert not decide_bisim(erase(p, CTX), erase(q, CTX))


def test_transfer_with_restriction_noise():
    # ground-bisimilar terms whose difference lives entirely off the
    # observed names still erase to the same class
    p = parse_pi("(nu p)(p(x).0) | b<c>.b<c>.0")
    q = parse_pi("b<c>.b<c>.0")
    assert ground_bisim(p, q)
    assert decide_bisim(erase(p, CTX), erase(q, CTX))
