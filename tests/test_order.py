"""The one order on nodes: the key each node stores at construction sorts
every universe exactly as the recursive reference keys do."""

import random
from functools import cmp_to_key

import pytest

from ccspi.generate import (
    ccs_plus_terms_upto,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_pi,
)
from ccspi.pi import BoundName, FreeName, PiInput, PiNu, PiOutput, PiPar
from ccspi.syntax import parse_ccs, parse_pi
from ccspi.terms import Par, prefixes, sort_key
from order_reference import _ref_key, pi_sort_key, record_less
from order_reference import sort_key as ccs_sort_key

# `Record.__lt__` as it was: field by field
by_fields = cmp_to_key(lambda x, y: record_less(y, x) - record_less(x, y))


def _pi_subterms(roots):
    """Every subterm of the roots, open bodies included, each once, in a
    fixed order."""
    seen = {}
    todo = list(reversed(roots))
    while todo:
        t = todo.pop()
        if t in seen:
            continue
        seen[t] = None
        match t:
            case PiPar(parts=kids):
                todo.extend(reversed(kids))
            case PiInput(body=b) | PiOutput(body=b) | PiNu(body=b):
                todo.append(b)
    return list(seen)


def _pi_universe():
    rng = random.Random(14)
    sampled = [random_pi(rng, 6, 3, ("a", "b", "c")) for _ in range(500)]
    return (
        pi_terms_upto(3, 1, ("a", "b")),
        pi_terms_upto(2, 2, ("a", "b", "c")),
        _pi_subterms(sampled),
    )


def _same_order(xs, reference):
    # two total orders that sort a finite set identically agree on it
    xs = list(xs)
    random.Random(len(xs)).shuffle(xs)
    assert sorted(xs, key=sort_key) == sorted(xs, key=reference)


@pytest.mark.parametrize(
    "universe",
    [
        lambda: ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
        lambda: ccs_plus_terms_upto(3, prefix_alphabet(("a", "b", "c"))),
    ],
    ids=["ccs-5-ab", "ccs+-3-abc"],
)
def test_stored_keys_order_ccs_terms_as_the_reference(universe):
    terms = universe()
    _same_order(terms, ccs_sort_key)
    records = sorted({p for t in terms for p in prefixes(t)}, key=sort_key)
    _same_order(records, by_fields)
    assert sorted(records) == records  # Record.__lt__ reads the same keys


def test_stored_keys_order_pi_terms_as_the_reference():
    refs = set()
    for terms in _pi_universe():
        _same_order(terms, pi_sort_key)
        for t in terms:
            if isinstance(t, (PiInput, PiOutput)):
                refs.add(t.chan)
            if isinstance(t, PiOutput):
                refs.add(t.payload)
    assert {type(r) for r in refs} == {FreeName, BoundName}
    _same_order(refs, _ref_key)
    for cls in (FreeName, BoundName):
        same = sorted((r for r in refs if isinstance(r, cls)), key=sort_key)
        assert sorted(same) == same
        _same_order(same, by_fields)


def test_a_deep_chain_sorts_into_a_parallel_term():
    # the recursive reference key overflows the stack on a 5000-deep chain;
    # the stored key is built bottom-up as the chain is
    t = parse_ccs("a.b." * 2500 + "0 | c.0")
    assert isinstance(t, Par) and len(t.parts) == 2 and t.parts[1] is parse_ccs("c.0")
    u = parse_pi("a<b>." * 5000 + "0 | c<c>.0")
    assert isinstance(u, PiPar) and len(u.parts) == 2 and u.parts[1] is parse_pi("c<c>.0")
