"""Enumerators and random generators.  The enumeration counts are
cross-checked against an independent multiset-counting recurrence."""

import random
from collections import Counter
from math import comb

from ccspi.generate import (
    all_substitutions,
    ccs_plus_terms_upto,
    ccs_terms_of_size,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_ccs_open,
    random_pi,
)
import generate_reference as reference
import pi_reference
from canonical_form import is_canonical
from ccspi.pi import pi_size
from ccspi.syntax import print_pi
from ccspi.terms import Prefix, is_ground, size, variables


def _partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _micro_counts(n_prefixes, upto):
    """Terms of each exact size: a term is 0, a prefixed term, or a parallel
    multiset of >= 2 prefixed terms.  Multisets with repetition."""
    pref = {0: 0}
    total = {0: 1}
    for n in range(1, upto + 1):
        pref[n] = n_prefixes * total[n - 1]
        c = pref[n]
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            prod = 1
            for sz, mult in Counter(parts).items():
                prod *= comb(pref[sz] + mult - 1, mult)
            c += prod
        total[n] = c
    return total


def _plus_counts(n_prefixes, upto):
    """Same skeleton with guarded terms: prefixed, or a sum of >= 2 distinct
    prefixed terms (sets, not multisets)."""
    pref = {0: 0}
    guarded = {0: 0}
    total = {0: 1}
    for n in range(1, upto + 1):
        pref[n] = n_prefixes * total[n - 1]
        g = pref[n]
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            prod = 1
            for sz, mult in Counter(parts).items():
                prod *= comb(pref[sz], mult)
            g += prod
        guarded[n] = g
        c = g
        for parts in _partitions(n):
            if len(parts) < 2:
                continue
            prod = 1
            for sz, mult in Counter(parts).items():
                prod *= comb(guarded[sz] + mult - 1, mult)
            c += prod
        total[n] = c
    return total


ALPHABET = prefix_alphabet(("a", "b"))


def test_prefix_alphabet():
    assert ALPHABET == (
        Prefix("a"),
        Prefix("a", co=True),
        Prefix("b"),
        Prefix("b", co=True),
    )


def test_micro_counts_match_recurrence():
    expected = _micro_counts(len(ALPHABET), 5)
    for n in range(5):
        assert len(ccs_terms_of_size(n, ALPHABET)) == expected[n]
    # frozen values: 1, 4, 26, 188, 1499, 12628
    assert [expected[n] for n in range(6)] == [1, 4, 26, 188, 1499, 12628]
    assert len(ccs_terms_upto(4, ALPHABET)) == sum(expected[n] for n in range(5))
    assert len(ccs_terms_of_size(5, ALPHABET)) == 12628


def test_plus_counts_match_recurrence():
    expected = _plus_counts(len(ALPHABET), 4)
    got = ccs_plus_terms_upto(3, ALPHABET)
    assert len(got) == sum(expected[n] for n in range(4)) == 341
    # size 4 is the first with sums over the partitions 2+2 and 3+1
    got = ccs_plus_terms_upto(4, ALPHABET)
    assert len(got) == sum(expected[n] for n in range(5)) == 3578


def test_enumerations_are_canonical_and_deterministic():
    terms = ccs_terms_upto(3, ALPHABET)
    assert terms == ccs_terms_upto(3, ALPHABET)
    assert len(set(terms)) == len(terms)
    assert all(is_canonical(t) and is_ground(t) for t in terms)
    sizes = [size(t) for t in terms]
    assert sizes == sorted(sizes)  # smallest first


def test_pi_enumeration_tiny_hand_counts():
    # over a single free name: 0, a(x).0, a<a>.0
    assert len(pi_terms_upto(1, 0, ("a",))) == 3
    # a restriction binding nothing is dropped, so only 0 remains
    assert len(pi_terms_upto(0, 1, ("a",))) == 1
    # adds p(x).0, p<a>.0, p<p>.0, a<p>.0 under one restriction
    assert len(pi_terms_upto(1, 1, ("a",))) == 7


def test_pi_enumeration_properties():
    terms = pi_terms_upto(2, 1, ("a", "b"))
    assert len(terms) == len(set(terms)) == 335  # regression pin
    for t in terms:
        assert pi_reference.dangling(t) == frozenset()
        assert is_canonical(t)
        assert pi_size(t) <= 2
    sizes = [pi_size(t) for t in terms]
    assert sizes == sorted(sizes)


def test_random_ccs_open_bounds():
    rng = random.Random(5)
    for _ in range(200):
        t = random_ccs_open(rng, 4, ("X", "Y"))
        assert is_canonical(t)
        assert variables(t) <= {"X", "Y"}


def test_random_pi_bounds():
    rng = random.Random(6)
    for _ in range(200):
        t = random_pi(rng, 4, 2, ("a", "b"))
        assert is_canonical(t)
        assert pi_reference.dangling(t) == frozenset()
        assert pi_size(t) <= 4


def test_random_generators_deterministic():
    a = [random_pi(random.Random(1), 4, 1, ("a", "b")) for _ in range(5)]
    b = [random_pi(random.Random(1), 4, 1, ("a", "b")) for _ in range(5)]
    assert a == b


# printed by the generator that built a fresh channel list at every node
FIRST_RANDOM_PI = [
    'c<c>.(nu p)(a(x).b(x1).0 | a(x).a<p>.0)',
    'a<a>.a<c>.0',
    'c(x).0',
    '(nu p)(b(x).(a(x1).c<p>.0 | p<c>.0) | b<b>.0 | c<a>.0)',
    'c<b>.0',
    'c<a>.b(x).(c(x1).0 | x(x1).c<b>.0)',
    'c(x).b(x1).x<a>.c(x2).x(x3).c(x4).0',
    'a(x).x<b>.(nu p)(b(x1).0 | a<p>.b<x>.x(x1).0)',
    'a<a>.(nu p)((nu p1)(c<p>.p1<c>.0))',
    'b<b>.c<c>.c(x).a(x1).0',
    'a(x).(c(x1).b<b>.0 | (nu p)(a(x1).(b<p>.0 | x<x>.0)))',
    'a<c>.0',
    'b(x).0 | b<a>.0 | c<b>.c<b>.b<b>.c(x).0',
    'b(x).b(x1).x(x2).a(x3).x3(x4).a<x4>.0',
    'b(x).a<c>.(nu p)(p(x1).0)',
    '0',
    'b(x).b(x1).0 | b<b>.c<a>.0',
    'a(x).a(x1).0',
    '0',
    '0',
    '0',
    'a(x).0',
    'b<b>.a<a>.c(x).x(x1).a(x2).x(x3).0',
    'c(x).c(x1).x1<b>.a<c>.a<b>.a(x2).0',
    'c<c>.(a<c>.0 | (nu p)(b(x).b<a>.p<p>.c<x>.0))',
    'c<c>.b(x).a(x1).c(x2).c<x>.x1(x3).0',
    'c<c>.c(x).b(x1).x1<c>.c(x2).0',
    '(nu p)(b(x).0 | c(x).0 | (nu p1)(p1(x).0 | p(x).p1<x>.0))',
    'a<a>.b<b>.0 | a<c>.0',
    '0',
    'c(x).(b(x1).(c<c>.0 | c<x1>.0) | c(x1).0 | c(x1).0)',
    'a<c>.b<a>.b<b>.b(x).c(x1).x1<a>.0',
    '0',
    '0',
    'c(x).(nu p)(p<c>.c<b>.x<c>.(nu p1)(x<p1>.0))',
    'b(x).a(x1).0 | a<a>.(nu p)(p(x).(c(x1).0 | b<c>.0))',
    'c<b>.(b(x).x(x1).0 | c(x).0)',
    'b<b>.b(x).x(x1).(b(x2).0 | x<x1>.0)',
    'a(x).0 | a<a>.(a(x).0 | a(x).0 | b(x).0) | c<b>.0',
    '0',
    'c(x).0',
    'b<a>.a<a>.b(x).0',
    'b(x).(a(x1).0 | c(x1).0 | b<a>.x(x1).0)',
    'a(x).(x<a>.0 | (nu p)(a(x1).(b(x2).c(x3).0 | a<p>.0)))',
    'b(x).0',
    '0',
    'a<a>.a<c>.0',
    'c(x).x<a>.b(x1).(a(x2).0 | x(x2).a(x3).0)',
    'c<b>.a(x).a<c>.x<b>.0',
    'a<a>.0 | a<c>.0 | b<a>.0',
]


def test_random_pi_keeps_its_sequence():
    """The suites' random pi inputs stay the same: the generator makes the
    same rng calls in the same order for a fixed seed."""
    rng = random.Random(20250825)
    got = [print_pi(random_pi(rng, 6, 2, ("a", "b", "c"))) for _ in range(50)]
    assert got == FIRST_RANDOM_PI


def test_all_substitutions():
    subs = all_substitutions(("a", "b"), ("a", "b"))
    assert len(subs) == 4
    assert {"a": "a", "b": "a"} in subs
    assert all(set(s.keys()) == {"a", "b"} for s in subs)


def test_universes_match_the_product_and_dedup_reference():
    """Each universe, built once per multiset of components, is the one the
    product-and-dedup enumerators built: the same terms in the same order,
    none twice."""
    for names, bound in ((("a", "b"), 5), (("a", "b", "c"), 4)):
        alphabet = prefix_alphabet(names)
        got = ccs_terms_upto(bound, alphabet)
        assert got == reference.ccs_terms_upto(bound, alphabet)
        assert len(set(got)) == len(got)
    for names, bound in ((("a", "b"), 4), (("a", "b", "c"), 3)):
        alphabet = prefix_alphabet(names)
        got = ccs_plus_terms_upto(bound, alphabet)
        assert got == reference.ccs_plus_terms_upto(bound, alphabet)
        assert len(set(got)) == len(got)
    for bounds in ((3, 1, ("a", "b")), (2, 2, ("a", "b", "c"))):
        got = pi_terms_upto(*bounds)
        assert got == reference.pi_terms_upto(*bounds)
        assert len(set(got)) == len(got)
