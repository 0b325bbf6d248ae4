"""Distributed transitions and distributed bisimilarity over guarded sums."""

import pytest

from ccspi.distributed import dsim, dsim_blocks, perfect_matching
from ccspi.lts import TAU, bisimilar_oracle, d_transitions, explore
from ccspi.syntax import parse_ccs, parse_ccs_plus
from ccspi.terms import NIL, Prefix, Var, substitute


def test_d_transitions_prefix_and_par():
    assert d_transitions(parse_ccs("a.b.0")) == frozenset(
        {(Prefix("a"), parse_ccs("b.0"), NIL)}
    )
    assert d_transitions(parse_ccs("a.0 | b.0")) == frozenset(
        {
            (Prefix("a"), NIL, parse_ccs("b.0")),
            (Prefix("b"), NIL, parse_ccs("a.0")),
        }
    )
    assert d_transitions(NIL) == frozenset()


def test_d_transitions_sync_pairs_residuals():
    got = d_transitions(parse_ccs("a.b.0 | 'a.0"))
    assert (TAU, parse_ccs("b.0"), NIL) in got


def test_d_transitions_sum_and_errors():
    got = d_transitions(parse_ccs_plus("a.b.0 + 'a.0"))
    assert got == frozenset(
        {(Prefix("a"), parse_ccs("b.0"), NIL), (Prefix("a", co=True), NIL, NIL)}
    )
    with pytest.raises(ValueError):
        d_transitions(Var("X"))


def test_explore_closes_both_residuals():
    # hand enumeration: a moves to local b.0 beside concurrent c.0, and c to
    # local 0 beside concurrent a.b.0
    table = explore([parse_ccs("a.b.0 | c.0")], d_transitions)
    assert set(table) == {
        parse_ccs("a.b.0 | c.0"),
        parse_ccs("b.0"),  # local residual
        parse_ccs("c.0"),  # concurrent residual
        parse_ccs("a.b.0"),
        NIL,
    }
    assert table[parse_ccs("a.b.0 | c.0")] == {
        (Prefix("a"), parse_ccs("b.0"), parse_ccs("c.0")),
        (Prefix("c"), NIL, parse_ccs("a.b.0")),
    }


def test_expansion_separates_local_from_concurrent():
    # interleaving bisimilarity accepts the expansion; dsim rejects it
    # because the b happens locally on one side and concurrently on the other
    l = parse_ccs_plus("a.0 | 'b.0")
    r = parse_ccs_plus("a.'b.0 + 'b.a.0")
    assert bisimilar_oracle(l, r)
    assert not dsim(l, r)
    collapsed = {"a": "p", "b": "p"}
    assert not bisimilar_oracle(substitute(l, collapsed), substitute(r, collapsed))


def test_dsim_reflexive_and_congruent_examples():
    p = parse_ccs_plus("a.b.0 + b.a.0")
    assert dsim(p, p)
    assert dsim(parse_ccs("a.0 | b.0"), parse_ccs("b.0 | a.0"))
    assert not dsim(parse_ccs("a.b.0"), parse_ccs("a.0 | b.0"))


def test_dsim_implies_strong():
    from ccspi.generate import ccs_plus_terms_upto, prefix_alphabet

    terms = ccs_plus_terms_upto(2, prefix_alphabet(("a", "b")))
    for i, p in enumerate(terms):
        for q in terms[i + 1 :]:
            if dsim(p, q):
                assert bisimilar_oracle(p, q)


def test_dsim_blocks_consistent_with_dsim():
    terms = [parse_ccs_plus(s) for s in ["a.0", "a.0 + a.0", "a.b.0", "a.0 | b.0"]]
    block = dsim_blocks(terms)
    assert block[terms[0]] == block[terms[1]]  # idempotence is syntactic here
    assert block[terms[2]] != block[terms[3]]


def test_perfect_matching():
    a0, b0 = parse_ccs("a.0"), parse_ccs("b.0")
    eq = lambda x, y: x == y
    m = perfect_matching((a0, a0), (a0, a0), eq)
    assert m is not None and sorted(m, key=str) == [(a0, a0), (a0, a0)]
    assert perfect_matching((a0, b0), (a0, a0), eq) is None
    assert perfect_matching((a0,), (a0, b0), eq) is None
    assert perfect_matching((), (), eq) == []


def test_perfect_matching_augments():
    # the flexible vertex must give up its greedy partner
    r1, r2 = parse_ccs("a.0"), parse_ccs("b.0")
    flexible, picky = parse_ccs("a.a.0"), parse_ccs("b.b.0")
    rel = lambda x, y: True if x == flexible else y == r1
    got = perfect_matching((flexible, picky), (r1, r2), rel)
    assert got is not None
    pairing = dict(got)
    assert pairing[picky] == r1 and pairing[flexible] == r2
