"""Distributed transitions and distributed bisimilarity over guarded sums."""

import pytest

from ccspi.distributed import d_step, dsim, dsim_blocks
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
    # local 0 beside concurrent a.b.0; each pair state moves to both parts,
    # and a move with concurrent part 0 goes to its local part itself
    root = parse_ccs("a.b.0 | c.0")
    left, right = (parse_ccs("b.0"), parse_ccs("c.0")), (NIL, parse_ccs("a.b.0"))
    table = explore([root], d_step)
    assert set(table) == {
        root,
        left,
        right,
        parse_ccs("b.0"),  # local residual
        parse_ccs("c.0"),  # concurrent residual
        parse_ccs("a.b.0"),
        NIL,
    }
    assert set(table[root]) == {(Prefix("a"), left), (Prefix("c"), right)}
    assert set(table[left]) == {(0, parse_ccs("b.0")), (1, parse_ccs("c.0"))}
    assert table[parse_ccs("a.b.0")] == [(Prefix("a"), parse_ccs("b.0"))]
    assert table[parse_ccs("b.0")] == [(Prefix("b"), NIL)]


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
