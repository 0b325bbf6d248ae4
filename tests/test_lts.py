"""Interleaving semantics and the partition-refinement oracle."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccspi.distributed import d_reachable, dsim_blocks
from ccspi.generate import ccs_plus_terms_upto, ccs_terms_upto, prefix_alphabet
from ccspi.lts import (
    TAU,
    Tau,
    action_key,
    bisimilar_oracle,
    bisimulation_blocks,
    d_transitions,
    distinguishing_depth,
    reachable_states,
    refine_partition,
    transitions,
)
from ccspi.syntax import parse_ccs, parse_ccs_plus
from ccspi.terms import NIL, Act, Par, Prefix, Var, size
from refinement_reference import ks_depth, ks_partition, same_partition

AB = prefix_alphabet(("a", "b"))


def strong_sig(s, block):
    return frozenset((a, block[t]) for a, t in transitions(s))


def term_st():
    return st.recursive(
        st.just(NIL),
        lambda kids: st.one_of(
            st.builds(Act, st.builds(Prefix, st.sampled_from("ab"), st.booleans()), kids),
            st.lists(kids, min_size=2, max_size=3).map(Par),
        ),
        max_leaves=6,
    )


def test_transitions_prefix():
    assert transitions(parse_ccs("a.b.0")) == frozenset({(Prefix("a"), parse_ccs("b.0"))})
    assert transitions(NIL) == frozenset()


def test_transitions_interleave_and_sync():
    got = transitions(parse_ccs("a.0 | 'a.0"))
    assert got == frozenset(
        {
            (Prefix("a"), parse_ccs("'a.0")),
            (Prefix("a", co=True), parse_ccs("a.0")),
            (TAU, NIL),
        }
    )


def test_transitions_sum():
    got = transitions(parse_ccs_plus("a.b.0 + 'a.0"))
    assert got == frozenset(
        {(Prefix("a"), parse_ccs("b.0")), (Prefix("a", co=True), NIL)}
    )


def test_transitions_reject_open_terms():
    a, co_a = Act(Prefix("a"), NIL), Act(Prefix("a", co=True), NIL)
    for t in (Var("X"), Par((Var("X"), a)), Par((a, co_a, Var("X")))):
        with pytest.raises(ValueError):
            transitions(t)


@pytest.mark.parametrize(
    "universe",
    [ccs_terms_upto(5, AB), ccs_plus_terms_upto(3, AB)],
    ids=["sum-free-size-5", "ccs-plus-size-3"],
)
def test_transitions_join_the_distributed_ones(universe):
    for t in universe:
        joined = {(a, Par((loc, con))) for a, (loc, con) in d_transitions(t)}
        assert transitions(t) == joined, t


def test_tau_sorts_after_visible_actions():
    assert action_key(TAU) > action_key(Prefix("z", co=True))
    assert isinstance(TAU, Tau)


def _edges(states):
    return {(s, a, tgt) for s in states for a, tgt in transitions(s)}


def test_reachable_states_shape():
    # hand enumeration: a.0 | 'a.0 reaches three proper successors
    root = parse_ccs("a.0 | 'a.0")
    states = reachable_states([root])
    assert states == {root, parse_ccs("a.0"), parse_ccs("'a.0"), NIL}
    edges = _edges(states)
    assert len(edges) == 5
    assert (root, TAU, NIL) in edges


def test_reachable_states_degenerate():
    assert reachable_states([NIL]) == {NIL}
    assert transitions(NIL) == frozenset()
    states = reachable_states([parse_ccs("a.0")])
    assert len(states) == 2 and len(_edges(states)) == 1


@given(term_st())
def test_every_step_shrinks_the_term(t):
    # visible steps consume one prefix, synchronisations two; the graph is
    # therefore acyclic by measure
    for a, tgt in transitions(t):
        assert size(t) - size(tgt) == (2 if isinstance(a, Tau) else 1)


def test_oracle_basic_laws():
    assert bisimilar_oracle(parse_ccs("a.a.0"), parse_ccs("a.0 | a.0"))
    assert not bisimilar_oracle(parse_ccs("a.b.0"), parse_ccs("a.0 | b.0"))
    assert not bisimilar_oracle(parse_ccs("a.0"), parse_ccs("b.0"))
    assert bisimilar_oracle(NIL, NIL)
    assert not bisimilar_oracle(parse_ccs("a.0"), NIL)


@given(term_st())
def test_oracle_reflexive(t):
    assert bisimilar_oracle(t, t)


@given(term_st(), term_st(), term_st())
def test_oracle_congruence_under_par(p, q, r):
    if bisimilar_oracle(p, q):
        assert bisimilar_oracle(Par([p, r]), Par([q, r]))


def test_blocks_group_bisimilar_roots():
    roots = [
        parse_ccs("a.a.0"),
        parse_ccs("a.0 | a.0"),
        parse_ccs("a.b.0"),
        parse_ccs("a.0 | b.0"),
    ]
    block = bisimulation_blocks(roots)
    assert block[roots[0]] == block[roots[1]]
    assert len({block[r] for r in roots}) == 3


def test_distinguishing_depth():
    assert distinguishing_depth(parse_ccs("a.0"), parse_ccs("a.0")) is None
    assert distinguishing_depth(parse_ccs("a.0"), parse_ccs("b.0")) == 1
    assert distinguishing_depth(parse_ccs("a.b.0"), parse_ccs("a.0 | b.0")) == 1
    # both sides offer a; only the second move tells them apart
    assert distinguishing_depth(parse_ccs("a.a.0"), parse_ccs("a.0")) == 2


@given(term_st(), term_st())
def test_depth_agrees_with_oracle(p, q):
    d = distinguishing_depth(p, q)
    assert (d is None) == bisimilar_oracle(p, q)


# the one-pass engine against the Kanellakis-Smolka reference -----------------


@pytest.mark.parametrize(
    "universe",
    [ccs_terms_upto(4, AB), ccs_plus_terms_upto(3, AB)],
    ids=["sum-free-size-4", "ccs-plus-size-3"],
)
def test_refine_partition_matches_reference(universe):
    states = reachable_states(universe)
    assert same_partition(refine_partition(states), ks_partition(states, strong_sig), states)


def test_dsim_blocks_match_reference():
    steps = d_reachable(ccs_plus_terms_upto(3, AB))

    def pair_sig(s, block):
        return frozenset((a, block[loc], block[con]) for a, (loc, con) in steps[s])

    assert same_partition(dsim_blocks(steps), ks_partition(steps, pair_sig), steps)


@given(st.lists(term_st(), min_size=1, max_size=4))
def test_refine_partition_matches_reference_on_random_roots(roots):
    states = reachable_states(roots)
    assert same_partition(refine_partition(states), ks_partition(states, strong_sig), states)


def test_distinguishing_depth_matches_reference():
    universe = ccs_terms_upto(4, AB)
    rng = random.Random(5)
    for _ in range(300):
        p, q = rng.choice(universe), rng.choice(universe)
        expected = ks_depth(reachable_states([p, q]), strong_sig, p, q)
        assert distinguishing_depth(p, q) == expected, (p, q)


def test_refine_partition_rejects_a_state_space_that_is_not_well_founded():
    # a cycle; a read within one rank, even of a state listed first; a read upward
    for reads in ({"x": ["y"], "y": ["x"]}, {"y": [], "x": ["y"]}, {"x": ["yy"], "yy": []}):
        with pytest.raises(KeyError):
            refine_partition(reads, lambda s, block: tuple(block[t] for t in reads[s]), rank=len)
