"""Interleaving semantics and the partition-refinement oracle."""

import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccspi.distributed import d_step, dsim_blocks
from ccspi.generate import ccs_plus_terms_upto, ccs_terms_upto, pi_terms_upto, prefix_alphabet
from ccspi.lts import (
    TAU,
    Tau,
    bisimilar_oracle,
    d_transitions,
    distinguishing_depth,
    explore,
    refine_partition,
    transitions,
)
from ccspi.pi import pi_blocks, pi_step
from ccspi.syntax import parse_ccs, parse_ccs_plus, parse_pi
from ccspi.terms import NIL, Act, Par, Prefix, Var, size
from refinement_reference import (
    flat_explore,
    flat_pi_step,
    flat_signature,
    ks_depth,
    ks_partition,
    same_partition,
)
from transitions_reference import distinct

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
    got = transitions(parse_ccs("a.b.0"))
    assert distinct(got) == frozenset({(Prefix("a"), parse_ccs("b.0"))})
    assert distinct(transitions(NIL)) == frozenset()


def test_transitions_interleave_and_sync():
    got = transitions(parse_ccs("a.0 | 'a.0"))
    assert distinct(got) == frozenset(
        {
            (Prefix("a"), parse_ccs("'a.0")),
            (Prefix("a", co=True), parse_ccs("a.0")),
            (TAU, NIL),
        }
    )


def test_transitions_sum():
    got = transitions(parse_ccs_plus("a.b.0 + 'a.0"))
    assert distinct(got) == frozenset(
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
        joined = {(a, Par((loc, con))) for a, loc, con in d_transitions(t)}
        assert distinct(transitions(t)) == joined, t


def _edges(states):
    return {(s, a, tgt) for s in states for a, tgt in transitions(s)}


def test_reachable_states_shape():
    # hand enumeration: a.0 | 'a.0 reaches three proper successors
    root = parse_ccs("a.0 | 'a.0")
    table = explore([root], transitions)
    assert set(table) == {root, parse_ccs("a.0"), parse_ccs("'a.0"), NIL}
    # nothing is stored, but every call gives the same moves in the same order
    assert all(table[s] == transitions(s) for s in table)
    edges = _edges(table)
    assert len(edges) == 5
    assert (root, TAU, NIL) in edges


def test_reachable_states_degenerate():
    table = explore([NIL], transitions)
    assert list(table) == [NIL] and distinct(table[NIL]) == frozenset()
    table = explore([parse_ccs("a.0")], transitions)
    assert len(table) == 2 and len(_edges(table)) == 1


def _reachable(roots, step):
    """The states reachable from the roots, by a recursive walk apart from
    the loop in `explore`."""
    seen = set()

    def visit(s):
        if s not in seen:
            seen.add(s)
            for _, t in step(s):
                visit(t)

    for r in roots:
        visit(r)
    return seen


_PI_ROOTS = [
    (parse_pi("(nu p)(a<p>.p(x).x<b>.0) | a(y).y(z).0"), 0),
    (parse_pi("a(x).a(y).x<y>.0 | a<b>.b<a>.0"), 0),
]


@pytest.mark.parametrize(
    "step,roots",
    [
        (transitions, [parse_ccs("a.0 | 'a.0 | a.b.0"), parse_ccs("a.a.0 | 'a.b.0")]),
        (d_step, [parse_ccs_plus("(a.b.0 + 'b.0) | 'a.0 | b.0"), parse_ccs("a.a.0 | 'a.0")]),
        (pi_step(("a", "b"), "ground"), _PI_ROOTS),
        (pi_step(("a", "b"), "late"), _PI_ROOTS),
        (pi_step(("a", "b"), "early"), _PI_ROOTS),
    ],
    ids=["strong", "distributed", "pi-ground", "pi-late", "pi-early"],
)
def test_explore_steps_each_reachable_state_once(step, roots):
    calls = []

    def counted(s):
        calls.append(s)
        return step(s)

    table = explore(roots, counted)
    assert len(calls) == len(set(calls))
    assert set(calls) == set(table) == _reachable(roots, step)
    assert len(table) > len(roots)
    assert all(set(table[s]) == set(step(s)) for s in table)


@pytest.mark.parametrize(
    "step,roots",
    [
        (transitions, ccs_terms_upto(4, AB)),
        (d_step, ccs_plus_terms_upto(3, AB)),
        (pi_step(("a", "b"), "ground"), _PI_ROOTS),
        (pi_step(("a", "b"), "late"), _PI_ROOTS),
        (pi_step(("a", "b"), "early"), _PI_ROOTS),
    ],
    ids=["strong-size-4", "distributed-size-3", "pi-ground", "pi-late", "pi-early"],
)
def test_refine_partition_steps_each_reachable_state_once(step, roots):
    calls = []

    def counted(s):
        calls.append(s)
        return step(s)

    block = refine_partition(roots, counted)
    assert len(calls) == len(set(calls))
    assert set(calls) == set(block) == _reachable(roots, step)


class _Moves(list):
    """A moves list that a weak reference can watch."""


def test_refine_partition_lets_the_moves_of_a_signed_state_go():
    # a transition lowers the size, so a path from a root of size 4 holds at
    # most 5 states; one more tuple may still be in the pass's hands while
    # it steps the next state
    universe = ccs_terms_upto(4, AB)
    live = weakref.WeakValueDictionary()
    held = []

    def watched(s):
        held.append(len(live))
        live[len(held)] = moves = _Moves(transitions(s))
        return moves

    block = refine_partition(universe, watched)
    assert len(held) == len(block) == len(universe)
    assert max(held) <= 6


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
    block = refine_partition(roots, transitions)
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
    table = explore(universe, transitions)
    block = refine_partition(universe, transitions)
    assert block.keys() == table.keys()
    assert same_partition(block, ks_partition(table, strong_sig), table)


@pytest.mark.parametrize("mode", ["late", "early"])
def test_refine_partition_matches_reference_on_pi_tables(mode):
    # a late input moves to a "for all names" state, with one move per
    # instantiation name; some states here have two moves that differ only
    # in bisimilar successors
    roots, step = [(t, 0) for t in pi_terms_upto(3, 1, ("a",))], pi_step(("a",), mode)
    table = explore(roots, step)
    assert any(len(s) == 3 for s in table) == (mode == "late")

    def sig(s, block):
        return frozenset((a, block[t]) for a, t in table[s])

    block = refine_partition(roots, step)
    assert block.keys() == table.keys()
    assert same_partition(block, ks_partition(table, sig), table)


# pair and "for all names" states against the flat product moves -------------


def _flat_partition(roots, step):
    table = flat_explore(roots, step)
    return ks_partition(table, flat_signature(table)), table


def test_dsim_blocks_match_reference():
    # the flat moves are the distributed ones, (action, local, concurrent);
    # the engine's blocks hold the pair states as well
    universe = ccs_plus_terms_upto(4, AB)
    reference, table = _flat_partition(universe, d_transitions)
    block = dsim_blocks(universe)
    assert {s for s in block if type(s) is not tuple} == table.keys()
    assert same_partition(block, reference, table)


@pytest.mark.parametrize("mode", ["ground", "late", "early"])
@pytest.mark.parametrize(
    "bounds",
    [(3, 1, ("a", "b")), (2, 2, ("a", "b", "c"))],
    ids=["3-prefixes-1-nu-ab", "2-prefixes-2-nus-abc"],
)
def test_pi_blocks_match_the_flat_product_reference(bounds, mode):
    # a late input's flat move is (label, instance per name)
    universe = pi_terms_upto(*bounds)
    reference, table = _flat_partition([(t, 0) for t in universe], flat_pi_step(bounds[2], mode))
    block = pi_blocks(universe, bounds[2], mode)
    assert {s for s in block if len(s) == 2} == table.keys()
    assert same_partition(block, reference, table)


@given(st.lists(term_st(), min_size=1, max_size=4))
def test_refine_partition_matches_reference_on_random_roots(roots):
    table = explore(roots, transitions)
    block = refine_partition(roots, transitions)
    assert block.keys() == table.keys()
    assert same_partition(block, ks_partition(table, strong_sig), table)


def test_distinguishing_depth_matches_reference():
    universe = ccs_terms_upto(4, AB)
    rng = random.Random(5)
    for _ in range(300):
        p, q = rng.choice(universe), rng.choice(universe)
        expected = ks_depth(explore([p, q], transitions), strong_sig, p, q)
        assert distinguishing_depth(p, q) == expected, (p, q)


def test_refine_partition_rejects_a_state_space_that_is_not_well_founded():
    # a 2-cycle; a self-loop; a cycle met only below an acyclic prefix, one of
    # whose states is a pair state with a move to each part; each raises at
    # the state that closes its cycle
    for table, closer in (
        ({"x": [("r", "y")], "y": [("r", "x")]}, "x"),
        ({"x": [("r", "x")]}, "x"),
        (
            {
                "x": [("r", "y"), ("s", "z")],
                "y": [("r", "z")],
                "z": [("r", "wu")],
                "wu": [(0, "w"), (1, "u")],
                "w": [],
                "u": [("r", "v")],
                "v": [("s", "u")],
            },
            "u",
        ),
    ):
        with pytest.raises(ValueError, match=f"cycle through '{closer}'"):
            refine_partition(["x"], table.__getitem__)
    # a state met again on another path once it is signed closes no cycle
    diamond = {"x": [("r", "y"), ("s", "z")], "y": [("r", "w")], "z": [("r", "w")], "w": []}
    block = refine_partition(["x", "w"], diamond.__getitem__)
    assert block["y"] == block["z"] != block["x"]
