"""The exhaustive mirrored-dependency searches, the contribution gap that
rules out a sum-free mirrored dependency, and substitution closure of strong
and distributed bisimilarity, checked by the deciders directly."""

import random

import pytest

from ccspi.distributed import dsim
from ccspi.generate import ccs_plus_terms_upto, ccs_terms_upto, prefix_alphabet
from ccspi.lts import Tau, bisimilar_oracle, transitions
from ccspi.mirrored import (
    DiagramMdWitness,
    _nested_firings,
    diagram_md_at,
    first_mirrored_pair,
    search_md_diagram,
    search_md_parallel_shape,
)
from ccspi.rewrite import normalize
from ccspi.syntax import parse_ccs, parse_ccs_plus
from ccspi.terms import NIL, Act, Par, Prefix, contribution, size, substitute
from md_reference import (
    diagram_md_at_reference,
    labelled_firings,
    pair_loop,
    search_md_parallel_shape_reference,
)


def test_contribution_gap_over_all_small_candidates():
    # every sum-free candidate keeps the eta1 contribution strictly apart:
    # at most size(t1) on the left, at least size(t1) + 2 on the right
    pool = ccs_terms_upto(3, prefix_alphabet(("a", "b")))
    moves = []
    for s in pool:
        for a, s1 in transitions(s):
            if not isinstance(a, Tau):
                moves.append((a, s, s1))
    checked = 0
    for eta1, s, s1 in moves:
        for eta2, t, t1 in moves:
            if eta1 == eta2:
                continue
            lo = contribution(Par((Act(eta2, s), t1)), eta1)
            hi = contribution(Par((s1, Act(eta1, t))), eta1)
            assert lo <= size(t1) < size(t1) + 2 <= hi
            checked += 1
    assert checked > 100


def test_no_parallel_shape_witness_small():
    assert search_md_parallel_shape(2, ("a", "b")) is None


@pytest.mark.parametrize(
    "names,size_bound",
    [(("a", "b"), n) for n in range(4)] + [(("a", "b", "c"), n) for n in range(3)],
)
def test_parallel_shape_join_matches_the_pair_loop(names, size_bound):
    assert search_md_parallel_shape(size_bound, names) == search_md_parallel_shape_reference(
        size_bound, names
    )


def normal_forms(moves):
    """The nf and nf_act tables of a move list, as the search builds them."""
    labels = {a for a, _, _ in moves}
    nf = {s1: normalize(s1) for _, _, s1 in moves}
    nf_act = {(a, s): normalize(Act(a, s)) for a in labels for _, s, _ in moves}
    return nf, nf_act


A, B, COA = Prefix("a"), Prefix("b"), Prefix("a", co=True)
a0, b0, coa0 = Act(A, NIL), Act(B, NIL), Act(COA, NIL)


def test_join_returns_the_first_witness():
    # moves made up, not derived: (0, 1), (0, 2) and (1, 0) are witnesses;
    # the first move is the outer one, and the second the earliest, though
    # its label 'b' sorts after the label 'a of move 2
    moves = [(A, NIL, Par((b0, coa0))), (B, NIL, Par((a0, coa0))), (COA, NIL, Par((a0, b0)))]
    w = first_mirrored_pair(moves, *normal_forms(moves))
    assert w == pair_loop(moves, *normal_forms(moves))
    assert (w.eta1, w.s1, w.eta2, w.t1) == (A, Par((b0, coa0)), B, Par((a0, coa0)))


def test_join_matches_the_pair_loop_on_made_up_moves():
    # few labels and residuals, so that about a fifth of the lists hold
    # a witness; a.a.0 normalizes to a.0 | a.0, so nf_act is not always
    # a single component
    residuals = [NIL, a0, b0, coa0, Par((a0, b0)), Par((a0, coa0)), Par((b0, coa0))]
    rng = random.Random(8)
    found = 0
    for _ in range(300):
        moves = [
            (rng.choice([A, B, COA]), rng.choice([NIL, NIL, a0]), rng.choice(residuals))
            for _ in range(rng.randint(4, 10))
        ]
        nf, nf_act = normal_forms(moves)
        w = pair_loop(moves, nf, nf_act)
        assert first_mirrored_pair(moves, nf, nf_act) == w
        found += w is not None
    assert found >= 50


@pytest.mark.parametrize(
    "calculus,names,size_bound,n_witnesses",
    [
        ("ccs", ("a", "b"), 4, 0),
        ("ccs+", ("a", "b"), 4, 6),
        ("ccs", ("a", "b", "c"), 3, 0),
        ("ccs+", ("a", "b", "c"), 3, 0),
    ],
    ids=["ccs-ab-4", "ccs+-ab-4", "ccs-abc-3", "ccs+-abc-3"],
)
def test_diagram_firings_match_the_labelled_semantics(calculus, names, size_bound, n_witnesses):
    # the firings read from lts are the labelled term's, and every term
    # gets the same diagram witness, or none, from both; the six size-4
    # witnesses are the sums eta1.eta2.0 + eta2.eta1.0
    enumerate_ = ccs_terms_upto if calculus == "ccs" else ccs_plus_terms_upto
    witnesses = 0
    for q in enumerate_(size_bound, prefix_alphabet(names)):
        assert set(_nested_firings(q)) == set(labelled_firings(q))
        w = diagram_md_at(calculus, q)
        assert w == diagram_md_at_reference(calculus, q)
        witnesses += w is not None
    assert witnesses == n_witnesses


def test_no_diagram_witness_sum_free():
    assert search_md_diagram("ccs", 3, ("a", "b")) is None


def test_diagram_witness_with_sums():
    w = search_md_diagram("ccs+", 4, ("a", "b"))
    assert isinstance(w, DiagramMdWitness)
    assert w.eta1 != w.eta2
    assert size(w.q) <= 4
    # the returned ends really are reachable and equivalent
    confirmed = diagram_md_at("ccs+", w.q)
    assert confirmed is not None


def test_diagram_at_expansion_sum():
    w = diagram_md_at("ccs+", parse_ccs_plus("a.'b.0 + 'b.a.0"))
    assert w is not None
    assert {str(w.eta1), str(w.eta2)} == {"a", "'b"}
    assert w.end_first == NIL and w.end_second == NIL


def test_diagram_at_needs_nesting():
    # two concurrent prefixes commute but neither is under the other
    assert diagram_md_at("ccs", parse_ccs("a.0 | 'b.0")) is None


def test_substitution_closure():
    l = parse_ccs_plus("a.0 | 'b.0")
    r = parse_ccs_plus("a.'b.0 + 'b.a.0")
    # strongly bisimilar by the expansion law, but identifying a and b lets
    # the left side synchronise and the right side not
    assert bisimilar_oracle(l, r)
    collapse = {"a": "p", "b": "p"}
    assert not bisimilar_oracle(substitute(l, collapse), substitute(r, collapse))
    injective = {"a": "c", "b": "d"}
    assert bisimilar_oracle(substitute(l, injective), substitute(r, injective))
    # distributed bisimilarity tells the two apart before any substitution
    assert not dsim(l, r)


def test_substitution_closure_sum_free():
    # bisimilar by the distribution law, and still so under every renaming
    p = parse_ccs("a.(b.0 | a.b.0)")
    q = parse_ccs("a.b.0 | a.b.0")
    assert bisimilar_oracle(p, q)
    for sigma in ({"a": "b"}, {"b": "a"}, {"a": "c", "b": "d"}, {}):
        assert bisimilar_oracle(substitute(p, sigma), substitute(q, sigma))
