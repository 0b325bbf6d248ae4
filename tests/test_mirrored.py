"""The exhaustive mirrored-dependency searches, the contribution gap that
rules out a sum-free mirrored dependency, and substitution closure of strong
and distributed bisimilarity, checked by the deciders directly."""

from ccspi.distributed import dsim
from ccspi.generate import ccs_terms_upto, prefix_alphabet
from ccspi.lts import Tau, bisimilar_oracle, transitions
from ccspi.mirrored import (
    DiagramMdWitness,
    diagram_md_at,
    search_md_diagram,
    search_md_parallel_shape,
)
from ccspi.syntax import parse_ccs, parse_ccs_plus
from ccspi.terms import NIL, Act, Par, contribution, size, substitute


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
