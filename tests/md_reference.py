"""The parallel-shape mirrored-dependency search as a plain pair loop,
written apart from the hash join in `ccspi.mirrored` that it checks: every
ordered pair of moves builds both sides and compares the interned nodes."""

from ccspi.generate import ccs_terms_upto, prefix_alphabet
from ccspi.lts import Tau, transitions
from ccspi.mirrored import MdWitness
from ccspi.rewrite import normalize
from ccspi.terms import NIL, Act, Par, sort_key


def pair_loop(moves, nf, nf_act):
    """The first pair of moves, first move outer, whose two sides are one
    node; same contract as `ccspi.mirrored.first_mirrored_pair`."""
    for eta1, s, s1 in moves:
        for eta2, t, t1 in moves:
            if eta1 == eta2:
                continue
            if Par((nf_act[eta2, s], nf[t1])) is Par((nf[s1], nf_act[eta1, t])):
                return MdWitness(eta1, eta2, s, s1, t, t1, NIL)
    return None


def search_md_parallel_shape_reference(size_bound, names):
    """`ccspi.mirrored.search_md_parallel_shape` with the pair loop."""
    pool = ccs_terms_upto(size_bound, prefix_alphabet(names))
    moves = []
    for s in pool:
        visible = [(a, s1) for a, s1 in transitions(s) if not isinstance(a, Tau)]
        for a, s1 in sorted(visible, key=lambda e: (e[0], sort_key(e[1]))):
            moves.append((a, s, s1))
    nf = {s1: normalize(s1) for _, _, s1 in moves}
    labels = {a for a, _, _ in moves}
    nf_act = {(a, s): normalize(Act(a, s)) for a in labels for s in pool}
    return pair_loop(moves, nf, nf_act)
