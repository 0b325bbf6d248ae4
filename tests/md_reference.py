"""Reference versions of the two mirrored-dependency searches, written apart
from `ccspi.mirrored` that they check.

The parallel shape as a plain pair loop: every ordered pair of moves builds
both sides and compares the interned nodes, where `ccspi.mirrored` hash-joins.

The diagram shape over a labelled mirror of the term, with a unique id on
every prefix occurrence, stepped by its own firing rules: a second firing is
under the first when its id occurs in the first prefix's continuation.
`ccspi.mirrored` derives the same firings from `lts.d_transitions` instead.
"""

from ccspi.generate import ccs_terms_upto, prefix_alphabet
from ccspi.lts import Tau, transitions
from ccspi.mirrored import DiagramMdWitness, MdWitness, _default_equiv
from ccspi.rewrite import normalize
from ccspi.terms import NIL, Act, Par, Prefix, Sum, Term, sort_key


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


def _label_term(t: Term, counter: list[int]):
    """Mirror of the canonical term with a unique id on every prefix node:
    ('act', id, prefix, cont) / ('par'|'sum', children) / ('nil',)."""
    match t:
        case Act(prefix=p, cont=c):
            node_id = counter[0]
            counter[0] += 1
            return ("act", node_id, p, _label_term(c, counter))
        case Par(parts=ps):
            return ("par", tuple(_label_term(p, counter) for p in ps))
        case Sum(parts=ps):
            return ("sum", tuple(_label_term(p, counter) for p in ps))
        case _:
            return ("nil",)


def _prefix_ids(lt) -> frozenset[int]:
    match lt:
        case ("act", node_id, _, cont):
            return _prefix_ids(cont) | {node_id}
        case ("par", children) | ("sum", children):
            return frozenset().union(*(_prefix_ids(c) for c in children)) if children else frozenset()
        case _:
            return frozenset()


def _under_map(lt, acc: dict) -> None:
    """For each prefix occurrence, the ids nested inside its continuation."""
    match lt:
        case ("act", node_id, _, cont):
            acc[node_id] = _prefix_ids(cont)
            _under_map(cont, acc)
        case ("par", children) | ("sum", children):
            for c in children:
                _under_map(c, acc)


def _ltransitions(lt) -> list[tuple[Prefix, int, object]]:
    """Visible firings of a labelled term, keeping all other ids intact."""
    match lt:
        case ("act", node_id, p, cont):
            return [(p, node_id, cont)]
        case ("sum", children):
            out = []
            for c in children:
                out.extend(_ltransitions(c))
            return out
        case ("par", children):
            out = []
            for i, c in enumerate(children):
                rest = children[:i] + children[i + 1 :]
                for p, node_id, res in _ltransitions(c):
                    out.append((p, node_id, ("par", rest + (res,))))
            return out
        case _:
            return []


def _strip(lt) -> Term:
    match lt:
        case ("act", _, p, cont):
            return Act(p, _strip(cont))
        case ("par", children):
            return Par(_strip(c) for c in children)
        case ("sum", children):
            return Sum(_strip(c) for c in children)
        case _:
            return NIL


def labelled_firings(q):
    """The (eta1, eta2, end) two-step firings of q with the second prefix
    under the first, in the order of the labelled term, repeats included."""
    lt = _label_term(q, [0])
    under = {}
    _under_map(lt, under)
    seqs = []
    for p1, id1, lt1 in _ltransitions(lt):
        for p2, id2, lt2 in _ltransitions(lt1):
            if id2 in under[id1]:
                seqs.append((p1, p2, _strip(lt2)))
    return seqs


def diagram_md_at_reference(calculus, q):
    """`ccspi.mirrored.diagram_md_at` over the labelled firings."""
    equiv = _default_equiv(calculus)
    seqs = labelled_firings(q)
    for eta1, eta2, end1 in seqs:
        if eta1 == eta2:
            continue
        for b1, b2, end2 in seqs:
            if b1 == eta2 and b2 == eta1 and equiv(end1, end2):
                return DiagramMdWitness(q, eta1, eta2, end1, end2)
    return None
