"""Mirrored dependencies: two distinct prefixes firing in either order with
the second occurrence nested under the first, ending in equivalent states.

Sum-free CCS admits no mirrored dependency: a component headed by one
prefix cannot also contribute the other prefix's size at the top level
(the contribution measure is preserved by bisimilarity but differs between
the two sides).  With guarded sums the diagram shape becomes satisfiable,
for instance by a.'b.0 + 'b.a.0, which is why strong bisimilarity stops
being substitution closed there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable

from .generate import ccs_plus_terms_upto, ccs_terms_upto, prefix_alphabet
from .lts import Tau, bisimilar_oracle, d_transitions, transitions
from .rewrite import decide_bisim, normalize
from .terms import NIL, Act, Par, Prefix, Term, parallel_components, sort_key

Equivalence = Callable[[Term, Term], bool]


def _default_equiv(calculus: str) -> Equivalence:
    if calculus == "ccs":
        return decide_bisim
    if calculus == "ccs+":
        return bisimilar_oracle
    raise ValueError(f"unknown calculus: {calculus}")


@dataclass(frozen=True)
class MdWitness:
    """A parallel-shape candidate: s -eta1-> s1, t -eta2-> t1 and
    eta2.s | t1 | r is equivalent to s1 | eta1.t | r."""

    eta1: Prefix
    eta2: Prefix
    s: Term
    s1: Term
    t: Term
    t1: Term
    r: Term


def search_md_parallel_shape(size_bound: int, names: tuple[str, ...]) -> MdWitness | None:
    """Exhaustive search for a sum-free mirrored dependency with per-component
    size bound.  The parallel context r is fixed to 0: normal forms compose
    componentwise under parallel, so the two sides are bisimilar with some r
    iff they are bisimilar with r = 0 (cancellation).  The same property lets
    each component be normalized once, before the pairs are matched; the two
    sides are bisimilar iff nf(eta2.s) | nf(t1) is nf(s1) | nf(eta1.t).
    """
    pool = ccs_terms_upto(size_bound, prefix_alphabet(names))
    moves: list[tuple[Prefix, Term, Term]] = []
    for s in pool:
        visible = [(a, s1) for a, s1 in transitions(s) if not isinstance(a, Tau)]
        for a, s1 in sorted(visible, key=lambda e: (e[0], sort_key(e[1]))):
            moves.append((a, s, s1))
    nf = {s1: normalize(s1) for _, _, s1 in moves}
    labels = {a for a, _, _ in moves}
    nf_act = {(a, s): normalize(Act(a, s)) for a in labels for s in pool}
    return first_mirrored_pair(moves, nf, nf_act)


def _difference(plus: Term, minus: Term) -> frozenset[tuple[Term, int]]:
    """The parallel components of plus less those of minus, as a signed
    multiset: each component with its nonzero count."""
    count = Counter(parallel_components(plus))
    count.subtract(parallel_components(minus))
    return frozenset(item for item in count.items() if item[1])


def first_mirrored_pair(
    moves: list[tuple[Prefix, Term, Term]],
    nf: dict[Term, Term],
    nf_act: dict[tuple[Prefix, Term], Term],
) -> MdWitness | None:
    """The first pair of moves (eta1, s, s1), (eta2, t, t1), in the order of
    `moves` with the first move outer, such that eta1 != eta2 and
    Par((nf_act[eta2, s], nf[t1])) is Par((nf[s1], nf_act[eta1, t])).

    A canonical `Par` is a multiset of components, so the equation holds
    iff comps(nf_act[eta2, s]) - comps(nf[s1]) equals
    comps(nf_act[eta1, t]) - comps(nf[t1]) as signed multisets: the left
    side depends on the first move and eta2 only, the right side on the
    second move and eta1 only.  A hash join on these keys finds the pair in
    O(moves x labels) instead of trying every pair.
    """
    labels = sorted({a for a, _, _ in moves})
    first: dict[tuple, int] = {}
    for j, (eta2, t, t1) in enumerate(moves):
        for eta1 in labels:
            if eta1 != eta2:
                first.setdefault((eta1, eta2, _difference(nf_act[eta1, t], nf[t1])), j)
    for eta1, s, s1 in moves:
        hits = {
            first.get((eta1, eta2, _difference(nf_act[eta2, s], nf[s1])))
            for eta2 in labels
            if eta2 != eta1
        }
        hits.discard(None)
        if hits:
            eta2, t, t1 = moves[min(hits)]
            return MdWitness(eta1, eta2, s, s1, t, t1, NIL)
    return None


# --------------------------------------------------------------------------
# diagram shape: two-step firings in both orders, the second under the first


@dataclass(frozen=True)
class DiagramMdWitness:
    q: Term
    eta1: Prefix
    eta2: Prefix
    end_first: Term  # after eta1 then eta2 (second fired under the first)
    end_second: Term  # after eta2 then eta1 (second fired under the first)


def _nested_firings(q: Term) -> list[tuple[Prefix, Prefix, Term]]:
    """Every visible two-step firing q -eta1-> . -eta2-> end whose second
    prefix occurs under the first, as sorted (eta1, eta2, end) triples.

    The local residual of a visible distributed step is the continuation of
    the fired prefix, so the second prefix fires from under the first
    exactly when it is a visible move of that residual; the end state
    rejoins the move's target with the concurrent residual.  The set is
    sorted because frozenset order follows memory addresses."""
    found: set[tuple[Prefix, Prefix, Term]] = set()
    for eta1, cont, rest in d_transitions(q):
        if isinstance(eta1, Tau):
            continue
        for eta2, res in transitions(cont):
            if not isinstance(eta2, Tau):
                found.add((eta1, eta2, Par((res, rest))))
    return sorted(found, key=lambda f: (f[0], f[1], sort_key(f[2])))


def diagram_md_at(calculus: str, q: Term) -> DiagramMdWitness | None:
    """Whether q itself admits a diagram-shape MD: two-step firings
    q -eta1-> . -eta2-> and q -eta2-> . -eta1->, each second prefix occurring
    syntactically under the first fired prefix, with equivalent end states."""
    equiv = _default_equiv(calculus)
    firings = _nested_firings(q)
    for eta1, eta2, end1 in firings:
        if eta1 == eta2:
            continue
        for b1, b2, end2 in firings:
            if b1 == eta2 and b2 == eta1 and equiv(end1, end2):
                return DiagramMdWitness(q, eta1, eta2, end1, end2)
    return None


def search_md_diagram(
    calculus: str, size_bound: int, names: tuple[str, ...]
) -> DiagramMdWitness | None:
    """First term (smallest first) within the bound admitting a diagram MD."""
    alphabet = prefix_alphabet(names)
    pool = (
        ccs_terms_upto(size_bound, alphabet)
        if calculus == "ccs"
        else ccs_plus_terms_upto(size_bound, alphabet)
    )
    for q in pool:
        w = diagram_md_at(calculus, q)
        if w is not None:
            return w
    return None
