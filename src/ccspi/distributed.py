"""Distributed bisimilarity for CCS with guarded sums.

A distributed transition splits the residual into a local part (what the
acting component becomes) and a concurrent part (everything that ran in
parallel with it).  Distributed bisimilarity requires matching both parts;
on guarded-sum terms it coincides with structural congruence and, unlike
strong bisimilarity, is closed under name substitutions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable

from .lts import Action, Tau, TAU, bisimilar_oracle, refine_partition
from .terms import NIL, Act, Nil, Par, Sum, Term, Var

Residual = tuple[Term, Term]  # (local, concurrent)


@lru_cache(maxsize=None)
def d_transitions(t: Term) -> frozenset[tuple[Action, Residual]]:
    """Distributed transitions of a ground canonical term.  A prefix fires
    with concurrent residual 0; parallel contexts join the concurrent part;
    synchronisation pairs both local and both concurrent parts."""
    match t:
        case Nil():
            return frozenset()
        case Var():
            raise ValueError("transitions undefined on open terms")
        case Act(prefix=p, cont=c):
            return frozenset(((p, (c, NIL)),))
        case Sum(parts=ps):
            out: set[tuple[Action, Residual]] = set()
            for s in ps:
                out |= d_transitions(s)
            return frozenset(out)
        case Par(parts=ps):
            out = set()
            part_ts = [d_transitions(p) for p in ps]
            for i, ts in enumerate(part_ts):
                rest = ps[:i] + ps[i + 1 :]
                for a, (loc, con) in ts:
                    out.add((a, (loc, Par(rest + (con,)))))
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
                    for a1, (l1, c1) in part_ts[i]:
                        if isinstance(a1, Tau):
                            continue
                        comp = a1.complement()
                        for a2, (l2, c2) in part_ts[j]:
                            if a2 == comp:
                                out.add((TAU, (Par((l1, l2)), Par(rest + (c1, c2)))))
            return frozenset(out)
    raise TypeError(f"not a term: {t!r}")


def d_reachable(roots: Iterable[Term]) -> set[Term]:
    """Closure of the roots under both residual components."""
    seen: set[Term] = set()
    todo = list(roots)
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        for _, (loc, con) in d_transitions(s):
            if loc not in seen:
                todo.append(loc)
            if con not in seen:
                todo.append(con)
    return seen


def _d_sig(s: Term, block: dict):
    return frozenset((a, block[loc], block[con]) for a, (loc, con) in d_transitions(s))


def dsim_blocks(states: Iterable[Term]) -> dict:
    """Partition refinement with pair signatures: both residual components
    must land in matching blocks."""
    return refine_partition(states, _d_sig)


def dsim(p: Term, q: Term) -> bool:
    block = dsim_blocks(d_reachable([p, q]))
    return block[p] == block[q]


def strong_bisim_plus(p: Term, q: Term) -> bool:
    """Strong (interleaving) bisimilarity in the presence of guarded sums;
    the same partition-refinement oracle, with the sum transition rule."""
    return bisimilar_oracle(p, q)


def perfect_matching(
    left: tuple[Term, ...],
    right: tuple[Term, ...],
    related: Callable[[Term, Term], bool],
) -> list[tuple[Term, Term]] | None:
    """A bijection between the two component tuples with related pairs, or
    None.  Standard augmenting-path bipartite matching; desk-scale inputs."""
    if len(left) != len(right):
        return None
    n = len(left)
    adj = [[j for j in range(n) if related(left[i], right[j])] for i in range(n)]
    match_r: list[int | None] = [None] * n

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_r[j] is None or augment(match_r[j], seen):
                match_r[j] = i
                return True
        return False

    for i in range(n):
        if not augment(i, set()):
            return None
    return [(left[match_r[j]], right[j]) for j in range(n)]
