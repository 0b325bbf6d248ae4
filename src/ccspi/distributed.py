"""Distributed bisimilarity for CCS with guarded sums, and matching of
parallel components.

Distributed bisimilarity refines over the distributed transitions of
`lts.d_transitions`, requiring both the local and the concurrent residual
to match.  On guarded-sum terms it coincides with structural congruence and,
unlike strong bisimilarity, is closed under name substitutions.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .lts import d_transitions, refine_partition
from .terms import Term


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


def dsim_blocks(states: Iterable[Term]) -> dict:
    """Partition refinement with pair signatures: both residual components
    must land in matching blocks.  The states' distributed transitions are
    tabled for this refinement only."""
    steps = {s: d_transitions(s) for s in states}
    return refine_partition(
        steps,
        lambda s, block: frozenset((a, block[loc], block[con]) for a, (loc, con) in steps[s]),
    )


def dsim(p: Term, q: Term) -> bool:
    block = dsim_blocks(d_reachable([p, q]))
    return block[p] == block[q]


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
