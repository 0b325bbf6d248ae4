"""Distributed bisimilarity for CCS with guarded sums, and matching of
parallel components.

Distributed bisimilarity refines over the distributed transitions of
`lts.d_transitions`, requiring both the local and the concurrent residual
to match.  On guarded-sum terms it coincides with structural congruence and,
unlike strong bisimilarity, is closed under name substitutions.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

from .lts import d_transitions, refine_partition
from .terms import Term


def d_reachable(roots: Iterable[Term]) -> dict[Term, frozenset]:
    """Closure of the roots under both residual components, as the table
    {state: d_transitions(state)} of every reachable state."""
    steps: dict[Term, frozenset] = {}
    todo = list(roots)
    while todo:
        s = todo.pop()
        if s in steps:
            continue
        steps[s] = out = d_transitions(s)
        for _, (loc, con) in out:
            if loc not in steps:
                todo.append(loc)
            if con not in steps:
                todo.append(con)
    return steps


def dsim_blocks(steps: Mapping[Term, frozenset]) -> dict:
    """Partition refinement with pair signatures over a transition table
    closed under both residuals, such as `d_reachable` returns: both
    residual components must land in matching blocks."""
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
