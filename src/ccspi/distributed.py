"""Distributed bisimilarity for CCS with guarded sums, and matching of
parallel components.

Distributed bisimilarity refines over the distributed transitions of
`lts.d_transitions`, requiring both the local and the concurrent residual
to match.  It uses the one refinement pass and the one signature of `lts`
(`refine_partition`) with `d_transitions` as the step: each move is a flat
(action, local, concurrent) tuple, so both residuals are visited and both
are replaced by their blocks.  On guarded-sum terms
distributed bisimilarity coincides with structural congruence and, unlike
strong bisimilarity, is closed under name substitutions.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .lts import d_transitions, refine_partition
from .terms import Term


def dsim_blocks(roots: Iterable[Term]) -> dict:
    """Distributed bisimilarity classes of every state reachable from the
    roots through either residual."""
    return refine_partition(roots, d_transitions)


def dsim(p: Term, q: Term) -> bool:
    block = dsim_blocks([p, q])
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
