"""Distributed bisimilarity for CCS with guarded sums.

Distributed bisimilarity refines over the distributed transitions of
`lts.d_transitions`, requiring both the local and the concurrent residual
to match.  It uses the one refinement pass and the one signature of `lts`
(`refine_partition`), whose moves are (label, successor) pairs, with
`d_step` as the step: a term moves by each action to the pair state
(local, concurrent), and a pair state moves by 0 to its local part and by 1
to its concurrent part.  Two pair states are bisimilar exactly when both of
their parts are, and no term shares a block with a pair state, whose labels
are no actions.  On guarded-sum terms distributed bisimilarity coincides
with structural congruence and, unlike strong bisimilarity, is closed under
name substitutions.
"""

from __future__ import annotations

from typing import Iterable

from .lts import d_transitions, refine_partition
from .terms import Term


def d_step(s: Term | tuple[Term, Term]) -> Iterable[tuple]:
    """The moves of a term or of a (local, concurrent) pair state, as
    (label, successor) pairs."""
    if type(s) is tuple:
        return (0, s[0]), (1, s[1])
    return [(a, (loc, con)) for a, loc, con in d_transitions(s)]


def dsim_blocks(roots: Iterable[Term]) -> dict:
    """Distributed bisimilarity classes of every state reachable from the
    roots, pair states included."""
    return refine_partition(roots, d_step)


def dsim(p: Term, q: Term) -> bool:
    block = dsim_blocks([p, q])
    return block[p] == block[q]
