"""Labelled transition semantics for CCS terms and the strong bisimilarity
oracle computed by partition refinement.

There is one structural operational semantics, the distributed one:
`d_transitions` splits each residual into a local part (what the acting
component becomes) and a concurrent part (everything that ran in parallel
with it).  The interleaving `transitions` only rejoin the two parts, so the
strong and distributed relations cannot drift apart.  On a parallel
composition both read one enumeration of its moves (`_par_moves`): the
distributed relation splits each move into its two parts, and the
interleaving one joins each move into its target in one step, building one
`Par` per move.

The transition relation consumes one prefix per visible step and two per
synchronisation, so every transition strictly decreases term size: reachable
state spaces are finite DAGs.  That is why bisimilarity needs no iterated
refinement here.  Two states are bisimilar exactly when their sets of
(action, successor class) pairs agree, and every successor is smaller, so
one pass in ascending size decides each state's class from classes that are
already final (the rank-based view of Dovier, Piazza and Policriti, "An
efficient algorithm for computing bisimulation equivalence", TCS 2004).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Hashable, Iterable, Iterator

from .terms import NIL, Act, Nil, Par, Prefix, Sum, Term, Var, size


@dataclass(frozen=True)
class Tau:
    def __str__(self) -> str:
        return "tau"


TAU = Tau()

Action = Prefix | Tau

Residual = tuple[Term, Term]  # (local, concurrent)


def action_key(a: Action) -> tuple:
    if isinstance(a, Tau):
        return (1, "", False)
    return (0, a.name, a.co)


def d_transitions(t: Term) -> frozenset[tuple[Action, Residual]]:
    """Distributed transitions of a ground canonical term.  A prefix fires
    with concurrent residual 0; parallel contexts join the concurrent part;
    synchronisation pairs both local and both concurrent parts.  Sum
    components transition by the transitions of their summands."""
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
            return frozenset(
                (a, (locs[0] if len(locs) == 1 else Par(locs), Par(rest + cons)))
                for a, rest, locs, cons in _par_moves(ps)
            )
    raise TypeError(f"not a term: {t!r}")


Move = tuple[Action, tuple[Term, ...], tuple[Term, ...], tuple[Term, ...]]


def _par_moves(ps: tuple[Term, ...]) -> Iterator[Move]:
    """Every move of the parallel components ps, as (action, rest, locals,
    concurrents): the components that stay put, and the local and the
    concurrent residuals of the one component that moves or of the two
    that synchronise."""
    part_ts = [d_transitions(p) for p in ps]
    for i, ts in enumerate(part_ts):
        rest = ps[:i] + ps[i + 1 :]
        for a, (loc, con) in ts:
            yield a, rest, (loc,), (con,)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
            for a1, (l1, c1) in part_ts[i]:
                if isinstance(a1, Tau):
                    continue
                comp = a1.complement()
                for a2, (l2, c2) in part_ts[j]:
                    if a2 == comp:
                        yield TAU, rest, (l1, l2), (c1, c2)


@lru_cache(maxsize=None)
def transitions(t: Term) -> frozenset[tuple[Action, Term]]:
    """One-step interleaving transitions of a ground canonical term: the
    distributed ones with local and concurrent residual rejoined."""
    if isinstance(t, Par):
        return frozenset(
            (a, Par(rest + locs + cons)) for a, rest, locs, cons in _par_moves(t.parts)
        )
    return frozenset((a, Par((loc, con))) for a, (loc, con) in d_transitions(t))


def reachable_states(roots: Iterable[Term]) -> set[Term]:
    seen: set[Term] = set()
    todo = [r for r in roots]
    while todo:
        s = todo.pop()
        if s in seen:
            continue
        seen.add(s)
        for _, tgt in transitions(s):
            if tgt not in seen:
                todo.append(tgt)
    return seen


# --------------------------------------------------------------------------
# partition refinement

SigFn = Callable[[Any, dict], Hashable]


def _default_sig(s: Term, block: dict) -> Hashable:
    return frozenset((action_key(a), block[t]) for a, t in transitions(s))


def refine_partition(
    states: Iterable, sig_fn: SigFn = _default_sig, rank: Callable[[Any], int] = size
) -> dict:
    """Bisimilarity classes of a transition-closed state set in one pass.

    Every step must strictly lower rank(state).  States are visited in
    ascending rank, a rank at a time, and each gets the block id of its
    signature, which reads only the blocks of lower-ranked states, already
    final.  Equal block ids mean bisimilar.  A signature that reads a state
    of equal or higher rank raises KeyError: the state set is then not well
    founded under rank."""
    levels: dict[int, list] = {}
    for s in states:
        levels.setdefault(rank(s), []).append(s)
    block: dict = {}
    ids: dict = {}
    for r in sorted(levels):
        level = levels[r]
        sigs = [sig_fn(s, block) for s in level]
        for s, sig in zip(level, sigs):
            block[s] = ids.setdefault(sig, len(ids))
    return block


def bisimulation_blocks(roots: Iterable[Term]) -> dict:
    return refine_partition(reachable_states(roots))


def bisimilar_oracle(p: Term, q: Term) -> bool:
    """Strong bisimilarity by partition refinement over the joint reachable
    state space.  Independent of the normal-form route; with guarded sums it
    uses the sum transition rule."""
    block = bisimulation_blocks([p, q])
    return block[p] == block[q]


def distinguishing_depth(p: Term, q: Term) -> int | None:
    """Least number of bisimulation-game rounds distinguishing p and q,
    or None if they are bisimilar: the first Kanellakis-Smolka round, each
    splitting states by their signature over the previous round's blocks,
    that separates them."""
    if p == q:
        return None
    states = reachable_states([p, q])
    block = dict.fromkeys(states, 0)
    n_blocks = 1
    rounds = 0
    while block[p] == block[q]:
        ids: dict = {}
        block = {s: ids.setdefault(_default_sig(s, block), len(ids)) for s in states}
        rounds += 1
        if len(ids) == n_blocks:
            return None
        n_blocks = len(ids)
    return rounds
