"""Labelled transition semantics for CCS terms and the strong bisimilarity
oracle computed by partition refinement.

The transition relation consumes one prefix per visible step and two per
synchronisation, so every transition strictly decreases term size: reachable
state spaces are finite DAGs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Hashable, Iterable

from .terms import Act, Nil, Par, Prefix, Sum, Term, Var, sort_key


@dataclass(frozen=True)
class Tau:
    def __str__(self) -> str:
        return "tau"


TAU = Tau()

Action = Prefix | Tau


def action_key(a: Action) -> tuple:
    if isinstance(a, Tau):
        return (1, "", False)
    return (0, a.name, a.co)


@lru_cache(maxsize=None)
def transitions(t: Term) -> frozenset[tuple[Action, Term]]:
    """One-step transitions of a ground canonical term (targets canonical).
    Sum components transition by the transitions of their summands."""
    match t:
        case Nil():
            return frozenset()
        case Var():
            raise ValueError("transitions undefined on open terms")
        case Act(prefix=p, cont=c):
            return frozenset(((p, c),))
        case Sum(parts=ps):
            out: set[tuple[Action, Term]] = set()
            for p in ps:
                out |= transitions(p)
            return frozenset(out)
        case Par(parts=ps):
            out = set()
            part_ts = [transitions(p) for p in ps]
            for i, ts in enumerate(part_ts):
                rest = ps[:i] + ps[i + 1 :]
                for a, tgt in ts:
                    out.add((a, Par(rest + (tgt,))))
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
                    for a1, t1 in part_ts[i]:
                        if isinstance(a1, Tau):
                            continue
                        comp = a1.complement()
                        for a2, t2 in part_ts[j]:
                            if a2 == comp:
                                out.add((TAU, Par(rest + (t1, t2))))
            return frozenset(out)
    raise TypeError(f"not a term: {t!r}")


@dataclass(frozen=True)
class Lts:
    root: Term
    states: frozenset[Term]
    edges: frozenset[tuple[Term, Action, Term]]


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


def reachable_lts(t: Term) -> Lts:
    states = reachable_states([t])
    edges = frozenset((s, a, tgt) for s in states for a, tgt in transitions(s))
    return Lts(t, frozenset(states), edges)


# --------------------------------------------------------------------------
# partition refinement

SigFn = Callable[[Term, dict], Hashable]


def _default_sig(s: Term, block: dict) -> Hashable:
    return frozenset((action_key(a), block[t]) for a, t in transitions(s))


def refine_once(states: list, block: dict, sig_fn: SigFn = _default_sig) -> dict:
    """One refinement round: split blocks by (current block, signature)."""
    ids: dict = {}
    new: dict = {}
    for s in states:
        k = (block[s], sig_fn(s, block))
        if k not in ids:
            ids[k] = len(ids)
        new[s] = ids[k]
    return new


def refine_partition(states: Iterable[Term], sig_fn: SigFn = _default_sig) -> dict:
    """Greatest fixpoint of signature refinement over a transition-closed
    state set; equal block ids mean bisimilar."""
    ordered = sorted(states, key=sort_key)
    block = {s: 0 for s in ordered}
    nblocks = 1
    while True:
        block = refine_once(ordered, block, sig_fn)
        n = max(block.values(), default=-1) + 1
        if n == nblocks:
            return block
        nblocks = n


def bisimulation_blocks(roots: Iterable[Term]) -> dict:
    return refine_partition(reachable_states(roots))


def bisimilar_oracle(p: Term, q: Term) -> bool:
    """Strong bisimilarity by partition refinement over the joint reachable
    state space.  Independent of the normal-form route."""
    block = bisimulation_blocks([p, q])
    return block[p] == block[q]


def distinguishing_depth(p: Term, q: Term) -> int | None:
    """Least number of bisimulation-game rounds distinguishing p and q,
    or None if they are bisimilar."""
    if p == q:
        return None
    states = sorted(reachable_states([p, q]), key=sort_key)
    block = {s: 0 for s in states}
    nblocks = 1
    depth = 0
    while True:
        depth += 1
        block = refine_once(states, block)
        if block[p] != block[q]:
            return depth
        n = max(block.values()) + 1
        if n == nblocks:
            return None
        nblocks = n
