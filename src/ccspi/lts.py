"""Labelled transition semantics for CCS terms and the strong bisimilarity
oracle computed by partition refinement.

A component of a canonical parallel composition is a prefix or a guarded
sum: it fires as its (prefix, continuation) pairs, read off the node, and
leaves nothing else behind.  On a parallel composition both semantics read
one enumeration of its moves (`_par_moves`), which steps a component only
once when its copies stand side by side: the interleaving `transitions`
merges each move's residuals into the components that stayed put, already
in canonical order (`terms.join_par`), and the distributed `d_transitions`
splits it into a local part (what the acting components become) and a
concurrent part (the components that stayed put), giving a flat (action,
local, concurrent) tuple.  So the strong and distributed relations cannot
drift apart.

`transitions` and `d_transitions` keep nothing: each call derives the
moves again, `transitions` in an order fixed by the term alone.

The transition relation consumes one prefix per visible step and two per
synchronisation, so every transition strictly decreases term size: reachable
state spaces are finite DAGs.  That is why bisimilarity needs no iterated
refinement here.  Two states are bisimilar exactly when their sets of
(action, successor class) pairs agree, so a state's class can be decided as
soon as its successors' classes are, from classes that are already final
(the well-founded view of Dovier, Piazza and Policriti, "An efficient
algorithm for computing bisimulation equivalence", TCS 2004).

Strong, distributed and pi bisimilarity share one refinement pass and one
signature over one move shape: a step maps a state to its moves, each one
(label, successor) pair, as in a textbook labelled transition system.
`refine_partition` walks the states reachable from its roots depth first,
and signs a state by its set of moves with each successor replaced by its
block once every successor has one; it then lets the state's moves go, so
only the states on the current path hold theirs.  That set is kept as
numbers: each distinct (label, block) gets a number, once per call, and a
signature is the sorted tuple of its moves' numbers.  Only the step
differs: `transitions` itself for strong bisimilarity, and
`distributed.d_step` and `pi.pi_step`, which each build a move with several
successors as a state of its own whose moves lead to them one by one.
`explore` tabulates the moves of every reachable state, for the rounds of
`distinguishing_depth`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .terms import NIL, Act, Nil, Par, Prefix, Record, Sum, Term, Var, join_par


class Tau(Record):
    """The silent action, interned like `Prefix`: `Tau() is TAU`."""

    __slots__ = ()
    _rank = 1

    def __new__(cls) -> Tau:
        return cls._make()

    def __str__(self) -> str:
        return "tau"


TAU = Tau()

Action = Prefix | Tau

DMove = tuple[Action, Term, Term]  # (action, local, concurrent)


def d_transitions(t: Term) -> frozenset[DMove]:
    """Distributed transitions of a ground canonical term, as (action, local,
    concurrent) moves.  A prefix or a summand fires with concurrent residual
    0; in a parallel composition the components that stay put are the
    concurrent part, and a synchronisation pairs both local parts."""
    if isinstance(t, Par):
        return frozenset(
            (a, locs[0] if len(locs) == 1 else Par(locs), join_par(Par, rest, ()))
            for a, rest, locs in _par_moves(t.parts)
        )
    return frozenset((a, loc, NIL) for a, loc in transitions(t))


Move = tuple[Action, tuple[Term, ...], tuple[Term, ...]]


def _par_moves(ps: tuple[Term, ...]) -> Iterator[Move]:
    """Every move of the parallel components ps, as (action, rest, locals):
    the components that stay put, and the residuals of the one component
    that fires or of the two that synchronise.  The visible moves come
    component by component, in canonical order, then the synchronisations
    of components i < j.

    A component that is its left neighbour is skipped, as the first of a
    pair too, and so is a second partner that is its left neighbour: its
    moves are the ones that neighbour already gave, with the same rest.
    Two identical neighbours still synchronise with each other."""
    fires = []
    for p in ps:
        if type(p) is Act:
            fires.append(((p.prefix, p.cont),))
        elif type(p) is Sum:
            fires.append([(s.prefix, s.cont) for s in p.parts])
        else:
            fires.append(transitions(p))  # a variable: raises
    n = len(ps)
    for i in range(n):
        if i and ps[i] is ps[i - 1]:
            continue
        rest = ps[:i] + ps[i + 1 :]
        for a, loc in fires[i]:
            yield a, rest, (loc,)
    for i in range(n - 1):
        if i and ps[i] is ps[i - 1]:
            continue
        for j in range(i + 1, n):
            if j > i + 1 and ps[j] is ps[j - 1]:
                continue
            rest = None
            for a1, l1 in fires[i]:
                for a2, l2 in fires[j]:
                    if a2.co != a1.co and a2.name == a1.name:
                        if rest is None:
                            rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
                        yield TAU, rest, (l1, l2)


def transitions(t: Term) -> tuple[tuple[Action, Term], ...]:
    """One-step interleaving transitions of a ground canonical term, as a
    tuple of distinct (action, target) moves.

    The order is fixed by the term alone, so it is the same in every
    process: a prefix has its one move, a sum its summands' in canonical
    order, and a parallel composition the moves of `_par_moves`, duplicates
    dropped, each target joined into the components that stayed put
    (`join_par`).  Nothing is kept: every call derives the tuple again."""
    match t:
        case Par(parts=ps):
            joined = [(a, join_par(Par, rest, locs)) for a, rest, locs in _par_moves(ps)]
            return tuple(dict.fromkeys(joined))
        case Act(prefix=p, cont=c):
            return ((p, c),)
        case Sum(parts=ps):
            return tuple([(s.prefix, s.cont) for s in ps])
        case Nil():
            return ()
        case Var():
            raise ValueError("transitions undefined on open terms")
        case _:
            raise TypeError(f"not a term: {t!r}")


def explore(roots: Iterable, step: Callable[[Any], Iterable[tuple]]) -> dict:
    """The moves table {state: step(state)} of every state reachable from
    the roots, where a move is a (label, successor) pair.  Each state is
    stepped once."""
    table: dict = {}
    todo = list(roots)
    while todo:
        s = todo.pop()
        if s not in table:
            table[s] = moves = step(s)
            todo += [t for _, t in moves]
    return table


# --------------------------------------------------------------------------
# partition refinement


def _signature(moves: Iterable[tuple], block: dict, pairs: dict) -> tuple[int, ...]:
    """A state's set of moves with each successor replaced by its block, as
    the sorted tuple of their numbers: `pairs` numbers each distinct
    (label, block) in the order first seen.  Within one `pairs`, equal
    tuples mean equal sets, so the tuple signs as the set would, and only
    one tuple per distinct move is kept, not one set per signature."""
    number = pairs.setdefault
    return tuple(sorted({number((a, block[t]), len(pairs)) for a, t in moves}))


def refine_partition(roots: Iterable, step: Callable[[Any], Iterable[tuple]]) -> dict:
    """Bisimilarity classes of every state reachable from the roots, in one
    depth-first pass.

    Each state is stepped once, and gets the block id of its signature as
    soon as each of its successors has a block, which is then final: the
    pass numbers blocks in post-order.  Equal block ids mean bisimilar.
    Until it is signed, a state's moves are held with its place on `todo`,
    so only the states on the current path keep theirs.  A state met again
    while it is still being expanded closes a cycle, and raises ValueError:
    the state space is then not well founded."""
    block: dict = {}
    ids: dict = {}
    pairs: dict = {}
    path: dict = {}  # each state being expanded: (its moves, its depth on todo)
    for root in roots:
        todo = [root]
        while todo:
            s = todo[-1]
            if s in block:
                todo.pop()
                continue
            if s in path:
                moves, depth = path.pop(s)
                if depth != len(todo):
                    raise ValueError(f"the reachable states hold a cycle through {s!r}")
            else:
                moves = step(s)
                depth = len(todo)
                todo += [t for _, t in moves if t not in block]
                if len(todo) > depth:
                    path[s] = moves, depth
                    continue
            todo.pop()
            block[s] = ids.setdefault(_signature(moves, block, pairs), len(ids))
    return block


def bisimilar_oracle(p: Term, q: Term) -> bool:
    """Strong bisimilarity by partition refinement over the joint reachable
    state space.  Independent of the normal-form route; with guarded sums it
    uses the sum transition rule."""
    block = refine_partition([p, q], transitions)
    return block[p] == block[q]


def distinguishing_depth(p: Term, q: Term) -> int | None:
    """Least number of bisimulation-game rounds distinguishing p and q,
    or None if they are bisimilar: the first Kanellakis-Smolka round, each
    splitting states by their signature over the previous round's blocks,
    that separates them.  The rounds run only when the one pass has put p
    and q in different blocks, so some round separates them."""
    table = explore([p, q], transitions)
    final = refine_partition([p, q], table.__getitem__)
    if final[p] == final[q]:
        return None
    block = dict.fromkeys(table, 0)
    rounds = 0
    while block[p] == block[q]:
        ids: dict = {}
        pairs: dict = {}
        block = {
            s: ids.setdefault(_signature(ms, block, pairs), len(ids)) for s, ms in table.items()
        }
        rounds += 1
    return rounds
