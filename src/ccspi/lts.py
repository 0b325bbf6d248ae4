"""Labelled transition semantics for CCS terms and the strong bisimilarity
oracle computed by partition refinement.

A component of a canonical parallel composition is a prefix or a guarded
sum: it fires as its (prefix, continuation) pairs, which `transitions`
gives for it, and leaves nothing else behind.  On a parallel composition
both semantics read one enumeration of its moves (`_par_moves`): the
interleaving `transitions` joins each move into its target, building one
`Par` per move, and the distributed `d_transitions` splits it into a local
part (what the acting components become) and a concurrent part (the
components that stayed put), giving a flat (action, local, concurrent)
tuple.  So the strong and distributed relations cannot drift apart.

`transitions` stores a node's moves on the node, as a tuple of distinct
moves in a fixed order, the first time it is asked for them: they live as
long as the node, as the intern tables do, and every later call returns
that same tuple.  `d_transitions` keeps nothing.

The transition relation consumes one prefix per visible step and two per
synchronisation, so every transition strictly decreases term size: reachable
state spaces are finite DAGs.  That is why bisimilarity needs no iterated
refinement here.  Two states are bisimilar exactly when their sets of
(action, successor class) pairs agree, and every successor is smaller, so
one pass in ascending size decides each state's class from classes that are
already final (the rank-based view of Dovier, Piazza and Policriti, "An
efficient algorithm for computing bisimulation equivalence", TCS 2004).

Strong, distributed and pi bisimilarity share one exploration loop and one
signature.  `explore` tabulates the moves of every reachable state, a move
being a flat tuple (label, successor, ...), and `refine_partition` signs a
state by its set of moves with each successor replaced by its block.  That
set is kept as numbers: each distinct (label, *blocks) gets a number, once
per call, and a signature is the sorted tuple of its moves' numbers.  Only
the step differs: `transitions` itself for strong bisimilarity,
`d_transitions` itself for distributed bisimilarity, and `pi.pi_step`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .terms import NIL, Act, Nil, Par, Prefix, Record, Sum, Term, Var, size


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
            (a, locs[0] if len(locs) == 1 else Par(locs), Par(rest))
            for a, rest, locs in _par_moves(t.parts)
        )
    return frozenset((a, loc, NIL) for a, loc in transitions(t))


Move = tuple[Action, tuple[Term, ...], tuple[Term, ...]]


def _par_moves(ps: tuple[Term, ...]) -> Iterator[Move]:
    """Every move of the parallel components ps, as (action, rest, locals):
    the components that stay put, and the residuals of the one component
    that fires or of the two that synchronise.  The visible moves come
    component by component, in canonical order, then the synchronisations
    of components i < j."""
    fires = [transitions(p) for p in ps]
    for i, ts in enumerate(fires):
        rest = ps[:i] + ps[i + 1 :]
        for a, loc in ts:
            yield a, rest, (loc,)
    for i in range(len(ps) - 1):
        # a component's moves are prefixes, each complemented once per call
        cofires = [(a.complement(), loc) for a, loc in fires[i]]
        for j in range(i + 1, len(ps)):
            rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
            for comp, l1 in cofires:
                for a2, l2 in fires[j]:
                    if a2 is comp:
                        yield TAU, rest, (l1, l2)


# writes a node's `_moves` slot past the immutability guard, as `_derive`
# fills `_size`; only `transitions` writes it, on its first call for the node
_store_moves = Term._moves.__set__


def transitions(t: Term) -> tuple[tuple[Action, Term], ...]:
    """One-step interleaving transitions of a ground canonical term, as a
    tuple of distinct (action, target) moves.

    The order is fixed by the term alone, so it is the same in every
    process: a prefix has its one move, a sum its summands' in canonical
    order, and a parallel composition the moves of `_par_moves`, duplicates
    dropped.  The tuple is stored on the node the first time and returned
    on every later call (a moves table of `explore` holds it, not a copy);
    two threads that race on a node compute and store equal tuples."""
    try:
        return t._moves
    except AttributeError:
        pass
    match t:
        case Par(parts=ps):
            joined = [(a, Par(rest + locs)) for a, rest, locs in _par_moves(ps)]
            moves = tuple(dict.fromkeys(joined))
        case Act(prefix=p, cont=c):
            moves = ((p, c),)
        case Sum(parts=ps):
            moves = tuple([(s.prefix, s.cont) for s in ps])
        case Nil():
            moves = ()
        case Var():
            raise ValueError("transitions undefined on open terms")
        case _:
            raise TypeError(f"not a term: {t!r}")
    _store_moves(t, moves)
    return moves


def explore(roots: Iterable, step: Callable[[Any], Iterable[tuple]]) -> dict:
    """The moves table {state: step(state)} of every state reachable from
    the roots, where a move is a flat tuple (label, successor, ...).  Each
    state is stepped once.  As in `_signature`, a move of one successor is
    read without slicing it."""
    table: dict = {}
    todo = list(roots)
    while todo:
        s = todo.pop()
        if s not in table:
            table[s] = moves = step(s)
            for m in moves:
                if len(m) == 2:
                    todo.append(m[1])
                else:
                    todo += m[1:]
    return table


# --------------------------------------------------------------------------
# partition refinement


def _signature(moves: Iterable[tuple], block: dict, pairs: dict) -> tuple[int, ...]:
    """A state's set of moves with each successor replaced by its block, as
    the sorted tuple of their numbers: `pairs` numbers each distinct
    (label, *blocks) in the order first seen.  Within one `pairs`, equal
    tuples mean equal sets, so the tuple signs as the set would, and only
    one tuple per distinct move is kept, not one set per signature.  A move
    of one successor (strong, ground and early pi) is read without slicing
    it, which keeps cold strong queries cheap."""
    number = pairs.setdefault
    return tuple(
        sorted(
            {
                number(
                    (m[0], block[m[1]]) if len(m) == 2 else (m[0], *[block[t] for t in m[1:]]),
                    len(pairs),
                )
                for m in moves
            }
        )
    )


def refine_partition(
    table_items: Iterable[tuple[Any, Iterable[tuple]]], rank: Callable[[Any], int] = size
) -> dict:
    """Bisimilarity classes of the states of a moves table (the items of
    what `explore` returns) in one pass.

    Every move must strictly lower rank(state).  States are visited in
    ascending rank, a rank at a time, and each gets the block id of its
    signature, which reads only the blocks of lower-ranked states, already
    final.  Equal block ids mean bisimilar.  A move to a state of equal or
    higher rank raises KeyError: the table is then not well founded under
    rank."""
    levels: dict[int, list] = {}
    for s, moves in table_items:
        levels.setdefault(rank(s), []).append((s, moves))
    block: dict = {}
    ids: dict = {}
    pairs: dict = {}
    for r in sorted(levels):
        level = levels[r]
        sigs = [_signature(moves, block, pairs) for _, moves in level]
        for (s, _), sig in zip(level, sigs):
            block[s] = ids.setdefault(sig, len(ids))
    return block


def bisimilar_oracle(p: Term, q: Term) -> bool:
    """Strong bisimilarity by partition refinement over the joint reachable
    state space.  Independent of the normal-form route; with guarded sums it
    uses the sum transition rule."""
    block = refine_partition(explore([p, q], transitions).items())
    return block[p] == block[q]


def distinguishing_depth(p: Term, q: Term) -> int | None:
    """Least number of bisimulation-game rounds distinguishing p and q,
    or None if they are bisimilar: the first Kanellakis-Smolka round, each
    splitting states by their signature over the previous round's blocks,
    that separates them.  The rounds run only when the one pass has put p
    and q in different blocks, so some round separates them."""
    table = explore([p, q], transitions)
    final = refine_partition(table.items())
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
