"""Labelled transition semantics for CCS terms and the strong bisimilarity
oracle computed by partition refinement.

A component of a canonical parallel composition is a prefix or a guarded
sum: it fires as its (prefix, continuation) pairs, read off the node, and
leaves nothing else behind.  So a parallel composition is a multiset of
components, a marking of a net, as in the net semantics of CCS (Degano, De
Nicola and Montanari, Acta Informatica 26, 1988; Goltz, MFCS 1988).  One
rule, `_par_moves`, decides which of its distinct components fire and which
pairs synchronise, a component with its own copy included; what a residual
is, and what stays put, it leaves to its three readers:

- `transitions`, the interleaving step over terms: the residuals merge into
  the components that stayed put, already in canonical order
  (`terms.join_par`).  It serves the suites' refinements of whole universes,
  `mirrored`, `erasure`, and every caller that needs successor terms.
- `d_transitions`, the distributed step over terms: a local part (what the
  acting components become) and a concurrent part (the components that
  stayed put), as a flat (action, local, concurrent) tuple, for
  `distributed` and `mirrored`.
- the marking step of `_net`, for `bisimilar_oracle` and
  `distinguishing_depth` alone: a joint state of p and q is one int of
  component counts, and a move adds each residual's precomputed delta to
  it, so no joint state is built or interned as a term.  Markings serve
  only a pair: their digits are the components that p and q can ever hold,
  at most one per prefix of p and q, while a suite's universe holds
  thousands (6872 at size 5 on two names), too many digits for one int to
  decode at every step.

So the strong and distributed relations, and the oracle, cannot drift
apart.  None of the steps keeps anything: each call derives the moves
again, `transitions` in an order fixed by the term alone.

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
differs: the marking step or `transitions` for strong bisimilarity, and
`distributed.d_step` and `pi.pi_step`, which each build a move with several
successors as a state of its own whose moves lead to them one by one.
`explore` tabulates the moves of every reachable state, for the rounds of
`distinguishing_depth`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from .terms import (
    NIL,
    Act,
    Nil,
    Par,
    Prefix,
    Record,
    Sum,
    Term,
    Var,
    join_par,
    parallel_components,
    size,
)


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
            for a, rest, locs in _term_moves(t.parts)
        )
    return frozenset((a, loc, NIL) for a, loc in transitions(t))


Move = tuple[Action, Any, tuple[Any, ...]]


def _par_moves(comps: list[tuple], pair_rest: Callable[[tuple, tuple], Any]) -> Iterator[Move]:
    """The one synchronisation rule: every move of a parallel composition
    whose distinct components, in canonical order, are given as tuples
    (copies, fires, rest, ...): how many copies it has, its (action,
    residual) pairs, and the rest when it fires alone.  `pair_rest(c, d)`
    is the rest when c and d synchronise.  A move is (action, rest,
    residuals).  What a rest or a residual is, this rule does not look at:
    terms for `transitions` and `d_transitions`, and for the oracle's step
    the marking and a delta to add to it.

    The visible moves come component by component, then the
    synchronisations of each component with itself, when it has two
    copies, and with each later component.  A component fires once however
    many copies it has, since every copy moves alike."""
    for c in comps:
        rest = c[2]
        for a, r in c[1]:
            yield a, rest, (r,)
    for k, c in enumerate(comps):
        for d in comps[k if c[0] > 1 else k + 1 :]:
            rest = None
            for a1, r1 in c[1]:
                for a2, r2 in d[1]:
                    if a2.co != a1.co and a2.name == a1.name:
                        if rest is None:
                            rest = pair_rest(c, d)
                        yield TAU, rest, (r1, r2)


def _term_moves(ps: tuple[Term, ...]) -> Iterator[Move]:
    """The moves of `_par_moves` over the parallel components ps, whose
    copies stand side by side.  A component's rest is ps without its first
    copy, so it stays in canonical order; the fourth field of each
    component is the component itself, which `_term_pair_rest` reads."""
    comps = []
    last = None
    for i, p in enumerate(ps):
        if p is last:
            continue
        last = p
        if type(p) is Act:
            fires = ((p.prefix, p.cont),)
        elif type(p) is Sum:
            fires = [(s.prefix, s.cont) for s in p.parts]
        else:
            fires = transitions(p)  # a variable: raises
        comps.append((ps.count(p), fires, ps[:i] + ps[i + 1 :], p))
    return _par_moves(comps, _term_pair_rest)


def _term_pair_rest(c: tuple, d: tuple) -> tuple[Term, ...]:
    """c's rest without the first copy of d's component."""
    rest = c[2]
    j = rest.index(d[3])
    return rest[:j] + rest[j + 1 :]


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
            joined = [(a, join_par(Par, rest, locs)) for a, rest, locs in _term_moves(ps)]
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


def _marking_pair_rest(c: tuple, d: tuple) -> int:
    """The marking itself, c's rest: each delta takes its component away."""
    return c[2]


def _net(p: Term, q: Term) -> tuple[list[Term], Callable[[Term], int], Callable[[int], list]]:
    """The net of p and q: the components they can ever hold, the marking
    of a term over them, and the step of a marking.

    The components are p's and q's parallel components and, transitively,
    those of every residual of every component; each is indexed once, when
    a marking first holds it.  A marking is one int: component k's count is
    its digit k in base 1 + max(size(p), size(q)), which no count reaches,
    since every component holds a prefix and a move only consumes prefixes.
    The first time a component fires, its (action, residual) pairs become
    (action, delta) pairs, the delta taking the component away and adding
    the residual's components.  The step adds the deltas of each move of
    `_par_moves` to the marking, so it builds no term."""
    base = 1 + max(size(p), size(q))
    unit: dict[Term, int] = {}  # each component's 1 in a marking: base ** index
    components: list[Term] = []
    fires: list = []  # each component's (action, delta) pairs, once it fires

    def marking(t: Term) -> int:
        m = 0
        for c in parallel_components(t):
            u = unit.get(c)
            if u is None:
                u = unit[c] = base ** len(components)
                components.append(c)
                fires.append(None)
            m += u
        return m

    def step(m: int) -> list[tuple[Action, int]]:
        comps = []
        k = 0
        rest = m
        while rest:
            rest, copies = divmod(rest, base)
            if copies:
                f = fires[k]
                if f is None:
                    u = base**k
                    f = fires[k] = [(a, marking(r) - u) for a, r in transitions(components[k])]
                comps.append((copies, f, m))
            k += 1
        return [(a, sum(deltas, rest)) for a, rest, deltas in _par_moves(comps, _marking_pair_rest)]

    return components, marking, step


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
    markings of p and q (`_net`).  Independent of the normal-form route;
    with guarded sums it uses the sum transition rule."""
    _, marking, step = _net(p, q)
    roots = [marking(p), marking(q)]
    block = refine_partition(roots, step)
    return block[roots[0]] == block[roots[1]]


def distinguishing_depth(p: Term, q: Term) -> int | None:
    """Least number of bisimulation-game rounds distinguishing p and q,
    or None if they are bisimilar: the first Kanellakis-Smolka round, each
    splitting states by their signature over the previous round's blocks,
    that separates them.  The rounds run only when the one pass has put p
    and q in different blocks, so some round separates them."""
    _, marking, step = _net(p, q)
    mp, mq = marking(p), marking(q)
    table = explore([mp, mq], step)
    final = refine_partition([mp, mq], table.__getitem__)
    if final[mp] == final[mq]:
        return None
    block = dict.fromkeys(table, 0)
    rounds = 0
    while block[mp] == block[mq]:
        ids: dict = {}
        pairs: dict = {}
        block = {
            s: ids.setdefault(_signature(ms, block, pairs), len(ids)) for s, ms in table.items()
        }
        rounds += 1
    return rounds
