"""The transition relations written apart from the moves the nodes store:
the strong relation derived from the distributed one, and the late pi
relation, each built as a set and returned as a frozenset.  The tests check
every stored move tuple against them, so the stored moves are not checked
by the code that stores them.  `ordered_transitions` keeps the order of
`lts.transitions` too, with every component stepped and every target built
by the `Par` constructor."""

from functools import lru_cache
from typing import Iterator

from ccspi.lts import TAU, Tau
from ccspi.pi import (
    BoundOutAct,
    FreeName,
    FreeOutAct,
    InputAct,
    PiInput,
    PiNil,
    PiNu,
    PiOutput,
    PiPar,
    close_binder,
    fresh_marker,
    free_names,
    open_binder,
)
from ccspi.terms import NIL, Act, Nil, Par, Prefix, Sum, Term, Var


def distinct(moves) -> frozenset:
    """The moves as a set, after checking that no move repeats, which a
    frozenset used to guarantee."""
    out = frozenset(moves)
    assert len(out) == len(moves), moves
    return out


def d_transitions(t: Term) -> frozenset:
    """Distributed transitions as (action, local, concurrent) moves: a prefix
    fires with concurrent residual 0, parallel contexts join the concurrent
    part, a synchronisation pairs both local and both concurrent parts, and a
    sum moves as its summands do."""
    match t:
        case Nil():
            return frozenset()
        case Var():
            raise ValueError("transitions undefined on open terms")
        case Act(prefix=p, cont=c):
            return frozenset(((p, c, NIL),))
        case Sum(parts=ps):
            out: set = set()
            for s in ps:
                out |= d_transitions(s)
            return frozenset(out)
        case Par(parts=ps):
            return frozenset(
                (a, locs[0] if len(locs) == 1 else Par(locs), Par(rest + cons))
                for a, rest, locs, cons in _par_moves(ps)
            )
    raise TypeError(f"not a term: {t!r}")


def _par_moves(ps: tuple[Term, ...]) -> Iterator[tuple]:
    """Every move of the parallel components ps, as (action, rest, locals,
    concurrents)."""
    part_ts = [d_transitions(p) for p in ps]
    for i, ts in enumerate(part_ts):
        rest = ps[:i] + ps[i + 1 :]
        for a, loc, con in ts:
            yield a, rest, (loc,), (con,)
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
            for a1, l1, c1 in part_ts[i]:
                if isinstance(a1, Tau):
                    continue
                comp = Prefix(a1.name, not a1.co)
                for a2, l2, c2 in part_ts[j]:
                    if a2 == comp:
                        yield TAU, rest, (l1, l2), (c1, c2)


@lru_cache(maxsize=None)
def transitions(t: Term) -> frozenset:
    """Interleaving transitions: the distributed ones with local and
    concurrent residual rejoined."""
    if isinstance(t, Par):
        return frozenset(
            (a, Par(rest + locs + cons)) for a, rest, locs, cons in _par_moves(t.parts)
        )
    return frozenset((a, Par((loc, con))) for a, loc, con in d_transitions(t))


def ordered_transitions(t: Term) -> tuple:
    """The interleaving moves as a tuple in the order `lts.transitions`
    gives them: each component's moves, component by component, then each
    synchronisation of components i < j, with the complementary prefix, every
    target built by `Par(rest + locals)`, and the repeats dropped by
    `dict.fromkeys`."""
    match t:
        case Par(parts=ps):
            fires = [ordered_transitions(p) for p in ps]
            joined = []
            for i, ts in enumerate(fires):
                rest = ps[:i] + ps[i + 1 :]
                joined += [(a, Par(rest + (loc,))) for a, loc in ts]
            for i in range(len(ps)):
                for j in range(i + 1, len(ps)):
                    rest = ps[:i] + ps[i + 1 : j] + ps[j + 1 :]
                    for a1, l1 in fires[i]:
                        comp = Prefix(a1.name, not a1.co)
                        joined += [(TAU, Par(rest + (l1, l2))) for a2, l2 in fires[j] if a2 is comp]
            return tuple(dict.fromkeys(joined))
        case Act(prefix=p, cont=c):
            return ((p, c),)
        case Sum(parts=ps):
            return tuple((s.prefix, s.cont) for s in ps)
        case Nil():
            return ()
        case Var():
            raise ValueError("transitions undefined on open terms")
    raise TypeError(f"not a term: {t!r}")


@lru_cache(maxsize=None)
def late_transitions(t) -> frozenset:
    """Late-instantiation transitions of a closed canonical pi term; input
    and bound-output residuals are open at index 0."""
    match t:
        case PiNil():
            return frozenset()
        case PiInput(chan=FreeName(name=a), body=b):
            return frozenset(((InputAct(a), b),))
        case PiOutput(chan=FreeName(name=a), payload=FreeName(name=c), body=b):
            return frozenset(((FreeOutAct(a, c), b),))
        case PiPar(parts=ps):
            out: set = set()
            part_ts = [late_transitions(p) for p in ps]
            for i, ts in enumerate(part_ts):
                rest = ps[:i] + ps[i + 1 :]
                for a, res in ts:
                    out.add((a, PiPar((res,) + rest)))
            for i in range(len(ps)):
                for j in range(len(ps)):
                    if i == j:
                        continue
                    for ai, ri in part_ts[i]:
                        if not isinstance(ai, InputAct):
                            continue
                        for aj, rj in part_ts[j]:
                            if isinstance(aj, (InputAct, Tau)) or aj.name != ai.name:
                                continue
                            rest = tuple(p for k, p in enumerate(ps) if k not in (i, j))
                            if isinstance(aj, FreeOutAct):
                                out.add((TAU, PiPar((open_binder(ri, aj.payload), rj) + rest)))
                            else:
                                out.add((TAU, PiNu(PiPar((ri, rj) + rest))))
            return frozenset(out)
        case PiNu(body=b):
            m = fresh_marker(free_names(b))
            out = set()
            for a, res in late_transitions(open_binder(b, m)):
                match a:
                    case InputAct(name=c) | BoundOutAct(name=c):
                        if c != m:
                            out.add((a, PiNu(close_binder(res, m))))
                    case FreeOutAct(name=c, payload=pay):
                        if c == m:
                            continue
                        if pay == m:
                            out.add((BoundOutAct(c), close_binder(res, m)))
                        else:
                            out.add((a, PiNu(close_binder(res, m))))
                    case Tau():
                        out.add((a, PiNu(close_binder(res, m))))
            return frozenset(out)
    raise TypeError(f"transitions need a closed canonical term: {t!r}")
