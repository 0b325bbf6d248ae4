"""A finite, sum-free pi-calculus fragment: canonical terms, the late
transition semantics, and ground / late / early strong bisimilarity.

Binders are represented positionally (de Bruijn indices), so alpha-equivalent
terms are literally equal and substitution is capture-avoiding by
construction.  Free names stay as names.  Terms share the interned node core
of `terms`, each class with its own intern table, which likewise lives as
long as the process: structurally equal terms are one object.  The name
references `FreeName` and `BoundName`, and the transition labels
`InputAct`, `FreeOutAct` and `BoundOutAct`, are interned records too
(`terms.Record`): equal labels are one object and hash by identity.  A
label carries a channel `name` and a polarity `co`, as a `Prefix` does
(outputs are `co`), and the silent action is the one of CCS, `lts.TAU`.
The constructors keep terms canonical: parallel composition is a flattened
sorted multiset without Nil components (`terms.flat_par`, in the one order
of `terms.sort_key`), and a restriction whose name never occurs is dropped.

Each node stores its dangling indices (the indices it references without
binding them, counted from its top) as an int bit set, bit i set when index
i dangles: a binder's body is seen from outside by `>> 1`, and a parallel
composition joins its parts by `|`.
Renaming walks (`open_binder`, `close_binder`, `pi_substitute` and the
unused-binder shift in `PiNu`) read each node's stored bit set and free
names, and return a subterm unchanged when it holds no reference they move:
under d binders, one with `_dangling >> d == 0` references no index they
shift.  Two memos keep renamings across calls: `open_binder` results per
(node, name), and `pi_substitute` results per node and images of its free
names at every level of the walk, so a subterm is renamed once for all
substitutions that agree on its free names.  They share the game memo's
lifetime: `clear_bisim_memo` empties all three, and `suites.run_suite`
calls it when each suite ends, `cli.main` when each command ends.

Transition residuals for input and bound-output actions are returned as
bodies with the transmitted name still abstracted (dangling index 0); the
bisimulation games decide how to instantiate them.  A parallel composition
moves by the synchronisation rule of CCS, `lts._par_moves`, since COM and
CLOSE (Milner, Parrow and Walker, 1992) are CCS synchronisation with a name
passed or extruded; only a communication's residual is pi's own
(`_successor`).  A successor merges the residuals into the components that
stayed put, which are already in canonical order (`terms.join_par`).
`late_transitions` stores a node's moves on the node the first time it is
asked for them, as a tuple of distinct moves in an order fixed by the term
alone, so they live as long as the node, as the intern table does, and no
cache holds them.
Instantiation names for the games are drawn from a reserved namespace
("#0", "#1", ...) disjoint from source-level names.

Besides the games for single pairs, `pi_blocks` gives the classes of a
whole universe in each mode with the one refinement pass and the one
signature that strong and distributed bisimilarity use
(`lts.refine_partition`); only its step, `pi_step`, is the pi calculus's
own.  Its moves are (label, successor) pairs, as every step's are: a late
input moves to a "for all names" state of its own, which moves by each
instantiation name to the residual opened with it.  Unlike CCS nodes,
whose moves the pass drops once it has signed them, pi nodes keep theirs:
the games read the moves of the same positions again and again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .lts import TAU, Tau, _term_moves, refine_partition
from .terms import Node, Record, flat_par, join_par, sort_key


class FreeName(Record):
    __slots__ = _fields = ("name",)

    def __new__(cls, name: str) -> FreeName:
        return cls._make(name)


class BoundName(Record):
    __slots__ = _fields = ("index",)
    _rank = 1

    def __new__(cls, index: int) -> BoundName:
        return cls._make(index)


NameRef = FreeName | BoundName


def _ref_dangling(r: NameRef) -> int:
    return 1 << r.index if type(r) is BoundName else 0


def _ref_free(r: NameRef) -> frozenset[str]:
    return frozenset((r.name,)) if isinstance(r, FreeName) else frozenset()


# each free-name set that some node has, with its sorted tuple; like the
# intern tables it lives as long as the process, and it holds one entry per
# distinct set, so nodes with equal free names share both objects
_FREE_SETS: dict[frozenset[str], tuple[frozenset[str], tuple[str, ...]]] = {}


class PiTerm(Node):
    """Base class for pi terms.  Every node records, once, the indices it
    references without binding them, as an int bit set `_dangling` whose
    bit i is set when index i dangles, its size (see `pi_size`) and its
    free names (see `free_names`), also as a sorted tuple (`_names`, the
    order of a `pi_substitute` memo key).  A closed node also keeps its
    moves once `late_transitions` has first derived them."""

    # _moves stays empty until `late_transitions` fills it, through the
    # slot's descriptor, and then lives as long as the node.  Two threads
    # that race on one node store equal tuples, so either write may win.
    __slots__ = ("_dangling", "_size", "_free", "_names", "_moves")

    def _derive(self) -> None:
        dangling, size, free = self._measures()
        shared = _FREE_SETS.get(free)
        if shared is None:
            shared = _FREE_SETS[free] = (free, tuple(sorted(free)))
        free, names = shared
        object.__setattr__(self, "_dangling", dangling)
        object.__setattr__(self, "_size", size)
        object.__setattr__(self, "_free", free)
        object.__setattr__(self, "_names", names)

    def _measures(self) -> tuple[int, int, frozenset[str]]:
        """Dangling index bits, prefix count and free names, from the
        fields.  A binder's body, seen from outside it, drops bit 0 and
        shifts the rest down: `body._dangling >> 1`."""
        return 0, 0, frozenset()


class PiNil(PiTerm):
    __slots__ = ()

    def __new__(cls) -> PiNil:
        return cls._make()


PI_NIL = PiNil()


class PiInput(PiTerm):
    __slots__ = _fields = ("chan", "body")  # body binds index 0
    _rank = 1

    def __new__(cls, chan: NameRef, body: PiTerm) -> PiInput:
        return cls._make(chan, body)

    def _measures(self) -> tuple[int, int, frozenset[str]]:
        c, b = self.chan, self.body
        return _ref_dangling(c) | b._dangling >> 1, b._size + 1, _ref_free(c) | b._free


class PiOutput(PiTerm):
    __slots__ = _fields = ("chan", "payload", "body")
    _rank = 2

    def __new__(cls, chan: NameRef, payload: NameRef, body: PiTerm) -> PiOutput:
        return cls._make(chan, payload, body)

    def _measures(self) -> tuple[int, int, frozenset[str]]:
        c, p, b = self.chan, self.payload, self.body
        return (
            _ref_dangling(c) | _ref_dangling(p) | b._dangling,
            b._size + 1,
            _ref_free(c) | _ref_free(p) | b._free,
        )


class PiPar(PiTerm):
    """Parallel composition, made canonical by `flat_par`."""

    __slots__ = _fields = ("parts",)
    _rank = 3
    _nil = PI_NIL
    __new__ = flat_par

    def _measures(self) -> tuple[int, int, frozenset[str]]:
        ps = self.parts
        bits = 0
        for p in ps:
            bits |= p._dangling
        return (
            bits,
            sum(p._size for p in ps),
            frozenset().union(*(p._free for p in ps)),
        )


class PiNu(PiTerm):
    """Restriction; the body binds index 0.  The constructor drops a binder
    that is never referenced: (nu p)P = P when p is not free in P, and in
    particular (nu p)0 = 0.  Dropping it moves the body's indices above 0
    down one, which is opening the binder with no reference to replace."""

    __slots__ = _fields = ("body",)
    _rank = 4

    def __new__(cls, body: PiTerm) -> PiTerm:
        if body._dangling & 1:
            return cls._make(body)
        return _open(body, 0, None)

    def _measures(self) -> tuple[int, int, frozenset[str]]:
        b = self.body
        return b._dangling >> 1, b._size, b._free


# --------------------------------------------------------------------------
# measures and renaming


def free_names(t: PiTerm) -> frozenset[str]:
    return t._free


def pi_size(t: PiTerm) -> int:
    """Number of prefix occurrences."""
    return t._size


# open_binder results by (node, name); pi_substitute results by the node
# followed by the images of its sorted free names.  clear_bisim_memo
# empties both.
_OPEN_MEMO: dict[tuple[PiTerm, str], PiTerm] = {}
_SUBST_MEMO: dict[tuple, PiTerm] = {}


def _lower(r: NameRef, d: int, new: FreeName | None) -> NameRef:
    if type(r) is BoundName and r.index >= d:
        return new if r.index == d else BoundName(r.index - 1)
    return r


def _open(t: PiTerm, d: int, new: FreeName | None) -> PiTerm:
    """t under d binders with index d replaced by `new` and the indices
    above it moved down one; t itself when every dangling index is below d.
    `new` is None only where t never references index d (see `PiNu`)."""
    if t._dangling >> d == 0:
        return t
    match t:
        case PiInput(chan=c, body=b):
            return PiInput(_lower(c, d, new), _open(b, d + 1, new))
        case PiOutput(chan=c, payload=p, body=b):
            return PiOutput(_lower(c, d, new), _lower(p, d, new), _open(b, d, new))
        case PiPar(parts=ps):
            return PiPar([_open(p, d, new) for p in ps])
        case PiNu(body=b):
            return PiNu(_open(b, d + 1, new))
    raise TypeError(f"not a pi term: {t!r}")


def open_binder(t: PiTerm, name: str) -> PiTerm:
    """Instantiate dangling index 0 with a free name (shifting the rest)."""
    key = (t, name)
    out = _OPEN_MEMO.get(key)
    if out is None:
        out = _OPEN_MEMO[key] = _open(t, 0, FreeName(name))
    return out


def _raise(r: NameRef, d: int, old: FreeName) -> NameRef:
    if r is old:
        return BoundName(d)
    if type(r) is BoundName and r.index >= d:
        return BoundName(r.index + 1)
    return r


def _close(t: PiTerm, d: int, old: FreeName) -> PiTerm:
    """t under d binders with `old` replaced by index d and the indices from
    d up moved up one; t itself when `old` is not free in t and every
    dangling index is below d."""
    if old.name not in t._free and t._dangling >> d == 0:
        return t
    match t:
        case PiInput(chan=c, body=b):
            return PiInput(_raise(c, d, old), _close(b, d + 1, old))
        case PiOutput(chan=c, payload=p, body=b):
            return PiOutput(_raise(c, d, old), _raise(p, d, old), _close(b, d, old))
        case PiPar(parts=ps):
            return PiPar([_close(p, d, old) for p in ps])
        case PiNu(body=b):
            return PiNu(_close(b, d + 1, old))
    raise TypeError(f"not a pi term: {t!r}")


def close_binder(t: PiTerm, name: str) -> PiTerm:
    """Abstract a free name into dangling index 0 (shifting the rest up)."""
    return _close(t, 0, FreeName(name))


def _rename(t: PiTerm, moved: dict[str, str], refs: dict[NameRef, NameRef]) -> PiTerm:
    """t with each free name that `moved` maps replaced by its image; t
    itself when it holds none.  `refs` maps the references to replace to
    their images; it is filled when the first node is rebuilt, once per
    substitution."""
    if t._free.isdisjoint(moved):
        return t
    key = (t, *[moved.get(n, n) for n in t._names])
    out = _SUBST_MEMO.get(key)
    if out is not None:
        return out
    if not refs:
        refs.update((FreeName(n), FreeName(m)) for n, m in moved.items())
    match t:
        case PiInput(chan=c, body=b):
            out = PiInput(refs.get(c, c), _rename(b, moved, refs))
        case PiOutput(chan=c, payload=p, body=b):
            out = PiOutput(refs.get(c, c), refs.get(p, p), _rename(b, moved, refs))
        case PiPar(parts=ps):
            out = PiPar([_rename(p, moved, refs) for p in ps])
        case PiNu(body=b):
            out = PiNu(_rename(b, moved, refs))
        case _:
            raise TypeError(f"not a pi term: {t!r}")
    _SUBST_MEMO[key] = out
    return out


def pi_substitute(t: PiTerm, sigma: Mapping[str, str]) -> PiTerm:
    """Apply a free-name substitution; capture is impossible since bound
    names are positional.  Result canonical (components may reorder); t
    itself when sigma moves none of its free names."""
    return _rename(t, {n: m for n, m in sigma.items() if n != m}, {})


def fresh_marker(avoid: frozenset[str] | set[str]) -> str:
    k = 0
    while f"#{k}" in avoid:
        k += 1
    return f"#{k}"


# --------------------------------------------------------------------------
# late transition semantics


class InputAct(Record):
    __slots__ = _fields = ("name",)
    co = False

    def __new__(cls, name: str) -> InputAct:
        return cls._make(name)

    def __str__(self) -> str:
        return f"{self.name}(.)"


class FreeOutAct(Record):
    __slots__ = _fields = ("name", "payload")
    _rank = 1
    co = True

    def __new__(cls, name: str, payload: str) -> FreeOutAct:
        return cls._make(name, payload)

    def __str__(self) -> str:
        return f"'{self.name}<{self.payload}>"


class BoundOutAct(Record):
    __slots__ = _fields = ("name",)
    _rank = 2
    co = True

    def __new__(cls, name: str) -> BoundOutAct:
        return cls._make(name)

    def __str__(self) -> str:
        return f"'{self.name}(.)"


PiAction = InputAct | FreeOutAct | BoundOutAct | Tau


# writes a node's `_moves` slot past the immutability guard, as `_derive`
# fills `_size`; only `late_transitions` writes it, on its first call for the
# node
_store_moves = PiTerm._moves.__set__


def _fires(p: PiTerm) -> list[tuple[PiAction, tuple[PiAction, PiTerm]]]:
    """p's moves as `lts._term_moves` takes them: (label, move) pairs, since
    a communication's residual reads both labels."""
    return [(m[0], m) for m in late_transitions(p)]


def _successor(rest: tuple[PiTerm, ...], ms: tuple) -> PiTerm:
    """The successor of a move of `lts._par_moves`, given the components'
    moves ms.  In a communication, a free output's payload instantiates the
    input's residual (COM), and a bound output's name stays bound, by a
    restriction over both residuals and the rest (CLOSE)."""
    if len(ms) == 1:
        return join_par(PiPar, rest, (ms[0][1],))
    (_, ri), (out, ro) = ms if ms[1][0].co else ms[::-1]
    if type(out) is FreeOutAct:
        return join_par(PiPar, rest, (open_binder(ri, out.payload), ro))
    return PiNu(join_par(PiPar, rest, (ri, ro)))


def late_transitions(t: PiTerm) -> tuple[tuple[PiAction, PiTerm], ...]:
    """Late-instantiation transitions of a closed canonical term, as a tuple
    of distinct (action, residual) moves.

    Residuals of InputAct and BoundOutAct are open at index 0 (the received
    or extruded name); FreeOutAct and tau residuals are closed.  The order
    is fixed by the term alone, so it is the same in every process: a
    parallel composition lists its moves in the order of `lts._par_moves`
    (its distinct components' moves, then the communications of each with
    its copy and each later one), and a restriction follows the moves of its
    opened body.  The tuple is stored on the node the first time and
    returned on every later call; two threads that race on a node compute
    and store equal tuples."""
    try:
        return t._moves
    except AttributeError:
        pass
    match t:
        case PiNil():
            moves = ()
        case PiInput(chan=FreeName(name=a), body=b):
            moves = ((InputAct(a), b),)
        case PiOutput(chan=FreeName(name=a), payload=FreeName(name=c), body=b):
            moves = ((FreeOutAct(a, c), b),)
        case PiPar(parts=ps):
            fired = _term_moves(ps, _fires)
            moves = tuple(dict.fromkeys([(a, _successor(rest, ms)) for a, rest, ms in fired]))
        case PiNu(body=b):
            m = fresh_marker(free_names(b))
            out: dict[tuple[PiAction, PiTerm], None] = {}
            for a, res in late_transitions(open_binder(b, m)):
                if a.name == m:
                    continue  # no move on the restricted name reaches the outside
                if type(a) is FreeOutAct and a.payload == m:
                    out[(BoundOutAct(a.name), close_binder(res, m))] = None
                else:
                    out[(a, PiNu(close_binder(res, m)))] = None
            moves = tuple(out)
        case _:
            raise TypeError(f"transitions need a closed canonical term: {t!r}")
    _store_moves(t, moves)
    return moves


# --------------------------------------------------------------------------
# bisimilarity games

_BISIM_MEMO: dict[tuple[PiTerm, PiTerm, str], bool] = {}


def clear_bisim_memo() -> None:
    """Drop the shared game cache and the two renaming memos of
    `open_binder` and `pi_substitute`.  They grow with every game played and
    every renaming; `suites.run_suite` calls this when each suite ends, and
    `cli.main` when each command ends, so neither leaves positions or
    renamings behind for the next one."""
    _BISIM_MEMO.clear()
    _OPEN_MEMO.clear()
    _SUBST_MEMO.clear()


def _grouped(ts: tuple[tuple[PiAction, PiTerm], ...]) -> dict[PiAction, list[PiTerm]]:
    g: dict[PiAction, list[PiTerm]] = {}
    for a, res in ts:
        g.setdefault(a, []).append(res)
    return g


def _pi_bisim(p: PiTerm, q: PiTerm, mode: str) -> bool:
    """The game of one mode, by one challenge rule.  Each move (a, res) of
    either side is a challenge with a list of instantiation names: none for
    a free output or a tau, whose residual is closed; the fresh name (the
    least reserved name free in neither side) for a bound output, and for an
    input in ground mode; every free name of either side plus the fresh one
    for an input in late or early mode.  The other side must answer with a
    move of the same label whose residual, instantiated with each of the
    names, wins against the challenge's residual instantiated with the same
    name: one response for all the names at once, except for an early
    input, which may be answered name by name.  Positions are memoized per
    mode in `_BISIM_MEMO`."""
    if p == q:
        return True
    if sort_key(q) < sort_key(p):
        p, q = q, p
    key = (p, q, mode)
    cached = _BISIM_MEMO.get(key)
    if cached is not None:
        return cached

    gp, gq = _grouped(late_transitions(p)), _grouped(late_transitions(q))
    fresh = fresh_marker(p._free | q._free)
    every = (*sorted(p._free | q._free), fresh)

    def rounds(a: PiAction) -> list[tuple[str | None, ...]]:
        """The challenge's names, as the rounds that one response must win:
        all the names in one round, save for an early input, which has a
        round per name.  None is no name: the residual is played as it is."""
        if a is TAU or type(a) is FreeOutAct:
            return [(None,)]
        if a.co or mode == "ground":
            return [(fresh,)]
        return [(n,) for n in every] if mode == "early" else [every]

    def answered(challenger: dict, responder: dict) -> bool:
        """Whether some response wins each round of each challenge."""
        for a, residuals in challenger.items():
            cands, split = responder[a], rounds(a)
            for res in residuals:
                for names in split:
                    mine = [(n, res if n is None else open_binder(res, n)) for n in names]
                    for r2 in cands:
                        for n, r1 in mine:
                            if not _pi_bisim(r1, r2 if n is None else open_binder(r2, n), mode):
                                break  # r2 loses for n
                        else:
                            break  # r2 wins for every name of the round
                    else:
                        return False  # no response wins the round
        return True

    result = gp.keys() == gq.keys() and answered(gp, gq) and answered(gq, gp)
    _BISIM_MEMO[key] = result
    return result


def ground_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong ground bisimilarity: `_pi_bisim`'s rule with every input and
    bound output instantiated with the fresh name only."""
    return _pi_bisim(p, q, "ground")


def late_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong late bisimilarity: `_pi_bisim`'s rule with an input
    instantiated with every free name and the fresh one, and one response
    that must win for all of them."""
    return _pi_bisim(p, q, "late")


def early_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong early bisimilarity: `_pi_bisim`'s rule with an input
    instantiated with every free name and the fresh one, each name answered
    by a response of its own."""
    return _pi_bisim(p, q, "early")


# --------------------------------------------------------------------------
# equivalence classes by one refinement

# (t, d), or a late input's residual waiting for its name, (res, d, "all")
PiState = tuple[PiTerm, int] | tuple[PiTerm, int, str]


def pi_step(frees: Iterable[str], mode: str) -> Callable[[PiState], list[tuple]]:
    """The step of ground, late or early bisimilarity over closed terms whose
    free names lie in `frees`: the moves of a state, as (label, successor)
    pairs for `lts.refine_partition`.

    A state (t, d) counts the binders d opened on the way to t: the free
    names of t lie in frees and #0..#d-1, so #d is fresh for it.  Free
    outputs and taus keep d; bound outputs, and ground-mode inputs, open the
    binder with #d at level d + 1.  Late and early inputs open it with every
    name of frees and #0..#d, and only #d raises the level: a name free in
    neither of two states acts as the fresh one does (equivariance), so these
    cover every instantiation the games try.  An early input is one move
    ((label, name), instance) per name.  A late input is one move (label,
    (res, d, "all")) to a "for all names" state, which has one move (name,
    instance) per name: the quantifiers of early mode swapped, so one
    responder must match every name at once."""
    if mode not in ("ground", "late", "early"):
        raise ValueError(f"unknown mode {mode!r}")
    frees = sorted(frees)

    def instances(res: PiTerm, d: int) -> list[tuple[str, PiState]]:
        names = frees + [f"#{k}" for k in range(d + 1)]
        return [(n, (open_binder(res, n), d + (n == names[-1]))) for n in names]

    def step(state: PiState) -> list[tuple]:
        if len(state) == 3:
            return instances(*state[:2])
        t, d = state
        out: list[tuple] = []
        for a, res in late_transitions(t):
            if a is TAU or type(a) is FreeOutAct:
                out.append((a, (res, d)))
            elif a.co or mode == "ground":
                out.append((a, (open_binder(res, f"#{d}"), d + 1)))
            elif mode == "late":
                out.append((a, (res, d, "all")))
            else:
                out.extend(((a, n), st) for n, st in instances(res, d))
        return out

    return step


def pi_blocks(roots: Iterable[PiTerm], frees: Iterable[str], mode: str) -> dict[PiState, int]:
    """Ground, late or early bisimilarity classes of closed terms whose free
    names lie in `frees`, as block ids of the states (t, 0) for t in roots.
    Every move of a term state consumes a prefix, and a "for all names"
    state moves to term states only, so the reachable states hold no cycle
    and one `refine_partition` pass decides every class."""
    allowed = frozenset(frees)
    step = pi_step(allowed, mode)
    states = []
    for t in roots:
        if not free_names(t) <= allowed or t._dangling:
            raise ValueError(f"not a closed term over {sorted(allowed)}: {t!r}")
        states.append((t, 0))
    return refine_partition(states, step)


# --------------------------------------------------------------------------
# behaviour of transitions under substitutions that identify names


@dataclass(frozen=True)
class ClassifiedTransition:
    action: PiAction
    residual: PiTerm
    case: str | None  # "1", "2a", "2b", "2c", or None when unexplained


def classify_transitions(p: PiTerm, sigma: Mapping[str, str]) -> list[ClassifiedTransition]:
    """Explain each transition of p.sigma in terms of p's own transitions.

    Visible transitions arise from a p-transition whose label maps to the
    observed one (case 1).  A tau either comes from a tau of p (2a) or from
    an output/input pair offered concurrently by p on channels that sigma
    identifies: free output (2b) or bound output (2c), with the reconstructed
    residual ground-bisimilar to the observed one.  One entry per move of
    `late_transitions(p.sigma)`, in its order.
    """
    ps = pi_substitute(p, sigma)
    tp = late_transitions(p)
    out: list[ClassifiedTransition] = []

    def subst_action(a: PiAction) -> PiAction:
        if a is TAU:
            return a
        c = sigma.get(a.name, a.name)
        if type(a) is FreeOutAct:
            return FreeOutAct(c, sigma.get(a.payload, a.payload))
        return type(a)(c)

    for act_s, res_s in late_transitions(ps):
        tau = act_s is TAU
        if any(subst_action(a) == act_s and pi_substitute(res, sigma) == res_s for a, res in tp):
            tag = "2a" if tau else "1"
        else:
            tag = _match_created_tau(p, tp, sigma, res_s) if tau else None
        out.append(ClassifiedTransition(act_s, res_s, tag))
    return out


def _match_created_tau(
    p: PiTerm,
    tp: tuple[tuple[PiAction, PiTerm], ...],
    sigma: Mapping[str, str],
    res_s: PiTerm,
) -> str | None:
    def identified(a: str, b: str) -> bool:
        return sigma.get(a, a) == sigma.get(b, b)

    for a, res in tp:
        if isinstance(a, FreeOutAct):
            for a2, res2 in late_transitions(res):
                if type(a2) is InputAct and identified(a2.name, a.name):
                    cand = pi_substitute(open_binder(res2, a.payload), sigma)
                    if ground_bisim(cand, res_s):
                        return "2b"
    for a, res in tp:
        if isinstance(a, BoundOutAct):
            m = fresh_marker(free_names(res) | set(sigma) | set(sigma.values()))
            mid = open_binder(res, m)
            for a2, res2 in late_transitions(mid):
                if type(a2) is InputAct and identified(a2.name, a.name):
                    cand = pi_substitute(PiNu(close_binder(open_binder(res2, m), m)), sigma)
                    if ground_bisim(cand, res_s):
                        return "2c"
    return None
