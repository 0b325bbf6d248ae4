"""A finite, sum-free pi-calculus fragment: canonical terms, the late
transition semantics, and ground / late / early strong bisimilarity.

Binders are represented positionally (de Bruijn indices), so alpha-equivalent
terms are literally equal and substitution is capture-avoiding by
construction.  Free names stay as names.  Terms share the interned node core
of `terms` with their own intern table, which likewise lives as long as the
process: structurally equal terms are one object.  The name references
`FreeName` and `BoundName` are interned records too.  The constructors keep
terms canonical: parallel composition is a flattened sorted multiset without
Nil components (`terms.flat_par`, in the one order of `terms.sort_key`),
and a restriction whose name never occurs is dropped.

Renaming walks (`open_binder`, `close_binder`, `pi_substitute` and the
unused-binder shift in `PiNu`) read each node's stored dangling indices and
free names, and return a subterm unchanged when it holds no reference they
move.  Two memos keep renamings across calls: `open_binder` results per
(node, name), and `pi_substitute` results per node and images of its free
names at every level of the walk, so a subterm is renamed once for all
substitutions that agree on its free names.  They share the game memo's
lifetime: `clear_bisim_memo` empties all three.

Transition residuals for input and bound-output actions are returned as
bodies with the transmitted name still abstracted (dangling index 0); the
bisimulation games decide how to instantiate them.  Instantiation names for
the games are drawn from a reserved namespace ("#0", "#1", ...) disjoint
from source-level names.

Besides the games for single pairs, `pi_blocks` gives the classes of a
whole universe in each mode with the one exploration loop and the one
signature that strong and distributed bisimilarity use (`lts.explore` and
`lts.refine_partition`); only its step, `pi_step`, is the pi calculus's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping

from .lts import explore, refine_partition
from .terms import Node, Record, flat_par, sort_key


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


def _ref_dangling(r: NameRef) -> frozenset[int]:
    return frozenset((r.index,)) if isinstance(r, BoundName) else frozenset()


def _ref_free(r: NameRef) -> frozenset[str]:
    return frozenset((r.name,)) if isinstance(r, FreeName) else frozenset()


def _unbind(indices: frozenset[int]) -> frozenset[int]:
    """Dangling indices of a body, seen from outside one binder."""
    return frozenset(i - 1 for i in indices if i > 0)


# each free-name set that some node has, with its sorted tuple; like the
# intern tables it lives as long as the process, and it holds one entry per
# distinct set, so nodes with equal free names share both objects
_FREE_SETS: dict[frozenset[str], tuple[frozenset[str], tuple[str, ...]]] = {}


class PiTerm(Node):
    """Base class for pi terms.  Every node records, once, the indices it
    references without binding them (see `dangling`), its size (see
    `pi_size`) and its free names (see `free_names`), also as a sorted
    tuple (`_names`, the order of a `pi_substitute` memo key)."""

    __slots__ = ("_dangling", "_size", "_free", "_names")
    _table = {}

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

    def _measures(self) -> tuple[frozenset[int], int, frozenset[str]]:
        """Dangling indices, prefix count and free names, from the fields."""
        return frozenset(), 0, frozenset()


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

    def _measures(self) -> tuple[frozenset[int], int, frozenset[str]]:
        c, b = self.chan, self.body
        return _ref_dangling(c) | _unbind(b._dangling), b._size + 1, _ref_free(c) | b._free


class PiOutput(PiTerm):
    __slots__ = _fields = ("chan", "payload", "body")
    _rank = 2

    def __new__(cls, chan: NameRef, payload: NameRef, body: PiTerm) -> PiOutput:
        return cls._make(chan, payload, body)

    def _measures(self) -> tuple[frozenset[int], int, frozenset[str]]:
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

    def __new__(cls, parts: Iterable[PiTerm]) -> PiTerm:
        return flat_par(cls, PI_NIL, parts)

    def _measures(self) -> tuple[frozenset[int], int, frozenset[str]]:
        ps = self.parts
        return (
            frozenset().union(*(p._dangling for p in ps)),
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
        if 0 in body._dangling:
            return cls._make(body)
        return _open(body, 0, None)

    def _measures(self) -> tuple[frozenset[int], int, frozenset[str]]:
        b = self.body
        return _unbind(b._dangling), b._size, b._free


# --------------------------------------------------------------------------
# measures and renaming


def dangling(t: PiTerm) -> frozenset[int]:
    """Indices referenced in t but not bound inside it, counted from t's top."""
    return t._dangling


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
    indices = t._dangling
    if not indices or max(indices) < d:
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
    indices = t._dangling
    if old.name not in t._free and (not indices or max(indices) < d):
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


@dataclass(frozen=True, order=True)
class InputAct:
    chan: str

    def __str__(self) -> str:
        return f"{self.chan}(.)"


@dataclass(frozen=True, order=True)
class FreeOutAct:
    chan: str
    payload: str

    def __str__(self) -> str:
        return f"'{self.chan}<{self.payload}>"


@dataclass(frozen=True, order=True)
class BoundOutAct:
    chan: str

    def __str__(self) -> str:
        return f"'{self.chan}(.)"


@dataclass(frozen=True, order=True)
class PiTauAct:
    def __str__(self) -> str:
        return "tau"


PI_TAU = PiTauAct()

PiAction = InputAct | FreeOutAct | BoundOutAct | PiTauAct


@lru_cache(maxsize=None)
def late_transitions(t: PiTerm) -> frozenset[tuple[PiAction, PiTerm]]:
    """Late-instantiation transitions of a closed canonical term.

    Residuals of InputAct and BoundOutAct are open at index 0 (the received
    or extruded name); FreeOutAct and tau residuals are closed."""
    match t:
        case PiNil():
            return frozenset()
        case PiInput(chan=FreeName(name=a), body=b):
            return frozenset(((InputAct(a), b),))
        case PiOutput(chan=FreeName(name=a), payload=FreeName(name=c), body=b):
            return frozenset(((FreeOutAct(a, c), b),))
        case PiPar(parts=ps):
            out: set[tuple[PiAction, PiTerm]] = set()
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
                            if isinstance(aj, (InputAct, PiTauAct)) or aj.chan != ai.chan:
                                continue
                            rest = tuple(p for k, p in enumerate(ps) if k not in (i, j))
                            if isinstance(aj, FreeOutAct):
                                out.add((PI_TAU, PiPar((open_binder(ri, aj.payload), rj) + rest)))
                            else:
                                out.add((PI_TAU, PiNu(PiPar((ri, rj) + rest))))
            return frozenset(out)
        case PiNu(body=b):
            m = fresh_marker(free_names(b))
            out = set()
            for a, res in late_transitions(open_binder(b, m)):
                match a:
                    case InputAct(chan=c) | BoundOutAct(chan=c):
                        if c != m:
                            out.add((a, PiNu(close_binder(res, m))))
                    case FreeOutAct(chan=c, payload=pay):
                        if c == m:
                            continue
                        if pay == m:
                            out.add((BoundOutAct(c), close_binder(res, m)))
                        else:
                            out.add((a, PiNu(close_binder(res, m))))
                    case PiTauAct():
                        out.add((a, PiNu(close_binder(res, m))))
            return frozenset(out)
    raise TypeError(f"transitions need a closed canonical term: {t!r}")


# --------------------------------------------------------------------------
# bisimilarity games

_BISIM_MEMO: dict[tuple[PiTerm, PiTerm, str], bool] = {}


def clear_bisim_memo() -> None:
    """Drop the shared game cache and the two renaming memos of
    `open_binder` and `pi_substitute`.  They grow with every game played and
    every renaming; the pi suites call this once, when they finish, so a
    suite leaves no positions or renamings behind for the next one."""
    _BISIM_MEMO.clear()
    _OPEN_MEMO.clear()
    _SUBST_MEMO.clear()


def _labels(ts: frozenset[tuple[PiAction, PiTerm]]) -> frozenset[PiAction]:
    return frozenset(a for a, _ in ts)


def _grouped(ts: frozenset[tuple[PiAction, PiTerm]]) -> dict[PiAction, list[PiTerm]]:
    g: dict[PiAction, list[PiTerm]] = {}
    for a, res in ts:
        g.setdefault(a, []).append(res)
    return g


def _pi_bisim(p: PiTerm, q: PiTerm, mode: str) -> bool:
    if p == q:
        return True
    if sort_key(q) < sort_key(p):
        p, q = q, p
    key = (p, q, mode)
    cached = _BISIM_MEMO.get(key)
    if cached is not None:
        return cached

    tp, tq = late_transitions(p), late_transitions(q)
    if _labels(tp) != _labels(tq):
        _BISIM_MEMO[key] = False
        return False

    fresh = fresh_marker(free_names(p) | free_names(q))
    inst_names = sorted(free_names(p) | free_names(q)) + [fresh]
    gp, gq = _grouped(tp), _grouped(tq)

    def match_all(challenger: dict, responder: dict) -> bool:
        for a, residuals in challenger.items():
            cands = responder[a]
            for res in residuals:
                if isinstance(a, (FreeOutAct, PiTauAct)):
                    if not any(_pi_bisim(res, r2, mode) for r2 in cands):
                        return False
                elif isinstance(a, BoundOutAct):
                    opened = open_binder(res, fresh)
                    if not any(_pi_bisim(opened, open_binder(r2, fresh), mode) for r2 in cands):
                        return False
                else:  # InputAct
                    if mode == "ground":
                        opened = open_binder(res, fresh)
                        if not any(
                            _pi_bisim(opened, open_binder(r2, fresh), mode) for r2 in cands
                        ):
                            return False
                    elif mode == "late":
                        if not any(
                            all(
                                _pi_bisim(open_binder(res, n), open_binder(r2, n), mode)
                                for n in inst_names
                            )
                            for r2 in cands
                        ):
                            return False
                    else:  # early
                        for n in inst_names:
                            opened = open_binder(res, n)
                            if not any(
                                _pi_bisim(opened, open_binder(r2, n), mode) for r2 in cands
                            ):
                                return False
        return True

    result = match_all(gp, gq) and match_all(gq, gp)
    _BISIM_MEMO[key] = result
    return result


def ground_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong ground bisimilarity: inputs and bound outputs are instantiated
    with one canonical fresh name (the least reserved name free in neither
    state)."""
    return _pi_bisim(p, q, "ground")


def late_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong late bisimilarity: one responder continuation must work for
    every instantiation name in fn(p) | fn(q) plus a fresh one."""
    return _pi_bisim(p, q, "late")


def early_bisim(p: PiTerm, q: PiTerm) -> bool:
    """Strong early bisimilarity: the responder may pick a continuation per
    instantiation name."""
    return _pi_bisim(p, q, "early")


# --------------------------------------------------------------------------
# equivalence classes by one refinement

PiState = tuple[PiTerm, int]


def pi_step(frees: Iterable[str], mode: str) -> Callable[[PiState], list[tuple]]:
    """The step of ground, late or early bisimilarity over closed terms whose
    free names lie in `frees`: the moves of a state, as flat tuples for
    `explore`.

    A state (t, d) counts the binders d opened on the way to t: the free
    names of t lie in frees and #0..#d-1, so #d is fresh for it.  Free
    outputs and taus keep d; bound outputs, and ground-mode inputs, open the
    binder with #d at level d + 1.  Late and early inputs open it with every
    name of frees and #0..#d, and only #d raises the level: a name free in
    neither of two states acts as the fresh one does (equivariance), so these
    cover every instantiation the games try.  A late input is one move
    (label, successor per name) for each residual, so one responder must
    match every name at once; an early input is one move ((label, name),
    successor) per name."""
    if mode not in ("ground", "late", "early"):
        raise ValueError(f"unknown mode {mode!r}")
    frees = sorted(frees)

    def step(state: PiState) -> list[tuple]:
        t, d = state
        fresh = f"#{d}"
        out: list[tuple] = []
        for a, res in late_transitions(t):
            if isinstance(a, (FreeOutAct, PiTauAct)):
                out.append((a, (res, d)))
            elif isinstance(a, BoundOutAct) or mode == "ground":
                out.append((a, (open_binder(res, fresh), d + 1)))
            else:
                names = frees + [f"#{k}" for k in range(d + 1)]
                insts = [(open_binder(res, n), d + (n == fresh)) for n in names]
                if mode == "late":
                    out.append((a, *insts))
                else:
                    out.extend(((a, n), st) for n, st in zip(names, insts))
        return out

    return step


def pi_blocks(roots: Iterable[PiTerm], frees: Iterable[str], mode: str) -> dict[PiState, int]:
    """Ground, late or early bisimilarity classes of closed terms whose free
    names lie in `frees`, as block ids of the states (t, 0) for t in roots.
    Every step of `pi_step` consumes a prefix, so one `refine_partition`
    pass ranked by `pi_size` decides every class."""
    allowed = frozenset(frees)
    step = pi_step(allowed, mode)
    states = []
    for t in roots:
        if not free_names(t) <= allowed or dangling(t):
            raise ValueError(f"not a closed term over {sorted(allowed)}: {t!r}")
        states.append((t, 0))
    return refine_partition(explore(states, step).items(), rank=lambda state: pi_size(state[0]))


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
    residual ground-bisimilar to the observed one.
    """
    ps = pi_substitute(p, sigma)
    tp = late_transitions(p)
    out: list[ClassifiedTransition] = []

    def subst_action(a: PiAction) -> PiAction:
        match a:
            case InputAct(chan=c):
                return InputAct(sigma.get(c, c))
            case FreeOutAct(chan=c, payload=v):
                return FreeOutAct(sigma.get(c, c), sigma.get(v, v))
            case BoundOutAct(chan=c):
                return BoundOutAct(sigma.get(c, c))
        return a

    for act_s, res_s in sorted(late_transitions(ps), key=lambda e: (str(e[0]), sort_key(e[1]))):
        tag: str | None = None
        if not isinstance(act_s, PiTauAct):
            for a, res in tp:
                if subst_action(a) == act_s and pi_substitute(res, sigma) == res_s:
                    tag = "1"
                    break
        else:
            for a, res in tp:
                if isinstance(a, PiTauAct) and pi_substitute(res, sigma) == res_s:
                    tag = "2a"
                    break
            if tag is None:
                tag = _match_created_tau(p, tp, sigma, res_s)
        out.append(ClassifiedTransition(act_s, res_s, tag))
    return out


def _match_created_tau(
    p: PiTerm,
    tp: frozenset[tuple[PiAction, PiTerm]],
    sigma: Mapping[str, str],
    res_s: PiTerm,
) -> str | None:
    def identified(a: str, b: str) -> bool:
        return sigma.get(a, a) == sigma.get(b, b)

    for a, res in tp:
        if isinstance(a, FreeOutAct):
            for a2, res2 in late_transitions(res):
                if isinstance(a2, InputAct) and identified(a2.chan, a.chan):
                    cand = pi_substitute(open_binder(res2, a.payload), sigma)
                    if ground_bisim(cand, res_s):
                        return "2b"
    for a, res in tp:
        if isinstance(a, BoundOutAct):
            m = fresh_marker(free_names(res) | set(sigma) | set(sigma.values()))
            mid = open_binder(res, m)
            for a2, res2 in late_transitions(mid):
                if isinstance(a2, InputAct) and identified(a2.chan, a.chan):
                    cand = pi_substitute(PiNu(close_binder(open_binder(res2, m), m)), sigma)
                    if ground_bisim(cand, res_s):
                        return "2c"
    return None
