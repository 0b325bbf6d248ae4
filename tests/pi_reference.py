"""The pi renamings as one generic walk that rebuilds every node, written
apart from the walks in `ccspi.pi` that they check: those skip the subterms
that hold nothing to move, and memoize `open_binder` and `pi_substitute`.
The same walk collects the dangling indices that `ccspi.pi` stores on each
node as a bit set."""

from typing import Callable, Mapping

from ccspi.pi import (
    BoundName,
    FreeName,
    NameRef,
    PiInput,
    PiNil,
    PiNu,
    PiOutput,
    PiPar,
    PiTerm,
    free_names,
)


def _map_refs(t: PiTerm, fn: Callable[[NameRef, int], NameRef], depth: int = 0) -> PiTerm:
    """Rebuild t applying fn to every name reference; fn receives the number
    of binders between the reference and the top of t.  Canonical output."""
    match t:
        case PiNil():
            return t
        case PiInput(chan=c, body=b):
            return PiInput(fn(c, depth), _map_refs(b, fn, depth + 1))
        case PiOutput(chan=c, payload=p, body=b):
            return PiOutput(fn(c, depth), fn(p, depth), _map_refs(b, fn, depth))
        case PiPar(parts=ps):
            return PiPar(_map_refs(p, fn, depth) for p in ps)
        case PiNu(body=b):
            return PiNu(_map_refs(b, fn, depth + 1))
    raise TypeError(f"not a pi term: {t!r}")


def dangling(t: PiTerm) -> frozenset[int]:
    """The indices t references without binding them, counted from t's top:
    each bound reference that points past the binders above it."""
    found: set[int] = set()

    def fn(r: NameRef, d: int) -> NameRef:
        if isinstance(r, BoundName) and r.index >= d:
            found.add(r.index - d)
        return r

    _map_refs(t, fn)
    return frozenset(found)


def drop_unused_binder(body: PiTerm) -> PiTerm:
    """What `PiNu(body)` returns when body never references index 0."""

    def fn(r: NameRef, d: int) -> NameRef:
        if isinstance(r, BoundName) and r.index > d:
            return BoundName(r.index - 1)
        return r

    return _map_refs(body, fn)


def open_binder(t: PiTerm, name: str) -> PiTerm:
    """Instantiate dangling index 0 with a free name (shifting the rest)."""

    def fn(r: NameRef, d: int) -> NameRef:
        if isinstance(r, BoundName):
            if r.index == d:
                return FreeName(name)
            if r.index > d:
                return BoundName(r.index - 1)
        return r

    return _map_refs(t, fn)


def close_binder(t: PiTerm, name: str) -> PiTerm:
    """Abstract a free name into dangling index 0 (shifting the rest up)."""

    def fn(r: NameRef, d: int) -> NameRef:
        if isinstance(r, FreeName) and r.name == name:
            return BoundName(d)
        if isinstance(r, BoundName) and r.index >= d:
            return BoundName(r.index + 1)
        return r

    return _map_refs(t, fn)


def pi_substitute(t: PiTerm, sigma: Mapping[str, str]) -> PiTerm:
    """Apply a free-name substitution; capture is impossible since bound
    names are positional.  Result canonical (components may reorder); t
    itself when sigma moves none of its free names."""
    if all(sigma.get(n, n) == n for n in free_names(t)):
        return t

    def fn(r: NameRef, d: int) -> NameRef:
        if isinstance(r, FreeName) and r.name in sigma:
            return FreeName(sigma[r.name])
        return r

    return _map_refs(t, fn)
