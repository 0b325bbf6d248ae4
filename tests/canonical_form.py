"""A test-side check of the canonical form, written apart from the
constructors that are meant to enforce it."""

from ccspi.pi import BoundName, PiInput, PiNil, PiNu, PiOutput, PiPar, pi_sort_key
from ccspi.terms import Act, Nil, Par, Sum, sort_key


def _uses_index(t, i: int) -> bool:
    """Whether the pi term t references index i counted from its top."""
    match t:
        case PiInput(chan=c, body=b):
            return c == BoundName(i) or _uses_index(b, i + 1)
        case PiOutput(chan=c, payload=p, body=b):
            return BoundName(i) in (c, p) or _uses_index(b, i)
        case PiPar(parts=ps):
            return any(_uses_index(p, i) for p in ps)
        case PiNu(body=b):
            return _uses_index(b, i + 1)
    return False


def _parts_ok(ps, nil, par, key) -> bool:
    keys = [key(p) for p in ps]
    return (
        len(ps) >= 2
        and not any(isinstance(p, (nil, par)) for p in ps)
        and keys == sorted(keys)
    )


def is_canonical(t) -> bool:
    """Every node of t is canonical: Par and PiPar parts number at least two,
    contain no Nil and no nested Par, and are sorted by sort key; Sum parts
    are at least two distinct prefixed terms in strict sort-key order; every
    PiNu body uses index 0."""
    match t:
        case Act(cont=c):
            return is_canonical(c)
        case Par(parts=ps):
            return _parts_ok(ps, Nil, Par, sort_key) and all(map(is_canonical, ps))
        case Sum(parts=ps):
            keys = [sort_key(p) for p in ps]
            return (
                len(ps) >= 2
                and all(isinstance(p, Act) for p in ps)
                and all(a < b for a, b in zip(keys, keys[1:]))
                and all(map(is_canonical, ps))
            )
        case PiInput(body=b) | PiOutput(body=b):
            return is_canonical(b)
        case PiPar(parts=ps):
            return _parts_ok(ps, PiNil, PiPar, pi_sort_key) and all(map(is_canonical, ps))
        case PiNu(body=b):
            return _uses_index(b, 0) and is_canonical(b)
    return True
