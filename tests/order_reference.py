"""The canonical order written apart from the keys the nodes store:
recursive key functions over the two term families, and a field-by-field
comparison of name records.  The tests check the stored keys against them,
and the canonical-form check sorts by them, so neither reads the slot it
checks."""

from functools import lru_cache

from ccspi.pi import FreeName, NameRef, PiInput, PiNil, PiNu, PiOutput, PiPar, PiTerm
from ccspi.terms import Act, Nil, Par, Record, Sum, Term, Var


@lru_cache(maxsize=None)
def sort_key(t: Term) -> tuple:
    """Total order on canonical terms: constructor tag, then prefix data,
    then recursive component keys.  Tags keep mixed comparisons well typed."""
    match t:
        case Nil():
            return (0,)
        case Act(prefix=p, cont=c):
            return (1, p.name, p.co, sort_key(c))
        case Par(parts=ps):
            return (2, tuple(sort_key(p) for p in ps))
        case Sum(parts=ps):
            return (3, tuple(sort_key(p) for p in ps))
        case Var(ident=v):
            return (4, v)
    raise TypeError(f"not a term: {t!r}")


def _ref_key(r: NameRef) -> tuple:
    if isinstance(r, FreeName):
        return (0, r.name, 0)
    return (1, "", r.index)


@lru_cache(maxsize=None)
def pi_sort_key(t: PiTerm) -> tuple:
    match t:
        case PiNil():
            return (0,)
        case PiInput(chan=c, body=b):
            return (1, _ref_key(c), pi_sort_key(b))
        case PiOutput(chan=c, payload=p, body=b):
            return (2, _ref_key(c), _ref_key(p), pi_sort_key(b))
        case PiPar(parts=ps):
            return (3, tuple(pi_sort_key(p) for p in ps))
        case PiNu(body=b):
            return (4, pi_sort_key(b))
    raise TypeError(f"not a pi term: {t!r}")


def record_less(self: Record, other: Record) -> bool:
    """`Record.__lt__` on two records of one class: field by field."""
    for f in self._fields:
        mine, theirs = getattr(self, f), getattr(other, f)
        if mine != theirs:
            return mine < theirs
    return False
