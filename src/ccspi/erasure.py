"""Erasing pi-calculus terms to sum-free CCS relative to a pair of
observed channels.

Relative to distinct names (a, b): inputs on a keep their continuation
under the CCS prefix a, outputs on b keep theirs under the coaction 'b,
every other prefix erases to 0, and restrictions are dropped.  The erased
term therefore uses only the prefixes a and 'b, so it can never step by
tau.  Erasure turns ground-bisimilar pi terms into bisimilar CCS terms,
which transfers CCS non-bisimilarity results back into the pi-calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import transitions
from .terms import NIL, Act, Par, Prefix, Term
from .pi import (
    FreeName,
    FreeOutAct,
    PiInput,
    PiNil,
    PiNu,
    PiOutput,
    PiPar,
    PiTerm,
    free_names,
    fresh_marker,
    late_transitions,
    open_binder,
)


@dataclass(frozen=True)
class ErasureContext:
    input_name: str
    output_name: str

    def __post_init__(self) -> None:
        if self.input_name == self.output_name:
            raise ValueError("erasure needs two distinct observed names")


def erase(p: PiTerm, ctx: ErasureContext) -> Term:
    """The CCS erasure of p relative to ctx; canonical output.  A restricted
    channel is positionally bound, so it never matches the observed free
    names, and payloads are ignored entirely."""
    match p:
        case PiNil():
            return NIL
        case PiInput(chan=c, body=b):
            if c == FreeName(ctx.input_name):
                return Act(Prefix(ctx.input_name), erase(b, ctx))
            return NIL
        case PiOutput(chan=c, body=b):
            if c == FreeName(ctx.output_name):
                return Act(Prefix(ctx.output_name, co=True), erase(b, ctx))
            return NIL
        case PiPar(parts=ps):
            return Par(erase(q, ctx) for q in ps)
        case PiNu(body=b):
            return erase(b, ctx)
    raise TypeError(f"not a pi term: {p!r}")


def check_erasure_transitions(p: PiTerm, ctx: ErasureContext) -> bool:
    """One-step correspondence between p and erase(p): the transitions of
    the erasure are exactly an a-transition for each input of p on
    ctx.input_name and a 'b-transition for each output on ctx.output_name
    (free or bound), to the erased targets.  In particular the erasure never
    steps by tau or by any other prefix."""
    observed = {(ctx.input_name, False), (ctx.output_name, True)}
    z = fresh_marker(free_names(p))
    expected: set[tuple[Prefix, Term]] = set()
    for action, res in late_transitions(p):
        if (action.name, action.co) in observed:
            if type(action) is not FreeOutAct:
                res = open_binder(res, z)
            expected.add((Prefix(action.name, action.co), erase(res, ctx)))
    return set(transitions(erase(p, ctx))) == expected

