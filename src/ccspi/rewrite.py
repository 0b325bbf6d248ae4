"""The distribution law as a rewrite system, and the induced decision
procedure for strong bisimilarity of (possibly open) sum-free CCS terms.

A redex is a subterm of shape eta.(P | (eta.P)^k) with k >= 1; it rewrites
to (eta.P)^(k+1).  The rewrite system terminates (the summed nesting depth
of prefixes strictly decreases) and is confluent, so normal forms are
unique; two ground terms are bisimilar iff their normal forms are equal.

`normalize_steps` computes normal forms in one bottom-up pass: each node is
visited once, after its children are normal, and contracts at most once.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .terms import (
    Act,
    Nil,
    Par,
    Prefix,
    Sum,
    Term,
    Var,
    is_ground,
    parallel_components,
    sort_key,
)


def _redex_contractions(prefix: Prefix, cont: Term) -> list[Term]:
    """All ways the node prefix.cont matches eta.(P | (eta.P)^k), each giving
    the contractum (eta.P)^(k+1).  Ordered by component for determinism.

    A candidate component e = eta.P fixes k: cont's components are P's plus
    k copies of e, and every other count must agree exactly with need,
    which counts P's components.  e is larger than every component of P,
    so it is none of them: k is all of counts[e], at least 1."""
    counts = Counter(parallel_components(cont))
    out: list[Term] = []
    for e in sorted(counts, key=sort_key):
        if not (isinstance(e, Act) and e.prefix == prefix):
            continue
        need = Counter(parallel_components(e.cont))
        k = need[e] = counts[e]
        if need == counts:
            out.append(Par([e] * (k + 1)))
    return out


def rewrite_candidates(t: Term) -> frozenset[Term]:
    """Every one-step reduct of t (all redex positions and matches), for
    exploring the full reduction graph."""
    out: set[Term] = set()
    match t:
        case Act(prefix=p, cont=c):
            for r in rewrite_candidates(c):
                out.add(Act(p, r))
            out.update(_redex_contractions(p, c))
        case Par(parts=ps):
            for i, part in enumerate(ps):
                for r in rewrite_candidates(part):
                    out.add(Par(ps[:i] + (r,) + ps[i + 1 :]))
        case Sum():
            raise ValueError("the distribution law applies to sum-free terms only")
        case _:
            pass
    return frozenset(out)


def normalize_steps(t: Term) -> tuple[Term, int]:
    """The normal form of t and the number of steps that small-step
    rewriting, one innermost-leftmost contraction at a time, takes to reach
    it.

    One bottom-up pass: a Par normalizes part by part and adds their step
    counts; an Act normalizes its continuation, then tries one contraction
    at its own node.  A contractum (eta.P)^(k+1) built from a normal
    continuation is already normal, so no node is visited twice.  Confluence
    makes the normal form the same as small-step rewriting's.  The count is
    the same too: small steps also normalize a continuation before they
    contract the node above, and parallel parts never interact, so each
    part takes the same steps whatever order the parts are rewritten in."""

    def go(u: Term) -> tuple[Term, int]:
        match u:
            case Nil() | Var():
                return u, 0
            case Sum():
                raise ValueError("the distribution law applies to sum-free terms only")
            case Act(prefix=p, cont=c):
                nc, steps = go(c)
                contracta = _redex_contractions(p, nc)
                return (contracta[0], steps + 1) if contracta else (Act(p, nc), steps)
            case Par(parts=ps):
                done = [go(part) for part in ps]
                return Par(nf for nf, _ in done), sum(steps for _, steps in done)
        raise TypeError(f"not a term: {u!r}")

    return go(t)


@lru_cache(maxsize=None)
def normalize(t: Term) -> Term:
    """The unique normal form of a (possibly open) sum-free term.  Variables
    never head a redex but may appear inside matched continuations."""
    return normalize_steps(t)[0]


def decide_bisim(p: Term, q: Term) -> bool:
    """Strong bisimilarity of ground sum-free terms, decided by comparing
    distribution-law normal forms."""
    return normalize(p) == normalize(q)


# --------------------------------------------------------------------------
# prime decomposition


def prime_decompose(p: Term) -> tuple[Term, ...]:
    """The multiset (sorted tuple) of prime components of p's normal form.
    Every prefixed normal form is prime, and the decomposition is unique."""
    if not is_ground(p):
        raise ValueError("prime decomposition undefined on open terms")
    return parallel_components(normalize(p))
