"""The distribution law as a rewrite system, and the induced decision
procedure for strong bisimilarity of (possibly open) sum-free CCS terms.

A redex is a subterm of shape eta.(P | (eta.P)^k) with k >= 1; it rewrites
to (eta.P)^(k+1).  The rewrite system terminates (the summed nesting depth
of prefixes strictly decreases) and is confluent, so normal forms are
unique; two ground terms are bisimilar iff their normal forms are equal.

`normalize_steps` computes normal forms in one bottom-up pass: each node is
visited once, after its children are normal, and contracts at most once.
It carries each normal form as its parallel components with their copies,
which is what the one redex matcher, `_redex_contractions`, reads, so a
contraction adds copies to a count and builds no `Par`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

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


def _counts(parts: Iterable[Term]) -> dict[Term, int]:
    """Each distinct part with its number of copies."""
    counts: dict[Term, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return counts


def _redex_contractions(prefix: Prefix, counts: dict[Term, int]) -> list[tuple[Term, int]]:
    """All ways the node prefix.cont matches eta.(P | (eta.P)^k), where
    counts holds cont's parallel components with their copies, each as
    (eta.P, k + 1): the contractum (eta.P)^(k+1).  Ordered by component for
    determinism.

    A candidate component e = eta.P fixes k: cont's components are P's plus
    k copies of e, and every other count must agree exactly with need,
    which counts P's components.  e is larger than every component of P,
    so it is none of them: k is all of counts[e], at least 1."""
    out: list[tuple[Term, int]] = []
    for e in sorted([e for e in counts if type(e) is Act and e.prefix is prefix], key=sort_key):
        need = _counts(parallel_components(e.cont))
        k = need[e] = counts[e]
        if need == counts:
            out.append((e, k + 1))
    return out


def rewrite_candidates(t: Term) -> frozenset[Term]:
    """Every one-step reduct of t (all redex positions and matches), for
    exploring the full reduction graph."""
    out: set[Term] = set()
    match t:
        case Act(prefix=p, cont=c):
            for r in rewrite_candidates(c):
                out.add(Act(p, r))
            counts = _counts(parallel_components(c))
            out.update(Par([e] * n) for e, n in _redex_contractions(p, counts))
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
    part takes the same steps whatever order the parts are rewritten in.

    The pass carries each normal form as its parallel components with their
    copies, as the matcher reads it, and builds a `Par` only for a
    continuation that does not contract and for the result: a contraction
    is then one count, so a chain of n copies of one prefix costs O(1) per
    level, not a new `Par` of k copies at level k."""

    def go(u: Term) -> tuple[dict[Term, int], int]:
        match u:
            case Nil():
                return {}, 0
            case Var():
                return {u: 1}, 0
            case Sum():
                raise ValueError("the distribution law applies to sum-free terms only")
            case Act(prefix=p, cont=c):
                counts, steps = go(c)
                contracta = _redex_contractions(p, counts)
                if contracta:
                    e, copies = contracta[0]
                    return {e: copies}, steps + 1
                return {Act(p, _par(counts)): 1}, steps
            case Par(parts=ps):
                counts, steps = {}, 0
                for part in ps:
                    nf, n = go(part)
                    for e, copies in nf.items():
                        counts[e] = counts.get(e, 0) + copies
                    steps += n
                return counts, steps
        raise TypeError(f"not a term: {u!r}")

    counts, steps = go(t)
    return _par(counts), steps


def _par(counts: dict[Term, int]) -> Term:
    """The parallel composition of each component in counts, in its
    copies."""
    return Par([c for c, n in counts.items() for _ in range(n)])


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
