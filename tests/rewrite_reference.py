"""Small-step rewriting by the distribution law, one innermost-leftmost
contraction at a time, written apart from `ccspi.rewrite.normalize_steps`,
which normalizes in one bottom-up pass and is tested against it.  It shares
only the redex matcher `_redex_contractions`."""

from collections import Counter

from ccspi.rewrite import _redex_contractions
from ccspi.terms import Act, Nil, Par, Sum, Term, Var, parallel_components


def rewrite_step(t: Term) -> Term | None:
    """Contract the innermost-leftmost redex (components in canonical order),
    or return None if t is a normal form.  Variables are inert leaves."""
    match t:
        case Nil() | Var():
            return None
        case Sum():
            raise ValueError("the distribution law applies to sum-free terms only")
        case Act(prefix=p, cont=c):
            r = rewrite_step(c)
            if r is not None:
                return Act(p, r)
            contracta = _redex_contractions(p, Counter(parallel_components(c)))
            return Par([contracta[0][0]] * contracta[0][1]) if contracta else None
        case Par(parts=ps):
            for i, part in enumerate(ps):
                r = rewrite_step(part)
                if r is not None:
                    return Par(ps[:i] + (r,) + ps[i + 1 :])
            return None
    raise TypeError(f"not a term: {t!r}")
