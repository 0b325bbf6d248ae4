"""The exhaustive enumerators as they were before `ccspi.generate` built
each multiset of components once: every parallel product and every sum is
built once per ordering of its components, and a set and a size filter
throw the repeats away.  The tests check that the enumerators in
`ccspi.generate` return these universes tuple for tuple."""

from functools import lru_cache
from itertools import product

from ccspi.pi import (
    PI_NIL,
    BoundName,
    FreeName,
    NameRef,
    PiInput,
    PiNu,
    PiOutput,
    PiPar,
    PiTerm,
    pi_size,
)
from ccspi.terms import NIL, Act, Par, Prefix, Sum, Term, size, sort_key


def _partitions(n: int, max_parts: int | None = None, least: int = 1) -> list[tuple[int, ...]]:
    """Additive partitions of n into parts >= least, non-increasing order."""
    out: list[tuple[int, ...]] = []

    def go(remaining: int, cap: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(acc)
            return
        if max_parts is not None and len(acc) == max_parts:
            return
        for part in range(min(cap, remaining), least - 1, -1):
            go(remaining - part, part, acc + (part,))

    go(n, n, ())
    return out


@lru_cache(maxsize=None)
def _prefixed_of_size(n: int, alphabet: tuple[Prefix, ...], sums: bool) -> tuple[Term, ...]:
    if n == 0:
        return ()
    return tuple(
        sorted(
            (Act(p, t) for p in alphabet for t in _terms_of_size(n - 1, alphabet, sums)),
            key=sort_key,
        )
    )


@lru_cache(maxsize=None)
def _components_of_size(n: int, alphabet: tuple[Prefix, ...], sums: bool) -> tuple[Term, ...]:
    """The parallel components with exactly n prefixes: the prefixed terms
    and, with sums, the sums of >= 2 distinct prefixed terms (idempotence
    collapses duplicate summands, which would change the size)."""
    prefixed = _prefixed_of_size(n, alphabet, sums)
    if not sums:
        return prefixed
    found: set[Term] = set(prefixed)
    for parts in _partitions(n):
        if len(parts) < 2:
            continue
        pools = [_prefixed_of_size(k, alphabet, sums) for k in parts]
        for combo in product(*pools):
            t = Sum(combo)
            if isinstance(t, Sum) and size(t) == n:
                found.add(t)
    return tuple(sorted(found, key=sort_key))


@lru_cache(maxsize=None)
def _terms_of_size(n: int, alphabet: tuple[Prefix, ...], sums: bool) -> tuple[Term, ...]:
    """All canonical ground terms with exactly n prefixes, with guarded
    sums or sum-free."""
    if n == 0:
        return (NIL,)
    found: set[Term] = set(_components_of_size(n, alphabet, sums))
    for parts in _partitions(n):
        if len(parts) < 2:
            continue
        pools = [_components_of_size(k, alphabet, sums) for k in parts]
        for combo in product(*pools):
            found.add(Par(combo))
    return tuple(sorted(found, key=sort_key))


def ccs_terms_of_size(n: int, alphabet: tuple[Prefix, ...]) -> tuple[Term, ...]:
    """All canonical sum-free ground terms with exactly n prefixes."""
    return _terms_of_size(n, alphabet, False)


def ccs_terms_upto(n: int, alphabet: tuple[Prefix, ...]) -> list[Term]:
    out: list[Term] = []
    for k in range(n + 1):
        out.extend(ccs_terms_of_size(k, alphabet))
    return out


def ccs_plus_terms_upto(n: int, alphabet: tuple[Prefix, ...]) -> list[Term]:
    out: list[Term] = []
    for k in range(n + 1):
        out.extend(_terms_of_size(k, alphabet, True))
    return out


@lru_cache(maxsize=None)
def _pi_cells(prefix_count: int, nu_count: int, frees: tuple[str, ...], depth: int):
    """Canonical pi terms with exactly the given prefix and restriction
    counts, under `depth` enclosing binders (all of which may be referenced).
    Returns (all_terms, non_par_terms); the latter are legal Par components."""
    channels: tuple[NameRef, ...] = tuple(FreeName(n) for n in frees) + tuple(
        BoundName(k) for k in range(depth)
    )
    comps: set[PiTerm] = set()
    if prefix_count > 0:
        for body in _pi_all(prefix_count - 1, nu_count, frees, depth + 1):
            for c in channels:
                comps.add(PiInput(c, body))
        for body in _pi_all(prefix_count - 1, nu_count, frees, depth):
            for c in channels:
                for payload in channels:
                    comps.add(PiOutput(c, payload, body))
    if nu_count > 0:
        for body in _pi_all(prefix_count, nu_count - 1, frees, depth + 1):
            if body._dangling & 1:
                comps.add(PiNu(body))
    terms: set[PiTerm] = set(comps)
    if prefix_count + nu_count == 0:
        terms.add(PI_NIL)
    splits: list[list[tuple[int, int]]] = []

    def split_budgets(p_left: int, v_left: int, acc: list[tuple[int, int]]) -> None:
        if len(acc) >= 2 and p_left == 0 and v_left == 0:
            splits.append(list(acc))
        for dp in range(p_left + 1):
            for dv in range(v_left + 1):
                if dp + dv == 0:
                    continue
                cell = (dp, dv)
                if acc and cell > acc[-1]:
                    continue  # non-increasing budget tuples avoid some dups
                split_budgets(p_left - dp, v_left - dv, acc + [cell])

    split_budgets(prefix_count, nu_count, [])
    for budgets in splits:
        pools = [_pi_cells(dp, dv, frees, depth)[1] for dp, dv in budgets]
        for combo in product(*pools):
            t = PiPar(combo)
            if pi_size(t) == prefix_count:
                terms.add(t)
    return tuple(sorted(terms, key=sort_key)), tuple(sorted(comps, key=sort_key))


def _pi_all(prefix_count: int, nu_count: int, frees: tuple[str, ...], depth: int):
    return _pi_cells(prefix_count, nu_count, frees, depth)[0]


def pi_terms_upto(max_prefixes: int, max_nus: int, frees: tuple[str, ...]) -> list[PiTerm]:
    """All closed canonical terms with at most the given numbers of prefixes
    and restrictions, free names drawn from frees."""
    found: set[PiTerm] = set()
    for p in range(max_prefixes + 1):
        for v in range(max_nus + 1):
            found.update(_pi_all(p, v, frees, 0))
    return sorted(found, key=lambda t: (pi_size(t), sort_key(t)))
