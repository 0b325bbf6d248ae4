"""Bounded enumeration and seeded random generation of canonical terms.

Enumerators build every canonical term within a size bound exactly once,
each parallel composition and each sum from one multiset of components,
and return them in a deterministic order: ascending size, then the
canonical term order.  Sizes count prefix occurrences.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, groupby, product
from typing import Callable, Iterator

from .terms import NIL, Act, Par, Prefix, Sum, Term, Var, sort_key
from .pi import (
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


def prefix_alphabet(names: tuple[str, ...]) -> tuple[Prefix, ...]:
    """Both polarities of each name, sorted."""
    return tuple(sorted(Prefix(n, co) for n in names for co in (False, True)))


def _splits(budget: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every way to share budget, a tuple of counts, among two or more
    parts that are not all zero, once each: as the non-increasing tuple of
    its parts."""
    zero = (0,) * len(budget)
    out: list[tuple[tuple[int, ...], ...]] = []

    def go(left: tuple[int, ...], cap: tuple[int, ...], acc: tuple[tuple[int, ...], ...]) -> None:
        if left == zero:
            if len(acc) >= 2:
                out.append(acc)
            return
        for part in product(*(range(k + 1) for k in left)):
            if zero < part <= cap:
                go(tuple(k - d for k, d in zip(left, part)), part, acc + (part,))

    go(budget, budget, ())
    return out


def _picks(parts: tuple, pool: Callable[[tuple], tuple], distinct: bool) -> Iterator[list]:
    """Every multiset of members that draws one member of pool(part) for
    each part, once each.  Equal parts, adjacent in a non-increasing tuple,
    draw their members together: as combinations when the members must be
    distinct, else as combinations with replacement."""
    draw = combinations if distinct else combinations_with_replacement
    groups = [draw(pool(part), len(list(run))) for part, run in groupby(parts)]
    for chosen in product(*groups):
        yield [member for group in chosen for member in group]


@lru_cache(maxsize=None)
def _level(n: int, alphabet: tuple[Prefix, ...], sums: bool) -> tuple[tuple[Term, ...], ...]:
    """The canonical ground terms with exactly n prefixes, with guarded sums
    or sum-free, as (prefixed, components, terms): the prefixed terms; the
    parallel components, which with sums add the sums of >= 2 distinct
    prefixed terms (idempotence would collapse equal summands); and all of
    them, components and parallel compositions of >= 2 components, sorted.
    The first two are pools for `_picks`, in no particular order."""
    if n == 0:
        return (), (), (NIL,)
    prefixed = tuple(Act(p, t) for p in alphabet for t in _level(n - 1, alphabet, sums)[2])
    splits = _splits((n,))
    components = prefixed
    if sums:
        components += tuple(
            Sum(c)
            for parts in splits
            for c in _picks(parts, lambda part: _level(*part, alphabet, sums)[0], True)
        )
    terms = list(components)
    for parts in splits:
        for c in _picks(parts, lambda part: _level(*part, alphabet, sums)[1], False):
            terms.append(Par(c))
    terms.sort(key=sort_key)
    return prefixed, components, tuple(terms)


def ccs_terms_of_size(n: int, alphabet: tuple[Prefix, ...]) -> tuple[Term, ...]:
    """All canonical sum-free ground terms with exactly n prefixes."""
    return _level(n, alphabet, False)[2]


def ccs_terms_upto(n: int, alphabet: tuple[Prefix, ...]) -> list[Term]:
    out: list[Term] = []
    for k in range(n + 1):
        out.extend(ccs_terms_of_size(k, alphabet))
    return out


def ccs_plus_terms_upto(n: int, alphabet: tuple[Prefix, ...]) -> list[Term]:
    out: list[Term] = []
    for k in range(n + 1):
        out.extend(_level(k, alphabet, True)[2])
    return out


# --------------------------------------------------------------------------
# pi terms


@lru_cache(maxsize=None)
def _pi_cells(prefix_count: int, nu_count: int, frees: tuple[str, ...], depth: int):
    """Canonical pi terms with exactly the given prefix and restriction
    counts, under `depth` enclosing binders (all of which may be referenced).
    Returns (all_terms, non_par_terms): the former sorted, the latter, the
    legal Par components, a pool for `_picks` in no particular order.  A
    term's counts fix its cell, so the pools of distinct cells are
    disjoint."""
    channels: tuple[NameRef, ...] = tuple(FreeName(n) for n in frees) + tuple(
        BoundName(k) for k in range(depth)
    )
    comps: list[PiTerm] = []
    if prefix_count > 0:
        for body in _pi_cells(prefix_count - 1, nu_count, frees, depth + 1)[0]:
            comps.extend(PiInput(c, body) for c in channels)
        for body in _pi_cells(prefix_count - 1, nu_count, frees, depth)[0]:
            comps.extend(PiOutput(c, payload, body) for c in channels for payload in channels)
    if nu_count > 0:
        for body in _pi_cells(prefix_count, nu_count - 1, frees, depth + 1)[0]:
            if body._dangling & 1:
                comps.append(PiNu(body))
    terms = list(comps) if prefix_count + nu_count else [PI_NIL]
    for parts in _splits((prefix_count, nu_count)):
        for c in _picks(parts, lambda part: _pi_cells(*part, frees, depth)[1], False):
            terms.append(PiPar(c))
    terms.sort(key=sort_key)
    return tuple(terms), tuple(comps)


def pi_terms_upto(max_prefixes: int, max_nus: int, frees: tuple[str, ...]) -> list[PiTerm]:
    """All closed canonical terms with at most the given numbers of prefixes
    and restrictions, free names drawn from frees."""
    terms = [
        t
        for p in range(max_prefixes + 1)
        for v in range(max_nus + 1)
        for t in _pi_cells(p, v, frees, 0)[0]
    ]
    return sorted(terms, key=lambda t: (pi_size(t), sort_key(t)))


# --------------------------------------------------------------------------
# random generation (seeded)


def random_ccs_open(rng: random.Random, max_size: int, var_names: tuple[str, ...],
                    names: tuple[str, ...] = ("a", "b", "c")) -> Term:
    """A canonical, possibly open, sum-free term with at most max_size
    prefixes."""
    alphabet = prefix_alphabet(names)

    def go(budget: int) -> Term:
        choices = ["nil", "var"]
        if budget >= 1:
            choices += ["act"] * 3
        if budget >= 2:
            choices += ["par"] * 2
        match rng.choice(choices):
            case "nil":
                return NIL
            case "var":
                return Var(rng.choice(var_names))
            case "act":
                return Act(rng.choice(alphabet), go(budget - 1))
            case _:
                k = rng.randint(1, budget - 1)
                return Par((go(k), go(budget - k)))

    return go(max_size)


def random_pi(rng: random.Random, max_prefixes: int, max_nus: int,
              frees: tuple[str, ...]) -> PiTerm:
    """A closed canonical pi term within the prefix/restriction budgets."""
    # the name references usable under each number of enclosing binders
    refs: list[NameRef] = [FreeName(n) for n in frees]
    channels_at: list[list[NameRef]] = [refs]
    for k in range(max_prefixes + max_nus):
        refs = refs + [BoundName(k)]
        channels_at.append(refs)

    def go(p_budget: int, v_budget: int, depth: int) -> PiTerm:
        channels = channels_at[depth]
        choices = ["nil"]
        if p_budget >= 1:
            choices += ["input", "output"] * 3
        if v_budget >= 1:
            choices += ["nu"] * 2
        if p_budget >= 2:
            choices += ["par"] * 2
        match rng.choice(choices):
            case "nil":
                return PI_NIL
            case "input":
                return PiInput(rng.choice(channels), go(p_budget - 1, v_budget, depth + 1))
            case "output":
                return PiOutput(
                    rng.choice(channels), rng.choice(channels), go(p_budget - 1, v_budget, depth)
                )
            case "nu":
                # PiNu drops an unused binder and fixes up the indices
                return PiNu(go(p_budget, v_budget - 1, depth + 1))
            case _:
                k = rng.randint(1, p_budget - 1)
                v = rng.randint(0, v_budget)
                return PiPar((go(k, v, depth), go(p_budget - k, v_budget - v, depth)))

    return go(max_prefixes, max_nus, 0)


def all_substitutions(domain: tuple[str, ...], targets: tuple[str, ...]) -> list[dict[str, str]]:
    """Every map from domain into targets."""
    out = []
    for image in product(targets, repeat=len(domain)):
        out.append(dict(zip(domain, image)))
    return out
