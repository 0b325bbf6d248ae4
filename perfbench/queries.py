"""The query-mix workload: a seeded stream of `ccspi` commands, each with
the check its answer must pass.

A query carries its command line and a `check(code, doc)` that returns an
error message (None when the answer is right) and any follow-up queries,
which run next and see the previous answer (the idempotence re-normalize,
the strong-bisimilarity companion of a dsim query).  Expected answers come
from how the pair was built (model.py), never from a stored run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from model import (
    NIL,
    PiGen,
    absorption_pair,
    act,
    canon,
    expansion_pair,
    in_context,
    mutate_ccs,
    par,
    prefixes,
    random_ccs,
    show_ccs,
    show_pi,
    shuffle_ccs,
    size,
)

CCS_NAMES = ("a", "b", "c")
PI_FREES = ("a", "b", "c")
ERASE_OBSERVED = ("a", "b")
# Alternating chains have no redex, so their normal form is the chain
# itself; the recursive parser and term walks cannot take them yet.
DEEP_CHAIN_DEPTHS = (3000, 5000)
CHAIN_LENGTHS = (36, 40)

Check = Callable[[int, dict], "tuple[str | None, list[Query]]"]


@dataclass
class Query:
    argv: list[str]
    check: Check
    # a failure of an expected-to-fail query is counted, not an error
    known_fault: bool = False
    kind: str = ""


def _json(argv: list[str]) -> list[str]:
    return argv + ["--format", "json"]


def _outcome(msg: str | None = None, follow: list[Query] | None = None):
    return msg, follow or []


def _mismatch(what: str, code: int, expect: bool | None) -> str | None:
    """An error when a verdict known by construction came out otherwise.
    Exit codes other than 0 and 1 never reach a check: they count as failed."""
    if expect is not None and (code == 0) != expect:
        return f"{what}: exit {code}, expected {0 if expect else 1}"
    return None


# --------------------------------------------------------------------------
# per-command checks


def bisim_ccs(p: str, q: str, expect: bool | None, extra: tuple[str, ...] = ()) -> Query:
    """Sum-free strong bisimilarity: verdicts known by construction must
    hold, and bisimilar sum-free terms always have equal size."""
    sp, sq = size(p), size(q)
    what = f"bisim {' '.join(extra)} {p!r} {q!r}"

    def check(code: int, doc: dict):
        if code == 0 and sp != sq:
            return _outcome(f"{what}: bisimilar but sizes {sp} != {sq}")
        if "--depth" in extra and code == 1:
            depth = doc["payload"].get("distinguishing_depth")
            if not isinstance(depth, int) or depth < 1:
                return _outcome(f"{what}: depth {depth!r}")
        return _outcome(_mismatch(what, code, expect))

    return Query(_json(["bisim", p, q, *extra]), check, kind="bisim-ccs")


def bisim_plus(p: str, q: str, expect: bool | None) -> Query:
    def check(code: int, doc: dict):
        return _outcome(_mismatch(f"bisim --calculus ccs+ {p!r} {q!r}", code, expect))

    return Query(_json(["bisim", p, q, "--calculus", "ccs+"]), check, kind="bisim-ccs+")


def dsim_query(tp: tuple, tq: tuple, strong: bool | None) -> Query:
    """dsim holds exactly on structurally congruent CCS+ terms, and only
    where strong bisimilarity holds too (checked by a follow-up query)."""
    p, q = show_ccs(tp), show_ccs(tq)
    congruent = canon(tp) == canon(tq)

    def check(code: int, doc: dict):
        error = _mismatch(f"dsim {p!r} {q!r} (structural congruence)", code, congruent)
        return _outcome(error, [bisim_plus(p, q, True if code == 0 else strong)])

    return Query(_json(["dsim", p, q]), check, kind="dsim")


def bisim_pi(p: str, q: str, style: str, expect: bool | None) -> Query:
    def check(code: int, doc: dict):
        return _outcome(_mismatch(f"{style} bisim {p!r} {q!r}", code, expect))

    argv = ["bisim", p, q, "--calculus", "pi", "--style", style]
    return Query(_json(argv), check, kind=f"bisim-pi-{style}")


def normalize_query(term: str, known_fault: bool = False, again: bool = True) -> Query:
    """Normalization keeps the size, and the normal form is its own normal
    form (a follow-up query normalizes it again)."""
    n = size(term)

    def check(code: int, doc: dict):
        if code != 0:
            return _outcome(f"normalize exit {code}")
        nf = doc["payload"]["normal_form"]
        if size(nf) != n:
            return _outcome(f"normalize {term[:60]!r}: size {n} became {size(nf)}")
        if not again:
            if doc["payload"]["steps"] != 0 or nf != term:
                return _outcome(f"normal form {nf[:60]!r} is not idempotent")
            return _outcome()
        return _outcome(follow=[normalize_query(nf, known_fault, again=False)])

    return Query(_json(["normalize", term]), check, known_fault, kind="normalize")


def prime_query(term: str) -> Query:
    n = size(term)

    def check(code: int, doc: dict):
        if code != 0:
            return _outcome(f"prime exit {code}")
        comps = doc["payload"]["components"]
        sizes = [size(c) for c in comps]
        if sum(sizes) != n or not all(sizes):
            return _outcome(f"prime {term!r}: component sizes {sizes} for size {n}")
        return _outcome()

    return Query(_json(["prime", term]), check, kind="prime")


def erase_query(term: str, n_prefixes: int) -> Query:
    inp, out = ERASE_OBSERVED
    allowed = {inp, "'" + out}

    def check(code: int, doc: dict):
        if code != 0:
            return _outcome(f"erase exit {code}")
        erased = doc["payload"]["erasure"]
        if not prefixes(erased) <= allowed or size(erased) > n_prefixes:
            return _outcome(f"erase {term!r}: {erased!r} leaves the prefixes {sorted(allowed)}")
        return _outcome()

    return Query(_json(["erase", term, inp, out]), check, kind="erase")


# --------------------------------------------------------------------------
# one round of the mix


def _pi_prefixes(t: tuple) -> int:
    if t[0] in ("in", "out"):
        return 1 + _pi_prefixes(t[3])
    if t[0] == "nu":
        return _pi_prefixes(t[2])
    if t[0] == "|":
        return sum(_pi_prefixes(p) for p in t[1])
    return 0


def deep_chain(depth: int) -> str:
    return ".".join("ab"[i % 2] for i in range(depth)) + ".0"


def make_round(rng: random.Random) -> list[Query]:
    """One round: every command, calculus and style, about half of the
    pairs equivalent by construction.  Every round has the same number of
    queries of each kind."""
    names = CCS_NAMES
    qs: list[Query] = []

    def ccs_size() -> int:
        return rng.randint(6, 8)

    def absorption():
        return absorption_pair(rng, names, rng.randint(1, 2), rng.randint(1, 2))

    # sum-free strong bisimilarity, both routes (the default), then each alone
    for _ in range(3):
        lhs, rhs = absorption()
        qs.append(bisim_ccs(show_ccs(lhs), show_ccs(rhs), True))
    for _ in range(2):
        t = random_ccs(rng, ccs_size(), names)
        qs.append(bisim_ccs(show_ccs(t), show_ccs(shuffle_ccs(rng, t)), True))
    for _ in range(2):
        t = random_ccs(rng, ccs_size(), names)
        qs.append(bisim_ccs(show_ccs(t), show_ccs(mutate_ccs(rng, t)), None))
    t, u = random_ccs(rng, ccs_size(), names), random_ccs(rng, rng.randint(3, 5), names)
    qs.append(bisim_ccs(show_ccs(t), show_ccs(u), False))
    for method in ("oracle", "norm"):
        lhs, rhs = absorption()
        qs.append(bisim_ccs(show_ccs(lhs), show_ccs(rhs), True, ("--method", method)))
        t = random_ccs(rng, ccs_size(), names)
        qs.append(bisim_ccs(show_ccs(t), show_ccs(mutate_ccs(rng, t)), None, ("--method", method)))
    for _ in range(2):
        t = random_ccs(rng, ccs_size(), names)
        qs.append(bisim_ccs(show_ccs(t), show_ccs(mutate_ccs(rng, t)), None, ("--depth",)))

    # CCS with sums: strong and distributed bisimilarity
    t = random_ccs(rng, ccs_size(), names, sums=True)
    qs.append(bisim_plus(show_ccs(t), show_ccs(shuffle_ccs(rng, t)), True))
    lhs, rhs = expansion_pair(rng, names, rng.randint(1, 2), rng.randint(1, 3))
    qs.append(bisim_plus(show_ccs(lhs), show_ccs(rhs), True))
    t = random_ccs(rng, ccs_size(), names, sums=True)
    qs.append(bisim_plus(show_ccs(t), show_ccs(mutate_ccs(rng, t)), None))
    t = random_ccs(rng, ccs_size(), names, sums=True)
    qs.append(dsim_query(t, shuffle_ccs(rng, t), True))
    lhs, rhs = expansion_pair(rng, names, rng.randint(1, 2), rng.randint(1, 3))
    qs.append(dsim_query(lhs, rhs, True))
    t = random_ccs(rng, ccs_size(), names, sums=True)
    qs.append(dsim_query(t, mutate_ccs(rng, t), None))

    # pi: every style on a restricted name extruded over its neighbours
    # (congruent, yet a different canonical term, so the game runs) and on
    # a perturbed copy of such a pair
    gen = PiGen(rng, PI_FREES)
    for style in ("ground", "late", "early"):
        t = gen.scoped(rng.randint(5, 6))
        qs.append(bisim_pi(show_pi(t), show_pi(gen.congruent(t)), style, True))
        t = gen.scoped(rng.randint(5, 6))
        qs.append(bisim_pi(show_pi(t), show_pi(gen.mutate(gen.congruent(t))), style, None))

    # normal forms: redex-rich terms, and same-name prefix chains, whose
    # normalization is cubic in the length; with lengths in a narrow band
    # they are the heavy end of the mix and set query_p99_ms
    for _ in range(2):
        lhs, _ = absorption()
        qs.append(normalize_query(show_ccs(in_context(rng, lhs, names, 2))))
    for _ in range(2):
        head = act(rng.choice(names), rng.random() < 0.5, NIL)
        name, co = rng.choice(names), rng.random() < 0.5
        chain = NIL
        for _ in range(rng.randint(*CHAIN_LENGTHS)):
            chain = act(name, co, chain)
        qs.append(normalize_query(show_ccs(par(head, chain))))

    for _ in range(2):
        lhs, _ = absorption()
        qs.append(prime_query(show_ccs(lhs)))
    for _ in range(2):
        t = gen.term(rng.randint(5, 7), rng.randint(0, 2))
        qs.append(erase_query(show_pi(t), _pi_prefixes(t)))

    return qs


def make_session(rng: random.Random, rounds: int) -> list[Query]:
    """`rounds` rounds of the mix, then the deep-chain queries, which do
    not depend on the seed."""
    qs = [q for _ in range(rounds) for q in make_round(rng)]
    return qs + [normalize_query(deep_chain(d), known_fault=True) for d in DEEP_CHAIN_DEPTHS]
