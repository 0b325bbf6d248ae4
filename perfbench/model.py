"""The benchmark's own model of the three concrete syntaxes.

Nothing here imports ccspi: terms are plain tuples, generated from a seeded
`random.Random`, printed in the grammar `ccspi` parses, and compared up to
structural congruence by a canonical form written from the calculus
definitions.  The query-mix and suites workloads use it to build inputs
whose verdicts are known by construction.

CCS nodes:  ("0",)  (".", name, co, cont)  ("|", parts)  ("+", parts)
Pi nodes:   ("0",)  ("in", chan, binder, body)  ("out", chan, payload, body)
            ("nu", binder, body)  ("|", parts)
"""

from __future__ import annotations

import itertools
import random
import re

NIL = ("0",)

# --------------------------------------------------------------------------
# CCS and CCS+


def act(name: str, co: bool, cont: tuple) -> tuple:
    return (".", name, co, cont)


def par(*parts: tuple) -> tuple:
    return ("|", tuple(parts))


def show_ccs(t: tuple) -> str:
    """Print a CCS term in the syntax `ccspi` reads ('a is the coaction)."""
    kind = t[0]
    if kind == "0":
        return "0"
    if kind == ".":
        cont = t[3]
        body = show_ccs(cont)
        if cont[0] in ("|", "+") and len(cont[1]) > 1:
            body = f"({body})"
        return ("'" if t[2] else "") + t[1] + "." + body
    if kind == "+":
        return " + ".join(show_ccs(p) for p in t[1])
    return " | ".join(
        f"({show_ccs(p)})" if p[0] == "|" and len(p[1]) > 1 else show_ccs(p) for p in t[1]
    )


def size(text: str) -> int:
    """Prefix occurrences of a printed CCS term: every name token is one."""
    return len(re.findall(r"[a-z][a-z0-9_]*", text))


def prefixes(text: str) -> set[str]:
    """The distinct prefixes ('a for a coaction) of a printed CCS term."""
    return set(re.findall(r"'?[a-z][a-z0-9_]*", text))


def canon(t: tuple) -> tuple:
    """Canonical form modulo structural congruence: parallel composition is
    an associative, commutative multiset with unit 0, guarded sum an
    associative, commutative, idempotent set.  Two CCS+ terms are
    structurally congruent exactly when their canonical forms are equal."""
    kind = t[0]
    if kind == "0":
        return NIL
    if kind == ".":
        return act(t[1], t[2], canon(t[3]))
    items: list[tuple] = []
    for p in t[1]:
        c = canon(p)
        if c[0] == kind:
            items.extend(c[1])
        elif c != NIL:
            items.append(c)
    if kind == "+":
        items = list(set(items))
    items.sort(key=repr)
    if not items:
        return NIL
    return items[0] if len(items) == 1 else (kind, tuple(items))


def _split(rng: random.Random, n: int, parts: int) -> list[int]:
    """n split into `parts` positive summands (parts <= n)."""
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def random_ccs(rng: random.Random, n: int, names: tuple[str, ...], sums: bool = False) -> tuple:
    """A random term with exactly n prefixes over the given names."""
    if n == 0:
        return NIL
    shapes = ["act", "act"] + (["par"] if n >= 2 else []) + (["sum"] if sums and n >= 2 else [])
    shape = rng.choice(shapes)
    if shape == "act":
        return act(rng.choice(names), rng.random() < 0.5, random_ccs(rng, n - 1, names, sums))
    k = rng.randint(2, min(3, n))
    sizes = _split(rng, n, k)
    if shape == "par":
        return ("|", tuple(random_ccs(rng, m, names, sums) for m in sizes))
    return (
        "+",
        tuple(
            act(rng.choice(names), rng.random() < 0.5, random_ccs(rng, m - 1, names, sums))
            for m in sizes
        ),
    )


def shuffle_ccs(rng: random.Random, t: tuple) -> tuple:
    """A structurally congruent variant: components and summands permuted,
    parallel 0 components inserted, nested products regrouped."""
    kind = t[0]
    if kind == "0":
        return t
    if kind == ".":
        return act(t[1], t[2], shuffle_ccs(rng, t[3]))
    parts = [shuffle_ccs(rng, p) for p in t[1]]
    rng.shuffle(parts)
    if kind == "+":
        if rng.random() < 0.3:
            parts.append(rng.choice(parts))  # idempotence
        return ("+", tuple(parts))
    if rng.random() < 0.3:
        parts.insert(rng.randrange(len(parts) + 1), NIL)
    if len(parts) >= 3 and rng.random() < 0.5:
        parts = [("|", tuple(parts[:2]))] + parts[2:]
    return ("|", tuple(parts))


def mutate_ccs(rng: random.Random, t: tuple) -> tuple:
    """The same term with the polarity of one prefix flipped."""
    target = rng.randrange(max(1, size(show_ccs(t))))
    position = itertools.count()

    def go(u: tuple) -> tuple:
        if u[0] == ".":
            flip = next(position) == target
            return act(u[1], u[2] != flip, go(u[3]))
        if u[0] in ("|", "+"):
            return (u[0], tuple(go(p) for p in u[1]))
        return u

    return go(t)


def in_context(rng: random.Random, t: tuple, names: tuple[str, ...], extra: int) -> tuple:
    """t placed in a random prefix/parallel context with `extra` prefixes;
    strong bisimilarity is a congruence for both operators."""
    shape = rng.choice(("par", "prefix", "prefix-par"))
    if shape == "par" or extra < 2:
        return par(t, random_ccs(rng, extra, names))
    if shape == "prefix":
        return act(rng.choice(names), rng.random() < 0.5, in_context(rng, t, names, extra - 1))
    return act(rng.choice(names), rng.random() < 0.5, par(t, random_ccs(rng, extra - 1, names)))


def absorption_pair(rng: random.Random, names: tuple[str, ...], inner: int, extra: int):
    """Both sides of the distribution law eta.(P | (eta.P)^k) ~ (eta.P)^(k+1)
    inside one shared random context: bisimilar by construction."""
    name, co = rng.choice(names), rng.random() < 0.5
    p = random_ccs(rng, inner, names)
    k = rng.randint(1, 2)
    copies = [act(name, co, p)] * k
    left = act(name, co, par(p, *copies))
    right = par(*([act(name, co, p)] * (k + 1)))
    state = rng.getstate()
    lhs = in_context(rng, left, names, extra)
    rng.setstate(state)
    rhs = in_context(rng, right, names, extra)
    return lhs, rhs


def expansion_pair(rng: random.Random, names: tuple[str, ...], inner: int, extra: int):
    """x.P | y.Q versus x.(P | y.Q) + y.(x.P | Q) with x, y unable to
    synchronise, in a shared context: strongly bisimilar (the expansion law)
    but never structurally congruent."""
    x = (rng.choice(names), rng.random() < 0.5)
    y = x
    while y == (x[0], not x[1]):
        y = (rng.choice(names), rng.random() < 0.5)
    p, q = random_ccs(rng, inner, names), random_ccs(rng, inner, names)
    xp, yq = act(*x, p), act(*y, q)
    left = par(xp, yq)
    right = ("+", (act(*x, par(p, yq)), act(*y, par(xp, q))))
    state = rng.getstate()
    lhs = in_context(rng, left, names, extra)
    rng.setstate(state)
    rhs = in_context(rng, right, names, extra)
    return lhs, rhs


# --------------------------------------------------------------------------
# pi


def show_pi(t: tuple) -> str:
    """Print a pi term: input a(x).P, output a<b>.P, restriction (nu x)P."""
    kind = t[0]
    if kind == "0":
        return "0"
    if kind == "|":
        return " | ".join(show_pi(p) for p in t[1])
    if kind == "in":
        return f"{t[1]}({t[2]}).{_pi_pre(t[3])}"
    if kind == "out":
        return f"{t[1]}<{t[2]}>.{_pi_pre(t[3])}"
    return f"(nu {t[1]}){_pi_pre(t[2])}"


def _pi_pre(t: tuple) -> str:
    return f"({show_pi(t)})" if t[0] == "|" else show_pi(t)


class PiGen:
    """Seeded random closed pi terms; every binder gets a fresh name, so
    the congruence rewrites below never capture."""

    def __init__(self, rng: random.Random, frees: tuple[str, ...]):
        self.rng = rng
        self.frees = frees
        self.fresh = 0

    def binder(self) -> str:
        self.fresh += 1
        return f"x{self.fresh}"

    def term(self, n: int, nus: int, env: tuple[str, ...] = ()) -> tuple:
        rng = self.rng
        if n == 0:
            return NIL
        chans = self.frees + env
        shapes = ["in", "out", "in", "out"] + (["nu"] if nus else []) + (["par"] if n >= 2 else [])
        shape = rng.choice(shapes)
        if shape == "in":
            x = self.binder()
            return ("in", rng.choice(chans), x, self.term(n - 1, nus, env + (x,)))
        if shape == "out":
            return ("out", rng.choice(chans), rng.choice(chans), self.term(n - 1, nus, env))
        if shape == "nu":
            x = self.binder()
            return ("nu", x, self.term(n, nus - 1, env + (x,)))
        k = rng.randint(1, n - 1)
        v = rng.randint(0, nus)
        return ("|", (self.term(k, v, env), self.term(n - k, nus - v, env)))

    def scoped(self, n: int) -> tuple:
        """(nu x)(c<x>.P) | Q with n prefixes: the restricted name is sent
        out, so it is extruded when the output fires."""
        x = self.binder()
        k = self.rng.randint(2, n - 1)
        body = ("out", self.rng.choice(self.frees), x, self.term(k - 1, 1, (x,)))
        return ("|", (("nu", x, body), self.term(n - k, 1)))

    def congruent(self, t: tuple, renaming: dict | None = None) -> tuple:
        """A structurally congruent variant: binders alpha-renamed, parallel
        components permuted, 0 components and unused restrictions added, and
        restrictions extruded over parallel neighbours."""
        rng = self.rng
        renaming = dict(renaming or {})
        kind = t[0]
        if kind == "0":
            return t
        if kind == "in":
            y = self.binder()
            renaming[t[2]] = y
            return ("in", renaming.get(t[1], t[1]), y, self.congruent(t[3], renaming))
        if kind == "out":
            return (
                "out",
                renaming.get(t[1], t[1]),
                renaming.get(t[2], t[2]),
                self.congruent(t[3], renaming),
            )
        if kind == "nu":
            y = self.binder()
            renaming[t[1]] = y
            out = ("nu", y, self.congruent(t[2], renaming))
            return ("nu", self.binder(), out) if rng.random() < 0.2 else out
        parts = [self.congruent(p, renaming) for p in t[1]]
        rng.shuffle(parts)
        if rng.random() < 0.3:
            parts.append(NIL)
        nus = [i for i, p in enumerate(parts) if p[0] == "nu"]
        if nus and rng.random() < 0.5:
            # (nu x)P | Q == (nu x)(P | Q): binders are globally fresh, so
            # x is never free in Q
            i = rng.choice(nus)
            _, x, body = parts[i]
            rest = parts[:i] + parts[i + 1 :]
            return ("nu", x, ("|", (body, *rest)))
        return ("|", tuple(parts))

    def mutate(self, t: tuple) -> tuple:
        """Each free input channel and free output payload replaced by a
        random free name with probability 0.3."""
        kind = t[0]
        if kind == "in":
            chan = t[1]
            if chan in self.frees and self.rng.random() < 0.3:
                chan = self.rng.choice(self.frees)
            return ("in", chan, t[2], self.mutate(t[3]))
        if kind == "out":
            payload = t[2]
            if payload in self.frees and self.rng.random() < 0.3:
                payload = self.rng.choice(self.frees)
            return ("out", t[1], payload, self.mutate(t[3]))
        if kind == "nu":
            return ("nu", t[1], self.mutate(t[2]))
        if kind == "|":
            return ("|", tuple(self.mutate(p) for p in t[1]))
        return t


# --------------------------------------------------------------------------
# the CCS universe sizes, counted without enumerating


def count_ccs_upto(n: int, n_prefixes: int) -> int:
    """Canonical sum-free ground terms with at most n prefixes over an
    alphabet of `n_prefixes` prefixes.

    A term of size m is a multiset of prefixed terms whose sizes sum to m,
    and there are n_prefixes * T(k - 1) prefixed terms of size k, so T is
    the Euler transform of those counts:
    m * T(m) = sum_{j=1..m} c(j) * T(m - j), c(j) = sum_{d | j} d * P(d).
    """
    t, p, c = [1] + [0] * n, [0] * (n + 1), [0] * (n + 1)
    for m in range(1, n + 1):
        p[m] = n_prefixes * t[m - 1]
        c[m] = sum(d * p[d] for d in range(1, m + 1) if m % d == 0)
        t[m] = sum(c[j] * t[m - j] for j in range(1, m + 1)) // m
    return sum(t)
