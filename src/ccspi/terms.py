"""Process terms for microCCS and its extension with guarded sums.

Terms are immutable trees kept in a canonical form that quotients out
structural congruence: parallel composition is a flattened, sorted
multiset with Nil components removed, and sums are flattened, sorted
*sets* (idempotence) of prefixed terms.  Each node kind has exactly one
constructor, its class, and that constructor applies these rules, so no
term can be built in non-canonical form.

Nodes are hash-consed: a constructor looks its canonical result up in an
intern table shared by the term family and returns the node already there.
Structurally congruent terms are therefore the same object, and equality
and hashing are the identity ones inherited from `object`.  The intern
tables hold every node ever built and live as long as the process.  They
are never cleared: a term held in some cache would otherwise get an
unequal twin.  Action prefixes, and the name references of pi terms, are
interned the same way (see `Record`).  One total order, `sort_key`, serves
every node: each node's key is derived once, when the node is built, and
lives as long as its node.

Open terms may contain process variables (written uppercase); these are
opaque leaves that can stand in parallel contexts and under prefixes but
never head a transition.
"""

from __future__ import annotations

from functools import total_ordering
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Mapping

Name = str  # channel names: lowercase identifiers, compared by equality


class Node:
    """Interned, immutable tree node shared by the CCS and pi term families.

    A concrete class declares its structural fields as `__slots__` and
    `_fields`, and builds instances with `_make`, which publishes a new node
    with `dict.setdefault` in the family's `_table`, so two threads can
    never publish two nodes for one key.  `_derive` may fill further slots
    computed once per node from its fields.  `_make` itself fills `_key`,
    built from the children's keys (see `sort_key`), so no walk derives it.
    """

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()
    _rank = 0  # orders the classes of one family
    _table: dict[tuple, Node]

    @classmethod
    def _make(cls, *fields):
        key = (cls, *fields)
        node = cls._table.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            object.__setattr__(node, "_key", (cls._rank, *map(_field_key, fields)))
            node._derive()
            node = cls._table.setdefault(key, node)
        return node

    def _derive(self) -> None:
        pass

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __repr__(self) -> str:
        args = ", ".join(repr(getattr(self, f)) for f in self._fields)
        return f"{type(self).__name__}({args})"


def _field_key(value: object) -> object:
    if isinstance(value, Node):
        return value._key
    if type(value) is tuple:
        return tuple([p._key for p in value])
    return value


# The one total order on nodes: a node's key is (_rank, *field keys), a field
# key being the child's key, the tuple of the children's keys, or the value.
sort_key: Callable[[Node], tuple] = attrgetter("_key")


def flat_par(cls: type[Node], nil: Node, parts: Iterable[Node]) -> Node:
    """The canonical parallel composition of parts, for `Par` and `PiPar`:
    nested `cls` nodes are flattened, `nil` components dropped and the rest
    sorted; `nil` for no component and the component itself for one."""
    items: list[Node] = []
    for p in parts:
        if isinstance(p, cls):
            items.extend(p.parts)
        elif p is not nil:
            items.append(p)
    if not items:
        return nil
    if len(items) == 1:
        return items[0]
    items.sort(key=sort_key)
    return cls._make(tuple(items))


@total_ordering
class Record(Node):
    """Base of the interned name records: `Prefix` here, `FreeName` and
    `BoundName` in `pi`.  Like terms, equal records are one object, so they
    compare and hash by identity and an intern key that holds one hashes in
    C.  Unlike terms, records compare with `<` (by `sort_key`) and show
    their fields by name."""

    __slots__ = ()
    _table = {}

    def __lt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key < other._key

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class Prefix(Record):
    """An action prefix: a name with a polarity ('a denotes the coaction)."""

    __slots__ = _fields = ("name", "co")

    def __new__(cls, name: Name, co: bool = False) -> Prefix:
        return cls._make(name, co)

    def complement(self) -> Prefix:
        return Prefix(self.name, not self.co)

    def __str__(self) -> str:
        return ("'" if self.co else "") + self.name


class Term(Node):
    """Base class for CCS terms.  Every node records its size once (see
    `size`): None on an open term."""

    __slots__ = ("_size",)
    _table = {}

    def _derive(self) -> None:
        object.__setattr__(self, "_size", self._own_size())

    def _own_size(self) -> int | None:
        return 0


def _total_size(parts: tuple[Term, ...]) -> int | None:
    sizes = [p._size for p in parts]
    return None if None in sizes else sum(sizes)


class Nil(Term):
    __slots__ = ()

    def __new__(cls) -> Nil:
        return cls._make()


NIL = Nil()


class Act(Term):
    __slots__ = _fields = ("prefix", "cont")
    _rank = 1

    def __new__(cls, prefix: Prefix, cont: Term) -> Act:
        return cls._make(prefix, cont)

    def _own_size(self) -> int | None:
        n = self.cont._size
        return None if n is None else n + 1


class Par(Term):
    """Parallel composition, made canonical by `flat_par`."""

    __slots__ = _fields = ("parts",)
    _rank = 2

    def __new__(cls, parts: Iterable[Term]) -> Term:
        return flat_par(cls, NIL, parts)

    def _own_size(self) -> int | None:
        return _total_size(self.parts)


class Sum(Term):
    """Guarded sum.  The constructor flattens nested sums, drops Nil, removes
    duplicate summands and sorts the rest; it returns NIL for no summand and
    the summand itself for one.  Summands must be prefixed."""

    __slots__ = _fields = ("parts",)
    _rank = 3

    def __new__(cls, parts: Iterable[Term]) -> Term:
        items: set[Term] = set()
        for p in parts:
            if isinstance(p, Sum):
                items.update(p.parts)
            elif isinstance(p, Act):
                items.add(p)
            elif p is not NIL:
                raise ValueError("summands must be prefixed")
        if not items:
            return NIL
        ordered = sorted(items, key=sort_key)
        if len(ordered) == 1:
            return ordered[0]
        return cls._make(tuple(ordered))

    def _own_size(self) -> int | None:
        return _total_size(self.parts)


class Var(Term):
    __slots__ = _fields = ("ident",)
    _rank = 4

    def __new__(cls, ident: str) -> Var:
        return cls._make(ident)

    def _own_size(self) -> None:
        return None


# --------------------------------------------------------------------------
# parallel structure


def parallel_components(t: Term) -> tuple[Term, ...]:
    """The canonical parallel decomposition of t: empty for Nil, the
    component tuple for a Par, and a singleton otherwise."""
    match t:
        case Nil():
            return ()
        case Par(parts=ps):
            return ps
        case _:
            return (t,)


# --------------------------------------------------------------------------
# measures and name tooling


def is_ground(t: Term) -> bool:
    """Whether t holds no process variable: exactly the terms with a size."""
    return t._size is not None


def variables(t: Term) -> frozenset[str]:
    match t:
        case Var(ident=v):
            return frozenset((v,))
        case Act(cont=c):
            return variables(c)
        case Par(parts=ps) | Sum(parts=ps):
            return frozenset().union(*(variables(p) for p in ps)) if ps else frozenset()
        case _:
            return frozenset()


def prefixes(t: Term) -> frozenset[Prefix]:
    """All prefixes occurring anywhere in t (with polarity)."""
    match t:
        case Act(prefix=p, cont=c):
            return prefixes(c) | {p}
        case Par(parts=ps) | Sum(parts=ps):
            return frozenset().union(*(prefixes(p) for p in ps)) if ps else frozenset()
        case _:
            return frozenset()


def names(t: Term) -> frozenset[Name]:
    return frozenset(p.name for p in prefixes(t))


def size(t: Term) -> int:
    """Number of prefix occurrences.  Undefined on open terms: a variable
    could be instantiated with processes of any size."""
    n = t._size
    if n is None:
        raise ValueError("size undefined on open terms")
    return n


def weight(t: Term, depth: int = 1) -> int:
    """Sum of nesting depths of all prefix occurrences (head prefix at
    depth 1).  Each distribution-law step strictly decreases it, so it
    bounds rewrite sequence length."""
    match t:
        case Act(cont=c):
            return depth + weight(c, depth + 1)
        case Par(parts=ps) | Sum(parts=ps):
            return sum(weight(p, depth) for p in ps)
        case _:
            return 0


def contribution(t: Term, eta: Prefix) -> int:
    """Size contributed to t by parallel components headed by eta:
    a component eta.P counts size(eta.P), other prefixed components count 0,
    parallel compositions add up."""
    match t:
        case Nil():
            return 0
        case Act(prefix=p):
            return size(t) if p == eta else 0
        case Par(parts=ps):
            return sum(contribution(p, eta) for p in ps)
        case Var():
            raise ValueError("contribution undefined on open terms")
    raise TypeError(f"contribution undefined here: {t!r}")


def substitute(t: Term, sigma: Mapping[Name, Name]) -> Term:
    """Rename prefix names via sigma (polarity preserved); canonical result.
    Names outside sigma's domain are left unchanged."""

    def go(u: Term) -> Term:
        match u:
            case Nil() | Var():
                return u
            case Act(prefix=p, cont=c):
                return Act(Prefix(sigma.get(p.name, p.name), p.co), go(c))
            case Par(parts=ps):
                return Par(go(p) for p in ps)
            case Sum(parts=ps):
                return Sum(go(p) for p in ps)
        raise TypeError(f"not a term: {u!r}")

    return go(t)


def instantiate(t: Term, mapping: Mapping[str, Term], *, require_ground: bool = False) -> Term:
    """Replace process variables by terms; canonical result.  With
    require_ground, leftover variables raise instead of being kept."""

    def go(u: Term) -> Term:
        match u:
            case Var(ident=v):
                if v in mapping:
                    return mapping[v]
                if require_ground:
                    raise ValueError(f"variable {v} not covered by the instantiation")
                return u
            case Nil():
                return u
            case Act(prefix=p, cont=c):
                return Act(p, go(c))
            case Par(parts=ps):
                return Par(go(p) for p in ps)
            case Sum(parts=ps):
                return Sum(go(p) for p in ps)
        raise TypeError(f"not a term: {u!r}")

    return go(t)


def fresh_names(avoid: Iterable[Name], count: int) -> list[Name]:
    """Deterministic supply of names a, b, ..., z, aa, ab, ... skipping
    the avoided set."""
    taken = set(avoid)
    out: list[Name] = []
    letters = "abcdefghijklmnopqrstuvwxyz"
    width = 1
    while len(out) < count:
        for tup in product(letters, repeat=width):
            cand = "".join(tup)
            if cand not in taken:
                taken.add(cand)
                out.append(cand)
                if len(out) == count:
                    break
        width += 1
    return out
