"""Process terms for microCCS and its extension with guarded sums.

Terms are immutable trees kept in a canonical form that quotients out
structural congruence: parallel composition is a flattened, sorted
multiset with Nil components removed, and sums are flattened, sorted
*sets* (idempotence) of prefixed terms.  Each node kind has exactly one
constructor, its class, and that constructor applies these rules, so no
term can be built in non-canonical form.

Nodes are hash-consed: a constructor looks its canonical result up in its
class's own intern table, keyed by the node's one field or, for a class of
several fields, through one nested dict per field, and returns the node
already there.  No node keeps a key tuple.  Structurally congruent terms
are therefore the same object, and equality and hashing are the identity
ones inherited from `object`.  The intern tables hold every node ever built
and live as long as the process.  They are never cleared: a term held in
some cache would otherwise get an unequal twin.  Action prefixes and
transition labels, and the name references of pi terms, are interned the
same way (see `Record`).  One total order, `sort_key`, serves every node:
each node's key, (rank, *field keys), flat for the children of a parallel
composition or a sum, is derived once, when the node is built, and lives as
long as its node.  A successor of a parallel composition keeps the
components that stayed put in that order, so `join_par` builds it by
inserting only the residuals, and sorts nothing again.  A pi node also
carries its moves once they are first asked for (`pi.late_transitions`): a
tuple stored on the node, which lives as long as the node too.  A CCS node
keeps none: `lts.transitions` derives them on every call.

Open terms may contain process variables (written uppercase); these are
opaque leaves that can stand in parallel contexts and under prefixes but
never head a transition.
"""

from __future__ import annotations

from bisect import insort
from functools import total_ordering
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable, Mapping

Name = str  # channel names: lowercase identifiers, compared by equality


class Node:
    """Interned, immutable tree node shared by the CCS and pi term families.

    A concrete class declares its structural fields as `__slots__` and
    `_fields`, and builds instances with `_make`.  Every class gets its own
    intern table, `_table`, from `__init_subclass__`.  For a class of one
    field it is keyed by the field itself (so a hit on a `Par` looks up its
    parts tuple and builds no key).  For a class of k >= 2 fields it is k
    nested dicts, `_table[f1]...[fk]`: each field but the last picks the
    next level, and the last keys the node, so no node keeps a fields tuple.
    The field with many values, the child term, must come last, so that the
    inner dicts stay few: one per name, prefix, channel or channel pair.  A
    class of no fields keys its one node by None.  `_intern` publishes every
    new level and node with `dict.setdefault`, so two threads can never
    publish two nodes for one key.  `_derive` may fill further slots
    computed once per node from its fields.  `_intern` itself fills `_key`,
    built from the children's keys (see `sort_key`), so no walk derives it.
    """

    __slots__ = ("_key",)
    _fields: tuple[str, ...] = ()
    _rank = 0  # orders the classes of one family
    _table: dict

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._table = {}

    @classmethod
    def _make(cls, *fields):
        # a hit reads one level per field; the last level holds the node
        node = cls._table
        for f in fields:
            node = node.get(f)
            if node is None:
                return cls._intern(fields)
        return node if fields else cls._intern(fields)

    @classmethod
    def _intern(cls, fields: tuple):
        """The node of fields, built and published if none is yet.  Each
        level of the table is published by `setdefault`, as the node is."""
        table = cls._table
        for f in fields[:-1]:
            table = table.setdefault(f, {})
        key = fields[-1] if fields else None
        node = table.get(key)
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
            # the children of a class whose one field is a tuple follow the
            # rank flat
            items = key if len(fields) == 1 and type(key) is tuple else fields
            order = (cls._rank, *[f._key if isinstance(f, Node) else f for f in items])
            object.__setattr__(node, "_key", order)
            node._derive()
            node = table.setdefault(key, node)
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


# The one total order on nodes: a node's key is (_rank, *field keys), a field
# key being the child's key or the value.  The one field of a parallel
# composition or a sum is a tuple of children; their keys follow the rank
# directly, (_rank, *child keys), which orders such nodes as the nested tuple
# of child keys would.
sort_key: Callable[[Node], tuple] = attrgetter("_key")


def _par_node(cls: type[Node], parts: tuple[Node, ...]) -> Node:
    """`cls._make(parts)` for the one-field `Par` or `PiPar`, whose intern
    table maps the parts tuple itself to its node."""
    return cls._table.get(parts) or cls._intern((parts,))


def flat_par(cls: type[Node], parts: Iterable[Node]) -> Node:
    """The constructor of `Par` and `PiPar`, their `__new__`: the canonical
    parallel composition of parts.  Nested `cls` nodes are flattened, the
    family's nil (`cls._nil`) components dropped and the rest sorted; the
    nil for no component and the component itself for one."""
    nil = cls._nil
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
    return _par_node(cls, tuple(items))


def join_par(cls: type[Node], rest: tuple[Node, ...], residuals: Iterable[Node]) -> Node:
    """`cls(rest + residuals)` for rest a canonical component tuple of the
    family (sorted, with no nil and no `cls` node), as the steps of
    `lts.transitions` and `pi.late_transitions` build a successor: rest is
    not sorted again, and each residual, or each component of one that is
    a `cls` node, is inserted in its place, the family's nil dropped."""
    nil = cls._nil
    items = list(rest)
    for r in residuals:
        if isinstance(r, cls):
            for p in r.parts:
                insort(items, p, key=sort_key)
        elif r is not nil:
            insort(items, r, key=sort_key)
    if len(items) > 1:
        return _par_node(cls, tuple(items))
    return items[0] if items else nil


@total_ordering
class Record(Node):
    """Base of the interned records: `Prefix` here, `lts.Tau`, and in `pi`
    the name references `FreeName` and `BoundName` and the transition
    labels.  Like terms, equal records are one object, so they compare and
    hash by identity and an intern key that holds one hashes in C.  Unlike
    terms, records compare with `<` (by `sort_key`) and show their fields
    by name."""

    __slots__ = ()

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

    def __str__(self) -> str:
        return ("'" if self.co else "") + self.name


class Term(Node):
    """Base class for CCS terms.  Every node records its size once (see
    `size`): None on an open term."""

    __slots__ = ("_size",)

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
    _nil = NIL
    __new__ = flat_par

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


def instantiate(t: Term, mapping: Mapping[str, Term]) -> Term:
    """Replace process variables by terms; canonical result.  Variables
    outside mapping are kept."""

    def go(u: Term) -> Term:
        match u:
            case Var(ident=v):
                return mapping.get(v, u)
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
