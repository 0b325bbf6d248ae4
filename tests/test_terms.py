"""Canonical term representation: interned constructors, measures, renaming."""

import random
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canonical_form import is_canonical
from ccspi.generate import (
    ccs_plus_terms_upto,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_ccs_open,
    random_pi,
)
from ccspi.lts import TAU, Tau
from ccspi.pi import FreeName, PiPar
from ccspi.terms import (
    NIL,
    Act,
    Nil,
    Node,
    Par,
    Prefix,
    Sum,
    Var,
    contribution,
    fresh_names,
    instantiate,
    is_ground,
    names,
    parallel_components,
    prefixes,
    size,
    sort_key,
    substitute,
    variables,
    weight,
)

A = Prefix("a")
B = Prefix("b")
COA = Prefix("a", co=True)

a0 = Act(A, NIL)
b0 = Act(B, NIL)


def prefix_st():
    return st.builds(Prefix, st.sampled_from("ab"), st.booleans())


def term_st(with_vars=False):
    base = st.just(NIL)
    if with_vars:
        base = base | st.builds(Var, st.sampled_from(["X", "Y"]))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(Act, prefix_st(), kids),
            st.lists(kids, min_size=2, max_size=3).map(Par),
        ),
        max_leaves=6,
    )


def raw_term_st():
    """Arbitrary constructor calls: Nil parts, nested compositions and sums,
    single parts and duplicate summands included."""

    def extend(kids):
        guarded = st.builds(Act, prefix_st(), kids)
        summands = st.lists(guarded | st.just(NIL), max_size=3)
        return st.one_of(
            guarded,
            st.lists(kids, max_size=4).map(Par),
            summands.map(lambda xs: Sum(xs + [Sum(xs)])),
        )

    return st.recursive(st.sampled_from([NIL, Var("X"), Var("Y")]), extend, max_leaves=8)


def rebuild(t):
    """Build t again from fresh field values, with components reversed."""
    match t:
        case Act(prefix=p, cont=c):
            return Act(Prefix(p.name, p.co), rebuild(c))
        case Par(parts=ps):
            return Par(rebuild(p) for p in reversed(ps))
        case Sum(parts=ps):
            return Sum(rebuild(p) for p in reversed(ps))
        case Var(ident=v):
            return Var(v)
    return Nil()


def test_prefix_polarity():
    assert str(A) == "a"
    assert str(COA) == "'a"
    assert A != COA


def test_par_flattens_and_sorts():
    assert Par([b0, a0]) == Par([a0, b0])
    assert Par([a0, Par([b0, NIL])]) == Par([a0, b0])
    assert Par([]) == NIL
    assert Par([a0]) == a0
    assert Par([NIL, NIL]) == NIL


def test_par_keeps_multiplicity():
    t = Par([a0, a0])
    assert isinstance(t, Par)
    assert t.parts == (a0, a0)


def test_csum_is_a_set():
    assert Sum([a0, a0]) == a0
    assert Sum([b0, a0]) == Sum([a0, b0, a0])
    assert Sum([]) == NIL
    s = Sum([a0, b0])
    assert isinstance(s, Sum)
    assert s.parts == (a0, b0)


def test_csum_rejects_unguarded_summands():
    with pytest.raises(ValueError, match="summands must be prefixed"):
        Sum([a0, Par([a0, b0])])
    with pytest.raises(ValueError, match="summands must be prefixed"):
        Sum([Var("X")])


def test_parallel_components():
    assert parallel_components(NIL) == ()
    assert parallel_components(a0) == (a0,)
    assert parallel_components(Par([a0, b0])) == (a0, b0)


@given(term_st(with_vars=True))
def test_rebuild_is_identity(t):
    assert rebuild(t) is t


def test_equal_terms_are_one_object():
    assert Par([a0, b0]) is Par([b0, a0])
    assert Sum([a0, b0, a0]) is Sum([b0, a0])
    assert Act(Prefix("a"), Nil()) is a0
    assert Nil() is NIL and Var("X") is Var("X")
    # every class has its own intern table: equal fields, different classes
    assert Par((a0, b0)) is not Sum((a0, b0))
    assert TAU is Tau() and Prefix("a") is Prefix("a")


# interning -----------------------------------------------------------------


def _all_nodes(roots):
    """Every node reachable from the roots through their fields, prefixes and
    name references included, each once."""
    seen = {}
    todo = list(roots)
    while todo:
        n = todo.pop()
        if n in seen:
            continue
        seen[n] = None
        for f in n._fields:
            value = getattr(n, f)
            if isinstance(value, Node):
                todo.append(value)
            elif isinstance(value, tuple):
                todo.extend(value)
    return list(seen)


@pytest.mark.parametrize(
    "universe",
    [
        lambda: ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
        lambda: ccs_plus_terms_upto(3, prefix_alphabet(("a", "b", "c"))),
        lambda: pi_terms_upto(2, 2, ("a", "b", "c")),
    ],
    ids=["ccs-5-ab", "ccs+-3-abc", "pi-2-2-abc"],
)
def test_rebuilding_a_node_from_its_fields_returns_it(universe):
    nodes = _all_nodes(universe())
    for n in nodes:
        assert type(n)._make(*[getattr(n, f) for f in n._fields]) is n


def _node_classes(cls=Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def test_intern_tables_hold_no_tuple_key_but_parts():
    # a class of k >= 2 fields interns through k nested dicts, one level per
    # field, so no node keeps its fields tuple as a key; only the one field
    # of a parallel composition or a sum is a tuple
    ccs_terms_upto(4, prefix_alphabet(("a", "b")))
    pi_terms_upto(2, 2, ("a", "b", "c"))
    for cls in _node_classes():
        tables, keys = [cls._table], []
        for _ in range(len(cls._fields) - 1):
            keys += [k for t in tables for k in t]
            tables = [sub for t in tables for sub in t.values()]
        keys += [k for t in tables for k in t]
        if cls in (Par, Sum, PiPar):
            assert all(type(k) is tuple for k in keys)
        else:
            assert not any(isinstance(k, tuple) for k in keys), cls.__name__
        assert all(type(n) is cls for t in tables for n in t.values()), cls.__name__


def test_threads_building_the_same_fresh_terms_get_one_object_each():
    # names no other test builds, so every node below is new to the tables
    names = ("thread_a", "thread_b", "thread_c")

    def build():
        rng = random.Random(18)
        terms = [random_ccs_open(rng, 6, ("X", "Y"), names) for _ in range(1000)]
        return terms + [random_pi(rng, 4, 2, names) for _ in range(1000)]

    assert not any(n in Prefix._table or n in FreeName._table for n in names)
    start = threading.Barrier(4)
    results = [None] * 4

    def worker(i):
        start.wait(timeout=60)
        results[i] = build()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside _make too
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    first = results[0]
    assert len(first) == 2000
    for other in results[1:]:
        assert all(x is y for x, y in zip(first, other, strict=True))
    for n in _all_nodes(first):
        assert type(n)._make(*[getattr(n, f) for f in n._fields]) is n


@given(raw_term_st())
def test_constructors_yield_canonical_nodes(t):
    assert is_canonical(t)


def test_nodes_are_immutable():
    for node, attr in ((a0, "cont"), (Par([a0, b0]), "parts"), (Var("X"), "ident"), (NIL, "x")):
        with pytest.raises(AttributeError):
            setattr(node, attr, NIL)
        with pytest.raises(AttributeError):
            delattr(node, attr)
        assert not hasattr(node, "__dict__")


@given(term_st(), term_st(), term_st())
def test_par_associative_commutative(x, y, z):
    assert Par([x, Par([y, z])]) == Par([Par([x, y]), z]) == Par([z, y, x])


def test_size_and_weight():
    assert size(NIL) == 0
    assert size(Act(A, Act(B, NIL))) == 2
    assert size(Par([a0, a0, b0])) == 3
    # weight sums nesting depths, so it drops when prefixes move up
    assert weight(Act(A, Act(A, Act(A, NIL)))) == 6
    assert weight(Par([a0, a0, a0])) == 3


def test_size_undefined_on_open_terms():
    with pytest.raises(ValueError):
        size(Var("X"))
    with pytest.raises(ValueError):
        contribution(Par([a0, Var("X")]), A)


def size_by_recursion(t):
    """The size measure written as a walk, apart from the stored one."""
    match t:
        case Nil():
            return 0
        case Act(cont=c):
            return 1 + size_by_recursion(c)
        case Par(parts=ps) | Sum(parts=ps):
            return sum(size_by_recursion(p) for p in ps)
        case Var():
            raise ValueError("open term")


@pytest.mark.parametrize(
    "universe",
    [
        lambda: ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
        lambda: ccs_plus_terms_upto(3, prefix_alphabet(("a", "b"))),
    ],
    ids=["ccs-5", "ccs+-3"],
)
def test_stored_size_is_the_recursive_size(universe):
    for t in universe():
        assert size(t) == size_by_recursion(t)


@given(raw_term_st())
def test_stored_size_on_open_terms(t):
    assert is_ground(t) == (not variables(t))
    if not variables(t):
        assert size(t) == size_by_recursion(t)
    else:
        with pytest.raises(ValueError):
            size(t)


def test_size_of_a_deep_chain():
    # read from the node, so no walk meets the recursion limit
    t = NIL
    for i in range(5000):
        t = Act(A if i % 2 else B, t)
    assert size(t) == 5000


def test_contribution_counts_headed_components():
    t = Par([Act(A, b0), a0, Act(B, NIL)])
    assert contribution(t, A) == 3
    assert contribution(t, B) == 1
    assert contribution(t, COA) == 0
    assert contribution(NIL, A) == 0
    assert contribution(Act(COA, a0), COA) == 2


def test_name_queries():
    t = Par([Act(A, Var("X")), Act(Prefix("b", co=True), NIL)])
    assert prefixes(t) == frozenset({A, Prefix("b", co=True)})
    assert names(t) == frozenset({"a", "b"})
    assert variables(t) == frozenset({"X"})
    assert not is_ground(t)
    assert is_ground(instantiate(t, {"X": NIL}))


def test_substitute_renames_and_recanonicalizes():
    assert substitute(Act(A, NIL), {"a": "c"}) == Act(Prefix("c"), NIL)
    assert substitute(Act(COA, NIL), {"a": "c"}) == Act(Prefix("c", co=True), NIL)
    # a collapse can merge summands
    s = Sum([Act(A, NIL), Act(B, NIL)])
    assert substitute(s, {"b": "a"}) == a0
    assert substitute(a0, {}) == a0


def test_instantiate():
    t = Par([Var("X"), Act(A, Var("X"))])
    got = instantiate(t, {"X": b0})
    assert got == Par([b0, Act(A, b0)])
    assert instantiate(Var("X"), {}) == Var("X")


@given(term_st(with_vars=True), st.sampled_from(["a", "b"]), st.sampled_from(["a", "b", "c"]))
def test_substitute_preserves_size_shape(t, frm, to):
    u = substitute(t, {frm: to})
    assert variables(u) == variables(t)
    if is_ground(t):
        assert size(u) == size(t)


@given(term_st())
def test_canonical_components_are_sorted(t):
    comps = parallel_components(t)
    assert tuple(sorted(comps, key=sort_key)) == comps


def test_fresh_names_skip_taken():
    assert fresh_names({"a", "b"}, 2) == ["c", "d"]
    got = fresh_names(set("abcdefghijklmnopqrstuvwxyz"), 1)
    assert got == ["aa"]
    assert fresh_names(set(), 0) == []
