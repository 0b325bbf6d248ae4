"""Finite sum-free pi-calculus: binding representation, late transitions,
the three bisimilarity modes, and transition classification under renaming."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_form import is_canonical
from ccspi.generate import pi_terms_upto, random_pi
import game_reference
import pi_reference
from ccspi.lts import TAU, Tau
from ccspi.pi import (
    PI_NIL,
    BoundName,
    BoundOutAct,
    FreeName,
    FreeOutAct,
    InputAct,
    PiInput,
    PiNu,
    PiOutput,
    PiPar,
    classify_transitions,
    clear_bisim_memo,
    close_binder,
    early_bisim,
    free_names,
    fresh_marker,
    ground_bisim,
    late_bisim,
    late_transitions,
    open_binder,
    pi_blocks,
    pi_size,
    pi_substitute,
)
from ccspi import pi
from ccspi.suites import SUITES, run_suite
from ccspi.syntax import parse_pi
from test_order import _pi_subterms
from transitions_reference import distinct


def pi_st(max_prefixes=4, max_nus=1):
    return st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda n: random_pi(random.Random(n), max_prefixes, max_nus, ("a", "b"))
    )


# representation -------------------------------------------------------------


def test_alpha_equivalence_is_equality():
    assert parse_pi("a(x).x<a>.0") == parse_pi("a(y).y<a>.0")
    assert parse_pi("(nu p)(p(x).0)") == parse_pi("(nu q)(q(x).0)")


def test_alpha_equivalent_terms_are_one_object():
    assert parse_pi("a(x).x<a>.0") is parse_pi("a(y).y<a>.0")
    assert parse_pi("(nu p)(p(x).0 | b(y).0)") is parse_pi("(nu q)(b(z).0 | q(x).0)")


def test_binders_are_positional():
    t = parse_pi("a(x).x<a>.0")
    assert t == PiInput(FreeName("a"), PiOutput(BoundName(0), FreeName("a"), PI_NIL))


def test_vacuous_nu_is_dropped():
    assert PiNu(parse_pi("a(x).0")) == parse_pi("a(x).0")
    assert parse_pi("(nu p)(a(x).0)") == parse_pi("a(x).0")
    kept = parse_pi("(nu p)(p(x).0)")
    assert isinstance(kept, PiNu)


def test_open_close_binder_roundtrip():
    t = parse_pi("(nu p)(p(x).p<a>.0)")
    body = open_binder(t.body, "z")
    assert body._dangling == 0
    assert "z" in free_names(body)
    assert close_binder(body, "z") == t.body


def test_free_names_ignore_bound():
    assert free_names(parse_pi("(nu p)(b<p>.a(x).0)")) == frozenset({"a", "b"})
    assert free_names(parse_pi("a(x).x<b>.0")) == frozenset({"a", "b"})


def test_pi_par_flattens():
    t = PiPar([parse_pi("a(x).0"), PiPar([parse_pi("b(x).0"), PI_NIL])])
    assert isinstance(t, PiPar) and len(t.parts) == 2
    assert pi_size(t) == 2


def test_fresh_marker_avoids():
    m = fresh_marker(frozenset({"a", "#0"}))
    assert m not in {"a", "#0"}
    assert m.startswith("#")


def test_pi_substitute():
    t = parse_pi("a(x).b<a>.0")
    assert pi_substitute(t, {"b": "a"}) == parse_pi("a(x).a<a>.0")
    assert pi_substitute(t, {}) == t


def _subterms(t, out):
    """Every subterm of t, open bodies included, into the dict out."""
    if t not in out:
        out[t] = None
        match t:
            case PiPar(parts=kids):
                pass
            case PiInput(body=b) | PiOutput(body=b) | PiNu(body=b):
                kids = (b,)
            case _:
                kids = ()
        for k in kids:
            _subterms(k, out)
    return out


def _renaming_inputs():
    found = {}
    for t in pi_terms_upto(3, 1, ("a", "b")) + pi_terms_upto(2, 2, ("a", "b", "c")):
        _subterms(t, found)
    rng = random.Random(90)
    for _ in range(2000):
        _subterms(random_pi(rng, 6, 3, ("a", "b", "c")), found)
    return list(found)


RENAMINGS = {
    "open": (open_binder, pi_reference.open_binder),
    "close": (close_binder, pi_reference.close_binder),
    "substitute": (pi_substitute, pi_reference.pi_substitute),
    "drop binder": (lambda t, _: PiNu(t), lambda t, _: pi_reference.drop_unused_binder(t)),
}


def test_renaming_walks_match_the_generic_walk():
    """open_binder, close_binder, pi_substitute and the unused-binder shift
    return the node that the rebuild-everything walk returns, through fresh
    walks and through memo hits alike."""
    rng = random.Random(91)
    targets = ("a", "b", "c", "d", "#0")
    inputs = _renaming_inputs()
    cases = []
    for t in inputs:
        free = sorted(free_names(t)) or ["a"]
        for name in (free[0], "e", "#1"):
            cases += [("open", t, name), ("close", t, name)]
        # names outside fn(t), and maps that identify names
        for _ in range(2):
            sigma = {n: rng.choice(targets) for n in rng.sample(("a", "b", "c", "d"), 3)}
            cases.append(("substitute", t, sigma))
        if not t._dangling & 1:
            cases.append(("drop binder", t, None))
    expected = [RENAMINGS[op][1](t, arg) for op, t, arg in cases]
    clear_bisim_memo()
    for _ in ("fresh walks", "memo hits"):
        for (op, t, arg), want in zip(cases, expected):
            assert RENAMINGS[op][0](t, arg) is want, (op, t, arg)
    for t in inputs[:2000]:
        opened = open_binder(t, "#1")
        assert close_binder(opened, "#1") is pi_reference.close_binder(opened, "#1")
    clear_bisim_memo()


@given(pi_st())
def test_random_terms_closed_and_canonical(t):
    assert pi_reference.dangling(t) == frozenset()
    assert is_canonical(t)


def raw_pi_st():
    """Arbitrary constructor calls, unused binders and dangling indices
    included."""
    refs = st.sampled_from([FreeName("a"), FreeName("b"), BoundName(0), BoundName(1)])
    return st.recursive(
        st.just(PI_NIL),
        lambda kids: st.one_of(
            st.builds(PiInput, refs, kids),
            st.builds(PiOutput, refs, refs, kids),
            st.lists(kids, max_size=3).map(PiPar),
            st.builds(PiNu, kids),
        ),
        max_leaves=6,
    )


@given(raw_pi_st())
def test_constructors_yield_canonical_nodes(t):
    assert is_canonical(t)


def measures_by_recursion(t):
    """(pi_size, free_names) of t written as a walk, apart from the stored
    measures."""

    def ref(r):
        return {r.name} if isinstance(r, FreeName) else set()

    match t:
        case PiInput(chan=c, body=b):
            n, fn = measures_by_recursion(b)
            return n + 1, fn | ref(c)
        case PiOutput(chan=c, payload=p, body=b):
            n, fn = measures_by_recursion(b)
            return n + 1, fn | ref(c) | ref(p)
        case PiNu(body=b):
            return measures_by_recursion(b)
        case PiPar(parts=ps):
            each = [measures_by_recursion(p) for p in ps]
            return sum(n for n, _ in each), set().union(*(fn for _, fn in each))
    return 0, set()


def test_stored_measures_over_the_small_universe():
    for t in pi_terms_upto(3, 1, ("a", "b")):
        assert (pi_size(t), free_names(t)) == measures_by_recursion(t)


@given(raw_pi_st())
def test_stored_measures_on_open_terms(t):
    assert (pi_size(t), free_names(t)) == measures_by_recursion(t)


def test_dangling_matches_a_walk_of_the_references():
    terms = pi_terms_upto(3, 1, ("a", "b"))
    opened = [t.body for t in _pi_subterms(terms) if isinstance(t, (PiInput, PiNu))]
    walked = {t: pi_reference.dangling(t) for t in terms + opened}
    assert any(len(found) > 1 for found in walked.values())
    for t, found in walked.items():
        assert t._dangling == sum(1 << i for i in found), t


def test_labels_are_interned():
    assert InputAct("a") is InputAct("a")
    assert FreeOutAct("a", "b") is FreeOutAct("a", "b")
    assert BoundOutAct("a") is BoundOutAct("a") and Tau() is TAU
    # equal fields in different classes stay different labels
    assert InputAct("a") is not BoundOutAct("a")
    assert InputAct("a") is not FreeName("a")
    assert str(InputAct("a")) == "a(.)" and str(BoundOutAct("a")) == "'a(.)"
    assert str(FreeOutAct("a", "b")) == "'a<b>" and str(TAU) == "tau"


def test_nodes_are_immutable():
    t = parse_pi("(nu p)(p(x).0 | a<p>.0)")
    for node, attr in ((t, "body"), (t.body, "parts"), (PI_NIL, "x")):
        with pytest.raises(AttributeError):
            setattr(node, attr, PI_NIL)
        assert not hasattr(node, "__dict__")


# late transitions -----------------------------------------------------------


def test_input_transition_leaves_binder_open():
    t = parse_pi("a(x).x<a>.0")
    ((action, res),) = late_transitions(t)
    assert action == InputAct("a")
    assert res._dangling == 1
    assert open_binder(res, "z") == parse_pi("z<a>.0")


def test_free_output_transition():
    assert distinct(late_transitions(parse_pi("b<c>.0"))) == frozenset(
        {(FreeOutAct("b", "c"), PI_NIL)}
    )


def test_bound_output_opens_restriction():
    t = parse_pi("(nu p)(b<p>.a(x).0)")
    ((action, res),) = late_transitions(t)
    assert action == BoundOutAct("b")
    assert res == parse_pi("a(x).0")


def test_restricted_channel_cannot_fire():
    assert distinct(late_transitions(parse_pi("(nu p)(p(x).0)"))) == frozenset()
    assert distinct(late_transitions(PI_NIL)) == frozenset()


def test_communication_instantiates_receiver():
    t = parse_pi("a(x).x<b>.0 | (nu p)(a<p>.p(y).0)")
    taus = [res for action, res in late_transitions(t) if isinstance(action, Tau)]
    # scope of p closes back over both continuations
    assert taus == [parse_pi("(nu p)(p<b>.0 | p(y).0)")]


def test_tau_on_free_channel():
    t = parse_pi("a(x).0 | a<b>.0")
    residues = {res for action, res in late_transitions(t) if isinstance(action, Tau)}
    assert residues == {PI_NIL}


@given(pi_st())
@settings(max_examples=60)
def test_transitions_shrink_prefix_count(t):
    for action, res in late_transitions(t):
        probe = open_binder(res, "#z") if res._dangling else res
        expected = 2 if isinstance(action, Tau) else 1
        assert pi_size(probe) == pi_size(t) - expected


# bisimilarity ---------------------------------------------------------------


def test_input_interleaving_law():
    assert ground_bisim(parse_pi("a(x).0 | a(y).0"), parse_pi("a(x).a(y).0"))


def test_ground_uses_fresh_instantiation():
    # sigma(x) = a would equate these; a fresh name separates them
    assert not ground_bisim(parse_pi("a(x).x<a>.0"), parse_pi("a(x).a<a>.0"))


def test_label_mismatch():
    assert not ground_bisim(parse_pi("a(x).0"), parse_pi("b(x).0"))
    assert not ground_bisim(parse_pi("b<c>.0"), parse_pi("(nu p)(b<p>.0)"))


def test_modes_agree_on_examples():
    pairs = [
        ("a(x).0 | a(y).0", "a(x).a(y).0"),
        ("a(x).x<a>.0", "a(x).a<a>.0"),
        ("(nu p)(a<p>.0)", "a<b>.0"),
        ("a(x).0 | b<a>.0", "b<a>.a(x).0"),
    ]
    for lsrc, rsrc in pairs:
        l, r = parse_pi(lsrc), parse_pi(rsrc)
        assert ground_bisim(l, r) == late_bisim(l, r) == early_bisim(l, r)


@given(pi_st(max_prefixes=3))
@settings(max_examples=40, deadline=None)
def test_modes_reflexive(t):
    assert ground_bisim(t, t)
    assert late_bisim(t, t)
    assert early_bisim(t, t)


def test_scope_extrusion_is_ground_bisimilar():
    l = parse_pi("(nu p)(a<p>.0 | b(y).0)")
    r = PiPar([parse_pi("b(y).0"), parse_pi("(nu p)(a<p>.0)")])
    assert ground_bisim(l, r)


def _ground_class_neighbours(max_prefixes, max_nus, frees):
    universe = pi_terms_upto(max_prefixes, max_nus, frees)
    block = pi_blocks(universe, frees, "ground")
    classes = {}
    for t in universe:
        classes.setdefault(block[(t, 0)], []).append(t)
    return [pair for cls in classes.values() for pair in zip(cls, cls[1:])]


# the scope-extrusion pair of the CI step that runs the installed script
TEN_PREFIX_PAIR = (
    "(nu x)(c<x>.x(y).y<d>.0) | e(z).z<c>.0 | (nu x)(e<x>.x(y).y<c>.0) | c(z).z<d>.0"
    " | a(u).0 | a(v).0",
    "(nu x)(c<x>.x(y).y<d>.0 | e(z).z<c>.0) | (nu x)(e<x>.x(y).y<c>.0 | c(z).z<d>.0)"
    " | a(u).a(v).0",
)

DIFFERENTIAL_PAIRS = {
    "every-pair-2-1-ab": lambda: list(combinations(pi_terms_upto(2, 1, ("a", "b")), 2)),
    "ground-class-neighbours-3-1-ab": lambda: _ground_class_neighbours(3, 1, ("a", "b")),
    "ten-prefix-pair": lambda: [tuple(map(parse_pi, TEN_PREFIX_PAIR))],
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_PAIRS))
def test_one_challenge_rule_plays_the_branch_by_branch_game(name):
    """The game by one challenge rule and the reference game, written one
    branch per kind of challenge and per mode, give every pair the same
    verdict and leave equal memos: both expanded the same positions."""
    pairs = DIFFERENTIAL_PAIRS[name]()
    random.Random(24).shuffle(pairs)
    games = {"ground": ground_bisim, "late": late_bisim, "early": early_bisim}
    for mode, game in games.items():
        clear_bisim_memo()
        game_reference.MEMO.clear()
        try:
            for p, q in pairs:
                assert game(p, q) == game_reference.pi_bisim(p, q, mode), (mode, p, q)
            assert pi._BISIM_MEMO == game_reference.MEMO, mode
        finally:
            clear_bisim_memo()
            game_reference.MEMO.clear()


# classes by one refinement --------------------------------------------------


@pytest.mark.parametrize(
    "mode,game", [("ground", ground_bisim), ("late", late_bisim), ("early", early_bisim)]
)
def test_pi_blocks_agree_with_the_games_on_every_pair(mode, game):
    universe = pi_terms_upto(2, 1, ("a", "b"))
    assert len(universe) == 335
    block = pi_blocks(universe, ("a", "b"), mode)
    for p, q in combinations(universe, 2):
        assert game(p, q) == (block[(p, 0)] == block[(q, 0)]), (p, q)


@pytest.mark.parametrize(
    "lsrc,rsrc",
    [
        ("a(x).a(y).x<b>.0", "a(x).a(y).y<b>.0"),
        ("(nu p)(nu q)(a<p>.a<q>.p<b>.0)", "(nu p)(nu q)(a<p>.a<q>.q<b>.0)"),
    ],
)
def test_pi_blocks_keep_successively_opened_names_apart(lsrc, rsrc):
    p, q = parse_pi(lsrc), parse_pi(rsrc)
    assert not ground_bisim(p, q)
    for mode in ("ground", "late", "early"):
        block = pi_blocks([p, q], ("a", "b"), mode)
        assert block[(p, 0)] != block[(q, 0)], mode


def test_pi_blocks_need_closed_terms_over_the_given_names():
    with pytest.raises(ValueError):
        pi_blocks([parse_pi("c<a>.0")], ("a",), "ground")
    with pytest.raises(ValueError):
        pi_blocks([parse_pi("a<a>.0")], ("a",), "lazy")


def test_pi_congruence_at_reduced_bounds():
    report = run_suite("pi-congruence", max_prefixes=2, max_nus=2, frees=("a", "b", "c"))
    assert report.passed, report.failures
    assert report.notes == (
        "1536 terms, 404 ground classes, 106624 bisimilar pairs covered, "
        "3112 class substitutions moved a member"
    )


def test_pi_congruence_fails_when_substitution_moves_nothing(monkeypatch):
    # with pi_substitute as the identity, closure compares each class with
    # itself; the suite must say that it checked nothing
    monkeypatch.setattr("ccspi.suites.pi_substitute", lambda t, sigma: t)
    report = run_suite("pi-congruence", max_prefixes=2, max_nus=1, frees=("a", "b"))
    assert report.failures == ["no substitution moved a member of a ground class"]
    assert report.notes.endswith(", 0 class substitutions moved a member")


PI_MEMOS = (pi._BISIM_MEMO, pi._OPEN_MEMO, pi._SUBST_MEMO)


def test_run_suite_empties_the_pi_memos():
    run_suite("pi-congruence", max_prefixes=2, max_nus=1, frees=("a", "b"))
    assert not any(PI_MEMOS)


def test_run_suite_empties_the_pi_memos_when_a_suite_raises(monkeypatch):
    filled = []

    def plays_then_raises():
        p = parse_pi("(nu x)(a<x>.0) | b(y).y<y>.0")
        q = parse_pi("(nu x)(a<x>.0 | b(y).y<y>.0)")
        assert ground_bisim(p, q) and pi_substitute(p, {"a": "b"}) is not p
        filled.append(all(PI_MEMOS))
        raise RuntimeError("fault inside a suite")

    monkeypatch.setitem(SUITES, "broken", plays_then_raises)
    with pytest.raises(RuntimeError, match="fault inside a suite"):
        run_suite("broken")
    assert filled == [True]
    assert not any(PI_MEMOS)


# classification -------------------------------------------------------------


def _cases(src, sigma):
    return [
        (type(c.action).__name__, c.case)
        for c in classify_transitions(parse_pi(src), sigma)
    ]


def test_classify_direct_images():
    got = _cases("a(x).0 | b(y).0", {"b": "a"})
    assert got and all(c == ("InputAct", "1") for c in got)


def test_classify_preexisting_tau():
    got = _cases("a(x).0 | a<c>.0", {"c": "a"})
    assert ("Tau", "2a") in got


def test_classify_created_tau_free_output():
    got = _cases("a<c>.0 | b(y).0", {"b": "a"})
    assert ("Tau", "2b") in got
    assert ("FreeOutAct", "1") in got


def test_classify_created_tau_bound_output():
    got = _cases("(nu q)(a<q>.0) | b(y).0", {"b": "a"})
    assert ("Tau", "2c") in got


def test_classify_total():
    rng = random.Random(99)
    for _ in range(50):
        t = random_pi(rng, 3, 1, ("a", "b", "c"))
        fs = sorted(free_names(t))
        if len(fs) < 2:
            continue
        sigma = {fs[0]: fs[1]}
        for c in classify_transitions(t, sigma):
            assert c.case in {"1", "2a", "2b", "2c"}
