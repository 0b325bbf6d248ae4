"""The distribution-law rewrite system and the normal-form decision
procedure, cross-checked against the partition-refinement oracle."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccspi.lts import bisimilar_oracle
from ccspi.rewrite import (
    _redex_contractions,
    decide_bisim,
    normalize,
    normalize_steps,
    prime_decompose,
    rewrite_candidates,
)
from ccspi.syntax import parse_ccs
from ccspi.terms import (
    NIL,
    Act,
    Par,
    Prefix,
    Sum,
    Var,
    instantiate,
    parallel_components,
    size,
    sort_key,
    weight,
)
from prime_reference import is_prime_bruteforce
from rewrite_reference import rewrite_step


def term_st(with_vars=False):
    base = st.just(NIL)
    if with_vars:
        base = base | st.builds(Var, st.sampled_from(["X", "Y"]))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(Act, st.builds(Prefix, st.sampled_from("ab"), st.booleans()), kids),
            st.lists(kids, min_size=2, max_size=3).map(Par),
        ),
        max_leaves=6,
    )


def test_rewrite_step_basic():
    assert rewrite_step(parse_ccs("a.a.0")) == parse_ccs("a.0 | a.0")
    assert rewrite_step(parse_ccs("a.b.0")) is None
    assert rewrite_step(NIL) is None
    assert rewrite_step(Var("X")) is None


def test_rewrite_rejects_sums():
    with pytest.raises(ValueError, match="sum-free"):
        rewrite_step(Sum([parse_ccs("a.0"), parse_ccs("b.0")]))
    with pytest.raises(ValueError, match="sum-free"):
        rewrite_candidates(Sum([parse_ccs("a.0"), parse_ccs("b.0")]))


def test_normalize_ladder():
    nf, steps = normalize_steps(parse_ccs("a.a.a.0"))
    assert nf == parse_ccs("a.0 | a.0 | a.0")
    assert steps == 2
    nf, steps = normalize_steps(parse_ccs("a.(b.0 | a.b.0)"))
    assert nf == parse_ccs("a.b.0 | a.b.0")
    assert steps == 1


def rewrite_to_fixpoint(t):
    steps = 0
    while (r := rewrite_step(t)) is not None:
        t, steps = r, steps + 1
    return t, steps


def test_normalize_steps_matches_small_steps_exhaustively():
    from ccspi.generate import ccs_terms_upto, prefix_alphabet

    for t in ccs_terms_upto(5, prefix_alphabet(("a", "b"))):
        assert normalize_steps(t) == rewrite_to_fixpoint(t), t


@given(term_st(with_vars=True))
def test_normalize_steps_matches_small_steps(t):
    assert normalize_steps(t) == rewrite_to_fixpoint(t)


def test_normalize_steps_on_prefix_chains():
    a0 = parse_ccs("a.0")
    chain = NIL
    for n in range(1, 61):
        chain = Act(Prefix("a"), chain)
        assert normalize_steps(chain) == rewrite_to_fixpoint(chain) == (Par([a0] * n), n - 1)


@pytest.mark.parametrize("run", [1, 2, 3, 5])
def test_normalize_steps_on_chains_that_switch_name(run):
    # the name switches every `run` prefixes, and where it switches the
    # chain t grows to x.(t | x.t), a redex when x.t does not contract,
    # until it holds 50 prefixes: redexes sit at several heights, and runs
    # of prefixes that do not contract stand on contracta
    names = [Prefix("a"), Prefix("b"), Prefix("a", True)]
    chain = NIL
    for n in range(60):
        x = names[n // run % 3]
        switch = n % run == 0 and size(chain) < 50
        chain = Act(x, Par((chain, Act(x, chain)))) if switch else Act(x, chain)
        assert normalize_steps(chain) == rewrite_to_fixpoint(chain), n


def contractions_by_every_k(prefix, cont):
    comps = parallel_components(cont)
    counts = Counter(comps)
    out = []
    for e in sorted(counts, key=sort_key):
        if not (isinstance(e, Act) and e.prefix == prefix):
            continue
        for k in range(1, counts[e] + 1):
            rest = list(comps)
            for _ in range(k):
                rest.remove(e)
            if Par(rest) is e.cont:
                out.append(Par([e] * (k + 1)))
    return out


def contracta(eta, cont):
    """The contracta that `_redex_contractions` finds from cont's component
    counts."""
    counts = Counter(parallel_components(cont))
    return [Par([e] * n) for e, n in _redex_contractions(eta, counts)]


def test_redex_contractions_match_every_k_exhaustively():
    from ccspi.generate import ccs_terms_upto, prefix_alphabet

    alphabet = prefix_alphabet(("a", "b"))
    for cont in ccs_terms_upto(4, alphabet):
        for eta in alphabet:
            assert contracta(eta, cont) == contractions_by_every_k(eta, cont)


@given(st.builds(Prefix, st.sampled_from("ab"), st.booleans()), term_st(with_vars=True))
def test_redex_contractions_match_every_k(eta, cont):
    assert contracta(eta, cont) == contractions_by_every_k(eta, cont)


def test_normalize_fixed_points():
    for src in ["0", "a.b.0", "a.0 | b.0", "'a.0"]:
        t = parse_ccs(src)
        assert normalize(t) == t


def test_normalize_open_redex():
    # the law fires with a variable continuation: a.(X | a.X) = a.X | a.X
    assert normalize(parse_ccs("a.(X | a.X)")) == parse_ccs("a.X | a.X")
    assert normalize(Var("X")) == Var("X")


@given(term_st(with_vars=True))
def test_normalize_idempotent(t):
    assert normalize(normalize(t)) == normalize(t)


@given(term_st(with_vars=True), term_st(with_vars=True))
def test_normalize_is_componentwise(p, q):
    # the parallel-shape MD search compares per-component normal forms
    assert normalize(Par((p, q))) is Par((normalize(p), normalize(q)))


@given(term_st(with_vars=True))
@settings(max_examples=60)
def test_all_reduction_paths_join(t):
    # local confluence observed on the full candidate set
    for u in rewrite_candidates(t):
        assert weight(u) < weight(t)
        assert normalize(u) == normalize(t)


@given(term_st())
def test_normal_form_decides_bisimilarity(p):
    # dual route: syntactic normal forms versus the semantic oracle
    q = rewrite_step(p)
    if q is not None:
        assert decide_bisim(p, q)
        assert bisimilar_oracle(p, q)


@given(term_st(), term_st())
@settings(max_examples=60)
def test_decide_bisim_matches_oracle(p, q):
    assert decide_bisim(p, q) == bisimilar_oracle(p, q)


def test_distribution_law_shape():
    # eta.(P | (eta.P)^k) contracts to (eta.P)^(k+1)
    eta = Prefix("a")
    for p_src in ["0", "b.0", "a.0 | b.0"]:
        p = parse_ccs(p_src)
        for k in (1, 2):
            red = Act(eta, Par([p] + [Act(eta, p)] * k))
            assert normalize(red) == Par([Act(eta, p)] * (k + 1))


def test_prime_decompose():
    assert prime_decompose(parse_ccs("a.a.0")) == (parse_ccs("a.0"), parse_ccs("a.0"))
    assert prime_decompose(NIL) == ()
    assert len(prime_decompose(parse_ccs("a.b.0"))) == 1
    assert len(prime_decompose(parse_ccs("a.0 | b.0"))) == 2
    assert len(prime_decompose(NIL)) == 0
    with pytest.raises(ValueError, match="open"):
        prime_decompose(Var("X"))


def test_prime_bruteforce_agrees():
    from ccspi.generate import ccs_terms_upto, prefix_alphabet

    for t in ccs_terms_upto(3, prefix_alphabet(("a", "b"))):
        assert is_prime_bruteforce(t) == (len(prime_decompose(t)) == 1), t


def test_prime_bruteforce_bound():
    with pytest.raises(ValueError, match="bound"):
        is_prime_bruteforce(parse_ccs("a.a.a.a.0"), size_bound=3)


def test_open_terms_compare_by_normal_form():
    def same(l, r):
        return normalize(parse_ccs(l)) == normalize(parse_ccs(r))

    assert same("X | a.0", "a.0 | X")
    assert not same("X | a.0", "X | b.0")
    assert not same("X", "X | X")
    assert same("a.(X | a.X)", "a.X | a.X")


@given(term_st(with_vars=True))
@settings(max_examples=60)
def test_normalization_commutes_with_instantiation(t):
    # instantiating variables with fresh distinct prefixes neither creates
    # nor destroys redexes
    from ccspi.terms import fresh_names, names, variables

    vs = sorted(variables(t))
    supply = fresh_names(names(t), len(vs))
    inst = {v: Act(Prefix(n), NIL) for v, n in zip(vs, supply)}
    assert instantiate(normalize(t), inst) == normalize(instantiate(t, inst))
