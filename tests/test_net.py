"""The strong oracle's net: a marking moves as the term it stands for, and
`bisimilar_oracle` and `distinguishing_depth` over markings answer as the
term-level reference (`refinement_reference`) does."""

import random

import pytest

import refinement_reference as ref
from ccspi.generate import ccs_plus_terms_upto, ccs_terms_upto, prefix_alphabet
from ccspi.lts import _net, bisimilar_oracle, distinguishing_depth, explore, transitions
from ccspi.syntax import parse_ccs, parse_ccs_plus
from ccspi.terms import NIL, Act, Par, Prefix, Sum, Term, size

ABC = prefix_alphabet(("a", "b", "c"))


def decode(m: int, components: list[Term], base: int) -> Term:
    """The term of marking m: component k's copies are its digit k."""
    parts = []
    for c in components:
        m, copies = divmod(m, base)
        parts += [c] * copies
    assert m == 0
    return Par(parts)


UNIVERSES = {
    "sum-free-size-5-ab": ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
    "ccs-plus-size-4-ab": ccs_plus_terms_upto(4, prefix_alphabet(("a", "b"))),
    # two identical neighbours that synchronise, as in (a.0 + 'a.0) | (a.0 + 'a.0)
    "ccs-plus-size-4-a": ccs_plus_terms_upto(4, prefix_alphabet(("a",))),
}


@pytest.mark.parametrize("universe", list(UNIVERSES.values()), ids=list(UNIVERSES))
def test_each_reached_marking_moves_as_its_term(universe):
    for t in universe:
        components, marking, step = _net(t, t)
        base = 1 + size(t)
        for m, moves in explore([marking(t)], step).items():
            s = decode(m, components, base)
            assert marking(s) == m
            assert {(a, decode(n, components, base)) for a, n in moves} == set(transitions(s)), s


# pairs shaped like the benchmark's query mix --------------------------------


def random_term(rng: random.Random, n: int, sums: bool) -> Term:
    """A random term with n prefixes over a, b, c: prefixes, products of
    two or three parts and, with sums, sums of two or three summands."""
    if n == 0:
        return NIL
    shape = rng.choice(["act", "act", "par"] + (["sum"] if sums else [])) if n >= 2 else "act"
    if shape == "act":
        return Act(rng.choice(ABC), random_term(rng, n - 1, sums))
    cuts = sorted(rng.sample(range(1, n), rng.randint(2, min(3, n)) - 1))
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    if shape == "par":
        return Par(random_term(rng, k, sums) for k in sizes)
    return Sum(Act(rng.choice(ABC), random_term(rng, k - 1, sums)) for k in sizes)


def flip_one(rng: random.Random, t: Term) -> Term:
    """t with the polarity of one prefix flipped."""
    target = rng.randrange(size(t))
    seen = 0

    def go(u: Term) -> Term:
        nonlocal seen
        if isinstance(u, Act):
            flip = seen == target
            seen += 1
            return Act(Prefix(u.prefix.name, u.prefix.co != flip), go(u.cont))
        if isinstance(u, (Par, Sum)):
            return type(u)(go(p) for p in u.parts)
        return u

    return go(t)


def in_context(rng: random.Random, t: Term, extra: int) -> Term:
    """t beside, or under, `extra` further random prefixes."""
    if extra < 2 or rng.random() < 0.5:
        return Par((t, random_term(rng, extra, False)))
    return Act(rng.choice(ABC), in_context(rng, t, extra - 1))


def random_pairs(seed: int, count: int, sizes: tuple[int, int] = (6, 11)) -> list:
    """`count` seeded pairs of sum-free and guarded-sum terms within the
    size range: a term against itself with one polarity flipped, against a
    random smaller term, and the two sides of the distribution law
    eta.(P | eta.P) ~ eta.P | eta.P in one random context."""
    rng = random.Random(seed)
    low, high = sizes
    pairs = []
    while len(pairs) < count:
        t = random_term(rng, rng.randint(low, min(high, 8)), rng.random() < 0.4)
        kind = rng.randrange(3)
        if kind == 0:
            pairs.append((t, flip_one(rng, t)))
        elif kind == 1:
            pairs.append((t, random_term(rng, rng.randint(3, 5), rng.random() < 0.4)))
        else:
            eta = Act(rng.choice(ABC), random_term(rng, rng.randint(1, 2), False))
            left, right = Act(eta.prefix, Par((eta.cont, eta))), Par((eta, eta))
            extra = rng.randint(max(0, low - size(left)), high - size(left))
            state = rng.getstate()
            left = in_context(rng, left, extra)
            rng.setstate(state)
            pairs.append((left, in_context(rng, right, extra)))
    return pairs


def test_the_pairs_have_the_sizes_asked_for():
    # a sum drops a repeated summand, so a few pairs fall below the range
    sizes = [max(size(p), size(q)) for p, q in random_pairs(7, 1020)]
    assert max(sizes) == 11
    assert sum(s >= 6 for s in sizes) > 0.95 * len(sizes)


@pytest.mark.parametrize("seed", [7, 8])
def test_verdicts_and_depths_are_the_term_level_ones(seed):
    pairs = random_pairs(seed, 510)
    verdicts = [bisimilar_oracle(p, q) for p, q in pairs]
    assert verdicts == [ref.bisimilar_oracle(p, q) for p, q in pairs]
    assert 0 < sum(verdicts) < len(pairs)
    for p, q in pairs:
        assert distinguishing_depth(p, q) == ref.distinguishing_depth(p, q), (p, q)


def test_verdicts_are_the_term_level_ones_on_universe_pairs():
    universe = UNIVERSES["ccs-plus-size-4-ab"]
    rng = random.Random(11)
    for _ in range(2000):
        p, q = rng.choice(universe), rng.choice(universe)
        assert bisimilar_oracle(p, q) == ref.bisimilar_oracle(p, q), (p, q)
        assert distinguishing_depth(p, q) == ref.distinguishing_depth(p, q), (p, q)


@pytest.mark.parametrize(
    "p,q,depth",
    [
        ("0", "0", None),
        ("0", "a.0", 1),
        # three and four copies: a count above one digit's first values
        ("a.0 | a.0 | a.0 | 'a.0", "a.0 | a.0 | 'a.0 | a.0", None),
        ("a.0 | a.0 | a.0 | 'a.0", "a.0 | a.0 | 'a.0 | 'a.0", 2),
        ("a.a.0 | a.0 | a.0 | a.0", "a.0 | a.0 | a.0 | a.0", 5),
        # summands of both polarities, in several copies, synchronising with
        # their own copies
        ("(a.0 + 'a.0) | (a.0 + 'a.0)", "a.(a.0 + 'a.0) + 'a.(a.0 + 'a.0)", 1),
        ("(a.0 + 'a.0) | (a.0 + 'a.0) | (a.0 + 'a.0)", "(a.0 + 'a.0) | (a.0 + 'a.0) | a.0", 2),
        (
            "(a.b.0 + 'a.0) | (a.b.0 + 'a.0) | (a.b.0 + 'a.0)",
            "(a.b.0 + 'a.0) | (a.b.0 + 'a.0) | a.b.0",
            2,
        ),
    ],
)
def test_edge_cases(p, q, depth):
    p, q = parse_ccs_plus(p), parse_ccs_plus(q)
    assert distinguishing_depth(p, q) == ref.distinguishing_depth(p, q) == depth
    assert bisimilar_oracle(p, q) == ref.bisimilar_oracle(p, q) == (depth is None)


@pytest.mark.parametrize("p,q", [("X", "a.0"), ("a.0 | a.X", "a.a.0"), ("a.0", "b.(X | c.0)")])
def test_an_open_term_raises_value_error(p, q):
    p, q = parse_ccs(p), parse_ccs(q)
    with pytest.raises(ValueError):
        bisimilar_oracle(p, q)
    with pytest.raises(ValueError):
        bisimilar_oracle(q, p)
    with pytest.raises(ValueError):
        distinguishing_depth(p, q)
