"""The moves of each node: no move repeats, the moves are the ones the
reference relations build, a CCS node keeps none while a pi node stores
its tuple once, and the order is the same in every call and every
process."""

import os
import random
import subprocess
import sys

import pytest

import ccspi
import transitions_reference as ref
from ccspi.generate import (
    ccs_plus_terms_upto,
    ccs_terms_upto,
    pi_terms_upto,
    prefix_alphabet,
    random_pi,
)
from ccspi.lts import d_transitions, transitions
from ccspi.pi import dangling, late_transitions
from ccspi.terms import Act, Nil, Par, Sum, Term, Var
from test_order import _pi_subterms
from transitions_reference import distinct


@pytest.mark.parametrize(
    "universe",
    [
        ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
        ccs_plus_terms_upto(3, prefix_alphabet(("a", "b", "c"))),
    ],
    ids=["sum-free-size-5-ab", "ccs-plus-size-3-abc"],
)
def test_moves_are_the_reference_moves(universe):
    for t in universe:
        assert distinct(transitions(t)) == ref.transitions(t), t
        # derived again on each call, in the same order
        assert transitions(t) == transitions(t)
        assert d_transitions(t) == ref.d_transitions(t), t


def test_ccs_nodes_keep_no_moves():
    assert not any(hasattr(cls, "_moves") for cls in (Term, Nil, Act, Par, Sum, Var))


def _random_pi_subterms():
    rng = random.Random(15)
    sampled = [random_pi(rng, 6, 3, ("a", "b", "c")) for _ in range(500)]
    return [t for t in _pi_subterms(sampled) if not dangling(t)]


@pytest.mark.parametrize(
    "universe",
    [pi_terms_upto(2, 2, ("a", "b", "c")), _random_pi_subterms()],
    ids=["pi-2-prefixes-2-nus-abc", "random-pi-subterms"],
)
def test_stored_late_moves_are_the_reference_moves(universe):
    for t in universe:
        assert distinct(late_transitions(t)) == ref.late_transitions(t), t
        assert late_transitions(t) is late_transitions(t)


def test_a_repeated_component_moves_once():
    t = ccspi.parse_ccs("a.0 | a.0 | 'a.0")
    assert [str(a) for a, _ in transitions(t)] == ["a", "'a", "tau"]


# every reachable state's moves, in the order the steps give them, by the
# order `explore` meets the states in
MOVE_ORDER_SCRIPT = """
from ccspi.lts import explore, transitions
from ccspi.pi import free_names, pi_step
from ccspi.syntax import parse_ccs, parse_ccs_plus, parse_pi

for src in ["a.b.0 | 'a.c.0 | a.0 | 'b.0", "a.(b.0 | 'b.0) | 'a.a.0 | 'a.0"]:
    print(list(explore([parse_ccs(src)], transitions).items()))
for src in ["(a.b.0 + 'a.0 + c.0) | 'a.0 | a.0 | ('c.0 + b.0)"]:
    print(list(explore([parse_ccs_plus(src)], transitions).items()))
for src in [
    "a(x).x<b>.0 | (nu p)(a<p>.p(y).0) | a<c>.0 | b(z).0",
    "(nu p)(a<p>.0 | p(x).0 | b<p>.p<a>.0) | a(y).y(z).0",
]:
    t = parse_pi(src)
    for mode in ("ground", "late", "early"):
        print(list(explore([(t, 0)], pi_step(free_names(t), mode)).items()))
"""


def test_move_order_does_not_depend_on_the_hash_seed():
    src = os.path.dirname(os.path.dirname(ccspi.__file__))
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", MOVE_ORDER_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 9
    assert outputs[0] == outputs[1]
