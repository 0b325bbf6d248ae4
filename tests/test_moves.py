"""The moves of each node: no move repeats, the moves are the ones the
reference relations build, a CCS node keeps none while a pi node stores
its tuple once, and the order is the one the constructor path gives, the
same in every call and every process."""

import itertools
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
from ccspi.lts import _term_moves, d_transitions, transitions
from ccspi.pi import (
    FreeOutAct,
    InputAct,
    PiPar,
    PiTerm,
    late_transitions,
    open_binder,
)
from ccspi.terms import Act, Nil, Par, Sum, Term, Var, join_par
from test_order import _pi_subterms
from transitions_reference import distinct


# the last holds two identical neighbours that synchronise, as in
# (a.0 + 'a.0) | (a.0 + 'a.0), which no suite's universe does
CCS_UNIVERSES = {
    "sum-free-size-5-ab": ccs_terms_upto(5, prefix_alphabet(("a", "b"))),
    "ccs-plus-size-3-abc": ccs_plus_terms_upto(3, prefix_alphabet(("a", "b", "c"))),
    "ccs-plus-size-4-a": ccs_plus_terms_upto(4, prefix_alphabet(("a",))),
}


@pytest.mark.parametrize("universe", list(CCS_UNIVERSES.values()), ids=list(CCS_UNIVERSES))
def test_moves_are_the_reference_moves(universe):
    for t in universe:
        assert distinct(transitions(t)) == ref.transitions(t), t
        # derived again on each call, in the order of the constructor path
        assert transitions(t) == transitions(t) == ref.ordered_transitions(t), t
        assert d_transitions(t) == ref.d_transitions(t), t


def test_ccs_nodes_keep_no_moves():
    assert not any(hasattr(cls, "_moves") for cls in (Term, Nil, Act, Par, Sum, Var))


def _random_pi_subterms():
    rng = random.Random(15)
    sampled = [random_pi(rng, 6, 3, ("a", "b", "c")) for _ in range(500)]
    return [t for t in _pi_subterms(sampled) if not t._dangling]


PI_UNIVERSES = {
    "pi-2-prefixes-2-nus-abc": pi_terms_upto(2, 2, ("a", "b", "c")),
    "random-pi-subterms": _random_pi_subterms(),
}


@pytest.mark.parametrize("universe", list(PI_UNIVERSES.values()), ids=list(PI_UNIVERSES))
def test_stored_late_moves_are_the_reference_moves(universe):
    for t in universe:
        assert distinct(late_transitions(t)) == ref.late_transitions(t), t
        assert late_transitions(t) is late_transitions(t)


def test_join_par_is_the_constructor():
    """Each successor the steps build by merging residuals into the
    components that stayed put is the node the constructor builds from all
    of them, for every move of the CCS, CCS+ and pi universes."""
    met = set()

    def check(cls, rest, residuals):
        assert join_par(cls, rest, residuals) is cls(rest + residuals), (rest, residuals)
        for r in residuals:
            met.add(type(r).__name__)
            if isinstance(r, PiTerm) and r._dangling:
                met.add("open")

    for universe in CCS_UNIVERSES.values():
        for t in universe:
            if isinstance(t, Par):
                for _, rest, locs in _term_moves(t.parts):
                    check(Par, rest, locs)
                    check(Par, rest, ())
    for universe in PI_UNIVERSES.values():
        for t in universe:
            if not isinstance(t, PiPar):
                continue
            ps = t.parts
            fires = [late_transitions(p) for p in ps]
            for i, ts in enumerate(fires):
                for _, res in ts:
                    check(PiPar, ps[:i] + ps[i + 1 :], (res,))
            # every pair of residuals, a superset of the communications
            for i, j in itertools.permutations(range(len(ps)), 2):
                rest = tuple(p for k, p in enumerate(ps) if k not in (i, j))
                for ai, ri in fires[i]:
                    for aj, rj in fires[j]:
                        check(PiPar, rest, (ri, rj))
                        if isinstance(ai, InputAct) and isinstance(aj, FreeOutAct):
                            check(PiPar, rest, (open_binder(ri, aj.payload), rj))
    assert {"Nil", "Par", "Act", "Sum", "PiNil", "PiPar", "open"} <= met


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
