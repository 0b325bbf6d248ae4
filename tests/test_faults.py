"""Named faults that the thirteen suites must catch, faults that they miss
at every bound, each with a check that catches it, and faults that a
theorem makes harmless.

Each fault is patched into a fresh interpreter, which runs every suite at
the reduced bounds of the benchmark self-test and prints the names of the
suites that fail.  In this interpreter the pi moves stored on interned
nodes, the `normalize` cache and the pi memos left by earlier tests would
hide the fault.

`python tests/test_faults.py <fault>` prints one fault's failing suites.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import pytest

import ccspi
from ccspi import suites
from ccspi.suites import SUITES, run_suite

# the bounds of `TINY` in perfbench/workloads.py; md-with-sums takes none
REDUCED = {
    "nf-oracle-agreement": {"size_bound": 3, "sample": 50},
    "replication-ladder": {"n_max": 4},
    "confluence-termination": {"size_bound": 3},
    "cancellation": {"size_bound": 3},
    "contribution-invariance": {"size_bound": 3},
    "no-md-sumfree": {"component_size": 2, "diagram_size": 3},
    "dsim-canonical": {"size_bound": 2},
    "dsim-separation": {"size_bound": 2},
    "open-normalization": {"count": 50},
    "pi-congruence": {"max_prefixes": 2, "max_nus": 1, "frees": ("a", "b")},
    "erasure-random": {"count": 100},
    "pi-subst-cases": {"count": 100},
}


def normalize_is_identity(mp: pytest.MonkeyPatch) -> None:
    for module in ("suites", "rewrite", "mirrored"):
        mp.setattr(f"ccspi.{module}.normalize", lambda t: t)


def signature_ignores_successors(mp: pytest.MonkeyPatch) -> None:
    def labels_only(moves, block, pairs):
        return tuple(sorted({pairs.setdefault(m[0], len(pairs)) for m in moves}))

    mp.setattr("ccspi.lts._signature", labels_only)


def game_plays_one_side(mp: pytest.MonkeyPatch) -> None:
    """The game challenges with the first side's moves only, so it decides
    whether the second side simulates the first, not whether the two are
    bisimilar."""

    def first_side(gs, gt):
        return [[(s1, t1) for t1 in gt.get(a, ())] for a, ss in gs.items() for s1 in ss]

    mp.setattr("ccspi.lts._challenges", first_side)


def game_checks_labels_only(mp: pytest.MonkeyPatch) -> None:
    """The game makes a challenge only when the two states move by
    different label sets, so it wins every position whose label sets
    agree."""
    mp.setattr("ccspi.lts._challenges", lambda gs, gt: [[]] if gs.keys() != gt.keys() else [])


def strong_in_place_of_distributed(mp: pytest.MonkeyPatch) -> None:
    from ccspi.lts import refine_partition, transitions

    def strong_blocks(roots):
        return refine_partition(roots, transitions)

    def strong(p, q):
        block = strong_blocks([p, q])
        return block[p] == block[q]

    mp.setattr("ccspi.distributed.dsim", strong)
    for module in ("distributed", "suites"):
        mp.setattr(f"ccspi.{module}.dsim_blocks", strong_blocks)


def no_synchronisation(mp: pytest.MonkeyPatch) -> None:
    from ccspi import lts

    moves = lts._par_moves

    def faulty(comps, pair_rest):
        return (m for m in moves(comps, pair_rest) if m[0] is not lts.TAU)

    mp.setattr("ccspi.lts._par_moves", faulty)


def identical_neighbours_never_synchronise(mp: pytest.MonkeyPatch) -> None:
    """`_par_moves` pairs a component only with the components after it,
    never with a copy of itself, so two identical copies, as in
    (a.0 + 'a.0) | (a.0 + 'a.0), lose their synchronisation."""
    from ccspi import lts

    moves = lts._par_moves

    def faulty(comps, pair_rest):
        # one copy each: the rule then never pairs a component with itself
        return moves([(1, *c[1:]) for c in comps], pair_rest)

    mp.setattr("ccspi.lts._par_moves", faulty)


def matcher_ignores_copies(mp: pytest.MonkeyPatch) -> None:
    """The redex matcher checks which components occur, not how many copies
    of each, so a.(b.0 | a.(b.0 | b.0)) contracts to a.(b.0 | b.0) | a.(b.0 |
    b.0) though P is b.0 | b.0 and the continuation holds one b.0."""
    from ccspi.terms import Act, parallel_components, sort_key

    def faulty(prefix, counts):
        return [
            (e, counts[e] + 1)
            for e in sorted(counts, key=sort_key)
            if isinstance(e, Act)
            and e.prefix is prefix
            and {*parallel_components(e.cont), e} == counts.keys()
        ]

    mp.setattr("ccspi.rewrite._redex_contractions", faulty)


def no_bound_output_communication(mp: pytest.MonkeyPatch) -> None:
    """A parallel composition loses the taus by which a component receives a
    name that another extrudes."""
    from ccspi import lts, pi

    late = pi.late_transitions

    def faulty(t):
        try:
            return t._moves
        except AttributeError:
            pass
        moves = late(t)
        if isinstance(t, pi.PiPar):
            ps = t.parts
            extruded = set()
            for i, j in itertools.permutations(range(len(ps)), 2):
                rest = tuple(r for k, r in enumerate(ps) if k not in (i, j))
                extruded |= {
                    pi.PiNu(pi.PiPar((res, res2) + rest))
                    for a, res in faulty(ps[i])
                    if isinstance(a, pi.InputAct)
                    for b, res2 in faulty(ps[j])
                    if b == pi.BoundOutAct(a.name)
                }
            moves = tuple(m for m in moves if m[0] is not lts.TAU or m[1] not in extruded)
            pi._store_moves(t, moves)
        return moves

    mp.setattr("ccspi.pi.late_transitions", faulty)


def narrowing_frees_the_name(mp: pytest.MonkeyPatch) -> None:
    """Narrowing a root moves out of its restriction the first component
    even when it uses the restricted name, which it opens as a free name, so
    (nu p)(p(x).0 | p(x).0) plays as p(x).0 | (nu p)p(x).0."""
    from ccspi import pi

    narrow = pi._narrow

    def faulty(t):
        t = narrow(t)
        if type(t) is pi.PiNu and type(t.body) is pi.PiPar:
            first, *rest = t.body.parts
            return pi.PiPar([pi.open_binder(first, "p"), pi.PiNu(pi.PiPar(rest))])
        return t

    mp.setattr("ccspi.pi._narrow", faulty)


def late_played_as_early(mp: pytest.MonkeyPatch) -> None:
    from ccspi import pi

    step = pi.pi_step
    mp.setattr("ccspi.pi.pi_step", lambda frees, mode: step(frees, mode.replace("late", "early")))
    for module in ("pi", "suites"):
        mp.setattr(f"ccspi.{module}.late_bisim", pi.early_bisim)


def dsim_is_identity(mp: pytest.MonkeyPatch) -> None:
    from ccspi.distributed import d_step
    from ccspi.lts import explore

    def own_blocks(roots):
        return {s: i for i, s in enumerate(explore(roots, d_step))}

    mp.setattr("ccspi.distributed.dsim", lambda p, q: p is q)
    for module in ("distributed", "suites"):
        mp.setattr(f"ccspi.{module}.dsim_blocks", own_blocks)


@dataclass(frozen=True)
class Fault:
    patch: Callable[[pytest.MonkeyPatch], None]
    # caught: the suites that must fail; equivalent: none may fail
    must_fail: frozenset[str] = frozenset()
    # for an equivalent fault, the theorem that makes it harmless
    theorem: str = ""
    # for a fault that no suite catches, a check that it makes false
    check: Callable[[], bool] | None = None


CAUGHT = {
    "normalize-is-identity": Fault(
        normalize_is_identity,
        frozenset(
            {"nf-oracle-agreement", "replication-ladder", "confluence-termination", "pi-congruence"}
        ),
    ),
    "signature-ignores-successors": Fault(
        signature_ignores_successors,
        frozenset(
            {
                "nf-oracle-agreement",
                "cancellation",
                "contribution-invariance",
                "dsim-canonical",
                "pi-congruence",
            }
        ),
    ),
    "game-plays-one-side": Fault(game_plays_one_side, frozenset({"nf-oracle-agreement"})),
    "game-checks-labels-only": Fault(game_checks_labels_only, frozenset({"nf-oracle-agreement"})),
    "strong-in-place-of-distributed": Fault(
        strong_in_place_of_distributed, frozenset({"dsim-canonical"})
    ),
    "no-synchronisation": Fault(no_synchronisation, frozenset({"md-with-sums"})),
    "no-bound-output-communication": Fault(
        no_bound_output_communication, frozenset({"pi-congruence"})
    ),
    "narrowing-frees-the-name": Fault(narrowing_frees_the_name, frozenset({"pi-congruence"})),
}


def ccs_plus_moves_are_the_reference_moves() -> bool:
    """Whether every CCS+ term up to size 4 on one name moves as the
    reference relation says, order included.  Unlike any suite's universe,
    this one holds two identical neighbours that synchronise."""
    import transitions_reference as ref
    from ccspi.generate import ccs_plus_terms_upto, prefix_alphabet
    from ccspi.lts import transitions

    universe = ccs_plus_terms_upto(4, prefix_alphabet(("a",)))
    return all(transitions(t) == ref.ordered_transitions(t) for t in universe)


def normalization_keeps_the_size() -> bool:
    """Whether `normalize_steps` keeps the size of every sum-free term up to
    size 5 on the positive prefixes a and b, as the distribution law does:
    a wrong match contracts a node into a term of another size.  It calls
    `normalize_steps`, which keeps nothing, since `normalize` would answer
    from its cache."""
    from ccspi.generate import ccs_terms_upto
    from ccspi.rewrite import normalize_steps
    from ccspi.terms import Prefix, size

    universe = ccs_terms_upto(5, (Prefix("a"), Prefix("b")))
    return all(size(normalize_steps(t)[0]) == size(t) for t in universe)


# the suites' blind spots: no suite fails under these, at the reduced bounds
# or at the default ones
MISSED = {
    "matcher-ignores-copies": Fault(matcher_ignores_copies, check=normalization_keeps_the_size),
    "identical-neighbours-never-synchronise": Fault(
        identical_neighbours_never_synchronise, check=ccs_plus_moves_are_the_reference_moves
    ),
}

EQUIVALENT = {
    "late-played-as-early": Fault(
        late_played_as_early,
        theorem="strong bisimilarity is a congruence on finite sum-free pi (the paper), "
        "so ground = late = early",
    ),
    "dsim-is-identity": Fault(
        dsim_is_identity,
        theorem="distributed bisimilarity is structural congruence on guarded sums "
        "(Castellani and Hennessy, JACM 36(4), 1989), and canonical forms are interned",
    ),
}


def failing_suites(name: str) -> list[str]:
    """The suites that fail with the named fault patched in.  Run it in a
    fresh interpreter."""
    fault = {**CAUGHT, **MISSED, **EQUIVALENT}[name]
    with pytest.MonkeyPatch.context() as mp:
        fault.patch(mp)
        return [s for s in SUITES if not run_suite(s, **REDUCED.get(s, {})).passed]


def _failing_in_a_fresh_process(name: str) -> set[str]:
    src = os.path.dirname(os.path.dirname(ccspi.__file__))
    done = subprocess.run(
        [sys.executable, __file__, name],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return set(json.loads(done.stdout))


def test_every_suite_passes_at_the_reduced_bounds():
    # else a fault's failing set would say nothing
    assert [s for s in SUITES if not run_suite(s, **REDUCED.get(s, {})).passed] == []


@pytest.mark.parametrize("name", list(CAUGHT))
def test_the_suites_catch_the_fault(name):
    assert CAUGHT[name].must_fail
    assert CAUGHT[name].must_fail <= _failing_in_a_fresh_process(name)


def test_dsim_separation_catches_strong_in_place_of_distributed_at_size_3(monkeypatch):
    # at the reduced size 2 every strongly bisimilar pair of products also
    # matches componentwise; at size 3, a.0 | a.0 | a.0 and a.0 | a.a.0 do
    # not.  dsim_blocks keeps nothing, so the fault shows in this interpreter
    strong_in_place_of_distributed(monkeypatch)
    assert not run_suite("dsim-separation", size_bound=3).passed


def test_dsim_canonical_substitution_half_catches_strong_in_place_of_distributed(monkeypatch):
    # at size 4 some strong classes are not closed under substitution, e.g.
    # a.0 | 'b.0 and a.'b.0 + 'b.a.0 under b -> a; called directly, since
    # run_suite keeps only the first ten failures, which the first half fills
    strong_in_place_of_distributed(monkeypatch)
    failures = suites.dsim_canonical(size_bound=4).failures
    assert any(f.startswith("substitution broke") for f in failures)


@pytest.mark.parametrize("name", list(MISSED))
def test_a_check_catches_a_fault_the_suites_miss(name, monkeypatch):
    # once some suite fails under the fault, its row belongs in CAUGHT
    assert _failing_in_a_fresh_process(name) == set()
    check = MISSED[name].check
    assert check()
    # CCS nodes keep no moves, so the fault shows in this interpreter
    MISSED[name].patch(monkeypatch)
    assert not check()


# a pair of CCS+ terms on which each synchronisation fault flips the oracle
# from "not bisimilar" (only the left side has a tau) to "bisimilar"
ORACLE_WITNESSES = {
    "no-synchronisation": ("a.0 | 'a.0", "a.'a.0 + 'a.a.0"),
    "identical-neighbours-never-synchronise": (
        "(a.0 + 'a.0) | (a.0 + 'a.0)",
        "a.(a.0 + 'a.0) + 'a.(a.0 + 'a.0)",
    ),
}


@pytest.mark.parametrize("name", list(ORACLE_WITNESSES))
def test_the_fault_flips_the_oracle_on_its_witness(name, monkeypatch):
    from ccspi.lts import bisimilar_oracle
    from ccspi.syntax import parse_ccs_plus

    p, q = (parse_ccs_plus(s) for s in ORACLE_WITNESSES[name])
    assert not bisimilar_oracle(p, q)
    {**CAUGHT, **MISSED}[name].patch(monkeypatch)
    assert bisimilar_oracle(p, q)


# a pi composition that loses a communication under each synchronisation
# fault, since pi's parallel step reads the same rule, with its number of
# moves without and with the fault: under the second, the two copies no
# longer extrude p to each other
PI_WITNESSES = {
    "no-synchronisation": ("a(x).0 | a<b>.0", 3, 2),
    "identical-neighbours-never-synchronise": (
        "(nu p)(a(x).0 | a<p>.0) | (nu p)(a(x).0 | a<p>.0)",
        4,
        3,
    ),
}

# the moves of a pi term under a fault; pi nodes store their moves, so it
# runs in a fresh interpreter, in which no node has them yet
PI_MOVES_SCRIPT = """
import sys
import pytest
from test_faults import CAUGHT, MISSED
from ccspi.pi import late_transitions
from ccspi.syntax import parse_pi

name, src = sys.argv[1:]
with pytest.MonkeyPatch.context() as mp:
    {**CAUGHT, **MISSED}[name].patch(mp)
    print(len(late_transitions(parse_pi(src))))
"""


@pytest.mark.parametrize("name", list(PI_WITNESSES))
def test_the_fault_loses_a_pi_communication_on_its_witness(name):
    from ccspi.pi import late_transitions
    from ccspi.syntax import parse_pi

    src, moves, faulty_moves = PI_WITNESSES[name]
    assert len(late_transitions(parse_pi(src))) == moves
    package = os.path.dirname(os.path.dirname(ccspi.__file__))
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, "-c", PI_MOVES_SCRIPT, name, src],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((package, here))),
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert int(done.stdout) == faulty_moves


@pytest.mark.parametrize("name", list(EQUIVALENT))
def test_an_equivalent_fault_passes_every_suite(name):
    assert EQUIVALENT[name].theorem
    assert _failing_in_a_fresh_process(name) == set()


if __name__ == "__main__":
    print(json.dumps(failing_suites(sys.argv[1])))
