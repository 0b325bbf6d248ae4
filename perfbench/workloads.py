"""The two workloads.  Each is built in a fresh worker process (its set-up
is part of `setup_s`) and then runs one round of fixed work through
`run`, which returns the round's check results.

Every workload calls into ccspi only through public functions: the suite
registry, the three games, the parser, and `ccspi.cli.main`.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

from queries import Query, make_session
from model import PiGen, count_ccs_upto, show_pi

CCS_SUITES = (
    "nf-oracle-agreement",
    "replication-ladder",
    "confluence-termination",
    "cancellation",
    "contribution-invariance",
    "no-md-sumfree",
    "md-with-sums",
    "dsim-canonical",
    "dsim-separation",
    "open-normalization",
)
PI_SUITES = ("pi-congruence", "erasure-random", "pi-subst-cases")

# pi-congruence at full bounds (3 prefixes, 1 restriction, 2 names) runs for
# minutes; these bounds keep restrictions in the universe, so the
# bound-output and extrusion paths run, in a few seconds.
PI_CONGRUENCE_BOUNDS = {"max_prefixes": 2, "max_nus": 2, "frees": ("a", "b", "c")}

# reduced bounds for the self-test: every workload end to end in seconds
TINY = {
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


@dataclass
class RoundResult:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    spans: dict[str, float] = field(default_factory=dict)
    # the workload's queries: `ccspi` commands, or in `suites` the one pass
    # over the suites that a round makes; latencies of the successful ones
    queries: int = 0
    latencies_ms: list[float] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(message)


class Suites:
    """The thirteen acceptance suites run one after another in one process,
    as the acceptance run does: the ten CCS and CCS+ suites at full bounds,
    then the three pi suites.  Checks computed apart from ccspi follow."""

    def __init__(self, seed: int, tiny: bool):
        from ccspi.suites import run_suite

        self.run_suite = run_suite
        self.calls = []
        for name in CCS_SUITES + PI_SUITES:
            kwargs = {"seed": seed}
            if name == "pi-congruence":
                kwargs.update(PI_CONGRUENCE_BOUNDS)
            if tiny:
                kwargs.update(TINY.get(name, {}))
            self.calls.append((name, kwargs))
        self.seed = seed
        self.tiny = tiny

    def run(self) -> RoundResult:
        """One pass over the suites is one query.  A single suite call is no
        query of its own: the suites differ in cost by a factor of a
        thousand, so a percentile over them would pick out whichever short
        suite falls in the middle and move with its noise."""
        res = RoundResult(queries=1)
        for name, kwargs in self.calls:
            t0 = time.perf_counter()
            report = self.run_suite(name, **kwargs)
            res.spans[name] = time.perf_counter() - t0
            res.check(report.passed, f"{name}: {report.failures[:3]}")
        res.latencies_ms.append(sum(res.spans.values()) * 1000.0)
        self.check_universes(res)
        self.check_pi_games(res)
        return res

    def check_universes(self, res: RoundResult) -> None:
        """The universes the CCS suites enumerate have the sizes an
        independent Euler-transform count gives."""
        from ccspi.generate import ccs_terms_upto, prefix_alphabet

        alphabet = prefix_alphabet(("a", "b"))
        for n, known in ((3, 219), (4, 1718), (5, 14346)):
            counted = count_ccs_upto(n, len(alphabet))
            listed = len(ccs_terms_upto(n, alphabet))
            res.check(
                counted == known == listed,
                f"size <= {n}: recurrence {counted}, ccs_terms_upto {listed}, known {known}",
            )

    def check_pi_games(self, res: RoundResult) -> None:
        """Pairs built to be structurally congruent are bisimilar in all
        three styles, and every game verdict is symmetric."""
        from ccspi import early_bisim, ground_bisim, late_bisim, parse_pi

        games = (ground_bisim, late_bisim, early_bisim)
        rng = random.Random(self.seed)
        gen = PiGen(rng, ("a", "b", "c"))
        n_pairs = 10 if self.tiny else 40
        for _ in range(n_pairs):
            t = gen.term(rng.randint(3, 4), rng.randint(0, 2))
            p, q = show_pi(t), show_pi(gen.congruent(t))
            tp, tq = parse_pi(p), parse_pi(q)
            for game in games:
                res.check(game(tp, tq), f"{game.__name__}({p!r}, {q!r}) on congruent terms")
        for _ in range(n_pairs):
            t = gen.term(rng.randint(3, 4), rng.randint(0, 2))
            p, q = show_pi(t), show_pi(gen.mutate(gen.congruent(t)))
            tp, tq = parse_pi(p), parse_pi(q)
            for game in games:
                res.check(
                    game(tp, tq) == game(tq, tp), f"{game.__name__} asymmetric on {p!r}, {q!r}"
                )


class QueryMix:
    """A closed loop with one client: each `ccspi` command is issued
    in-process through `ccspi.cli.main` once the previous one answered.
    The seeded queries are generated and printed during set-up."""

    ROUNDS = 12
    TINY_ROUNDS = 2

    def __init__(self, seed: int, tiny: bool):
        from ccspi.cli import main

        self.main = main
        rng = random.Random(seed)
        self.queries = make_session(rng, self.TINY_ROUNDS if tiny else self.ROUNDS)

    def ask(self, argv: list[str]) -> tuple[int | str, str]:
        """The exit code and standard output of one command, or the name of
        the exception it raised (the `ccspi` script would exit 1 on it,
        which reads as "does not hold")."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 2
            except Exception as e:
                code = type(e).__name__
        return code, out.getvalue()

    def run(self) -> RoundResult:
        res = RoundResult()
        todo = list(reversed(self.queries))
        while todo:
            q: Query = todo.pop()
            t0 = time.perf_counter()
            code, out = self.ask(q.argv)
            dt = time.perf_counter() - t0
            res.attempted += 1
            res.queries += 1
            if code not in (0, 1) or (q.known_fault and code != 0):
                res.failed += 1
                if not q.known_fault:
                    res.errors.append(f"{q.kind} failed ({code}): {q.argv[:3]}")
                continue
            res.latencies_ms.append(dt * 1000.0)
            error, follow = q.check(code, json.loads(out))
            if error:
                res.errors.append(error)
            todo.extend(reversed(follow))
        return res


WORKLOADS = {"suites": Suites, "query-mix": QueryMix}
