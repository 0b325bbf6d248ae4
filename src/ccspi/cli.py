"""Command-line front end.

Exit codes: 0 when the queried property holds (equivalent, witness found,
suite passed), 1 when it does not, 2 on usage, parse or input errors
(input nested too deeply for the recursive walks included).

`bisim` reads every equivalence off one table, `_ROUTES`: (calculus, style)
-> {route: decider}, a calculus's first style its default.  `--method`
takes a pair's routes.  Only sum-free strong bisimilarity has two, the
normal-form decision `norm` and the oracle `oracle`, a bisimulation game;
there `both`, the default, runs the two side by side, reports each as
`method_<route>`, and treats a disagreement as a hard error.  `--depth` and
the ground-term check apply where the oracle is `bisimilar_oracle`.  `dsim`
is `bisim` on (ccs+, distributed).

The argument parser is built once per process, by the first `main` call,
and shared by every later one; `main` still parses each argv into a fresh
namespace, so no value carries over from one call to the next.  `main`
owns the pi memos on this path: it empties them (`pi.clear_bisim_memo`)
when each command ends, however it ends.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__
from .distributed import dsim
from .erasure import ErasureContext, erase
from .lts import bisimilar_oracle, distinguishing_depth
from .mirrored import search_md_diagram, search_md_parallel_shape
from .pi import clear_bisim_memo, early_bisim, ground_bisim, late_bisim
from .rewrite import decide_bisim, normalize_steps, prime_decompose
from .suites import SUITES, run_suite
from .syntax import (
    ParseError,
    is_name,
    parse_ccs,
    parse_ccs_plus,
    parse_pi,
    print_ccs,
    print_pi,
    print_term,
)
from .terms import is_ground


@dataclass
class RunReport:
    command: str
    inputs: list[str]
    verdict: str
    payload: dict = field(default_factory=dict)
    elapsed: float = 0.0
    version: str = __version__


class UsageError(Exception):
    pass


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        # The fields as they are: `asdict` would deep-copy the payload first.
        print(json.dumps(vars(report), indent=2, sort_keys=True))
        return
    for i, text in enumerate(report.inputs):
        print(f"input {i + 1}: {text}" if len(report.inputs) > 1 else f"input: {text}")
    print(f"verdict: {report.verdict}")
    for key, value in report.payload.items():
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        print(f"{key}: {value}")
    print(f"elapsed: {report.elapsed:.3f}s (ccspi {report.version})")


def cmd_normalize(args) -> int:
    t0 = time.time()
    t = parse_ccs(args.term)
    nf, steps = normalize_steps(t)
    report = RunReport(
        command="normalize",
        inputs=[print_ccs(t)],
        verdict="normal form" if steps == 0 else f"reduced in {steps} steps",
        payload={"normal_form": print_ccs(nf), "steps": steps},
        elapsed=time.time() - t0,
    )
    _emit(report, args.format)
    return 0


_ROUTES = {
    ("ccs", "strong"): {"norm": decide_bisim, "oracle": bisimilar_oracle},
    ("ccs+", "strong"): {"oracle": bisimilar_oracle},
    ("ccs+", "distributed"): {"oracle": dsim},
    ("pi", "ground"): {"oracle": ground_bisim},
    ("pi", "late"): {"oracle": late_bisim},
    ("pi", "early"): {"oracle": early_bisim},
}
_PARSERS = {"ccs": parse_ccs, "ccs+": parse_ccs_plus, "pi": parse_pi}


def cmd_bisim(args) -> int:
    t0 = time.time()
    styles = [s for c, s in _ROUTES if c == args.calculus]
    style = args.style or styles[0]
    if style not in styles:
        raise UsageError(
            f"style {style!r} is not defined for calculus {args.calculus!r}, "
            f"which takes --style {' or '.join(styles)}"
        )
    routes = _ROUTES[args.calculus, style]
    methods = [*routes, "both"] if len(routes) > 1 else [*routes]
    method = args.method or methods[-1]
    if method not in methods:
        raise UsageError(
            f"--method {method} is not defined for {args.calculus} {style} bisimilarity, "
            f"which takes --method {' or '.join(methods)}"
        )
    # --depth counts the rounds of the oracle's game, and the oracle needs
    # the labelled transitions that open terms lack
    interleaving = routes["oracle"] is bisimilar_oracle
    if args.depth and not interleaving:
        raise UsageError("--depth applies to the interleaving CCS equivalences only")

    p = _PARSERS[args.calculus](args.p)
    q = _PARSERS[args.calculus](args.q)
    chosen = [*routes] if method == "both" else [method]
    if interleaving and not (is_ground(p) and is_ground(q)):
        if "oracle" in chosen:
            raise UsageError("the oracle needs ground terms; use --method norm for open ones")
        if args.depth:
            raise UsageError("--depth needs ground terms: open terms have no transitions")

    answers = {}
    depth = None  # the distinguishing depth, once the oracle has computed it
    for route in chosen:
        if args.depth and routes[route] is bisimilar_oracle:
            # one game gives the verdict and the depth: no round
            # separates bisimilar terms
            depth = distinguishing_depth(p, q)
            answers[route] = depth is None
        else:
            answers[route] = routes[route](p, q)
    if len(set(answers.values())) > 1:
        print(
            "DIVERGENCE: normal-form decision and oracle disagree on "
            f"{print_term(p)} vs {print_term(q)}",
            file=sys.stderr,
        )
        return 2
    verdict = answers[chosen[0]]
    payload = {f"method_{r}": v for r, v in answers.items()} if len(routes) > 1 else {}
    if args.depth and not verdict:
        payload["distinguishing_depth"] = distinguishing_depth(p, q) if depth is None else depth

    report = RunReport(
        command="bisim",
        inputs=[print_term(p), print_term(q)],
        verdict=f"{style} bisimilar" if verdict else f"not {style} bisimilar",
        payload=payload,
        elapsed=time.time() - t0,
    )
    _emit(report, args.format)
    return 0 if verdict else 1


def cmd_prime(args) -> int:
    t0 = time.time()
    t = parse_ccs(args.term)
    comps = prime_decompose(t)
    report = RunReport(
        command="prime",
        inputs=[print_ccs(t)],
        verdict="prime" if len(comps) == 1 else f"{len(comps)} prime components",
        payload={"components": [print_ccs(c) for c in comps]},
        elapsed=time.time() - t0,
    )
    _emit(report, args.format)
    return 0


def cmd_erase(args) -> int:
    t0 = time.time()
    p = parse_pi(args.term)
    ctx = ErasureContext(args.input_name, args.output_name)
    result = erase(p, ctx)
    report = RunReport(
        command="erase",
        inputs=[print_pi(p)],
        verdict="erased",
        payload={
            "observed": f"inputs on {ctx.input_name}, outputs on {ctx.output_name}",
            "erasure": print_ccs(result),
        },
        elapsed=time.time() - t0,
    )
    _emit(report, args.format)
    return 0


def cmd_md_search(args) -> int:
    t0 = time.time()
    names = args.names
    if args.shape == "parallel":
        if args.calculus != "ccs":
            raise UsageError("the parallel-shape search is defined for the sum-free calculus")
        bound = args.size if args.size is not None else 3
        w = search_md_parallel_shape(bound, names)
        payload = (
            {}
            if w is None
            else {
                "eta1": str(w.eta1),
                "eta2": str(w.eta2),
                "s": print_ccs(w.s),
                "t": print_ccs(w.t),
            }
        )
    else:
        bound = args.size if args.size is not None else 4
        w = search_md_diagram(args.calculus, bound, names)
        payload = (
            {}
            if w is None
            else {
                "q": print_ccs(w.q),
                "eta1": str(w.eta1),
                "eta2": str(w.eta2),
                "end_first": print_ccs(w.end_first),
                "end_second": print_ccs(w.end_second),
            }
        )
    report = RunReport(
        command="md-search",
        inputs=[f"calculus={args.calculus} shape={args.shape} size<={bound} names={names}"],
        verdict="witness found" if w is not None else "no witness within the bound",
        payload=payload,
        elapsed=time.time() - t0,
    )
    _emit(report, args.format)
    return 0 if w is not None else 1


def _flags(keys: list[str]) -> str:
    """The command-line flags of enumerate's bound keys, comma-separated."""
    return ", ".join("--" + k.replace("_", "-") for k in keys)


def cmd_enumerate(args) -> int:
    known = "known suites: " + ", ".join(SUITES)
    if args.list == (args.suite is not None):
        raise UsageError(f"name one suite to run, or pass --list alone; {known}")
    overrides = {
        "size_bound": args.size_bound,
        "count": args.count,
        "max_prefixes": args.max_prefixes,
        "max_nus": args.max_nus,
        "seed": args.seed,
        "sample": args.sample,
    }
    given = [k for k, v in overrides.items() if v is not None]
    if args.list:
        # the list takes no bound: one given would silently not apply
        if given:
            raise UsageError(f"--list does not take {_flags(given)}")
        if args.format == "json":
            print(json.dumps(list(SUITES), indent=2))
        else:
            print("\n".join(SUITES))
        return 0
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; {known}")
    # run_suite skips what a suite does not take, so a bound the user gave
    # would silently not apply
    params = inspect.signature(SUITES[args.suite]).parameters
    ignored = [k for k in given if k not in params]
    if ignored:
        raise UsageError(f"suite {args.suite!r} does not take {_flags(ignored)}")
    report = run_suite(args.suite, **overrides)
    if report.checked == 0:
        # exit 0 would read as "the property holds" with no case examined
        raise UsageError(f"suite {report.name!r} checked no case within these bounds")
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": report.name,
                    "passed": report.passed,
                    "checked": report.checked,
                    "elapsed": report.elapsed,
                    "failures": report.failures,
                    "notes": report.notes,
                    "version": __version__,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(report.summary())
        for f in report.failures:
            print(f"  counterexample: {f}")
    return 0 if report.passed else 1


def _non_negative_int(text: str) -> int:
    """An argparse type for size and search bounds: a non-negative integer."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _name(text: str) -> str:
    """An argparse type for an observed name of `erase`: one channel name."""
    if not is_name(text):
        raise argparse.ArgumentTypeError(f"expected a lowercase name, got {text!r}")
    return text


def _name_list(text: str) -> tuple[str, ...]:
    """An argparse type for --names: distinct channel names, comma-separated."""
    names = tuple(text.split(","))
    for n in names:
        if not is_name(n):
            raise argparse.ArgumentTypeError(
                f"expected comma-separated lowercase names, got {n!r} in {text!r}"
            )
    if len(set(names)) < len(names):
        raise argparse.ArgumentTypeError(f"expected distinct names, got {text!r}")
    return names


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ccspi argument parser.  One object per process: it holds no
    per-call state, so every `main` call can parse with it."""
    parser = argparse.ArgumentParser(
        prog="ccspi",
        description="Process-calculus equivalence toolkit: normal forms, "
        "bisimilarity checkers, mirrored-dependency searches, and property suites.",
    )
    parser.add_argument("--version", action="version", version=f"ccspi {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_norm = sub.add_parser("normalize", help="rewrite a sum-free term to its normal form")
    p_norm.add_argument("term")
    add_format(p_norm)
    p_norm.set_defaults(fn=cmd_normalize)

    p_bis = sub.add_parser("bisim", help="decide equivalence of two terms")
    p_bis.add_argument("p")
    p_bis.add_argument("q")
    p_bis.add_argument("--calculus", choices=("ccs", "ccs+", "pi"), default="ccs")
    p_bis.add_argument("--method", choices=("norm", "oracle", "both"))
    p_bis.add_argument("--style", choices=("strong", "distributed", "ground", "late", "early"))
    p_bis.add_argument(
        "--depth",
        action="store_true",
        help="report the number of game rounds needed to tell the terms apart",
    )
    add_format(p_bis)
    p_bis.set_defaults(fn=cmd_bisim)

    p_dsim = sub.add_parser(
        "dsim",
        help="decide distributed bisimilarity (bisim --calculus ccs+ --style distributed)",
    )
    p_dsim.add_argument("p")
    p_dsim.add_argument("q")
    add_format(p_dsim)
    p_dsim.set_defaults(
        fn=cmd_bisim, calculus="ccs+", style="distributed", method=None, depth=False
    )

    p_prime = sub.add_parser("prime", help="prime decomposition of a ground sum-free term")
    p_prime.add_argument("term")
    add_format(p_prime)
    p_prime.set_defaults(fn=cmd_prime)

    p_erase = sub.add_parser("erase", help="erase a pi term to CCS relative to two names")
    p_erase.add_argument("term")
    p_erase.add_argument("input_name", type=_name)
    p_erase.add_argument("output_name", type=_name)
    add_format(p_erase)
    p_erase.set_defaults(fn=cmd_erase)

    p_md = sub.add_parser("md-search", help="bounded search for a mirrored dependency")
    p_md.add_argument("--calculus", choices=("ccs", "ccs+"), default="ccs")
    p_md.add_argument("--shape", choices=("parallel", "diagram"), default="parallel")
    p_md.add_argument("--size", type=_non_negative_int, default=None)
    p_md.add_argument("--names", type=_name_list, default="a,b")
    add_format(p_md)
    p_md.set_defaults(fn=cmd_md_search)

    p_enum = sub.add_parser("enumerate", help="run a named property suite")
    p_enum.add_argument("suite", nargs="?")
    p_enum.add_argument("--list", action="store_true", help="list the known suites")
    p_enum.add_argument("--size-bound", dest="size_bound", type=_non_negative_int)
    p_enum.add_argument("--count", type=_non_negative_int)
    p_enum.add_argument("--max-prefixes", dest="max_prefixes", type=_non_negative_int)
    p_enum.add_argument("--max-nus", dest="max_nus", type=_non_negative_int)
    p_enum.add_argument("--seed", type=int)
    p_enum.add_argument("--sample", type=_non_negative_int)
    add_format(p_enum)
    p_enum.set_defaults(fn=cmd_enumerate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply to process", file=sys.stderr)
        return 2
    finally:
        # a query's game positions and renamings serve no later query
        clear_bisim_memo()


if __name__ == "__main__":
    sys.exit(main())
