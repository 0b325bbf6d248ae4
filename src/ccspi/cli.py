"""Command-line front end.

Exit codes: 0 when the queried property holds (equivalent, witness found,
suite passed), 1 when it does not, 2 on usage, parse or input errors
(input nested too deeply for the recursive walks included).  The bisim
--method both route runs the normal-form decision and the oracle side by
side and treats any divergence as a hard error.

The argument parser is built once per process, by the first `main` call,
and shared by every later one; `main` still parses each argv into a fresh
namespace, so no value carries over from one call to the next.
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
from .pi import early_bisim, ground_bisim, late_bisim
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


def _parse_term(calculus: str, text: str):
    if calculus == "ccs":
        return parse_ccs(text)
    if calculus == "ccs+":
        return parse_ccs_plus(text)
    if calculus == "pi":
        return parse_pi(text)
    raise UsageError(f"unknown calculus: {calculus}")


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


_STYLES = {
    "ccs": ("strong",),
    "ccs+": ("strong", "distributed"),
    "pi": ("ground", "late", "early"),
}


def cmd_bisim(args) -> int:
    t0 = time.time()
    style = args.style or _STYLES[args.calculus][0]
    if style not in _STYLES[args.calculus]:
        raise UsageError(f"style {style!r} is not defined for calculus {args.calculus!r}")
    method = args.method
    if method is None:
        method = "both" if (args.calculus, style) == ("ccs", "strong") else "oracle"
    if method != "oracle" and (args.calculus, style) != ("ccs", "strong"):
        raise UsageError("--method norm/both applies to the sum-free strong equivalence only")
    if args.depth and (args.calculus == "pi" or style == "distributed"):
        raise UsageError("--depth applies to the interleaving CCS equivalences only")

    p = _parse_term(args.calculus, args.p)
    q = _parse_term(args.calculus, args.q)
    payload: dict = {}
    depth = None  # the distinguishing depth, once the oracle has computed it

    def oracle() -> bool:
        # with --depth one exploration answers both: no round separates bisimilar terms
        nonlocal depth
        if not args.depth:
            return bisimilar_oracle(p, q)
        depth = distinguishing_depth(p, q)
        return depth is None

    if args.calculus == "pi":
        game = {"ground": ground_bisim, "late": late_bisim, "early": early_bisim}[style]
        verdict = game(p, q)
    elif style == "distributed":
        verdict = dsim(p, q)
    elif args.calculus == "ccs+":
        verdict = oracle()
    else:
        ground = is_ground(p) and is_ground(q)
        if method in ("oracle", "both") and not ground:
            raise UsageError("the oracle needs ground terms; use --method norm for open ones")
        if args.depth and not ground:
            raise UsageError("--depth needs ground terms: open terms have no transitions")
        if method in ("norm", "both"):
            by_norm = decide_bisim(p, q)
            payload["method_norm"] = by_norm
        if method in ("oracle", "both"):
            by_oracle = oracle()
            payload["method_oracle"] = by_oracle
        if method == "both" and by_norm != by_oracle:
            print(
                "DIVERGENCE: normal-form decision and oracle disagree on "
                f"{print_ccs(p)} vs {print_ccs(q)}",
                file=sys.stderr,
            )
            return 2
        verdict = by_norm if method in ("norm", "both") else by_oracle

    if args.depth and not verdict and args.calculus in ("ccs", "ccs+") and style == "strong":
        payload["distinguishing_depth"] = distinguishing_depth(p, q) if method == "norm" else depth

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


def cmd_enumerate(args) -> int:
    if args.list or args.suite is None:
        for name in SUITES:
            print(name)
        return 0 if args.list else 2
    overrides = {
        "size_bound": args.size_bound,
        "count": args.count,
        "max_prefixes": args.max_prefixes,
        "max_nus": args.max_nus,
        "seed": args.seed,
        "sample": args.sample,
    }
    if args.suite in SUITES:
        # run_suite skips what a suite does not take, so a bound the user
        # gave would silently not apply
        params = inspect.signature(SUITES[args.suite]).parameters
        ignored = [k for k, v in overrides.items() if v is not None and k not in params]
        if ignored:
            flags = ", ".join("--" + k.replace("_", "-") for k in ignored)
            raise UsageError(f"suite {args.suite!r} does not take {flags}")
    try:
        report = run_suite(args.suite, **overrides)
    except KeyError as e:
        print(e.args[0], file=sys.stderr)
        return 2
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


if __name__ == "__main__":
    sys.exit(main())
