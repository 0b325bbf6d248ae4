"""Command-line interface: exit codes, report payloads, error paths."""

import json
import os
import re
import subprocess
import sys

import pytest

import ccspi
from ccspi.cli import build_parser, main
from ccspi.lts import explore
from ccspi.suites import SUITES, run_suite


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize_text(capsys):
    code, out, err = run(capsys, "normalize", "a.a.a.0")
    assert code == 0 and err == ""
    assert "normal_form: a.0 | a.0 | a.0" in out
    assert "reduced in 2 steps" in out
    assert "ccspi 0.1.0" in out


def test_normalize_already_normal(capsys):
    code, out, _ = run(capsys, "normalize", "a.b.0")
    assert code == 0
    assert "verdict: normal form" in out


def test_normalize_json(capsys):
    code, out, _ = run(capsys, "normalize", "a.a.0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "normalize"
    assert doc["payload"]["normal_form"] == "a.0 | a.0"
    assert doc["payload"]["steps"] == 1
    assert doc["inputs"] == ["a.a.0"]


def test_bisim_positive_both_methods(capsys):
    code, out, _ = run(capsys, "bisim", "a.a.0", "a.0 | a.0")
    assert code == 0
    assert "bisimilar" in out


def test_bisim_negative_exit_code(capsys):
    code, out, _ = run(capsys, "bisim", "a.b.0", "a.0 | b.0")
    assert code == 1
    assert "not strong bisimilar" in out


def test_bisim_depth_payload(capsys):
    code, out, _ = run(capsys, "bisim", "a.a.0", "a.0", "--depth")
    assert code == 1
    assert "distinguishing_depth: 2" in out


@pytest.mark.parametrize(
    "argv,payload",
    [
        (
            ["a.a.0", "a.0"],
            {"method_norm": False, "method_oracle": False, "distinguishing_depth": 2},
        ),
        (["a.0 + b.0", "a.0", "--calculus", "ccs+"], {"distinguishing_depth": 1}),
    ],
    ids=["ccs", "ccs+"],
)
def test_bisim_depth_steps_each_marking_at_most_once(capsys, monkeypatch, argv, payload):
    # the oracle's verdict and the depth come from one game over the joint
    # markings, which steps a marking only when a position needs its moves,
    # and at most once per query, and reaches no marking that p and q cannot
    net = ccspi.lts._net
    nets = []

    def counted_net(p, q):
        components, marking, step = net(p, q)
        stepped = []

        def counted(m):
            stepped.append(m)
            return step(m)

        nets.append((marking(p), marking(q), stepped, step))
        return components, marking, counted

    monkeypatch.setattr(ccspi.lts, "_net", counted_net)
    code, out, _ = run(capsys, "bisim", *argv, "--depth", "--format", "json")
    assert code == 1 and json.loads(out)["payload"] == payload
    [(mp, mq, stepped, step)] = nets
    assert len(stepped) == len(set(stepped))
    assert set(stepped) <= explore([mp, mq], step).keys()


def test_bisim_depth_rejects_open_terms(capsys):
    code, out, err = run(capsys, "bisim", "a.X", "b.X", "--method", "norm", "--depth")
    assert code == 2 and out == ""
    assert err.startswith("usage error: --depth needs ground terms")


def test_bisim_open_terms_normal_form_route(capsys):
    code, out, _ = run(capsys, "bisim", "X | a.0", "a.0 | X", "--method", "norm")
    assert code == 0
    code, _, err = run(capsys, "bisim", "X | a.0", "a.0 | X", "--method", "oracle")
    assert code == 2
    assert "open" in err


def test_bisim_pi_styles(capsys):
    for style in ("ground", "late", "early"):
        code, out, _ = run(
            capsys,
            "bisim", "a(x).0 | a(y).0", "a(x).a(y).0",
            "--calculus", "pi", "--style", style,
        )
        assert code == 0, style


PI_MEMOS = (ccspi.pi._BISIM_MEMO, ccspi.pi._OPEN_MEMO, ccspi.pi._SUBST_MEMO)


def test_main_empties_the_pi_memos(capsys, monkeypatch):
    filled = []
    clear = ccspi.cli.clear_bisim_memo

    def recorded():
        filled.append([len(m) for m in PI_MEMOS])
        clear()

    monkeypatch.setattr(ccspi.cli, "clear_bisim_memo", recorded)
    # a pair that narrowing does not make one term, so the game plays
    p, q = "(nu x)(a<x>.0) | b(y).0 | b(z).0", "(nu x)(a<x>.0 | b(y).b(z).0)"
    code, _, _ = run(capsys, "bisim", p, q, "--calculus", "pi", "--style", "late")
    assert code == 0 and filled[0][0] and filled[0][1]
    assert not any(PI_MEMOS)
    # an error empties them too
    assert ccspi.ground_bisim(ccspi.parse_pi(p), ccspi.parse_pi(q))
    ccspi.pi_substitute(ccspi.parse_pi(p), {"a": "b"})
    assert all(PI_MEMOS)
    code, _, err = run(capsys, "bisim", p, "b(y", "--calculus", "pi", "--style", "late")
    assert code == 2 and err.startswith("parse error")
    assert len(filled) == 2 and all(filled[1])
    assert not any(PI_MEMOS)


EQ, NE = ("a.a.0", "a.0 | a.0"), ("a.a.0", "a.0")
PLUS_EQ, PLUS_NE = ("a.0 + b.0", "b.0 + a.0"), ("a.0 + b.0", "a.0")
PI_EQ, PI_NE = ("a(x).0 | a(y).0", "a(x).a(y).0"), ("a(x).0", "b(x).0")
BOTH = {"method_norm": True, "method_oracle": True}
NEITHER = {"method_norm": False, "method_oracle": False}


# Every defined (calculus, style, method), the method unset included: the
# exit code, the verdict and the payload in the order it is printed.
@pytest.mark.parametrize(
    "argv,code,verdict,payload",
    [
        pytest.param(["bisim", *EQ], 0, "strong bisimilar", BOTH, id="ccs"),
        pytest.param(
            ["bisim", *NE, "--method", "both"], 1, "not strong bisimilar", NEITHER, id="ccs-both"
        ),
        pytest.param(
            ["bisim", *EQ, "--method", "norm"], 0, "strong bisimilar", {"method_norm": True}, id="ccs-norm"
        ),
        pytest.param(
            ["bisim", "X | a.0", "a.0 | X", "--method", "norm"],
            0, "strong bisimilar", {"method_norm": True}, id="ccs-norm-open",
        ),
        pytest.param(
            ["bisim", *NE, "--style", "strong", "--method", "oracle"],
            1, "not strong bisimilar", {"method_oracle": False}, id="ccs-strong-oracle",
        ),
        pytest.param(
            ["bisim", *NE, "--depth"],
            1, "not strong bisimilar", {**NEITHER, "distinguishing_depth": 2}, id="ccs-depth",
        ),
        pytest.param(
            ["bisim", *NE, "--method", "norm", "--depth"],
            1, "not strong bisimilar", {"method_norm": False, "distinguishing_depth": 2},
            id="ccs-norm-depth",
        ),
        pytest.param(
            ["bisim", *NE, "--method", "oracle", "--depth"],
            1, "not strong bisimilar", {"method_oracle": False, "distinguishing_depth": 2},
            id="ccs-oracle-depth",
        ),
        pytest.param(
            ["bisim", *EQ, "--method", "both", "--depth"],
            0, "strong bisimilar", BOTH, id="ccs-both-depth",
        ),
        pytest.param(["bisim", *PLUS_EQ, "--calculus", "ccs+"], 0, "strong bisimilar", {}, id="ccs+"),
        pytest.param(
            ["bisim", *PLUS_NE, "--calculus", "ccs+", "--style", "strong", "--method", "oracle"],
            1, "not strong bisimilar", {}, id="ccs+-strong-oracle",
        ),
        pytest.param(
            ["bisim", *PLUS_NE, "--calculus", "ccs+", "--depth"],
            1, "not strong bisimilar", {"distinguishing_depth": 1}, id="ccs+-depth",
        ),
        pytest.param(
            ["bisim", "a.0 | 'b.0", "a.'b.0 + 'b.a.0", "--calculus", "ccs+", "--style",
             "distributed"],
            1, "not distributed bisimilar", {}, id="ccs+-distributed",
        ),
        pytest.param(
            ["bisim", *PLUS_EQ, "--calculus", "ccs+", "--style", "distributed",
             "--method", "oracle"],
            0, "distributed bisimilar", {}, id="ccs+-distributed-oracle",
        ),
        pytest.param(["dsim", "a.0 | b.0", "b.0 | a.0"], 0, "distributed bisimilar", {}, id="dsim"),
        pytest.param(["bisim", *PI_EQ, "--calculus", "pi"], 0, "ground bisimilar", {}, id="pi"),
        *(
            pytest.param(
                ["bisim", *PI_EQ, "--calculus", "pi", "--style", style],
                0, f"{style} bisimilar", {}, id=f"pi-{style}",
            )
            for style in ("ground", "late", "early")
        ),
        *(
            pytest.param(
                ["bisim", *PI_NE, "--calculus", "pi", "--style", style, "--method", "oracle"],
                1, f"not {style} bisimilar", {}, id=f"pi-{style}-oracle",
            )
            for style in ("ground", "late", "early")
        ),
    ],
)
def test_bisim_defined_routes(capsys, argv, code, verdict, payload):
    got, out, err = run(capsys, *argv)
    assert (got, err) == (code, "")
    # between the two input lines and the elapsed line
    lines = [f"verdict: {verdict}", *(f"{k}: {v}" for k, v in payload.items())]
    assert out.splitlines()[2:-1] == lines
    got, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (got, doc["verdict"], doc["payload"]) == (code, verdict, payload)


def test_bisim_both_is_an_error_when_the_routes_disagree(capsys, monkeypatch):
    routes = ccspi.cli._ROUTES["ccs", "strong"]
    oracle = routes["oracle"]
    monkeypatch.setitem(routes, "norm", lambda p, q: not oracle(p, q))
    code, out, err = run(capsys, "bisim", *EQ)
    assert code == 2 and out == ""
    assert err.startswith("DIVERGENCE: ")


TERM = {"ccs": "a.0", "ccs+": "a.0", "pi": "a(x).0"}


# Every combination the route table leaves undefined.  A rejected style or
# method names the ones the calculus or pair does take.
@pytest.mark.parametrize(
    "calculus,flags,takes",
    [
        *(
            pytest.param(
                calc, ["--style", style, "--method", method], "--method oracle",
                id=f"{calc}-{style}-{method}",
            )
            for calc, style in [
                ("ccs+", "strong"),
                ("ccs+", "distributed"),
                ("pi", "ground"),
                ("pi", "late"),
                ("pi", "early"),
            ]
            for method in ("norm", "both")
        ),
        *(
            pytest.param(calc, ["--style", style, "--depth"], None, id=f"{calc}-{style}-depth")
            for calc, style in [
                ("ccs+", "distributed"),
                ("pi", "ground"),
                ("pi", "late"),
                ("pi", "early"),
            ]
        ),
        *(
            pytest.param("pi", ["--style", style], "--style ground or late or early", id=f"pi-{style}")
            for style in ("strong", "distributed")
        ),
        pytest.param("ccs", ["--style", "late"], "--style strong", id="ccs-late"),
    ],
)
def test_bisim_rejects_an_undefined_combination(capsys, calculus, flags, takes):
    t = TERM[calculus]
    code, out, err = run(capsys, "bisim", t, t, "--calculus", calculus, *flags)
    assert code == 2 and out == ""
    assert err.startswith("usage error: ")
    if takes:
        assert err.endswith(f"which takes {takes}\n")


def test_dsim_alias(capsys):
    code, out, _ = run(capsys, "dsim", "a.0 | 'b.0", "a.'b.0 + 'b.a.0")
    assert code == 1
    assert "not distributed bisimilar" in out
    code, _, _ = run(capsys, "dsim", "a.0 | b.0", "b.0 | a.0")
    assert code == 0


@pytest.mark.parametrize(
    "flags",
    [["--calculus", "pi"], ["--style", "early"], ["--method", "norm"], ["--depth"]],
    ids=["calculus", "style", "method", "depth"],
)
def test_dsim_takes_no_bisim_flags(capsys, flags):
    # dsim fixes the calculus and style; these flags used to be accepted
    # and then ignored, so a pi query answered as ccs+ with exit 0
    with pytest.raises(SystemExit) as exc:
        main(["dsim", "a.0", "a.0", *flags])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parser_is_shared_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()

    def bisim_json():
        code, out, _ = run(capsys, "bisim", "a.a.0", "a.0 | a.0", "--format", "json")
        doc = json.loads(out)
        return code, doc["verdict"], doc["payload"]

    assert run(capsys, "dsim", "a.0 | b.0", "b.0 | a.0")[0] == 0
    first = bisim_json()
    assert first == (0, "strong bisimilar", {"method_norm": True, "method_oracle": True})
    code, out, _ = run(
        capsys, "bisim", "a(x).0 | a(y).0", "a(x).a(y).0", "--calculus", "pi", "--style", "late"
    )
    assert code == 0 and "verdict: late bisimilar" in out
    code, _, err = run(capsys, "bisim", "a.0", "a.0", "--style", "late")
    assert code == 2 and err.startswith("usage error: ")
    with pytest.raises(SystemExit) as exc:
        main(["bisim", "a.0"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert bisim_json() == first


# Commands whose answers walk sets of interned nodes and name records.
# These hash by identity, so set order follows memory addresses.
SEED_INDEPENDENT = [
    ["bisim", "a.b.0 | a.c.0", "a.(b.0 | c.0)", "--depth"],
    ["prime", "a.(b.0 | b.0) | a.b.b.0 | c.0 | b.c.0 | 'a.0"],
    ["erase", "(nu p)(b<p>.a(x).0) | a(y).b<y>.0", "a", "b"],
    ["md-search", "--calculus", "ccs+", "--shape", "diagram", "--size", "4"],
    ["bisim", "a(x).0 | a(y).0", "a(x).a(y).0", "--calculus", "pi", "--style", "late"],
    [
        "bisim",
        "(nu p)(c<p>.p(y).y<a>.0) | b(z).z<c>.0",
        "(nu p)(c<p>.p(y).y<a>.0 | b(z).z<c>.0)",
        "--calculus",
        "pi",
        "--style",
        "early",
    ],
]


def test_output_does_not_depend_on_the_hash_seed():
    script = (
        "from ccspi.cli import main\n"
        f"for argv in {SEED_INDEPENDENT!r}:\n"
        "    print('exit', main(argv + ['--format', 'json']))\n"
    )
    src = os.path.dirname(os.path.dirname(ccspi.__file__))
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        outputs.append(re.sub(r'"elapsed": .*', "", done.stdout))
    assert outputs[0].count("exit") == len(SEED_INDEPENDENT)
    assert outputs[0] == outputs[1]


def test_prime(capsys):
    code, out, _ = run(capsys, "prime", "a.a.0")
    assert code == 0
    assert "components: a.0, a.0" in out
    assert "2 prime components" in out
    code, out, _ = run(capsys, "prime", "a.b.0")
    assert code == 0
    assert "verdict: prime" in out


def test_erase(capsys):
    code, out, _ = run(capsys, "erase", "(nu p)(b<p>.a(x).0)", "a", "b")
    assert code == 0
    assert "erasure: 'b.a.0" in out


def test_erase_rejects_equal_names(capsys):
    code, _, err = run(capsys, "erase", "a(x).0", "a", "a")
    assert code == 2 and "distinct" in err


@pytest.mark.parametrize(
    "names",
    [("A", "b"), ("a b", "b"), ("", "b"), ("a", "b.0")],
    ids=["uppercase", "two-names", "empty", "not-a-name"],
)
def test_erase_rejects_what_is_not_a_name(capsys, names):
    # before, these answered exit 0 with an erasure that observes nothing
    with pytest.raises(SystemExit) as exc:
        main(["erase", "a(x).0", *names])
    assert exc.value.code == 2
    assert "expected a lowercase name" in capsys.readouterr().err


def test_md_search_witness(capsys):
    code, out, _ = run(
        capsys, "md-search", "--calculus", "ccs+", "--shape", "diagram", "--size", "4",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"].startswith("witness")
    assert "q" in doc["payload"]


def test_md_search_none_found(capsys):
    code, out, _ = run(capsys, "md-search", "--shape", "parallel", "--size", "2")
    assert code == 1
    assert "no witness" in out


@pytest.mark.parametrize(
    "names", ["", "a,a", "a,,b", "a,", ",a", "A", "a b", "0", "a.b", "'a"],
    ids=["empty", "repeated", "empty-entry", "trailing-comma", "leading-comma",
         "uppercase", "space", "digit", "dot", "coaction"],
)
def test_md_search_names_must_be_distinct_channel_names(capsys, names):
    # before validation these searched a malformed alphabet and exited 1
    with pytest.raises(SystemExit) as exc:
        main(["md-search", "--names", names, "--size", "1"])
    assert exc.value.code == 2
    assert "argument --names" in capsys.readouterr().err


def test_md_search_names(capsys):
    code, out, _ = run(capsys, "md-search", "--names", "a,b_2,c", "--size", "1", "--format", "json")
    assert code == 1
    assert "names=('a', 'b_2', 'c')" in json.loads(out)["inputs"][0]


def test_parse_error_is_reported(capsys):
    code, _, err = run(capsys, "normalize", "a.0 + b.0")
    assert code == 2
    assert "sums are not part of this calculus" in err


def test_too_deep_input_is_an_error_not_a_verdict(capsys):
    # exit 1 would read as "does not hold"
    code, out, err = run(capsys, "normalize", "a.b." * 1500 + "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_enumerate_list(capsys):
    code, out, _ = run(capsys, "enumerate", "--list")
    assert code == 0
    assert "replication-ladder" in out
    assert "nf-oracle-agreement" in out


def test_enumerate_runs_a_suite(capsys):
    code, out, _ = run(capsys, "enumerate", "replication-ladder")
    assert code == 0
    assert "PASS" in out


def test_enumerate_with_bounds(capsys):
    code, out, _ = run(capsys, "enumerate", "confluence-termination", "--size-bound", "3")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize(
    "argv,flags",
    [
        (["replication-ladder", "--size-bound", "99"], "--size-bound"),
        (["replication-ladder", "--size-bound", "99", "--count", "5"], "--size-bound, --count"),
        (["no-md-sumfree", "--seed", "3"], "--seed"),
        (["nf-oracle-agreement", "--max-nus", "1"], "--max-nus"),
    ],
)
def test_enumerate_rejects_a_flag_the_suite_does_not_take(capsys, argv, flags):
    # before, the flag was dropped and the suite ran at its own bounds
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 2 and out == ""
    assert f"does not take {flags}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["erasure-random", "--count", "0"],
        # no parallel composition has fewer than two prefixes
        ["dsim-separation", "--size-bound", "0"],
        ["dsim-separation", "--size-bound", "1"],
    ],
    ids=["no-sample", "size-bound-0", "size-bound-1"],
)
def test_enumerate_rejects_a_suite_that_checks_nothing(capsys, argv):
    # before, it printed PASS with checked=0 and exited 0
    code, out, err = run(capsys, "enumerate", *argv, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "checked no case" in err


def test_run_suite_still_skips_what_a_suite_does_not_take():
    # the benchmark hands a seed to every suite this way
    assert run_suite("replication-ladder", seed=5, size_bound=99).passed


def test_enumerate_unknown_suite(capsys):
    code, _, err = run(capsys, "enumerate", "no-such-suite")
    assert code == 2
    assert "no-such-suite" in err


def test_enumerate_without_a_suite_is_a_usage_error(capsys):
    # it used to print the suite list on stdout, with nothing on stderr
    code, out, err = run(capsys, "enumerate")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and all(name in err for name in SUITES)


def test_enumerate_list_takes_no_suite(capsys):
    # it used to list the suites, exit 0 and not run the one named
    code, out, err = run(capsys, "enumerate", "--list", "cancellation")
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and "cancellation" in err


@pytest.mark.parametrize(
    "flags",
    [["--size-bound", "3"], ["--seed", "1", "--count", "2"], ["--sample", "0"]],
    ids=["size-bound", "seed-count", "sample"],
)
def test_enumerate_list_takes_no_suite_flag(capsys, flags):
    # it used to drop the flag, print the list and exit 0
    code, out, err = run(capsys, "enumerate", "--list", *flags, "--format", "json")
    assert code == 2 and out == ""
    assert err.startswith("usage error: --list does not take ")
    assert all(f in err for f in flags if f.startswith("--"))


def test_enumerate_list_as_json(capsys):
    # it used to print the plain-text list whatever the format
    code, out, err = run(capsys, "enumerate", "--list", "--format", "json")
    assert code == 0 and err == ""
    assert json.loads(out) == list(SUITES)
    code, text, _ = run(capsys, "enumerate", "--list")
    assert code == 0 and text.splitlines() == list(SUITES)


def test_enumerate_lets_a_fault_inside_a_suite_propagate(monkeypatch):
    # a KeyError raised by a suite (refine_partition on a table that is not
    # well founded, say) is a program fault, not an unknown suite
    def broken():
        raise KeyError("not well founded")

    monkeypatch.setitem(SUITES, "broken", broken)
    with pytest.raises(KeyError, match="not well founded"):
        main(["enumerate", "broken"])


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "nf-oracle-agreement", "--size-bound", "-1"],
        ["enumerate", "pi-congruence", "--max-prefixes", "-1"],
        ["enumerate", "erasure-random", "--count", "-3"],
        ["enumerate", "erasure-random", "--max-nus", "-1"],
        ["enumerate", "nf-oracle-agreement", "--sample", "-1"],
        ["enumerate", "erasure-random", "--count", "x"],
        ["md-search", "--size", "-1"],
    ],
    ids=["size-bound", "max-prefixes", "count", "max-nus", "sample", "not-a-number", "md-size"],
)
def test_bound_must_be_a_non_negative_integer(capsys, argv):
    # before validation these crashed with exit 1 ("does not hold"), or
    # passed a suite that checked a negative number of cases
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_pi_subst_cases_without_prefixes_is_an_error():
    # no term without prefixes has the two free names the suite samples
    # for; run apart, so that a regression fails on the timeout, not hangs
    script = (
        "import sys\n"
        "from ccspi.cli import main\n"
        "sys.exit(main(['enumerate', 'pi-subst-cases', '--max-prefixes', '0']))\n"
    )
    src = os.path.dirname(os.path.dirname(ccspi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and done.stdout == ""
    assert "max_prefixes >= 1" in done.stderr


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out
