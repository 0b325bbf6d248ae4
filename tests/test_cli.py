"""Command-line interface: exit codes, report payloads, error paths."""

import json
import os
import re
import subprocess
import sys

import pytest

import ccspi
from ccspi.cli import build_parser, main
from ccspi.suites import run_suite


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
def test_bisim_depth_explores_once(capsys, monkeypatch, argv, payload):
    # the oracle's verdict is read off the distinguishing depth, so the
    # joint state space is explored once, not once per answer
    calls = []
    explore = ccspi.lts.explore

    def counted(*args):
        calls.append(args)
        return explore(*args)

    monkeypatch.setattr(ccspi.lts, "explore", counted)
    code, out, _ = run(capsys, "bisim", *argv, "--depth", "--format", "json")
    assert code == 1 and json.loads(out)["payload"] == payload
    assert len(calls) == 1


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


def test_bisim_method_restricted_to_sum_free(capsys):
    code, _, err = run(capsys, "bisim", "a.0 + b.0", "a.0", "--calculus", "ccs+", "--method", "both")
    assert code == 2
    assert err


def test_bisim_pi_styles(capsys):
    for style in ("ground", "late", "early"):
        code, out, _ = run(
            capsys,
            "bisim", "a(x).0 | a(y).0", "a(x).a(y).0",
            "--calculus", "pi", "--style", style,
        )
        assert code == 0, style
    code, _, err = run(
        capsys, "bisim", "a(x).0", "a(x).0", "--calculus", "pi", "--style", "distributed"
    )
    assert code == 2 and err


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


def test_run_suite_still_skips_what_a_suite_does_not_take():
    # the benchmark hands a seed to every suite this way
    assert run_suite("replication-ladder", seed=5, size_bound=99).passed


def test_enumerate_unknown_suite(capsys):
    code, _, err = run(capsys, "enumerate", "no-such-suite")
    assert code == 2
    assert "no-such-suite" in err


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
