import argparse
import contextlib
import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratlam import cli, parse_term
from ratlam.cli import run

from conftest import alpha_eq_finite

ROOT = Path(__file__).resolve().parent.parent


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_print_canonical_form():
    code, text = _run(["print", r"\x. x"])
    assert code == 0
    assert text == "# x = v0\n\\v0. v0\n"


def test_print_no_header_for_canonical_names():
    code, text = _run(["print", "v0 v1"])
    assert code == 0
    assert text == "v0 v1\n"


def test_parse_file(tmp_path):
    src = tmp_path / "term.lam"
    src.write_text("λx. x ⊥\n", encoding="utf-8")
    code, text = _run(["parse", str(src)])
    assert code == 0
    assert text.endswith("\\v0. v0 _|_\n")


def test_parse_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("v0 v2"))
    code, text = _run(["parse", "-"])
    assert code == 0
    assert text == "v0 v2\n"


def test_parse_print_idempotent():
    _, once = _run(["print", r"mu r. (\x. x) #r"])
    term_line = once.strip().splitlines()[-1]
    _, twice = _run(["print", term_line])
    assert twice.strip().splitlines()[-1] == term_line


def test_truncate():
    code, text = _run(["truncate", "-d", "2", "mu r. v0 #r"])
    assert code == 0
    assert text == "v0 (_|_ _|_)\n"


def test_alpha_eq_true():
    code, text = _run(["alpha-eq", r"\x. x", r"\y. y"])
    assert code == 0
    assert text == "true\n"


def test_alpha_eq_false():
    code, text = _run(["alpha-eq", "mu r. v0 #r", "mu r. v1 #r"])
    assert code == 1
    assert text == "false\n"


def test_alpha_eq_shares_interner_between_terms():
    # distinct names stay distinct across the two arguments
    code, _ = _run(["alpha-eq", "mu r. f #r", "mu r. g #r"])
    assert code == 1


@pytest.mark.xfail(strict=True, reason="parse_term reserves the atom names of one text at a "
                   "time, so x, interned first, takes v0 before a later text reserves it")
@pytest.mark.parametrize("argv, expected", [
    (["alpha-eq", "x", "v0"], (1, "false\n")),
    (["subst", "-v", "x", "x v0", "v1"], (0, "v1 v0\n")),
])
def test_a_name_interned_early_stays_apart_from_a_later_texts_atom_names(argv, expected):
    assert _run(argv) == expected


@pytest.mark.parametrize("argv, expected", [
    (["print", r"\v01. v1"], (0, "# v01 = v0\n\\v0. v1\n")),
    (["alpha-eq", r"\v01. v1", r"\v1. v1"], (1, "false\n")),
    (["subtrees", "v01 v1"], (0, "3\n")),
])
def test_leading_zero_names_are_not_atom_names(argv, expected):
    # v01 is an ordinary identifier, not the atom v1, so it captures nothing
    assert _run(argv) == expected


def test_subtrees():
    code, text = _run(["subtrees", "v0 v1"])
    assert code == 0
    assert text == "3\n"


def test_subtrees_counts_alpha_variants_separately(capsys):
    assert _run(["subtrees", r"(\v0. v0) (\v1. v1)"]) == (0, "5\n")
    assert _run(["subtrees", r"(\v0. v0) (\v0. v0)"]) == (0, "3\n")
    assert _run(["subtrees", "--help"]) == (0, "")
    assert "literal subtrees" in capsys.readouterr().out


def test_subst():
    code, text = _run(["subst", "-v", "v0", "mu r. v0 #r", "v1"])
    assert code == 0
    assert text == "mu r0. v1 #r0\n"


def test_bt():
    code, text = _run(["bt", "-d", "4", r"(\x. x x) (\x. x x)"])
    assert code == 0
    assert text == "_|_\n"


def test_bt_does_not_capture():
    code, text = _run(["bt", "-d", "8", "-f", "64", r"(\v0. \v1. \v2. v0 v1) v1"])
    assert code == 0
    assert alpha_eq_finite(parse_term(text), parse_term(r"\v5. \v6. v1 v5"))


def test_bt_requires_finite_term():
    code, _ = _run(["bt", "mu r. v0 #r"])
    assert code == 2


def test_bt_graph_known_and_unknown():
    _, s_text = _run(["examples", "s"])
    code, text = _run(["bt-graph", s_text.strip()])
    assert code == 0
    assert "mu r0." in text
    _, u_text = _run(["examples", "u"])
    code, text = _run(["bt-graph", f"({u_text.strip()}) v3"])
    assert code == 0
    assert text == "unknown\n"


def test_c_construct(tmp_path):
    coalg = tmp_path / "pair.coalg"
    coalg.write_text(
        "orbit var arity=1 stab=trivial\n"
        "orbit pair arity=2 stab=trivial\n"
        "step var = var 1\n"
        "step pair = app var(1) var(2)\n"
    )
    code, text = _run(["c-construct", str(coalg), "pair(v0,v1)"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "v0 v1"
    assert lines[1] == "nodes=9 bound=12"


def test_c_construct_rejects_bad_file(tmp_path):
    coalg = tmp_path / "bad.coalg"
    coalg.write_text("orbit o arity=1 stab=trivial\n")  # step missing
    code, _ = _run(["c-construct", str(coalg), "o(v0)"])
    assert code == 2


_SWAP = "orbit o arity=2 stab={}\nstep o = app o(1,2) o(1,2)\n"
_PAIR = (
    "orbit var arity=1 stab=trivial\n"
    "orbit pair arity=2 stab=trivial\n"
    "step var = var 1\n"
    "step pair = app var(1) var(2)\n"
)
_VAR_STEP = "orbit o arity=1 stab=trivial\nstep o = var {}\n"


@pytest.mark.parametrize("text, root", [
    (_SWAP.format("(1 3)"), "o(v0,v1)"),
    (_SWAP.format("(0 1)"), "o(v0,v1)"),
    (_SWAP.format("(1 2"), "o(v0,v1)"),
    (_SWAP.format("foo"), "o(v0,v1)"),
    (_PAIR, "pair(v01,v2)"),
    (_PAIR + "step ghost = var 1\n", "pair(v0,v1)"),
    (_PAIR + "step var = var 1\n", "pair(v0,v1)"),
    ("orbit o arity=1 stab=trivial\nstep o = app q(1) o(1)\n", "o(v0)"),
    (_PAIR, "zz(v0)"),
    (_VAR_STEP.format(0), "o(v0)"),
    (_VAR_STEP.format(5), "o(v0)"),
], ids=["stab-slot-3-at-arity-2", "stab-slot-0", "stab-unclosed", "stab-word",
        "root-leading-zero", "step-of-undeclared-orbit", "second-step",
        "target-of-undeclared-orbit", "root-of-undeclared-orbit", "var-slot-0", "var-slot-5"])
def test_c_construct_rejects_invalid_input(tmp_path, capsys, text, root):
    coalg = tmp_path / "bad.coalg"
    coalg.write_text(text)
    assert _run(["c-construct", str(coalg), root]) == (2, "")
    assert capsys.readouterr().err.startswith("error: invalid coalgebra: ")


@pytest.mark.parametrize("text, slot", [
    (_VAR_STEP.format(0), "slot 0"),
    (_VAR_STEP.format(5), "slot 5"),
    ("orbit o arity=1 stab=trivial\nstep o = abs 2 o(1)\n", "binder slot 2"),
    ("orbit o arity=1 stab=trivial\nstep o = app o(3) o(1)\n", "slot 3"),
])
def test_slot_messages_name_slots_as_the_file_does(tmp_path, capsys, text, slot):
    coalg = tmp_path / "bad.coalg"
    coalg.write_text(text)
    assert _run(["c-construct", str(coalg), "o(v0)"]) == (2, "")
    err = capsys.readouterr().err
    assert err == f"error: invalid coalgebra: step of 'o': {slot} out of range\n"


def test_c_construct_rejects_a_binder_slot_beside_fresh(tmp_path, capsys):
    coalg = tmp_path / "bad.coalg"
    coalg.write_text(
        "orbit a arity=1 stab=trivial\n"
        "orbit b arity=2 stab=trivial\n"
        "step a = abs 1 b(1,fresh)\n"
        "step b = app a(1) a(2)\n"
    )
    assert _run(["c-construct", str(coalg), "a(v0)"]) == (2, "")
    assert capsys.readouterr().err == (
        "error: invalid coalgebra: step of 'a': binder slot 1 and FRESH both in the λ body\n")


def test_examples_pair_roundtrips():
    code, text = _run(["examples", "pair"])
    assert code == 0
    assert "orbit var arity=1 stab=trivial" in text
    assert text.strip().endswith("root pair(v0,v1)")


def test_examples_rsigma():
    code, text = _run(["examples", "rsigma:1"])
    assert code == 0
    assert "mu" in text


def test_examples_unknown_name():
    code, _ = _run(["examples", "nope"])
    assert code == 2


def test_examples_bad_rsigma_level(capsys):
    assert _run(["examples", "rsigma:x"]) == (2, "")
    assert capsys.readouterr().err == "error: bad rsigma level in 'rsigma:x'\n"


def test_unreadable_file(tmp_path, capsys):
    missing = tmp_path / "missing.lam"
    assert _run(["parse", str(missing)]) == (2, "")
    assert capsys.readouterr().err == (
        f"error: cannot read {missing}: [Errno 2] No such file or directory: '{missing}'\n")


def test_bench():
    code, text = _run(["bench", "rsigma", "2"])
    assert code == 0
    assert text == "8 8 ok\n"


@pytest.mark.parametrize("argv", [
    ["examples", "rsigma:0"],
    ["examples", "rsigma:5"],
    ["bench", "rsigma", "0"],
    ["bench", "rsigma", "9"],
    ["bt", "-d", "0", "v0"],
    ["bt", "-f", "-1", "v0"],
    ["bt-graph", "-s", "0", "v0"],
    ["subst", "-v", "v0", "_|_", "v1"],
    ["subst", "-v", "v0", "v0", "_|_"],
])
def test_out_of_range_arguments_are_usage_errors(argv, capsys):
    assert _run(argv) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


def test_parse_error_exit_code():
    code, _ = _run(["print", "(v0"])
    assert code == 2


def test_print_deep_application():
    n = 600
    code, text = _run(["print", "(v0 " * n + "v1" + ")" * n])
    assert code == 0
    assert text == "v0 (" * (n - 1) + "v0 v1" + ")" * (n - 1) + "\n"


def test_bt_graph_deep_application():
    # at the default recursion limit: every state is hashed in O(1), so the
    # memo meets no recursion wall; the 600 argument states exceed the budget
    n = 600
    assert _run(["bt-graph", "(v0 " * n + "v1" + ")" * n]) == (0, "unknown\n")


def test_bt_graph_deep_lambda_chain():
    n = 500
    code, text = _run(["bt-graph", "\\v1. " * n + "v0"])
    assert code == 0
    assert text == "".join(f"\\v{i}. " for i in range(1, n + 1)) + "v0\n"


@pytest.mark.parametrize("argv", [
    ["truncate", "-d", "1000", "mu r. \\v0. #r"],
    ["print", "\\x. " * 300 + "x"],  # no name-interning header either
])
def test_recursion_wall_is_one_error_line(argv, capsys):
    # truncation and printing still recurse once per level; the CLI reports
    # the wall instead of a traceback, and prints nothing on stdout
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = _run(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert got == (2, "")
    assert capsys.readouterr().err == "error: term nested too deeply (recursion limit reached)\n"


def test_outputs_are_deterministic():
    for argv in (
        ["print", r"mu r. \x. x #r"],
        ["subst", "-v", "v1", "mu r. \\v0. v0 (v1 #r)", "v2 v3"],
        ["examples", "rsigma:2"],
    ):
        assert _run(argv) == _run(argv)


def test_run_writes_to_the_current_stdout():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(["print", "v0 v1"])
    assert (code, buf.getvalue()) == (0, "v0 v1\n")


def test_parser_is_built_at_most_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(100):
        assert _run(["subtrees", "v0 v1"]) == (0, "3\n")
    assert built.count("ratlam") <= 1


def test_parser_keeps_no_state_between_calls(capsys):
    term = r"\x. x (x (x v0))"
    for usage_error in (["truncate", "v0"], ["nope"], ["bt", "-d", "0", "v0"]):
        assert _run(usage_error) == (2, "")
        assert _run(["bt", "-d", "2", term]) == (0, "\\v1. _|_ _|_\n")
        assert _run(["bt", term]) == (0, "\\v1. v1 (v1 (v1 v0))\n")  # default depth 8
    assert "usage: ratlam" in capsys.readouterr().err


def _dispatch_cases(tmp_path):
    term, coalg = tmp_path / "term.lam", tmp_path / "pair.coalg"
    term.write_text("λx. x ⊥\n", encoding="utf-8")
    coalg.write_text("orbit var arity=1 stab=trivial\nstep var = var 1\n")
    return [
        ["parse", str(term)],
        ["print", r"\x. x"],
        ["truncate", "-d", "2", r"mu r. \x. x #r"],
        ["alpha-eq", "mu r. v0 #r", "mu r. v1 #r"],
        ["subtrees", "v0 v1"],
        ["subst", "-v", "v1", "v0 v1", "v2"],
        ["bt", "-d", "3", r"(\x. x) v0"],
        ["bt-graph", r"(\x. x x) (\x. x x)"],
        ["c-construct", str(coalg), "var(v0)"],
        ["examples", "u"],
        ["bench", "rsigma", "2"],
        [], ["-h"], ["nope"], ["truncate", "v0"], ["truncate", "-d", "3", "v0", "extra"],
        ["truncate", "--dep", "3", "v0"], ["truncate", "--depth=3", "v0"], ["bt", "-d3", "v0"],
        ["subtrees", "--help"],
    ]


def test_commands_go_straight_to_their_subparser_with_the_same_outcome(tmp_path, capsys,
                                                                       monkeypatch):
    def outcome(argv):
        code, text = _run(argv)
        return code, text, *capsys.readouterr()

    cases = _dispatch_cases(tmp_path)
    direct = [outcome(argv) for argv in cases]
    top_level, _ = cli._parser()
    monkeypatch.setattr(cli, "_parser", lambda: (top_level, {}))  # no command goes direct
    assert [outcome(argv) for argv in cases] == direct
    assert {code for code, *_ in direct} == {0, 1, 2}


@pytest.mark.parametrize("argv", [
    ["print", r"mu r. \x. x #r"],
    ["subtrees", "mu r. v0 (v1 #r)"],
    ["examples", "rsigma:2"],
    ["subst", "-v", "v1", r"mu r. \v0. v0 (v1 #r)", "v2 v3"],
    ["truncate", "-d", "5", r"mu r. \x. x #r"],
    ["alpha-eq", r"mu a. \v0. mu b. \v1. #a #b", r"mu a. \v5. mu b. \v6. #a #b"],
], ids=lambda argv: argv[0])
def test_commands_leave_no_reference_cycles(argv):
    # a cycle through a recursive closure would keep the request's graphs
    # alive until the cyclic collector next runs
    _run(argv)  # the parser is built on the first run; that one is not measured
    gc.collect()
    gc.disable()
    try:
        _run(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("argv, code, stdout", [
    (["subtrees", "v0 v1"], 0, "3\n"),
    (["alpha-eq", "mu r. v0 #r", "mu r. v1 #r"], 1, "false\n"),
    (["print", "(v0"], 2, ""),
])
def test_command_runs_as_a_process(argv, code, stdout):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "ratlam.cli", *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (code, stdout), done.stderr
    if code == 2:
        assert done.stderr.startswith("error: parse error")
