import importlib.util
import os
import re
import subprocess
import sys

import pytest

import rtcproof.cli
import rtcproof.proofgraph
import rtcproof.tracecheck
from rtcproof.cli import main
from rtcproof.prooffile import parse_proof, serialize_proof
from rtcproof.render import latex_sequent, to_dot, to_latex
from rtcproof.syntax import MAX_DEPTH, Signature
from rtcproof.tracecheck import edge_matrix

from conftest import corpus_path
from helpers import NESTED
from preproofs import diamond_proof, first_step_unfold, loop_below_root, subst_chain

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

# exit code and first output line of `rtcproof check` on each corpus file
CORPUS_CHECK = {
    "and_context.tcp": (0, "accepted; 0 basic cycles; normal"),
    "axiom_rtc.tcp": (0, "accepted; 0 basic cycles; normal"),
    "bad_no_progress.tcp": (1, "rejected; witness period: [0, 1, 0]; prefix: [0]"),
    "bad_rtc_no_progress.tcp": (1, "rejected; witness period: [0, 1, 0]; prefix: [0]"),
    "bad_subst_loop.tcp": (1, "rejected; witness period: [0, 0]; prefix: [0]"),
    "chain2.tcp": (0, "accepted; 0 basic cycles; normal"),
    "eq_endpoints.tcp": (0, "accepted; 0 basic cycles; normal"),
    "exists_intro.tcp": (0, "accepted; 0 basic cycles; normal"),
    "forall_inst.tcp": (0, "accepted; 0 basic cycles; normal"),
    "ind_double.tcp": (0, "accepted; 0 basic cycles; normal"),
    "ind_extend.tcp": (0, "accepted; 0 basic cycles; normal"),
    "ind_step_theory.tcp": (0, "accepted; 0 basic cycles; normal"),
    "nat_p.tcp": (0, "accepted; 1 basic cycle; normal"),
    "or_branch.tcp": (0, "accepted; 0 basic cycles; normal"),
    "refl.tcp": (0, "accepted; 0 basic cycles; normal"),
    "single_step.tcp": (0, "accepted; 0 basic cycles; normal"),
    "step_composition.tcp": (0, "accepted; 0 basic cycles; normal"),
    "transitivity.tcp": (0, "accepted; 1 basic cycle; normal"),
    "two_loops.tcp": (0, "accepted; 2 basic cycles; normal"),
}

# two threads R(a0, b0) and R(a1, b1), each unfolded by RtcCase on its own
# branch below a Cut; both branches return to the root, so the two basic
# cycles share it, and each progresses its own thread
TWO_THREADS = """\
tcp 1
sig pred p/2, q/1
theory -
root 0
node 0 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=Cut ; params={cut=(q(c))} ; premises=[1, 6]
node 1 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=RtcCase ; params={principal=((rtc x y. p(x, y))(a0, b0)) ; eigenvar=z0} ; premises=[2, 3]
node 2 : q(c), a0 = b0, (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=RtcRefl ; params={principal=((rtc x y. p(x, y))(c, c))} ; premises=[]
node 3 : q(c), (rtc x y. p(x, y))(a1, b1), (rtc x y. p(x, y))(a0, z0), p(z0, b0) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=WL ; params={principal=(p(z0, b0))} ; premises=[4]
node 4 : q(c), (rtc x y. p(x, y))(a1, b1), (rtc x y. p(x, y))(a0, z0) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=Subst ; params={subst=[b0 := z0] ; source=(q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c))} ; premises=[5]
node 5 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; bud -> 0
node 6 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=RtcCase ; params={principal=((rtc x y. p(x, y))(a1, b1)) ; eigenvar=z1} ; premises=[7, 8]
node 7 : q(c), a1 = b1, (rtc x y. p(x, y))(a0, b0) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=RtcRefl ; params={principal=((rtc x y. p(x, y))(c, c))} ; premises=[]
node 8 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, z1), p(z1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=WL ; params={principal=(p(z1, b1))} ; premises=[9]
node 9 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, z1) |- q(c), (rtc x y. p(x, y))(c, c) ; rule=Subst ; params={subst=[b1 := z1] ; source=(q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c))} ; premises=[10]
node 10 : q(c), (rtc x y. p(x, y))(a0, b0), (rtc x y. p(x, y))(a1, b1) |- q(c), (rtc x y. p(x, y))(c, c) ; bud -> 0
"""


@pytest.mark.parametrize("name", sorted(CORPUS_CHECK))
def test_check_corpus(name, capsys):
    code = main(["check", corpus_path(name)])
    first = capsys.readouterr().out.splitlines()[0]
    assert (code, first) == CORPUS_CHECK[name]


def test_check_loop_below_root(tmp_path, capsys):
    # the witness prefix is the shortest flow path from the root to the loop
    path = tmp_path / "below.tcp"
    path.write_text(loop_below_root(2), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == \
        ("rejected; witness period: [2, 3, 2]; prefix: [0, 1, 2]\n", "")


def test_check_normal_rejects_overlap(tmp_path, capsys):
    path = tmp_path / "two_threads.tcp"
    path.write_text(TWO_THREADS, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert main(["check", "--normal", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["accepted; 2 basic cycles; overlapping"] * 2


def test_check_past_cycle_count_keeps_verdict(tmp_path, capsys):
    """A proof with 2^17 basic cycles is accepted; only the count is out of
    reach, and --normal rejects the overlap."""
    path = tmp_path / "diamond.tcp"
    path.write_text(diamond_proof(17), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert main(["check", "--normal", str(path)]) == 1
    out = capsys.readouterr()
    assert out == ("accepted; more than 100000 basic cycles; overlapping\n" * 2, "")


def test_check_past_closure_cap_is_unknown(tmp_path, monkeypatch, capsys):
    path = tmp_path / "two_threads.tcp"
    path.write_text(TWO_THREADS, encoding="utf-8")
    monkeypatch.setattr(rtcproof.tracecheck, "CLOSURE_CAP", 1)
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("indeterminate: closure cap exceeded\n", "")


def test_cli_import_needs_only_stdlib():
    # pyproject.toml declares no runtime dependency: a fresh interpreter
    # importing the CLI loads no top-level module outside the standard library
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import rtcproof.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names) - {'rtcproof'}))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# one malformed edit of TWO_THREADS per case: (text replaced, replacement,
# line number the error must name)
MALFORMED = {
    "root_not_a_number": ("root 0", "root x", 4),
    "bare_theory": ("theory -", "theory", 3),
    "bud_target_not_a_number": ("bud -> 0", "bud -> q", 10),
    "arity_not_a_number": ("sig pred p/2, q/1", "sig fn s/x ; pred p/2, q/1", 2),
    "duplicate_node_id": ("node 10 :", "node 9 :", 15),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_check_malformed_is_usage_error(case, tmp_path, capsys):
    old, new, line = MALFORMED[case]
    assert old in TWO_THREADS
    path = tmp_path / f"{case}.tcp"
    path.write_text(TWO_THREADS.replace(old, new, 1), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: line {line}, ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", sorted(CORPUS_CHECK))
def test_corpus_file_round_trips(name):
    with open(corpus_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert serialize_proof(parse_proof(text)) == text


def test_empty_signature_round_trips():
    # `sig -` declares no symbol; an equality of variables needs none
    text = ("tcp 1\nsig -\ntheory -\nroot 0\n"
            "node 0 : |- x = x ; rule=EqR ; params={} ; premises=[]\n")
    pf = parse_proof(text)
    assert pf.signature == Signature.make()
    assert serialize_proof(pf) == text


def test_deep_proof_render_and_translate(tmp_path, capsys):
    # a 3000-node chain is far deeper than the interpreter's recursion limit
    path = tmp_path / "chain.tcp"
    path.write_text(subst_chain(3000), encoding="utf-8")
    assert main(["render", "--format", "tex", str(path)]) == 0
    assert capsys.readouterr().out.count("UnaryInfC") == 3000
    out = tmp_path / "translated.tcp"
    assert main(["translate-ind", str(path), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("\nnode ") == 3000
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr().out == "accepted; 0 basic cycles; normal\n"


def test_internal_error_exit_code(monkeypatch, capsys):
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(rtcproof.cli, "to_latex", broken)
    assert main(["render", "--format", "tex", corpus_path("refl.tcp")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ZeroDivisionError: boom\n"


def test_kernel_crash_is_internal_error(monkeypatch, capsys):
    # a bug in the kernel must not read as the verdict "invalid"
    def broken(*args):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(rtcproof.proofgraph, "check_rule_instance", broken)
    assert main(["check", corpus_path("nat_p.tcp")]) == 4
    assert capsys.readouterr() == ("", "internal error: ZeroDivisionError: boom\n")


def test_main_reuses_its_parser(monkeypatch, capsys):
    # main builds its parser once per process; a usage error or --help
    # before a command leaves it as a fresh process would find it
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    for argv in (["check"], ["--help"], ["check", corpus_path("nat_p.tcp")]):
        code = main(argv)
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "rtcproof.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert rtcproof.cli.build_parser() is rtcproof.cli.build_parser()


# graph faults in copies of nat_p.tcp: (text replaced, replacement, the lines
# `rtcproof check` prints before "invalid")
N4 = "s(_v0) = n, p(0), (rtc x y. s(x) = y)(0, _v0) |- p(_v0), p(n)"
N8 = "s(_v0) = n, p(0), p(_v0), (rtc x y. s(x) = y)(0, _v0) |- p(n)"
CYCLE = "BadPremiseLink at node 0: premise links contain a cycle (use buds)"


def unreachable(*nodes):
    return [f"UnreachableNode at node {n}: not reachable from root" for n in nodes]


BAD_GRAPHS = {
    "extra_child": ("premises=[6]", "premises=[6, 2]",
                    ["KernelError at node 5: WL takes 1 premises, got 2"]),
    "swapped_children": ("premises=[4, 8]", "premises=[8, 4]",
                         [f"KernelError at node 3: Cut: premises ['{N8}', '{N4}']"
                          f" do not match the schema's ['{N4}', '{N8}']"]),
    "too_few_children": ("premises=[4, 8]", "premises=[4]",
                         ["KernelError at node 3: Cut takes 2 premises, got 1",
                          *unreachable(8, 9, 10)]),
    "changed_child_sequent": ("node 2 : p(0) |- p(0)", "node 2 : p(n) |- p(n)",
                              ["KernelError at node 1: EqL1: premises ['p(n) |- p(n)']"
                               " do not match the schema's ['p(0) |- p(0)']"]),
    "companion_is_bud": ("bud -> 0", "bud -> 7",
                         ["BudMismatch at node 7: companion 7 is itself a bud"]),
    "companion_missing": ("bud -> 0", "bud -> 42",
                          ["BudMismatch at node 7: companion missing"]),
    "self_loop": ("premises=[9]", "premises=[8]",
                  [f"KernelError at node 8: WL: premises ['{N8}'] do not match"
                   " the schema's ['s(_v0) = n, p(0), p(_v0) |- p(n)']",
                   *unreachable(9, 10), CYCLE]),
    "back_link": ("premises=[10]", "premises=[3]",
                  ["KernelError at node 9: WL: premises ['s(_v0) = n, p(0),"
                   " (rtc x y. s(x) = y)(0, _v0) |- p(n)'] do not match the"
                   " schema's ['s(_v0) = n, p(_v0) |- p(n)']",
                   *unreachable(10), CYCLE]),
    "unreachable_node": ("node 10 :", "node 11 : p(0) |- p(0) ; rule=Axiom ;"
                         " params={} ; premises=[]\nnode 10 :", unreachable(11)),
    "root_is_bud": ("root 0", "root 7", unreachable(0, 1, 2, 3, 4, 5, 6, 8, 9, 10)),
    "missing_root": ("root 0", "root 77",
                     ["BadPremiseLink at node 77: root node does not exist"]),
    "unused_params": ("rule=Axiom ; params={}", "rule=Axiom ; params={principal=(p(0))"
                      " ; witness=(n) ; eigenvar=zz}",
                      ["KernelError at node 2: Axiom takes no principal parameter"]),
}


def nat_p_variant(tmp_path, old, new) -> str:
    with open(corpus_path("nat_p.tcp"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "variant.tcp"
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_check_bad_graph_messages(case, tmp_path, capsys):
    old, new, lines = BAD_GRAPHS[case]
    assert main(["check", nat_p_variant(tmp_path, old, new)]) == 1
    assert capsys.readouterr() == ("\n".join(lines) + "\ninvalid\n", "")


def test_check_dangling_child(tmp_path, capsys):
    path = nat_p_variant(tmp_path, "premises=[10]", "premises=[11]")
    assert main(["check", path]) == 3
    assert capsys.readouterr() == ("", "error: node 9: child 11 missing\n")


# `rtcproof render --format tex` on graphs it cannot unfold: the message after "error: "
RENDER_TEX_ERRORS = {
    "self_loop": "premise links through node 8 form a cycle",
    "back_link": "premise links through node 3 form a cycle",
    "missing_root": "node 77 does not exist",
}


@pytest.mark.parametrize("case", sorted(RENDER_TEX_ERRORS))
def test_render_tex_bad_graph_is_usage_error(case, tmp_path):
    # the tree unfolding of a premise cycle never ends, so a regression would
    # hang: run in a child process with a timeout
    old, new, _ = BAD_GRAPHS[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rtcproof.cli", "render", "--format",
                           "tex", nat_p_variant(tmp_path, old, new)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (3, "", f"error: {RENDER_TEX_ERRORS[case]}\n")


def test_gen_corpus_writes_the_corpus(tmp_path):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "gen_corpus.py")
    spec = importlib.util.spec_from_file_location("gen_corpus", script)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.OUT = str(tmp_path)
    gen.main()
    assert sorted(os.listdir(tmp_path)) == sorted(CORPUS_CHECK)
    for name in CORPUS_CHECK:
        with open(corpus_path(name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name


# one malformed rule parameter, signature, symbol or sequent per case: (corpus file,
# text replaced, replacement, the line `rtcproof check` prints on stderr)
PARAM_EDITS = {
    "unknown_key": ("nat_p.tcp", "principal=(", "principle=(",
                    "error: line 5, offset 84: unknown parameter 'principle'"),
    "bracketed_ident": ("nat_p.tcp", "eigenvar=", "eigenvar=(",
                        "error: line 5, offset 123: expected identifier, found '('"),
    "subst_parenthesised": ("nat_p.tcp", "subst=[", "subst=(",
                            "error: line 11, offset 82: expected '[', found '('"),
    "template_one_paren": ("nat_p.tcp", "template=((", "template=(",
                           "error: line 6, offset 81: expected '(', found 'p'"),
    "bare_witness": ("transitivity.tcp", "witness=(", "witness=",
                     "error: line 8, offset 173: expected '(', found '_v0'"),
    "sig_trailing_text": ("nat_p.tcp", "sig const 0 ;", "sig const 0 zzz ;",
                          "error: line 2, offset 12: trailing input after signature"),
    "undeclared_function": ("nat_p.tcp", "s(x)", "t(x)",
                            "error: line 5, offset 25: function 't' not declared"),
    "premises_trailing_text": ("nat_p.tcp", "premises=[1, 3]", "premises=[1, 3] junk here",
                               "error: line 5, offset 146: trailing input after node"),
    "bud_trailing_text": ("nat_p.tcp", "bud -> 0", "bud -> 0 extra",
                          "error: line 12, offset 60: trailing input after node"),
    # whole-signature checks have no position of their own: the line is named
    "sig_pair_not_binary": ("nat_p.tcp", "pred p/1\n", "pred p/1 ; pair zz\n",
                            "error: line 2, offset 4: pair symbol 'zz' must be a binary function"),
    "sig_pairconst_undeclared": ("nat_p.tcp", "fn s/1 ; pred p/1\n",
                                 "fn s/1, pr/2 ; pred p/1 ; pair pr ; pairconst k\n",
                                 "error: line 2, offset 4: pair constant 'k' not declared"),
    # a list whose separator is missing
    "premises_no_comma": ("nat_p.tcp", "premises=[4, 8]", "premises=[4 8]",
                          "error: line 8, offset 112: expected ']', found '8'"),
    "subst_no_comma": ("nat_p.tcp", "subst=[n := _v0]", "subst=[n := _v0 m := _v0]",
                       "error: line 11, offset 92: expected ']', found 'm'"),
    "params_no_semicolon": ("nat_p.tcp", "principal=(0 = n) ; template=",
                            "principal=(0 = n) template=",
                            "error: line 6, offset 69: expected '}', found 'template'"),
    "repeated_key": ("nat_p.tcp", "principal=(0 = n) ;", "principal=(p(0)) ; principal=(0 = n) ;",
                     "error: line 6, offset 70: repeated parameter 'principal'"),
    "subst_repeated_variable": ("nat_p.tcp", "subst=[n := _v0]", "subst=[n := _v0, n := 0]",
                                "error: line 11, offset 93: repeated variable 'n'"),
    # a symbol declared again with another arity, at the second declaration
    "sig_repeated_arity": ("nat_p.tcp", "pred p/1", "pred p/2 ; pred p/1",
                           "error: line 2, offset 39: predicate 'p' declared with arities 2 and 1"),
    "sig_repeated_arity_list": ("nat_p.tcp", "pred p/1", "pred p/1, p/2",
                                "error: line 2, offset 33: predicate 'p' declared with"
                                " arities 1 and 2"),
    # one name as two kinds of symbol: the line is named, as for the pair symbol
    "sig_constant_and_function": ("nat_p.tcp", "sig const 0 ;", "sig const 0, s ;",
                                  "error: line 2, offset 4: symbol 's' declared as both"
                                  " a constant and a function"),
    "sig_function_and_predicate": ("nat_p.tcp", "pred p/1", "pred p/1, s/1",
                                   "error: line 2, offset 4: symbol 's' declared as both"
                                   " a function and a predicate"),
    # an unmatched `)` in a sequent: the field reader refuses the line
    "sequent_unmatched_paren": ("nat_p.tcp", "|- p(n) ; rule=RtcCase", "|- p(n)) ; rule=RtcCase",
                                "error: line 5, offset 48: expected ';', found ')'"),
}


@pytest.mark.parametrize("case", sorted(PARAM_EDITS))
def test_check_malformed_params(case, tmp_path, capsys):
    name, old, new, message = PARAM_EDITS[case]
    with open(corpus_path(name), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / name
    path.write_text(text.replace(old, new, 1), encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", message + "\n")


def _repeated(keyword, line, first):
    return f"error: line {line}, offset 0: repeated {keyword!r} line (first on line {first})"


# a header line repeated in a copy of nat_p.tcp: (text replaced, replacement,
# the line `rtcproof check` prints on stderr); a node id repeated is
# `duplicate_node_id` of MALFORMED
REPEATED_LINES = {
    "tcp": ("tcp 1\n", "tcp 1\ntcp 1\n", _repeated("tcp", 2, 1)),
    "sig": ("root 0\n", "root 0\nsig -\n", _repeated("sig", 5, 2)),
    "theory": ("root 0\n", "root 0\ntheory -\n", _repeated("theory", 5, 3)),
    "root": ("root 0\n", "root 0\nroot 3\n", _repeated("root", 5, 4)),
    "root_after_nodes": ("node 10 :", "root 0\nnode 10 :", _repeated("root", 15, 4)),
}


@pytest.mark.parametrize("case", sorted(REPEATED_LINES))
def test_check_repeated_header_line(case, tmp_path, capsys):
    old, new, message = REPEATED_LINES[case]
    assert main(["check", nat_p_variant(tmp_path, old, new)]) == 3
    assert capsys.readouterr() == ("", message + "\n")


THEORY = "theory t\nsig pred q/1\naxiom |- q(0)\naxiom q(x) |- q(x)\n"

# one malformed line per case: (text replaced, replacement, the line
# `rtcproof prove --theory` prints on stderr)
BAD_THEORIES = {
    "keyword_prefix": ("axiom |-", "axioms |-",
                       "error: line 3, offset 0: unrecognized theory line 'axioms |- q(0)'"),
    "sig_prefix": ("sig pred", "signature pred",
                   "error: line 2, offset 0: unrecognized theory line 'signature pred q/1'"),
    "stray_paren": ("|- q(x)\n", "|- q(x))\n",
                    "error: line 4, offset 18: trailing input after sequent"),
    "sig_trailing_text": ("sig pred q/1", "sig pred q/1 extra",
                          "error: line 2, offset 13: trailing input after signature"),
    "undeclared_function": ("|- q(0)", "|- q(s(0))",
                            "error: line 3, offset 11: function 's' not declared"),
    "arity_mismatch": ("|- q(0)", "|- q(0, 0)",
                       "error: line 3, offset 9: predicate 'q' expects 1 args, got 2"),
    "sig_pair_not_binary": ("sig pred q/1", "sig pred q/1 ; pair zz",
                            "error: line 2, offset 4: pair symbol 'zz' must be a binary function"),
    # a header line may appear once, as in a proof file
    "repeated_theory": ("sig", "theory u\nsig",
                        "error: line 2, offset 0: repeated 'theory' line (first on line 1)"),
    "repeated_sig": ("axiom |- q(0)", "sig pred q/1, r/1\naxiom |- q(0)",
                     "error: line 3, offset 0: repeated 'sig' line (first on line 2)"),
    # an axiom before the `sig` line is read under it, its error on its line
    "arity_before_sig": ("sig pred q/1\naxiom |- q(0)", "axiom |- q(0, 0)\nsig pred q/1",
                         "error: line 2, offset 9: predicate 'q' expects 1 args, got 2"),
}


@pytest.mark.parametrize("case", sorted(BAD_THEORIES))
def test_prove_malformed_theory(case, tmp_path, capsys):
    old, new, message = BAD_THEORIES[case]
    path = tmp_path / "t.tc"
    path.write_text(THEORY.replace(old, new, 1), encoding="utf-8")
    assert main(["prove", "q(a) |- q(a)", "--theory", str(path)]) == 3
    assert capsys.readouterr() == ("", message + "\n")


def test_prove_with_theory_file(tmp_path, capsys):
    # the second theory has an axiom line before its `sig` line
    path = tmp_path / "t.tc"
    for theory in (THEORY, THEORY.replace("sig pred q/1\naxiom |- q(0)\n",
                                          "axiom |- q(0)\nsig pred q/1\n")):
        path.write_text(theory, encoding="utf-8")
        assert main(["prove", "|- q(0)", "--theory", str(path)]) == 0
        assert capsys.readouterr().out.startswith("proved")
        assert main(["refute", "|- q(a)", "--theory", str(path)]) == 2
        assert capsys.readouterr().out.startswith("no counter-model up to size 5")


R = "(rtc x y. p(x, y))"
# (exit code, `rtcproof prove` argv) per case; tests/golden/prove_<case>.out
# holds the full stdout, recorded before the prover lost its cut and
# global-companion modes; trans3, out of the prover's reach at the default
# budget until its search cut off dead work, and chain4 were recorded later
PROVE_GOLDEN = {
    "trans": (0, [f"{R}(a, b), {R}(b, c) |- {R}(a, c)"]),
    "trans3": (0, [f"{R}(a, b), {R}(b, c), {R}(c, d) |- {R}(a, d)"]),
    "chain4": (0, [f"p(a, b), p(b, c), p(c, d), p(d, e) |- {R}(a, e)"]),
    "trans_and": (0, [f"{R}(a, b), {R}(b, c) |- {R}(a, c) /\\ {R}(a, c)"]),
    "and_swap": (0, ["q(a) /\\ q(b) |- q(b) /\\ q(a)"]),
    "eq_rewrite": (0, ["a = b, q(a) |- q(b)"]),
    "nat_step": (0, ["p(0), (rtc x y. s(x) = y)(0, n) |- p(n)", "--theory", "step"]),
    "exists_forall": (1, ["exists x. q(x) |- forall x. q(x)"]),
    "budget": (2, [f"{R}(a, b) |- {R}(a, c)", "--max-nodes", "50", "--model-size", "0"]),
}
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("case", sorted(PROVE_GOLDEN))
def test_prove_golden(case, capsys):
    code, argv = PROVE_GOLDEN[case]
    with open(os.path.join(GOLDEN, f"prove_{case}.out"), encoding="utf-8") as fh:
        want = fh.read()
    assert main(["prove"] + argv) == code
    assert capsys.readouterr() == (want, "")


@pytest.mark.parametrize("case", sorted(c for c, (code, _) in PROVE_GOLDEN.items() if code == 0))
def test_prove_golden_proofs_check(case, tmp_path, capsys):
    with open(os.path.join(GOLDEN, f"prove_{case}.out"), encoding="utf-8") as fh:
        summary, proof = fh.read().split("\n", 1)
    path = tmp_path / "proof.tcp"
    path.write_text(proof, encoding="utf-8")
    cycles = int(summary.split("; ")[2].split()[0])
    assert main(["check", str(path)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith(f"accepted; {cycles} basic cycle")


def test_check_first_step_unfold(capsys):
    # R(a, b) |- a = b \/ (exists w. p(a, w) /\ R(w, b)), whose step premise
    # cuts in an induction hypothesis that buds back to the root; the golden
    # file is what the builder in preproofs.py writes
    path = os.path.join(GOLDEN, "first_step_unfold.tcp")
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == first_step_unfold()
    assert main(["check", path]) == 0
    assert capsys.readouterr() == ("accepted; 1 basic cycle; normal\n", "")


@pytest.mark.parametrize("flag", ["--allow-cut", "--global-companions"])
def test_prove_removed_flags_are_usage_errors(flag, capsys):
    assert main(["prove", "q(a) |- q(a)", flag]) == 3
    assert "unrecognized arguments" in capsys.readouterr().err


# (exit code, `rtcproof refute` argv, stdout) per case, pinned from the output
# of the code before the parser took its precedence from the printer's table
WIDE = "q(a), " + ", ".join(f"b{i} = b{i}" for i in range(1, 22)) + " |- q(a)"
REFUTE = {
    "counter_model": (1, [f"q(a), {R}(a, b) |- q(b)"],
                      "model { size = 2; pred p = { (0, 1) }; pred q = { (0) }; }\n"
                      "valuation { a = 0, b = 1 }\n"),
    "none": (2, [f"{R}(a, b), {R}(b, c) |- {R}(a, c)", "--model-size", "2"],
             "no counter-model up to size 2 (not a validity proof)\n"),
    # 22 free variables: 2^22 tuples of values at size 2 exceed the budget
    "budget": (2, [WIDE], "unknown (budget): counter-model search budget 2000000"
               " exhausted: 4194304 tuples of constants and variables at size 2\n"),
}


@pytest.mark.parametrize("case", sorted(REFUTE))
def test_refute_golden(case, capsys):
    code, argv, out = REFUTE[case]
    assert main(["refute"] + argv) == code
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("command", ["refute", "prove"])
def test_constant_apart_from_bound_names(command, tmp_path, capsys):
    """The model search names the variable standing for the constant a apart
    from bound names too: a goal whose binder has that name gets the answer
    of its alpha-variant."""
    path = tmp_path / "a.tc"
    path.write_text("theory t\nsig const a\n", encoding="utf-8")
    model = "model { size = 2; const a = 0; }\n"
    want = model if command == "refute" else "refuted; counter-model found:\n" + model
    for goal in ("|- forall _ka_0. _ka_0 = a", "|- forall y. y = a"):
        assert main([command, goal, "--theory", str(path)]) == 1
        assert capsys.readouterr() == (want, ""), goal


@pytest.mark.parametrize("command", ["refute", "prove"])
def test_goal_applies_theory_constant(command, tmp_path, capsys):
    """A goal that applies a constant of its theory as a function is refused,
    not searched with the constant as a function too."""
    path = tmp_path / "c.tc"
    path.write_text("theory t\nsig const c\n", encoding="utf-8")
    assert main([command, "c(a) = b |-", "--theory", str(path)]) == 3
    assert capsys.readouterr() == \
        ("", "error: symbol 'c' declared as both a constant and a function\n")


@pytest.mark.parametrize("command", ["refute", "prove"])
def test_binder_named_like_a_constant(command, tmp_path, capsys):
    """A quantifier that binds a declared constant would bind nothing, since
    its body reads the constant: the goal is refused at the binder."""
    path = tmp_path / "c.tc"
    path.write_text("theory t\nsig const c ; pred p/1\n", encoding="utf-8")
    assert main([command, "p(c) |- forall c. p(c)", "--theory", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: at offset 15: constant 'c' cannot be bound\n")


def test_invented_names_apart_from_constants(tmp_path, capsys):
    """The prover names its eigenvariable apart from the constant _v0, which
    the proof file would read it back as, so the proof it writes checks."""
    theory, proof = tmp_path / "v.tc", tmp_path / "f.tcp"
    theory.write_text("theory t\nsig const _v0 ; pred p/1\n", encoding="utf-8")
    assert main(["prove", "|- forall x. (p(x) -> p(x))", "--theory", str(theory),
                 "--out", str(proof)]) == 0
    assert "eigenvar=_v1" in proof.read_text(encoding="utf-8")
    capsys.readouterr()
    assert main(["check", str(proof), "--theory", str(theory)]) == 0
    assert capsys.readouterr() == ("accepted; 0 basic cycles; normal\n", "")


def test_renamed_binder_apart_from_constants(tmp_path, capsys):
    """`substitute` renames the binder y of the AllL premise to _v0, which
    knows no signature; the proof file prints it apart from the constant
    _v0, so the proof it writes checks."""
    theory, proof = tmp_path / "v.tc", tmp_path / "s.tcp"
    theory.write_text("theory t\nsig const _v0 ; pred p/2\n", encoding="utf-8")
    assert main(["prove", "forall x. forall y. p(x, y) |- p(y, y)", "--theory", str(theory),
                 "--out", str(proof)]) == 0
    assert capsys.readouterr() == ("proved; 3 nodes; 0 cycle(s)\n", "")
    assert "node 1 : forall _v1. p(y, _v1) |- p(y, y)" in proof.read_text(encoding="utf-8")
    assert main(["check", str(proof), "--theory", str(theory)]) == 0
    assert capsys.readouterr() == ("accepted; 0 basic cycles; normal\n", "")


@pytest.mark.parametrize("goal", ["|- top", "bot |-", "q(a), bot |- q(b), top"])
def test_top_and_bot_close_any_context(goal, capsys):
    """`top` in the succedent (TopR) and `bot` in the antecedent (BotL)
    close a sequent whatever else it holds, with no weakening."""
    assert main(["prove", goal]) == 0
    assert capsys.readouterr().out.startswith("proved; 1 nodes; 0 cycle(s)\n")


def test_top_and_bot_round_trip(tmp_path, capsys):
    proof = tmp_path / "tb.tcp"
    assert main(["prove", "|- ~bot /\\ top", "--out", str(proof)]) == 0
    assert capsys.readouterr() == ("proved; 4 nodes; 0 cycle(s)\n", "")
    text = proof.read_text(encoding="utf-8")
    assert "rule=TopR" in text and "rule=BotL" in text
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr() == ("accepted; 0 basic cycles; normal\n", "")


def test_rule_parameter_named_like_a_constant(tmp_path, capsys):
    """An RtcInd eigenvariable that the signature declares as a constant is
    a usage error at the parameter, not a kernel error whose two premise
    lists print alike."""
    path = tmp_path / "ind.tcp"
    with open(corpus_path("ind_double.tcp"), encoding="utf-8") as fh:
        path.write_text(fh.read().replace("sig pred e/2", "sig const v, w, z ; pred e/2"),
                        encoding="utf-8")
    assert main(["check", str(path)]) == 3
    assert capsys.readouterr() == ("", "error: line 6, offset 174: constant 'v' cannot be bound\n")


@pytest.mark.parametrize("name,cycles", [("double", "2 basic cycles"),
                                         ("extend", "1 basic cycle"),
                                         ("step_theory", "1 basic cycle")])
def test_translate_ind_names_apart_from_constants(name, cycles, tmp_path, capsys):
    """With w and z declared as constants, the variables translate-ind adds
    are named apart from them, and its output checks.  (v is the files'
    own eigenvariable, which no constant may name.)"""
    source, out = tmp_path / "ind.tcp", tmp_path / "cyclic.tcp"
    with open(corpus_path(f"ind_{name}.tcp"), encoding="utf-8") as fh:
        source.write_text(fh.read().replace("sig pred", "sig const w, z ; pred"),
                          encoding="utf-8")
    assert main(["translate-ind", str(source), "--out", str(out)]) == 0
    assert main(["check", str(out)]) == 0
    assert capsys.readouterr() == (f"accepted; {cycles}; normal\n", "")


PAIRS = "theory pairs\nsig const c ; fn pr/2 ; pair pr ; pairconst c\n"
# a proof of a goal that uses no pair symbol: the witness <c, c> differs
# from c, by a Cut on <c, c> = c closed by PairConstAx
PAIR_WITNESS = """\
tcp 1
sig const c ; fn pr/2 ; pair pr ; pairconst c
theory -
root 0
node 0 : |- exists y. ~ c = y ; rule=ExR ; params={principal=(exists y. ~ c = y)\
 ; witness=(<c, c>)} ; premises=[1]
node 1 : |- ~ c = <c, c> ; rule=NotR ; params={principal=(~ c = <c, c>)} ; premises=[2]
node 2 : c = <c, c> |- ; rule=Cut ; params={cut=(<c, c> = c)} ; premises=[3, 5]
node 3 : c = <c, c> |- <c, c> = c ; rule=EqL1 ; params={principal=(c = <c, c>)\
 ; template=((_h0 = c), _h0)} ; premises=[4]
node 4 : |- c = c ; rule=EqR ; params={} ; premises=[]
node 5 : c = <c, c>, <c, c> = c |- ; rule=WL ; params={principal=(c = <c, c>)} ; premises=[6]
node 6 : <c, c> = c |- ; rule=PairConstAx ; params={principal=(<c, c> = c)} ; premises=[]
"""


@pytest.mark.parametrize("command", ["refute", "prove"])
def test_pairing_goals_not_refuted(command, tmp_path, capsys):
    """Pairing is injective and misses the pair constant (`PairInj`,
    `PairConstAx`): no finite model refutes these provable goals, the last
    of which uses no pair symbol."""
    path = tmp_path / "pairs.tc"
    path.write_text(PAIRS, encoding="utf-8")
    proof = tmp_path / "witness.tcp"
    proof.write_text(PAIR_WITNESS, encoding="utf-8")
    assert main(["check", str(proof)]) == 0
    assert capsys.readouterr().out == "accepted; 0 basic cycles; normal\n"
    for goal in ("<a, b> = c |-", "<a, b> = <d, e> |- a = d /\\ b = e",
                 "|- exists y. ~ c = y"):
        code = main([command, goal, "--theory", str(path)])
        out = capsys.readouterr().out
        if command == "refute":
            assert (code, out) == (2, "no counter-model up to size 5"
                                      " (not a validity proof)\n"), goal
        else:
            assert code != 1 and "refuted" not in out, goal
    assert main(["prove", "<a, b> = c |-", "--theory", str(path)]) == 0
    assert capsys.readouterr().out.startswith("proved; 1 nodes; 0 cycle(s)\n")


@pytest.mark.parametrize("proof_sig, theory_sig, message", [
    ("fn qq/2 ; pair qq", "fn pr/2 ; pair pr", "pair symbol declared as 'qq' and 'pr'"),
    ("const c ; fn pr/2 ; pair pr ; pairconst c", "const d ; fn pr/2 ; pair pr ; pairconst d",
     "pair constant declared as 'c' and 'd'"),
    ("fn s/1", "pred s/1", "symbol 's' declared as both a function and a predicate"),
])
def test_check_conflicting_pair_symbols(proof_sig, theory_sig, message, tmp_path, capsys):
    """A proof file and its theory that name different pair symbols, or
    pair constants, or one symbol as two kinds, are refused, not merged."""
    theory = tmp_path / "pairs.tc"
    theory.write_text(f"theory pairs\nsig {theory_sig}\n", encoding="utf-8")
    proof = tmp_path / "p.tcp"
    proof.write_text(f"tcp 1\nsig {proof_sig}\ntheory {theory}\nroot 0\n"
                     "node 0 : a = a |- a = a ; rule=Axiom ; params={} ; premises=[]\n",
                     encoding="utf-8")
    assert main(["check", str(proof)]) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_prove_pair_injectivity(tmp_path, capsys):
    """Under a pair symbol the prover tries PairInj on the succedent: the
    pairs are equal, so their components are."""
    theory = tmp_path / "pairs.tc"
    theory.write_text("theory pairs\nsig const c ; fn pr/2 ; pair pr\n", encoding="utf-8")
    proof = tmp_path / "inj.tcp"
    assert main(["prove", "<a, b> = <d, e> |- a = d /\\ b = e", "--theory", str(theory),
                 "--out", str(proof)]) == 0
    assert capsys.readouterr() == ("proved; 2 nodes; 0 cycle(s)\n", "")
    assert "rule=PairInj" in proof.read_text(encoding="utf-8")
    assert main(["check", str(proof), "--theory", str(theory)]) == 0
    assert capsys.readouterr() == ("accepted; 0 basic cycles; normal\n", "")


# RtcInd whose step variable x is a parameter of the template t = x: the step
# premise x = x, E(x, y) |- y = y is not the induction step for arbitrary x,
# and the conclusion has a counter-model
IND_PARAM = """\
tcp 1
sig pred E/2
theory -
root 0
node 0 : a = x, (rtc u v. E(u, v))(a, b) |- b = x ; rule=RtcInd ; params={principal=\
((rtc u v. E(u, v))(a, b)) ; template=((t = x), t) ; eigenvar=x ; eigenvar2=y} ; premises=[1]
node 1 : x = x, E(x, y) |- y = y ; rule=WL ; params={principal=(x = x)} ; premises=[2]
node 2 : E(x, y) |- y = y ; rule=WL ; params={principal=(E(x, y))} ; premises=[3]
node 3 : |- y = y ; rule=EqR ; params={} ; premises=[]
"""
IND_PARAM_FAULT = ("KernelError at node 0: FreshnessViolation: variable 'x' is not fresh:"
                   " occurs free in the induction template\n")


@pytest.mark.parametrize("command", ["check", "translate-ind"])
def test_rtcind_step_variable_in_template(command, tmp_path, capsys):
    path = tmp_path / "ind.tcp"
    path.write_text(IND_PARAM, encoding="utf-8")
    assert main([command, str(path)]) == 1
    want = IND_PARAM_FAULT + ("invalid\n" if command == "check" else "")
    assert capsys.readouterr() == (want, "")
    assert main(["refute", "a = x, (rtc u v. E(u, v))(a, b) |- b = x"]) == 1


# proofs of refutable sequents whose first node fits no schema, though a
# kernel missing that refusal accepts it: (sig line, node lines, the fault)
UNSOUND = {
    "axiom": ("pred p/1, q/1", ["node 0 : p(a) |- q(a) ; rule=Axiom ; params={} ; premises=[]"],
              "Axiom: Axiom conclusion must be exactly phi |- phi"),
    "eqr": ("-", ["node 0 : |- a = b ; rule=EqR ; params={} ; premises=[]"],
            "EqR: EqR needs t = t in the succedent"),
    # the step premise proves the template's step, but the conclusion lacks
    # the template at b in its succedent
    "rtcind": ("pred e/2", [
        "node 0 : (rtc x y. e(x, y))(a, b), a = a |- ; rule=RtcInd ; params={principal="
        "((rtc x y. e(x, y))(a, b)) ; template=((h = h), h) ; eigenvar=u ; eigenvar2=v}"
        " ; premises=[1]",
        "node 1 : u = u, e(u, v) |- v = v ; rule=WL ; params={principal=(u = u)} ; premises=[2]",
        "node 2 : e(u, v) |- v = v ; rule=WL ; params={principal=(e(u, v))} ; premises=[3]",
        "node 3 : |- v = v ; rule=EqR ; params={} ; premises=[]"],
        "RtcInd: b = b not in succedent"),
}


@pytest.mark.parametrize("case", sorted(UNSOUND))
def test_check_refuses_unsound_instance(case, tmp_path, capsys):
    sig, nodes, fault = UNSOUND[case]
    path = tmp_path / "unsound.tcp"
    path.write_text("\n".join(["tcp 1", f"sig {sig}", "theory -", "root 0", *nodes, ""]),
                    encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == (f"KernelError at node 0: {fault}\ninvalid\n", "")
    goal = nodes[0].split(" : ")[1].split(" ; ")[0]
    assert main(["refute", goal]) == 1


# one Subst node over an Axiom whose formula binds x, the image of z: the
# instance keeps x free under a renamed binder, so it is forall y. p(y, x)
SUBST_CAPTURE = """\
tcp 1
sig pred p/2
theory -
root 0
node 0 : {concl} |- {concl} ; rule=Subst ; params={{subst=[{subst}] ; source=\
(forall x. p(x, z) |- forall x. p(x, z))}} ; premises=[1]
node 1 : forall x. p(x, z) |- forall x. p(x, z) ; rule=Axiom ; params={{}} ; premises=[]
"""
SUBST_FAULT = "Subst: conclusion is not the stated instance of the source"
# (conclusion, substitution, exit code, stdout)
SUBST_CASES = {
    "renamed": ("forall y. p(y, x)", "z := x", 0, "accepted; 0 basic cycles; normal\n"),
    "captured": ("forall x. p(x, x)", "z := x", 1,
                 f"KernelError at node 0: {SUBST_FAULT}\ninvalid\n"),
    # x is bound wherever it occurs in the source, so x := w changes nothing
    "bound": ("forall y. p(y, x)", "z := x, x := w", 0, "accepted; 0 basic cycles; normal\n"),
}


@pytest.mark.parametrize("case", sorted(SUBST_CASES))
def test_subst_capture(case, tmp_path, capsys):
    concl, subst, code, out = SUBST_CASES[case]
    path = tmp_path / "subst.tcp"
    path.write_text(SUBST_CAPTURE.format(concl=concl, subst=subst), encoding="utf-8")
    assert main(["check", str(path)]) == code
    assert capsys.readouterr() == (out, "")


def test_subst_chain_with_edited_endpoint(tmp_path, capsys):
    # node 30 concludes R(v31, w) |- R(v30, w): its parent's source no longer
    # matches it, and [v31 := v30] does not give it from R(v31, w) |- R(v31, w)
    text = subst_chain(50)
    edited = text.replace("node 30 : (rtc x y. p(x, y))(v30, w)",
                          "node 30 : (rtc x y. p(x, y))(v31, w)")
    assert edited != text
    path = tmp_path / "chain.tcp"
    path.write_text(edited, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("KernelError at node 29: Subst: premises ")
    assert out[1:] == [f"KernelError at node 30: {SUBST_FAULT}", "invalid"]


NAT_BETA = ("0 = n \\/ (exists z. exists c. {b}(c, 0, 0) /\\ {b}(c, s(z), n) /\\ (forall u."
            " u = z \\/ {lt} -> exists v. exists w. {b}(c, u, v) /\\ {b}(c, s(u), w)"
            " /\\ {step}))\n")
# (step of the rtc body, `rtcproof translate-beta` options, stdout); the
# template case reads its B(c, i, k) from a file
BETA = {
    "pa": ("s(x)", [], NAT_BETA.format(b="beta", lt="lt(u, z)", step="s(v) = w")),
    "tc": ("s(x)", ["--mode", "tc"], NAT_BETA.format(
        b="beta", lt="~u = z /\\ (rtc w0 u0. s(w0) = u0)(u, z)", step="s(v) = w")),
    "template": ("add(x, x)", ["--beta-template", "{template}"],
                 NAT_BETA.format(b="beta2", lt="lt(u, z)", step="add(v, v) = w")),
}


@pytest.mark.parametrize("case", sorted(BETA))
def test_translate_beta_golden(case, tmp_path, capsys):
    step, options, out = BETA[case]
    template = tmp_path / "template.txt"
    template.write_text("beta2(c, i, k)\n", encoding="utf-8")
    options = [o.format(template=template) for o in options]
    assert main(["translate-beta", f"(rtc x y. {step} = y)(0, n)"] + options) == 0
    assert capsys.readouterr() == (out, "")


def test_translate_beta_names_first_offender(capsys):
    # the rtc body's terms are checked before its endpoints
    assert main(["translate-beta", "(rtc x y. g(x) = y)(h(0), 0)"]) == 3
    assert capsys.readouterr() == (
        "", "error: function 'g'/1 outside the arithmetic signature\n")


def test_translate_beta_past_cap_is_usage_error(tmp_path, capsys):
    # the translation wraps the rtc body in about ten more levels, so a body
    # 190 negations deep prints a formula the parser refuses to read back
    out = tmp_path / "out.txt"
    goal = "(rtc x y. " + "~" * 190 + "s(x) = y)(0, n)"
    assert main(["translate-beta", goal, "--out", str(out)]) == 3
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("error: at offset ")
    assert err.endswith(f": formula nested more than {MAX_DEPTH} levels deep\n")
    assert not out.exists()


def test_render_dot_and_text(capsys):
    assert main(["render", "--format", "dot", corpus_path("nat_p.tcp")]) == 0
    with open(os.path.join(GOLDEN, "render_nat_p.dot"), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")
    # the text format is the file format: a corpus file renders as itself
    assert main(["render", "--format", "text", corpus_path("nat_p.tcp")]) == 0
    with open(corpus_path("nat_p.tcp"), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")


# copies of nat_p.tcp that parse but hold a rule instance the kernel rejects:
# (text replaced, replacement)
KERNEL_FAULTS = {
    "subst_missing": ("subst=[n := _v0] ; ", ""),
    "rtccase_no_params": ("params={principal=((rtc x y. s(x) = y)(0, n)) ; eigenvar=_v0}",
                          "params={}"),
    "rtccase_principal_not_rtc": ("principal=((rtc x y. s(x) = y)(0, n))",
                                  "principal=(p(0))"),
}


@pytest.mark.parametrize("case", sorted(KERNEL_FAULTS) + sorted(BAD_GRAPHS)
                         + sorted(PARAM_EDITS))
def test_render_dot_of_invalid_proof(case, tmp_path, capsys):
    # DOT renders a graph that check calls invalid, with no progress mark
    # from a rule instance the kernel rejects; a file that does not parse is
    # a usage error
    if case in PARAM_EDITS:
        name, old, new, _ = PARAM_EDITS[case]
        with open(corpus_path(name), encoding="utf-8") as fh:
            text = fh.read()
        path = tmp_path / name
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
    else:
        old, new = (KERNEL_FAULTS.get(case) or BAD_GRAPHS[case])[:2]
        path = nat_p_variant(tmp_path, old, new)
    assert main(["render", "--format", "dot", str(path)]) in (0, 1, 2, 3)
    out, err = capsys.readouterr()
    assert "internal error" not in err
    if case.startswith("rtccase"):
        assert "progress" not in out


def _dot_edges(dot: str) -> list[tuple[int, int, bool]]:
    """(source, target, marked progressing) per premise edge of a DOT text."""
    out = []
    for line in dot.splitlines():
        if " -> " in line and "dashed" not in line:
            src, dst = line.split(";")[0].split(" [")[0].split(" -> ")
            out.append((int(src.strip()[1:]), int(dst[1:]), "progress" in line))
    return out


def test_render_dot_progress_is_edge_matrix_progress(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(SRC, "..", "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)   # for its dataclasses
    spec.loader.exec_module(gen)
    inputs = gen.check_inputs(1, str(tmp_path), os.path.join(SRC, ".."))
    assert len(inputs) > len(CORPUS_CHECK)
    marks = set()
    for ci in inputs:
        with open(ci.path, encoding="utf-8") as fh:
            pf = parse_proof(fh.read())
        g = pf.graph
        want = [(nid, cid, any(edge_matrix(g.instance(nid), i).d.values()))
                for nid in g.internal_ids()
                for i, cid in enumerate(g.nodes[nid].children)]
        assert _dot_edges(to_dot(g, pf.signature)) == want, ci.name
        marks.update(p for _, _, p in want)
    assert marks == {False, True}


# golden files recorded before explicit_to_cyclic and to_latex shared
# ProofGraph.unfold: translate_ind_<name>.out per explicit-induction corpus
# file, and the LaTeX of the two-cycle corpus proof
@pytest.mark.parametrize("name", ["double", "extend", "step_theory"])
def test_translate_ind_golden(name, capsys):
    assert main(["translate-ind", corpus_path(f"ind_{name}.tcp")]) == 0
    with open(os.path.join(GOLDEN, f"translate_ind_{name}.out"), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")


def test_render_tex_golden(capsys):
    assert main(["render", "--format", "tex", corpus_path("two_loops.tcp")]) == 0
    with open(os.path.join(GOLDEN, "render_two_loops.tex"), encoding="utf-8") as fh:
        assert capsys.readouterr() == (fh.read(), "")


def test_render_tex_expands_shared_premises_once():
    # each diamond level doubles the paths to the next, so the tree unfolding
    # of diamond_proof(17) has over 2^17 copies of its lower nodes; each
    # node is printed in full once, and elsewhere as a leaf naming it
    pf = parse_proof(diamond_proof(17))
    tex = to_latex(pf.graph, pf.signature)
    assert len(tex.splitlines()) <= 4 * len(pf.graph.nodes)
    for nid, node in pf.graph.nodes.items():
        assert latex_sequent(node.sequent, pf.signature) in tex, nid


# every corpus file, and the proof in every golden file of a proved goal
TEXT_PROOFS = sorted(CORPUS_CHECK) + sorted(
    f"prove_{c}.out" for c, (code, _) in PROVE_GOLDEN.items() if code == 0)


@pytest.mark.parametrize("name", TEXT_PROOFS)
def test_render_text_round_trip(name, tmp_path, capsys):
    # the text format is the file format: a proof renders as itself
    if name.endswith(".tcp"):
        path = corpus_path(name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read().split("\n", 1)[1]
        path = tmp_path / "proof.tcp"
        path.write_text(text, encoding="utf-8")
    assert main(["render", "--format", "text", str(path)]) == 0
    assert capsys.readouterr() == (text, "")


def test_goal_from_file_and_proof_to_file(tmp_path, capsys):
    goal = tmp_path / "goal.txt"
    goal.write_text(PROVE_GOLDEN["trans"][1][0] + "\n", encoding="utf-8")
    with open(os.path.join(GOLDEN, "prove_trans.out"), encoding="utf-8") as fh:
        want = fh.read()
    assert main(["prove", f"@{goal}"]) == 0
    assert capsys.readouterr() == (want, "")
    # with --out, stdout keeps the summary line and the file gets the proof
    proof = tmp_path / "proof.tcp"
    assert main(["prove", f"@{goal}", "--out", str(proof)]) == 0
    first, rest = want.split("\n", 1)
    assert capsys.readouterr() == (first + "\n", "")
    assert proof.read_text(encoding="utf-8") == rest


# 600 negations and 400 parentheses are past the parser's nesting cap, where
# the walks over formulas would exhaust the interpreter's stack
TOO_DEEP = {"negations": NESTED["negations"](600),
            "parentheses": NESTED["parentheses"](400)}


@pytest.mark.parametrize("command", ["refute", "prove"])
@pytest.mark.parametrize("case", sorted(TOO_DEEP))
def test_nesting_past_cap_is_usage_error(case, command, capsys):
    assert main([command, TOO_DEEP[case] + " |-"]) == 3
    assert capsys.readouterr() == (
        "", f"error: at offset {MAX_DEPTH}: formula nested more than {MAX_DEPTH} levels deep\n")


def _chain(connectives: list[str], links: int) -> str:
    """`links` copies of q(a) joined by the connectives in turn."""
    return "q(a)" + "".join(f" {connectives[i % len(connectives)]} q(a)"
                            for i in range(links - 1))


# chains of each binary connective and of all three in turn, past the cap
# however long: the parser keeps a chain on a stack, not on the interpreter's
CHAINS = {f"{name}{links}": _chain(connectives, links)
          for name, connectives in [("conjunctions", ["/\\"]), ("disjunctions", ["\\/"]),
                                    ("implications", ["->"]), ("mixed", ["/\\", "\\/", "->"])]
          for links in (1000, 10_000)}


@pytest.mark.parametrize("command", ["refute", "prove", "check", "translate-beta"])
@pytest.mark.parametrize("case", sorted(CHAINS))
def test_long_chain_past_cap_is_usage_error(case, command, tmp_path, capsys):
    f = CHAINS[case]
    if command == "check":
        path = tmp_path / "chain.tcp"
        path.write_text("tcp 1\nsig pred q/1\ntheory -\nroot 0\n"
                        f"node 0 : {f} |- {f} ; rule=Axiom ; params={{}} ; premises=[]\n",
                        encoding="utf-8")
        argv = ["check", str(path)]
    else:
        argv = [command, f if command == "translate-beta" else f + " |-"]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    where = "line 5, offset" if command == "check" else "at offset"
    assert out == "" and "internal error" not in err
    assert re.fullmatch(rf"error: {where} \d+: formula nested more than {MAX_DEPTH}"
                        r" levels deep\n", err), err[:200]


@pytest.mark.parametrize("connective, offset", [("->", 1997), ("/\\", 1613), ("\\/", 1613)])
def test_chain_past_cap_offset(connective, offset, capsys):
    # 250 links: a chain of `->` nests past the cap once its last link is
    # read, at the `|-`; a chain of `/\` or `\/` once its 202nd
    # connective is, at offset 5 + 8 * 201
    assert main(["refute", _chain([connective], 250) + " |-"]) == 3
    assert capsys.readouterr() == (
        "", f"error: at offset {offset}: formula nested more than {MAX_DEPTH} levels deep\n")


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_at_cap_runs(shape, tmp_path, capsys):
    f = NESTED[shape](MAX_DEPTH)
    for argv in (["refute", f"{f} |-", "--model-size", "2"], ["refute", f"|- {f}"],
                 ["prove", f"{f} |-", "--max-nodes", "2000"], ["prove", f"|- {f}"]):
        assert main(argv) in (0, 1, 2), argv[:1]
        assert capsys.readouterr().err == ""
    path = tmp_path / "deep.tcp"
    path.write_text("tcp 1\nsig fn f/1 ; pred p/2, q/1\ntheory -\nroot 0\n"
                    f"node 0 : {f} |- {f} ; rule=Axiom ; params={{}} ; premises=[]\n",
                    encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert capsys.readouterr() == ("accepted; 0 basic cycles; normal\n", "")


@pytest.mark.parametrize("argv", [["prove", "q(a) |- q(a)", "--depth", "-1"],
                                  ["prove", "q(a) |- q(a)", "--max-nodes", "-5"],
                                  ["prove", "q(a) |- q(a)", "--model-size", "-1"],
                                  ["refute", "q(a) |- q(b)", "--model-size", "-1"],
                                  ["prove", "q(a) |- q(a)", "--depth", "abc"]])
def test_negative_bound_is_usage_error(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {argv[2]}: expected a non-negative integer, "
                        f"got '{argv[3]}'\n")
    assert "internal error" not in err
    # zero stays a valid bound; `prove --model-size 0` turns the
    # interleaved model search off
    assert main(argv[:3] + ["0"]) in (0, 1, 2)
