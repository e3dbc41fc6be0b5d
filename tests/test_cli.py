import os
import subprocess
import sys

import pytest

import rtcproof.cli
from rtcproof.cli import main
from rtcproof.prooffile import parse_proof, serialize_proof

from conftest import corpus_path
from preproofs import subst_chain

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


def test_check_normal_rejects_overlap(tmp_path, capsys):
    path = tmp_path / "two_threads.tcp"
    path.write_text(TWO_THREADS, encoding="utf-8")
    assert main(["check", str(path)]) == 0
    assert main(["check", "--normal", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["accepted; 2 basic cycles; overlapping"] * 2


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
