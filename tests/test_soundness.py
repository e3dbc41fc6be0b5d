"""Global soundness, end to end: the kernel and the trace check together
accept no pre-proof of a sequent that has a counter-model.  By the infinite
descent argument (Brotherston & Simpson, J. Logic Comput. 2011), a model
falsifying the root follows falsified premises down an infinite path whose
progressing trace would lower an rtc degree forever.

The pre-proofs here are loops of two kinds.  A Cut loop cuts on a formula A
that Γ already holds, closes its left premise by an axiom and buds its right
premise, the root again, back to the root.  A Subst loop is a root Subst node
whose source is the root sequent, under the empty substitution or a renaming
of a variable the sequent lacks, and whose premise buds back to the root.
Such loops are kernel-valid over any sequent and never progress, so the
trace check rejects them over refutable and valid sequents alike.  Γ holds an
idle rtc atom, so that a trace check that marked every pair progressing
would accept a loop."""

import functools
import random

from rtcproof import tracecheck
from rtcproof.kernel import RuleId, make_subst, rule_instance
from rtcproof.proofgraph import GraphBuilder, ProofGraph, validate_structure
from rtcproof.syntax import Formula, Sequent, Signature, Var, parse_formula, parse_sequent
from rtcproof.tracecheck import EdgeMatrix, check_global_trace_condition

from oracles import find_counter_model_brute

SIG = Signature.make(predicates={"p": 2, "q": 1})
IDLE = "(rtc x y. p(x, y))(a, b)"
ATOMS = ("p(a, b)", "p(b, a)", "p(a, a)", "p(b, c)", "q(a)", "q(b)", "q(c)")


def _formula(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(ATOMS)
    op = rng.choice(("~", "/\\", "\\/", "->"))
    if op == "~":
        return f"~({_formula(rng, depth - 1)})"
    return f"({_formula(rng, depth - 1)} {op} {_formula(rng, depth - 1)})"


@functools.cache
def sequents(seed: int, tries: int) -> dict[bool, list[tuple[Sequent, Formula]]]:
    """`tries` seeded sequents  IDLE, A, Γ' ⊢ Δ, each with its A, under True
    when it has a counter-model of size at most 2 and under False when not."""
    rng = random.Random(seed)
    out = {True: [], False: []}
    for _ in range(tries):
        a = _formula(rng, 2)
        ant = [IDLE, a] + rng.sample(ATOMS, rng.randint(0, 1))
        suc = rng.sample(ATOMS, rng.randint(0, 2))
        seq = parse_sequent(f"{', '.join(ant)} |- {', '.join(suc)}", SIG)
        out[find_counter_model_brute(seq, 2, (), SIG) is not None].append(
            (seq, parse_formula(a, SIG)))
    return out


def cut_loop(seq: Sequent, a: Formula) -> ProofGraph:
    b = GraphBuilder()
    root = b.reserve()
    cut = rule_instance(RuleId.Cut, seq, cut_formula=a)
    left = b.add_axiom_closure(cut.premises[0], a)
    b.fill_internal(root, cut, (left, b.add_bud(cut.premises[1], root)))
    return b.graph(root)


def subst_loops(seq: Sequent) -> list[ProofGraph]:
    """The root under the empty substitution, and under [d := a] with d
    absent from seq, each budding back to the root."""
    out = []
    for theta in ((), make_subst({"d": Var("a")})):
        b = GraphBuilder()
        root = b.reserve()
        sub = rule_instance(RuleId.Subst, seq, substitution=theta, source=seq)
        b.fill_internal(root, sub, (b.add_bud(seq, root),))
        out.append(b.graph(root))
    return out


def _rejected_unless_every_pair_progresses(loops: list[ProofGraph], monkeypatch) -> None:
    for g in loops:
        assert validate_structure(g) == [], g.end_sequent()
        assert not check_global_trace_condition(g).accepted, g.end_sequent()

    # a trace check that lets every pair progress accepts them: the
    # assertions above can fail
    edge_matrix = tracecheck.edge_matrix
    monkeypatch.setattr(tracecheck, "edge_matrix", lambda rule, i: EdgeMatrix(
        dict.fromkeys(edge_matrix(rule, i).d, True)))
    assert any(check_global_trace_condition(g).accepted for g in loops)


def test_cut_loops_over_refutable_sequents_are_rejected(monkeypatch):
    loops = [cut_loop(seq, a) for seq, a in sequents(7, 160)[True]]
    assert len(loops) >= 100
    _rejected_unless_every_pair_progresses(loops, monkeypatch)


def test_subst_loops_over_refutable_sequents_are_rejected(monkeypatch):
    loops = [g for seq, _ in sequents(7, 160)[True] for g in subst_loops(seq)]
    assert len(loops) >= 200
    _rejected_unless_every_pair_progresses(loops, monkeypatch)


def test_loops_over_valid_sequents_are_rejected(monkeypatch):
    loops = [g for seq, a in sequents(7, 160)[False]
             for g in [cut_loop(seq, a)] + subst_loops(seq)]
    assert len(loops) >= 60
    _rejected_unless_every_pair_progresses(loops, monkeypatch)
