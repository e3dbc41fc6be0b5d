"""Global soundness, end to end: the kernel and the trace check together
accept no pre-proof of a sequent that has a counter-model.  By the infinite
descent argument (Brotherston & Simpson, J. Logic Comput. 2011), a model
falsifying the root follows falsified premises down an infinite path whose
progressing trace would lower an rtc degree forever.

The pre-proofs here are Cut loops over refutable sequents: a Cut on a formula
A that Γ already holds, its left premise closed by an axiom and its right
premise, the root again, a bud back to the root.  Such a loop is kernel-valid
over any sequent and never progresses.  Γ holds an idle rtc atom, so that a
trace check that marked every pair progressing would accept the loop."""

import random

from rtcproof import tracecheck
from rtcproof.kernel import RuleId, rule_instance
from rtcproof.proofgraph import GraphBuilder, ProofGraph, validate_structure
from rtcproof.syntax import Formula, Sequent, Signature, parse_formula, parse_sequent
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


def refutable_sequents(seed: int, tries: int) -> list[tuple[Sequent, Formula]]:
    """Of `tries` seeded sequents  IDLE, A, Γ' ⊢ Δ, those with a counter-model
    of size at most 2, each with its A."""
    rng = random.Random(seed)
    out = []
    for _ in range(tries):
        a = _formula(rng, 2)
        ant = [IDLE, a] + rng.sample(ATOMS, rng.randint(0, 1))
        suc = rng.sample(ATOMS, rng.randint(0, 2))
        seq = parse_sequent(f"{', '.join(ant)} |- {', '.join(suc)}", SIG)
        if find_counter_model_brute(seq, 2, (), SIG) is not None:
            out.append((seq, parse_formula(a, SIG)))
    return out


def cut_loop(seq: Sequent, a: Formula) -> ProofGraph:
    b = GraphBuilder()
    root = b.reserve()
    cut = rule_instance(RuleId.Cut, seq, cut_formula=a)
    left = b.add_axiom_closure(cut.premises[0], a)
    b.fill_internal(root, cut, (left, b.add_bud(cut.premises[1], root)))
    return b.graph(root)


def test_cut_loops_over_refutable_sequents_are_rejected(monkeypatch):
    loops = [cut_loop(seq, a) for seq, a in refutable_sequents(7, 160)]
    assert len(loops) >= 100
    for g in loops:
        assert validate_structure(g) == [], g.end_sequent()
        assert not check_global_trace_condition(g).accepted, g.end_sequent()

    # a trace check that lets every pair progress accepts them: the
    # assertions above can fail
    edge_matrix = tracecheck.edge_matrix
    monkeypatch.setattr(tracecheck, "edge_matrix", lambda rule, i: EdgeMatrix(
        dict.fromkeys(edge_matrix(rule, i).d, True)))
    assert any(check_global_trace_condition(g).accepted for g in loops)
