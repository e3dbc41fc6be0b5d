#!/usr/bin/env python3
"""Regenerate the proof corpus under corpus/.

Accepted proofs cover the closure rules, propositional and quantifier
rules, equality rewriting, cyclic proofs (hand-built and prover-found),
and explicit-induction proofs; the bad_* files are structurally valid
pre-proofs that fail the global trace condition.
"""

import os
import sys
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rtcproof.kernel import RuleId, make_subst, rule_instance
from rtcproof.prooffile import ProofFile, load_theory, serialize_proof
from rtcproof.proofgraph import GraphBuilder, ProofGraph, renumber, validate_structure
from rtcproof.prover import Proved, SearchConfig, prove
from rtcproof.syntax import Signature, Var, parse_formula, parse_sequent
from rtcproof.tracecheck import check_global_trace_condition
from rtcproof.translate import explicit_to_cyclic

OUT = os.path.join(os.path.dirname(__file__), "..", "corpus")

SIG_P = Signature.make(predicates={"p": 2})
SIG_PQ = Signature.make(predicates={"p": 2, "q": 1})
SIG_QR = Signature.make(predicates={"q": 1, "r": 1})
SIG_E = Signature.make(predicates={"e": 2})


def F(text, sig):
    return parse_formula(text, sig)


def S(text, sig):
    return parse_sequent(text, sig)


def save(name, graph, sig, theory_name=None):
    graph = renumber(graph)
    theory = load_theory(theory_name).axioms if theory_name else ()
    errs = validate_structure(graph, theory, sig)
    assert not errs, (name, errs)
    path = os.path.join(OUT, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_proof(ProofFile(graph, sig, theory_name)))
    verdict = check_global_trace_condition(graph).verdict
    print(f"{name:28s} {len(graph.nodes):3d} nodes  {verdict}")


def refl():
    goal = S("|- (rtc x y. p(x, y))(t, t)", SIG_P)
    b = GraphBuilder()
    nid = b.add_internal(rule_instance(
        RuleId.RtcRefl, goal, principal=F("(rtc x y. p(x, y))(t, t)", SIG_P)))
    save("refl.tcp", b.graph(nid), SIG_P)


def axiom_rtc():
    goal = S("(rtc x y. p(x, y))(a, b) |- (rtc x y. p(x, y))(a, b)", SIG_P)
    b = GraphBuilder()
    nid = b.add_axiom_closure(goal, F("(rtc x y. p(x, y))(a, b)", SIG_P))
    save("axiom_rtc.tcp", b.graph(nid), SIG_P)


def single_step():
    goal = S("p(a, b) |- (rtc x y. p(x, y))(a, b)", SIG_P)
    prin = F("(rtc x y. p(x, y))(a, b)", SIG_P)
    b = GraphBuilder()
    step = rule_instance(RuleId.RtcStep, goal, principal=prin, witness=Var("a"))
    c1 = b.add_internal(rule_instance(
        RuleId.RtcRefl, step.premises[0],
        principal=F("(rtc x y. p(x, y))(a, a)", SIG_P)))
    c2 = b.add_axiom_closure(step.premises[1], F("p(a, b)", SIG_P))
    nid = b.add_internal(step, (c1, c2))
    save("single_step.tcp", b.graph(nid), SIG_P)


def step_composition():
    goal = S("(rtc x y. p(x, y))(a, b), p(b, c) |- (rtc x y. p(x, y))(a, c)", SIG_P)
    prin = F("(rtc x y. p(x, y))(a, c)", SIG_P)
    b = GraphBuilder()
    step = rule_instance(RuleId.RtcStep, goal, principal=prin, witness=Var("b"))
    c1 = b.add_axiom_closure(step.premises[0], F("(rtc x y. p(x, y))(a, b)", SIG_P))
    c2 = b.add_axiom_closure(step.premises[1], F("p(b, c)", SIG_P))
    nid = b.add_internal(step, (c1, c2))
    save("step_composition.tcp", b.graph(nid), SIG_P)


def chain2():
    goal = S("p(a, b), p(b, c) |- (rtc x y. p(x, y))(a, c)", SIG_P)
    b = GraphBuilder()
    outer = rule_instance(RuleId.RtcStep, goal,
                          principal=F("(rtc x y. p(x, y))(a, c)", SIG_P),
                          witness=Var("b"))
    inner = rule_instance(RuleId.RtcStep, outer.premises[0],
                          principal=F("(rtc x y. p(x, y))(a, b)", SIG_P),
                          witness=Var("a"))
    i1 = b.add_internal(rule_instance(
        RuleId.RtcRefl, inner.premises[0],
        principal=F("(rtc x y. p(x, y))(a, a)", SIG_P)))
    i2 = b.add_axiom_closure(inner.premises[1], F("p(a, b)", SIG_P))
    c1 = b.add_internal(inner, (i1, i2))
    c2 = b.add_axiom_closure(outer.premises[1], F("p(b, c)", SIG_P))
    nid = b.add_internal(outer, (c1, c2))
    save("chain2.tcp", b.graph(nid), SIG_P)


def eq_endpoints():
    goal = S("a = b |- (rtc x y. p(x, y))(a, b)", SIG_P)
    b = GraphBuilder()
    eql = rule_instance(RuleId.EqL1, goal, principal=F("a = b", SIG_P),
                        template=(F("(rtc x y. p(x, y))(a, h)", SIG_P), "h"))
    leaf = b.add_internal(rule_instance(
        RuleId.RtcRefl, eql.premises[0],
        principal=F("(rtc x y. p(x, y))(a, a)", SIG_P)))
    nid = b.add_internal(eql, (leaf,))
    save("eq_endpoints.tcp", b.graph(nid), SIG_P)


def and_context():
    goal = S("q(a) /\\ (rtc x y. p(x, y))(a, b) |- (rtc x y. p(x, y))(a, b)", SIG_PQ)
    b = GraphBuilder()
    al = rule_instance(RuleId.AndL, goal,
                       principal=F("q(a) /\\ (rtc x y. p(x, y))(a, b)", SIG_PQ))
    leaf = b.add_axiom_closure(al.premises[0], F("(rtc x y. p(x, y))(a, b)", SIG_PQ))
    nid = b.add_internal(al, (leaf,))
    save("and_context.tcp", b.graph(nid), SIG_PQ)


def forall_inst():
    goal = S("forall x. q(x) |- q(a)", SIG_QR)
    b = GraphBuilder()
    al = rule_instance(RuleId.AllL, goal, principal=F("forall x. q(x)", SIG_QR),
                       witness=Var("a"))
    leaf = b.add_axiom_closure(al.premises[0], F("q(a)", SIG_QR))
    nid = b.add_internal(al, (leaf,))
    save("forall_inst.tcp", b.graph(nid), SIG_QR)


def exists_intro():
    goal = S("q(a) |- exists x. q(x)", SIG_QR)
    b = GraphBuilder()
    ex = rule_instance(RuleId.ExR, goal, principal=F("exists x. q(x)", SIG_QR),
                       witness=Var("a"))
    leaf = b.add_axiom_closure(ex.premises[0], F("q(a)", SIG_QR))
    nid = b.add_internal(ex, (leaf,))
    save("exists_intro.tcp", b.graph(nid), SIG_QR)


def or_branch():
    goal = S("q(a) \\/ q(b) |- q(a), q(b)", SIG_QR)
    b = GraphBuilder()
    orl = rule_instance(RuleId.OrL, goal, principal=F("q(a) \\/ q(b)", SIG_QR))
    c1 = b.add_axiom_closure(orl.premises[0], F("q(a)", SIG_QR))
    c2 = b.add_axiom_closure(orl.premises[1], F("q(b)", SIG_QR))
    nid = b.add_internal(orl, (c1, c2))
    save("or_branch.tcp", b.graph(nid), SIG_QR)


def transitivity():
    goal = S("(rtc x y. p(x, y))(a, b), (rtc x y. p(x, y))(b, c)"
             " |- (rtc x y. p(x, y))(a, c)", SIG_P)
    out = prove(goal, SearchConfig(sig=SIG_P))
    assert isinstance(out, Proved)
    save("transitivity.tcp", out.graph, SIG_P)


def nat_p():
    th = load_theory("step")
    goal = S("p(0), (rtc x y. s(x) = y)(0, n) |- p(n)", th.signature)
    out = prove(goal, SearchConfig(sig=th.signature, theory=th.axioms))
    assert isinstance(out, Proved)
    save("nat_p.tcp", out.graph, th.signature, "step")


def _ind_extend_graph():
    """R(c,a), R(a,b) |- R(c,b) by explicit induction, theory-free."""
    sig = SIG_E
    goal = S("(rtc x y. e(x, y))(c, a), (rtc x y. e(x, y))(a, b)"
             " |- (rtc x y. e(x, y))(c, b)", sig)
    prin = F("(rtc x y. e(x, y))(a, b)", sig)
    psi = F("(rtc x y. e(x, y))(c, h)", sig)
    b = GraphBuilder()
    ind = rule_instance(RuleId.RtcInd, goal, principal=prin,
                        template=(psi, "h"), eigenvar="u", eigenvar2="v")
    prem = ind.premises[0]  # R(c,u), e(u,v) |- R(c,v)
    step = rule_instance(RuleId.RtcStep, prem,
                         principal=F("(rtc x y. e(x, y))(c, v)", sig),
                         witness=Var("u"))
    c1 = b.add_axiom_closure(step.premises[0], F("(rtc x y. e(x, y))(c, u)", sig))
    c2 = b.add_axiom_closure(step.premises[1], F("e(u, v)", sig))
    nstep = b.add_internal(step, (c1, c2))
    nid = b.add_internal(ind, (nstep,))
    return b.graph(nid), sig


def ind_extend():
    g, sig = _ind_extend_graph()
    save("ind_extend.tcp", g, sig)


def ind_step_theory():
    th = load_theory("indstep")
    sig = th.signature
    goal = S("p(a), (rtc x y. e(x, y))(a, b) |- p(b)", sig)
    b = GraphBuilder()
    ind = rule_instance(RuleId.RtcInd, goal,
                        principal=F("(rtc x y. e(x, y))(a, b)", sig),
                        template=(F("p(h)", sig), "h"),
                        eigenvar="u", eigenvar2="v")
    leaf = b.add_internal(rule_instance(RuleId.TheoryAxiom, ind.premises[0],
                                        theory=th.axioms))
    nid = b.add_internal(ind, (leaf,))
    save("ind_step_theory.tcp", b.graph(nid), sig, "indstep")


def ind_double():
    """Two explicit-induction instances under a conjunction."""
    sig = SIG_E
    R = "(rtc x y. e(x, y))"
    goal = S(f"{R}(c, a), {R}(a, b) |- {R}(c, b) /\\ {R}(c, b)", sig)
    conj = F(f"{R}(c, b) /\\ {R}(c, b)", sig)
    b = GraphBuilder()
    andr = rule_instance(RuleId.AndR, goal, principal=conj)
    kids = []
    for prem in andr.premises:
        sub, _ = _ind_extend_graph()
        assert sub.end_sequent() == prem
        base = max(b.nodes, default=-1) + 1 + len(b.nodes)
        # splice with fresh ids
        offset = b._next
        for old in sorted(sub.nodes):
            b.reserve()
        for old, node in sub.nodes.items():
            b.nodes[offset + old] = replace(
                node, children=tuple(offset + c for c in node.children),
                companion=None if node.companion is None else offset + node.companion)
        kids.append(offset + sub.root)
    nid = b.add_internal(andr, tuple(kids))
    save("ind_double.tcp", b.graph(nid), sig)


def two_loops():
    g, sig = None, SIG_E
    import rtcproof.prooffile as pfm
    with open(os.path.join(OUT, "ind_double.tcp"), encoding="utf-8") as fh:
        pf = pfm.parse_proof(fh.read())
    out = explicit_to_cyclic(pf.graph, pf.signature.constants)
    save("two_loops.tcp", out, pf.signature)


def bad_no_progress():
    sig = SIG_QR
    s0 = S("q(a), q(b) |- r(a)", sig)
    b = GraphBuilder()
    n0 = b.reserve()
    wl = rule_instance(RuleId.WL, s0, principal=F("q(b)", sig))
    sub = rule_instance(RuleId.Subst, wl.premises[0],
                        substitution=make_subst({"b": Var("a")}), source=s0)
    bud = b.add_bud(s0, n0)
    nsub = b.add_internal(sub, (bud,))
    b.fill_internal(n0, wl, (nsub,))
    save("bad_no_progress.tcp", b.graph(n0), sig)


def bad_rtc_no_progress():
    sig = SIG_P
    s0 = S("(rtc x y. p(x, y))(a, b), (rtc x y. p(x, y))(a, c) |-", sig)
    b = GraphBuilder()
    n0 = b.reserve()
    wl = rule_instance(RuleId.WL, s0, principal=F("(rtc x y. p(x, y))(a, c)", sig))
    sub = rule_instance(RuleId.Subst, wl.premises[0],
                        substitution=make_subst({"c": Var("b")}), source=s0)
    bud = b.add_bud(s0, n0)
    nsub = b.add_internal(sub, (bud,))
    b.fill_internal(n0, wl, (nsub,))
    save("bad_rtc_no_progress.tcp", b.graph(n0), sig)


def bad_subst_loop():
    sig = SIG_P
    s0 = S("(rtc x y. p(x, y))(a, b) |- (rtc x y. p(x, y))(b, a)", sig)
    b = GraphBuilder()
    n0 = b.reserve()
    sub = rule_instance(RuleId.Subst, s0, substitution=(), source=s0)
    bud = b.add_bud(s0, n0)
    b.fill_internal(n0, sub, (bud,))
    save("bad_subst_loop.tcp", b.graph(n0), sig)


def main():
    os.makedirs(OUT, exist_ok=True)
    refl()
    axiom_rtc()
    single_step()
    step_composition()
    chain2()
    eq_endpoints()
    and_context()
    forall_inst()
    exists_intro()
    or_branch()
    transitivity()
    nat_p()
    ind_extend()
    ind_step_theory()
    ind_double()
    two_loops()
    bad_no_progress()
    bad_rtc_no_progress()
    bad_subst_loop()
    print("corpus written to", os.path.abspath(OUT))


if __name__ == "__main__":
    main()
