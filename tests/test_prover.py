import itertools

import pytest

from rtcproof import prover
from rtcproof.errors import BudgetExceeded
from rtcproof.kernel import RuleId, make_subst, rule_instance
from rtcproof.prooffile import ProofFile, load_theory, parse_proof, serialize_proof
from rtcproof.proofgraph import ProofGraph, ProofNode, validate_structure, weakenings
from rtcproof.prover import (Plan, Proved, Refuted, SearchConfig, Unknown, _search,
                             _term_pool, _weaken_plan, assemble, prove)
from rtcproof.semantics import find_counter_model
from rtcproof.syntax import Sequent, Signature, Var, parse_sequent
from rtcproof.tracecheck import (check_global_trace_condition,
                                 enumerate_basic_cycles, is_non_overlapping)

from oracles import expand_fair, invalidates, search_unpruned

SIG = Signature.make(predicates={"p": 2, "q": 1, "E": 2})


def S(text, sig=SIG):
    return parse_sequent(text, sig)


TRANS = ("(rtc x y. p(x, y))(a, b), (rtc x y. p(x, y))(b, c)"
         " |- (rtc x y. p(x, y))(a, c)")


class TestProve:
    def test_refl_one_node(self):
        out = prove(S("|- (rtc x y. p(x, y))(t, t)"), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        assert len(out.graph.nodes) == 1
        assert out.graph.nodes[0].rule is RuleId.RtcRefl

    def test_transitivity_cyclic(self):
        out = prove(S(TRANS), SearchConfig(sig=SIG, max_depth=12))
        assert isinstance(out, Proved)
        g = out.graph
        assert validate_structure(g, (), SIG) == []
        assert check_global_trace_condition(g).accepted
        assert len(enumerate_basic_cycles(g)) == 1
        assert is_non_overlapping(g)
        # soundness spot-check: no small counter-model for the goal
        assert find_counter_model(S(TRANS), 3, (), SIG) is None

    def test_refuted_uninterpreted(self):
        out = prove(S("|- (rtc x y. E(x, y))(a, b)"), SearchConfig(sig=SIG))
        assert isinstance(out, Refuted)
        assert out.model.domain_size == 2
        assert invalidates(out.model, out.valuation,
                           S("|- (rtc x y. E(x, y))(a, b)"))

    def test_empty_succedent_refuted(self):
        out = prove(S("(rtc x y. p(x, y))(a, a) |- "), SearchConfig(sig=SIG))
        assert isinstance(out, Refuted)
        assert out.model.domain_size == 1

    def test_nat_with_theory(self):
        th = load_theory("step")
        goal = parse_sequent("p(0), (rtc x y. s(x) = y)(0, n) |- p(n)",
                             th.signature)
        out = prove(goal, SearchConfig(sig=th.signature, theory=th.axioms))
        assert isinstance(out, Proved)
        assert any(n.rule is RuleId.TheoryAxiom
                   for n in out.graph.nodes.values())
        assert any(n.rule is RuleId.Cut
                   for n in out.graph.nodes.values())

    def test_unknown_on_tiny_budget(self):
        out = prove(S(TRANS), SearchConfig(sig=SIG, max_depth=12, max_nodes=5,
                                           refute_size=0))
        assert isinstance(out, Unknown)
        assert out.reason == "budget"

    def test_unknown_on_depth(self):
        out = prove(S("q(a) |- q(b)", SIG),
                    SearchConfig(sig=SIG, max_depth=2, refute_size=0))
        assert isinstance(out, Unknown)
        assert out.reason == "depth"

    def test_propositional(self):
        out = prove(S("q(a) /\\ q(b) |- q(b) /\\ q(a)"), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        out2 = prove(S("q(a) \\/ q(b) |- q(b) \\/ q(a)"), SearchConfig(sig=SIG))
        assert isinstance(out2, Proved)
        out3 = prove(S("|- q(a) -> q(a) \\/ q(b)"), SearchConfig(sig=SIG))
        assert isinstance(out3, Proved)

    def test_quantifiers(self):
        out = prove(S("forall x. q(x) |- q(a)"), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        out2 = prove(S("q(a) |- exists x. q(x)"), SearchConfig(sig=SIG))
        assert isinstance(out2, Proved)
        out3 = prove(S("exists x. q(x) |- forall x. q(x)"), SearchConfig(sig=SIG))
        assert isinstance(out3, Refuted)

    def test_equality_rewriting(self):
        out = prove(S("a = b, q(a) |- q(b)"), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        out2 = prove(S("a = b |- (rtc x y. p(x, y))(a, b)"), SearchConfig(sig=SIG))
        assert isinstance(out2, Proved)

    @pytest.mark.parametrize("x", ["x", "_h0"])
    def test_equality_rewrite_hole_apart_from_binders(self, x):
        """The EqL hole is named apart from bound names too, so a binder
        named like the hole does not block the direct rewrite."""
        goal = (f"a = b, (rtc {x} y. p({x}, y) /\\ q(a))(c, d)"
                f" |- (rtc {x} y. p({x}, y) /\\ q(b))(c, d)")
        out = prove(S(goal), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        assert len(out.graph.nodes) == 2
        assert out.graph.nodes[0].rule is RuleId.EqL1


class TestRecheck:
    def test_invalid_graph_is_refused(self, monkeypatch):
        # a graph the kernel refuses is a prover bug
        bad = ProofGraph({0: ProofNode(S(TRANS), RuleId.Axiom)}, 0)
        monkeypatch.setattr(prover, "assemble", lambda plan: bad)
        with pytest.raises(AssertionError,
                           match="prover built an invalid graph: KernelError at node 0: Axiom"):
            prove(S(TRANS), SearchConfig(sig=SIG))

    def test_proof_of_another_sequent_is_refused(self, monkeypatch):
        # a valid proof whose root is not the goal is a prover bug
        other = prove(S("|- (rtc x y. p(x, y))(t, t)"), SearchConfig(sig=SIG)).graph
        monkeypatch.setattr(prover, "assemble", lambda plan: other)
        with pytest.raises(AssertionError, match="prover built a proof of"):
            prove(S(TRANS), SearchConfig(sig=SIG))

    def test_model_search_over_budget_leaves_the_proof(self, monkeypatch):
        # the interleaved model search running out of budget is no verdict
        want = serialize_proof(ProofFile(prove(S(TRANS), SearchConfig(sig=SIG)).graph, SIG))
        calls = []

        def over_budget(*args, **kwargs):
            calls.append(args[1])
            raise BudgetExceeded("planted")
        monkeypatch.setattr(prover, "find_counter_model", over_budget)
        out = prove(S(TRANS), SearchConfig(sig=SIG))
        assert isinstance(out, Proved)
        assert serialize_proof(ProofFile(out.graph, SIG)) == want
        assert calls == [1]  # the proof is found at depth 2


class TestDeterminism:
    def test_identical_outcome_and_serialization(self):
        cfg = SearchConfig(sig=SIG, max_depth=12)
        a = prove(S(TRANS), cfg)
        b = prove(S(TRANS), SearchConfig(sig=SIG, max_depth=12))
        ta = serialize_proof(ProofFile(a.graph, SIG, None))
        tb = serialize_proof(ProofFile(b.graph, SIG, None))
        assert ta == tb

    def test_check_after_search_roundtrip(self):
        out = prove(S(TRANS), SearchConfig(sig=SIG))
        text = serialize_proof(ProofFile(out.graph, SIG, None))
        pf = parse_proof(text)
        assert validate_structure(pf.graph, (), pf.signature) == []
        assert check_global_trace_condition(pf.graph).accepted
        assert serialize_proof(pf) == text


class TestExpandFair:
    def test_invertible_before_witness(self):
        seq = S("q(a) /\\ q(b), forall x. q(x) |- q(d)")
        rules = [r for r, _ in expand_fair(seq, SearchConfig(sig=SIG))]
        assert rules.index(RuleId.AndL) < rules.index(RuleId.AllL)

    def test_rtccase_proposed_with_fresh_eigenvar(self):
        seq = S("(rtc x y. p(x, y))(a, b) |- q(d)")
        pairs = expand_fair(seq, SearchConfig(sig=SIG))
        cases = [p for r, p in pairs if r is RuleId.RtcCase]
        assert cases and all(p.eigenvar not in seq.free_vars() for p in cases)

    def test_refl_first_when_endpoints_equal(self):
        seq = S("q(a) |- (rtc x y. p(x, y))(t, t)")
        rules = [r for r, _ in expand_fair(seq, SearchConfig(sig=SIG))]
        assert rules[0] is RuleId.RtcRefl

    def test_every_witness_pair_proposed(self):
        seq = S("forall x. q(x) |- (rtc x y. p(x, y))(a, b), exists y. q(y)")
        pairs = expand_fair(seq, SearchConfig(sig=SIG))
        pool = _term_pool(seq, SearchConfig(sig=SIG))
        for rid, want in ((RuleId.AllL, len(pool)), (RuleId.ExR, len(pool)),
                          (RuleId.RtcStep, len(pool))):
            got = [p.witness for r, p in pairs if r is rid]
            assert len(got) == want, rid
        # round-robin: consecutive witness moves cycle through the rules
        witness_rules = [r for r, _ in pairs
                         if r in (RuleId.AllL, RuleId.ExR, RuleId.RtcStep)]
        first_three = witness_rules[:3]
        assert len(set(first_three)) == 3

    def test_invented_names_avoid_constants(self):
        # a name the prover invents is read back from its proof file as a
        # constant when the signature declares one so
        sig = SIG.merge(Signature.make(constants={"_v0", "_h0"}))
        seq = S("a = b, (rtc x y. p(x, y))(a, b) |- forall z. q(z), exists z. q(z), q(b)", sig)
        pairs = expand_fair(seq, SearchConfig(sig=sig))
        eigen = {p.eigenvar for r, p in pairs if r in (RuleId.RtcCase, RuleId.AllR)}
        holes = {p.template[1] for r, p in pairs if r in (RuleId.EqL1, RuleId.EqL2)}
        fresh = _term_pool(seq, SearchConfig(sig=sig))[-1]
        assert (eigen, holes, fresh) == ({"_v1"}, {"_h1"}, Var("_v1"))

    @pytest.mark.parametrize("goal", ["|- forall x. (q(x) -> q(x))", "a = b, q(a) |- q(b)"])
    def test_proof_with_invented_names_checks(self, goal):
        sig = SIG.merge(Signature.make(constants={"_v0", "_h0"}))
        out = prove(S(goal, sig), SearchConfig(sig=sig))
        pf = parse_proof(serialize_proof(ProofFile(out.graph, sig, None)))
        assert validate_structure(pf.graph, (), pf.signature) == []

    def test_axioms_first(self):
        seq = S("q(a), q(b) |- q(a)")
        rules = [r for r, _ in expand_fair(seq, SearchConfig(sig=SIG))]
        assert rules[0] is RuleId.Axiom

    def test_theory_cut_needs_its_formula_bound(self):
        # matching the rest of the axiom against p(a) |- r(a) binds x; a
        # missing formula with a variable left unbound is not cut in
        sig = Signature.make(predicates={"p": 1, "q": 1, "r": 1})
        seq = S("p(a) |- r(a)", sig)

        def cuts(axiom):
            cfg = SearchConfig(sig=sig, theory=(S(axiom, sig),))
            return [str(p.cut_formula) for r, p in expand_fair(seq, cfg) if r is RuleId.Cut]

        assert cuts("p(x), q(x) |- r(x)") == ["q(a)"]
        assert cuts("p(x), q(y) |- r(x)") == []


R = "(rtc x y. p(x, y))"
# (theory, goal): valid and invalid goals whose searches to depth 3 reach
# closures, buds against progressing and non-progressing paths, every rule
# family, subgoals that fail outright and theory cuts
EXACT = [(None, g) for g in (
    TRANS, f"{R}(a, b) /\\ {R}(b, c) |- {R}(a, c)", f"{R}(a, b) |- (rtc x y. p(y, x))(b, a)",
    f"p(a, b) |- {R}(a, b)", f"p(a, b), p(b, c) |- {R}(a, c)",
    f"p(a, b), p(b, c), p(c, d), p(d, e) |- {R}(a, e)", f"{R}(a, b), p(b, c) |- {R}(a, c)",
    f"p(a, b), {R}(b, c) |- {R}(a, c)", f"|- {R}(t, t)", "q(a) /\\ q(b) |- q(b) /\\ q(a)",
    "q(a) \\/ q(b), q(a) -> E(a, a), q(b) -> E(a, a) |- E(a, a)", "forall x. q(x) |- q(a)",
    "forall x. (q(x) -> E(x, x)), q(a) |- exists y. E(y, y)", "a = b, q(a) |- q(b)",
    "a = b, b = c |- a = c", f"a = b |- {R}(a, b)", f"{R}(a, b) |- {R}(b, a)",
    "q(a) |- q(b)", f"{R}(a, b), {R}(b, c) |- p(a, c)", "|- (rtc x y. E(x, y))(a, b)",
    "exists x. q(x) |- forall x. q(x)", f"{R}(a, b), ~(a = b) |- p(a, b)", f"{R}(a, a) |- ",
)] + [("step", "p(0), (rtc x y. s(x) = y)(0, n) |- p(n)"),
      ("indstep", "p(a), (rtc x y. e(x, y))(a, b) |- p(b)")]


@pytest.mark.parametrize("theory, goal", EXACT)
def test_search_matches_unpruned(theory, goal):
    """The cut-offs drop only moves and searches that yield no plan."""
    th = load_theory(theory) if theory else None
    sig = th.signature if th else SIG
    cfg = SearchConfig(sig=sig, theory=th.axioms if th else ())
    seq = parse_sequent(goal, sig)

    def text(plan):
        return serialize_proof(ProofFile(assemble(plan), sig, theory))

    for depth in (1, 2, 3):
        got = [text(p) for p in _search(seq, depth, (), cfg, itertools.count(1))]
        want = [text(p) for p in search_unpruned(seq, depth, (), cfg)]
        assert got == want, depth


def test_bud_companion_is_the_search_node_at_its_depth():
    """A bud names its companion by depth: the search nodes of its path are
    counted, and the weakening and Subst steps between them are not.  Search
    nodes 1 and 2 have the same sequent, and a bud below both names each."""
    t, s1, s0 = S("q(x) |- p(x, x)"), S("q(a) |- p(a, a)"), S("q(b), q(a) |- p(a, a)")

    def cut(seq, f, right, left=None):
        """A search node cutting on f, which seq already has on the left:
        its right premise is seq again, and its left one an axiom on f
        unless `left` is given."""
        inst = rule_instance(RuleId.Cut, seq, cut_formula=f)
        if left is None:
            left = Plan(rule_instance(RuleId.Axiom, Sequent((f,), (f,))))
        return Plan(inst, (_weaken_plan(inst.premises[0], left), right), node=True)

    q_x, q_a = t.antecedent[0], s1.antecedent[0]
    node2 = cut(t, q_x, Plan(None, (), 1, t), left=Plan(None, (), 2, t))
    node1 = cut(t, q_x, node2)
    subst = Plan(rule_instance(RuleId.Subst, s1, substitution=make_subst({"x": Var("a")}),
                               source=t), (node1,))
    (wl,) = weakenings(s1, s0)
    node0 = cut(s0, q_a, Plan(wl, (subst,)))
    g = assemble(node0)
    assert validate_structure(g) == []
    cuts = [nid for nid, n in sorted(g.nodes.items()) if n.rule is RuleId.Cut]
    buds = {nid: n.companion for nid, n in g.nodes.items() if n.is_bud}
    assert cuts == [0, 6, 9] and buds == {11: 9, 12: 6}
