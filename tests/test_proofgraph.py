import pytest

from rtcproof.errors import RtcError
from rtcproof.kernel import RuleId, make_subst, rule_instance
from rtcproof.prooffile import parse_proof
from rtcproof.proofgraph import (GraphBuilder, ProofGraph, ProofNode, renumber,
                                 validate_structure)
from rtcproof.syntax import (Rtc, Signature, Var, parse_formula, parse_sequent)
from rtcproof.tracecheck import edge_matrix

from conftest import ACCEPTED, REJECTED, load_corpus
from preproofs import diamond_proof

SIG = Signature.make(predicates={"p": 2, "q": 1, "r0": 0})


def F(text):
    return parse_formula(text, SIG)


def S(text):
    return parse_sequent(text, SIG)


def tiny_graph():
    """q(a) /\\ q(b) |- q(a) via AndL + axiom closure."""
    b = GraphBuilder()
    goal = S("q(a) /\\ q(b) |- q(a)")
    al = rule_instance(RuleId.AndL, goal, principal=F("q(a) /\\ q(b)"))
    leaf = b.add_axiom_closure(al.premises[0], F("q(a)"))
    root = b.add_internal(al, (leaf,))
    return b.graph(root)


class TestValidate:
    def test_corpus_all_validate(self, corpus_graphs):
        for name in ACCEPTED + REJECTED:
            g, sig, theory = corpus_graphs[name]
            assert validate_structure(g, theory, sig) == [], name

    def test_bud_mismatch(self):
        # bud sequent differs from its companion's by a free variable
        b = GraphBuilder()
        n0 = b.reserve()
        s0 = S("q(a), q(b) |- r0")
        wl = rule_instance(RuleId.WL, s0, principal=F("q(b)"))
        sub = rule_instance(RuleId.Subst, wl.premises[0],
                            substitution=make_subst({"b": Var("a")}), source=s0)
        bud = b.add_bud(s0, n0)
        nsub = b.add_internal(sub, (bud,))
        b.fill_internal(n0, wl, (nsub,))
        g = b.graph(n0)
        assert validate_structure(g) == []
        # now forge the bud's sequent
        g.nodes[bud] = ProofNode(S("q(a), q(w) |- r0"), companion=n0)
        kinds = {e.kind for e in validate_structure(g)}
        assert "BudMismatch" in kinds

    def test_bad_premise_link(self):
        g = tiny_graph()
        # point the root at the wrong child
        root = g.nodes[g.root]
        leafs = [i for i, n in g.nodes.items() if n.rule and not n.children]
        bad = ProofGraph(dict(g.nodes), g.root)
        bad.nodes[g.root] = ProofNode(root.sequent, root.rule, root.params, (g.root + 100,))
        errs = validate_structure(bad)
        assert any(e.kind == "BadPremiseLink" for e in errs)

    def test_child_sequent_disagrees(self):
        g = tiny_graph()
        nodes = dict(g.nodes)
        root = nodes[g.root]
        child = root.children[0]
        old = nodes[child]
        nodes[child] = ProofNode(S("q(b) |- q(a)"), old.rule, old.params, old.children)
        errs = validate_structure(ProofGraph(nodes, g.root))
        assert any(e.kind == "KernelError" and e.node == g.root for e in errs)

    def test_unreachable(self):
        g = tiny_graph()
        nodes = dict(g.nodes)
        extra = max(nodes) + 1
        nodes[extra] = ProofNode(S("q(a) |- q(a)"), RuleId.Axiom)
        errs = validate_structure(ProofGraph(nodes, g.root))
        assert [e.kind for e in errs] == ["UnreachableNode"]
        assert errs[0].node == extra

    def test_kernel_error_reported(self):
        goal = S("q(a) /\\ q(b) |- q(b)")
        al = rule_instance(RuleId.AndL, goal, principal=F("q(a) /\\ q(b)"))
        b = GraphBuilder()
        leaf = b.add_axiom_closure(al.premises[0], F("q(b)"))
        bad_rule = rule_instance(RuleId.AndL, goal, principal=F("q(a) /\\ q(b)"))
        # corrupt: claim OrL instead
        from rtcproof.kernel import RuleInstance
        forged = RuleInstance(RuleId.OrL, bad_rule.conclusion, bad_rule.premises,
                              bad_rule.params)
        root = b.add_internal(forged, (leaf,))
        errs = validate_structure(b.graph(root))
        assert any(e.kind == "KernelError" for e in errs)

    def test_bud_with_children(self):
        # the text format cannot give a bud premises; a graph built in code
        # can: here an axiom below the bud of a WL / Subst cycle
        b = GraphBuilder()
        n0 = b.reserve()
        s0 = S("q(a), q(b) |- r0")
        wl = rule_instance(RuleId.WL, s0, principal=F("q(b)"))
        sub = rule_instance(RuleId.Subst, wl.premises[0],
                            substitution=make_subst({"b": Var("a")}), source=s0)
        bud = b.add_bud(s0, n0)
        b.fill_internal(n0, wl, (b.add_internal(sub, (bud,)),))
        axiom = b.add_internal(rule_instance(RuleId.Axiom, S("q(a) |- q(a)")))
        g = b.graph(n0)
        g.nodes[bud] = ProofNode(s0, companion=n0, children=(axiom,))
        assert [str(e) for e in validate_structure(g, (), SIG)] == [
            f"BadPremiseLink at node {bud}: bud has children"]

    def test_premise_cycle_rejected(self):
        s = S("q(a) |- q(a)")
        ax = rule_instance(RuleId.Axiom, s)
        from rtcproof.kernel import RuleInstance
        loop = RuleInstance(RuleId.WL, s, (s,), ax.params)
        g = ProofGraph({0: ProofNode(s, loop.rule, loop.params, (0,))}, 0)
        errs = validate_structure(g)
        assert any("cycle" in e.detail for e in errs)


class TestTraceSteps:
    # the trace pairs across one edge, as `tracecheck.edge_matrix` keys them
    def test_rtccase_progressing(self):
        concl = S("(rtc x y. p(x, y))(a, b), (rtc x y. p(x, y))(d, e0) |- r0")
        prin = F("(rtc x y. p(x, y))(a, b)")
        r = rule_instance(RuleId.RtcCase, concl, principal=prin, eigenvar="z")
        ancestor = Rtc("x", "y", prin.body, Var("a"), Var("z"))
        ctx = F("(rtc x y. p(x, y))(d, e0)").key()
        # the principal progresses to its immediate ancestor, and the
        # context closure formula follows identically
        assert edge_matrix(r, 1).d == {(prin.key(), ancestor.key()): True,
                                       (ctx, ctx): False}
        # premise 0 carries identity pairs only
        assert edge_matrix(r, 0).d == {(ctx, ctx): False}

    def test_weakening_identity(self):
        concl = S("(rtc x y. p(x, y))(a, b), q(a) |- r0")
        r = rule_instance(RuleId.WL, concl, principal=F("q(a)"))
        k = F("(rtc x y. p(x, y))(a, b)").key()
        assert edge_matrix(r, 0).d == {(k, k): False}

    def test_subst_theta(self):
        src = S("(rtc u v. p(u, v))(x, w) |- r0")
        theta = make_subst({"x": Var("a")})
        concl = src.substituted(dict(theta))
        r = rule_instance(RuleId.Subst, concl, substitution=theta, source=src)
        assert edge_matrix(r, 0).d == {
            (F("(rtc u v. p(u, v))(a, w)").key(),
             parse_formula("(rtc u v. p(u, v))(x, w)", SIG).key()): False}


def test_unfold_expands_each_node_once():
    # 2^17 paths through the diamonds, but each node is expanded once: the
    # walk yields the root plus one leaf or node per premise link, and a
    # node's first yield follows its children's
    g = parse_proof(diamond_proof(17)).graph
    order = list(g.unfold())
    assert len(order) == 1 + sum(len(n.children) for n in g.nodes.values())
    first = {}
    for i, nid in enumerate(order):
        first.setdefault(nid, i)
    assert sorted(first) == sorted(g.nodes)
    for nid, node in g.nodes.items():
        assert all(first[c] < first[nid] for c in node.children), nid


def test_unfold_missing_node():
    # a premise link to a node that is not in the graph
    s = S("q(a) |- q(a)")
    g = ProofGraph({0: ProofNode(s, RuleId.WL, children=(7,))}, 0)
    with pytest.raises(RtcError, match="^node 7 does not exist$"):
        list(g.unfold())


class TestRenumber:
    def test_preorder_stable(self, corpus_graphs):
        for name in ACCEPTED:
            g, sig, theory = corpus_graphs[name]
            r = renumber(g)
            assert r.root == 0
            assert sorted(r.nodes) == list(range(len(g.nodes)))
            assert renumber(r).nodes.keys() == r.nodes.keys()
            assert validate_structure(r, theory, sig) == []

    def test_long_chain_no_recursion_limit(self):
        # a linear Subst chain far deeper than the interpreter's recursion limit
        b = GraphBuilder()
        cur = S("q(x0) |- q(x0)")
        nid = b.add_internal(rule_instance(RuleId.Axiom, cur))
        for i in range(1, 1200):
            theta = make_subst({f"x{i - 1}": Var(f"x{i}")})
            sub = rule_instance(RuleId.Subst, cur.substituted(dict(theta)),
                                substitution=theta, source=cur)
            nid = b.add_internal(sub, (nid,))
            cur = sub.conclusion
        g = b.graph(nid)
        assert validate_structure(g, (), SIG) == []
        r = renumber(g)
        assert r.root == 0 and r.nodes[1199].rule is RuleId.Axiom
        assert validate_structure(r, (), SIG) == []
