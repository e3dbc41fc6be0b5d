import itertools
import time

import pytest

from rtcproof.errors import (FreshnessViolation, NotApplicable, RtcError,
                             SignatureMismatch)
from rtcproof.kernel import RuleId, RuleInstance, RuleParams, rule_instance
from rtcproof.proofgraph import (GraphBuilder, ProofGraph, ProofNode,
                                 validate_structure)
from rtcproof.cli import main
from rtcproof.prooffile import parse_proof
from rtcproof.syntax import (And, App, Const, Eq, Exists, Forall, Implies,
                             Not, Or, Pred, Sequent, Signature, Var,
                             free_vars, parse_formula, parse_sequent, pretty)
from rtcproof.tracecheck import (check_global_trace_condition,
                                 enumerate_basic_cycles, is_non_overlapping)
from rtcproof.translate import (ARITH_SIGNATURE, BetaConfig, beta_translate,
                                derive_induction, explicit_to_cyclic)

from conftest import INDUCTION_PROOFS, corpus_path, load_corpus

SIG = Signature.make(predicates={"E": 2, "p": 1})


def F(text, sig=SIG):
    return parse_formula(text, sig)


STEP = "p(x), E(x, y) |- p(y)"


def build_induction(step_text=STEP, gamma=(), x="x"):
    """The graph that derive_induction builds, on a theory-axiom leaf for
    step_text, for an unchecked RtcInd instance: conclusion gamma, p(a),
    (rtc x y. E(x, y))(a, b) |- p(b), template p(x), step variables `x`
    and y, premise STEP; the leaf's id; step_text as a sequent."""
    step_ax = parse_sequent(step_text, SIG)
    b = GraphBuilder()
    leaf = b.add_internal(rule_instance(RuleId.TheoryAxiom, step_ax,
                                        theory=(step_ax,)))
    rtc = F("(rtc x y. E(x, y))(a, b)")
    concl = Sequent(gamma + (F("p(a)"), rtc), (F("p(b)"),))
    ind = RuleInstance(RuleId.RtcInd, concl, (parse_sequent(STEP, SIG),),
                       RuleParams(principal=rtc, template=(F("p(x)"), "x"),
                                  eigenvar=x, eigenvar2="y"))
    root = derive_induction(b, ind, leaf)
    return b.graph(root), leaf, step_ax


class TestDeriveInduction:
    def test_root_and_step_sequents(self):
        g, leaf, _ = build_induction()
        assert g.end_sequent() == parse_sequent(
            "p(a), (rtc x y. E(x, y))(a, b) |- p(b)", SIG)
        (parent,) = [n for n in g.nodes.values() if leaf in n.children]
        assert parent.rule is RuleId.Subst
        assert parent.params.source == parse_sequent(STEP, SIG)

    def test_built_proof_accepted(self):
        g, _, step_ax = build_induction()
        assert validate_structure(g, (step_ax,), SIG) == []
        assert check_global_trace_condition(g).accepted
        assert len(enumerate_basic_cycles(g)) == 1
        assert is_non_overlapping(g)

    def test_cycle_progresses_once_per_loop(self):
        from rtcproof.tracecheck import flow_edges
        g, _, _ = build_induction()
        (cycle,) = enumerate_basic_cycles(g)
        edges = {(e.src, e.dst): e.matrix for e in flow_edges(g)}
        mat = None
        for a, bn in zip(cycle, cycle[1:] + cycle[:1]):
            m = edges[(a, bn)]
            mat = m if mat is None else mat.compose(m)
        assert mat.has_progressing_diagonal()

    def test_freshness_errors(self):
        with pytest.raises(FreshnessViolation):
            build_induction(gamma=(F("p(u)"),), x="u")

    def test_rejects_step_of_another_sequent(self):
        with pytest.raises(NotApplicable, match="step node concludes"):
            build_induction("p(y), E(x, y) |- p(x)")


class TestExplicitToCyclic:
    @pytest.mark.parametrize("name", INDUCTION_PROOFS)
    def test_corpus_induction_proofs(self, name, corpus_graphs):
        g, sig, theory = corpus_graphs[name]
        n_ind = sum(1 for nid in g.internal_ids()
                    if g.nodes[nid].rule is RuleId.RtcInd)
        out = explicit_to_cyclic(g)
        assert validate_structure(out, theory, sig) == [], name
        assert all(out.nodes[nid].rule is not RuleId.RtcInd
                   for nid in out.internal_ids())
        assert check_global_trace_condition(out).accepted
        assert is_non_overlapping(out)
        assert len(enumerate_basic_cycles(out)) == n_ind
        assert out.end_sequent() == g.end_sequent()

    def test_ind_free_is_isomorphic(self, corpus_graphs):
        from rtcproof.proofgraph import renumber
        g = corpus_graphs["refl.tcp"][0]
        out = explicit_to_cyclic(g)
        a, b = renumber(g), renumber(out)
        assert a.root == b.root
        assert {i: (n.sequent, n.children, n.companion) for i, n in a.nodes.items()} \
            == {i: (n.sequent, n.children, n.companion) for i, n in b.nodes.items()}

    def test_rejects_buds(self, corpus_graphs):
        g = corpus_graphs["transitivity.tcp"][0]
        with pytest.raises(NotApplicable):
            explicit_to_cyclic(g)

    def test_rejects_premise_cycle(self):
        # a WL whose premise is itself has no bud, but its unfolding never ends
        seq = parse_sequent("p(a), p(b) |- p(a)", SIG)
        g = ProofGraph({0: ProofNode(seq, RuleId.WL, RuleParams(principal=F("p(b)")),
                                     (0,))}, 0)
        with pytest.raises(RtcError, match="premise links through node 0 form a cycle"):
            explicit_to_cyclic(g)

    def test_shared_premises_translated_once(self, tmp_path, capsys):
        # 29 Cuts, each listing the next node as both premises: a tree
        # unfolding of 2^30 - 1 nodes, which the translation must not build
        lines = ["tcp 1", "sig pred q/1", "theory -", "root 0"]
        lines += [f"node {j} : q(a) |- q(a) ; rule=Cut ; params={{cut=(q(a))}}"
                  f" ; premises=[{j + 1}, {j + 1}]" for j in range(29)]
        lines.append("node 29 : q(a) |- q(a) ; rule=Axiom ; params={} ; premises=[]")
        path, out = tmp_path / "chain.tcp", tmp_path / "translated.tcp"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        start = time.perf_counter()
        assert main(["translate-ind", str(path), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 1
        assert len(parse_proof(out.read_text(encoding="utf-8")).graph.nodes) <= 60
        assert main(["check", str(out)]) == 0
        assert capsys.readouterr().out == "accepted; 0 basic cycles; normal\n"

    def test_shared_induction_node_gives_one_cycle(self):
        # ind_extend.tcp's RtcInd root, reached from a Cut both directly and
        # through a WL, is replaced once
        with open(corpus_path("ind_extend.tcp"), encoding="utf-8") as fh:
            text = fh.read()
        seq = "(rtc x y. e(x, y))(a, b), (rtc x y. e(x, y))(c, a) |- (rtc x y. e(x, y))(c, b)"
        text = text.replace("root 0", "root 10") + (
            f"node 10 : {seq} ; rule=Cut ; params={{cut=((rtc x y. e(x, y))(c, b))}}"
            " ; premises=[0, 11]\n"
            f"node 11 : (rtc x y. e(x, y))(c, b), {seq} ; rule=WL"
            " ; params={principal=((rtc x y. e(x, y))(c, b))} ; premises=[0]\n")
        pf = parse_proof(text)
        assert validate_structure(pf.graph, (), pf.signature) == []
        out = explicit_to_cyclic(pf.graph)
        assert validate_structure(out, (), pf.signature) == []
        assert check_global_trace_condition(out).accepted
        assert len(enumerate_basic_cycles(out)) == 1
        assert len(out.nodes) < 2 * len(explicit_to_cyclic(load_corpus("ind_extend.tcp")[0]).nodes)


GOLDEN_LEQ = ("a = b \\/ (exists z. exists c. beta(c, 0, a) /\\ beta(c, s(z), b)"
              " /\\ (forall u. u = z \\/ lt(u, z) -> exists v. exists w."
              " beta(c, u, v) /\\ beta(c, s(u), w) /\\ s(v) = w))")


class TestBetaTranslate:
    def test_atomic_unchanged(self):
        f = parse_formula("add(a, 0) = a", ARITH_SIGNATURE)
        assert beta_translate(f) == f

    def test_golden_leq_encoding(self):
        f = parse_formula("(rtc w u. s(w) = u)(a, b)", ARITH_SIGNATURE)
        assert pretty(beta_translate(f)) == GOLDEN_LEQ

    def test_rtc_free_and_fv_preserving(self):
        sig = ARITH_SIGNATURE.merge(Signature.make(predicates={"even": 1}))
        cases = [
            "(rtc w u. s(w) = u)(a, b)",
            "(rtc x y. s(x) = y \\/ s(s(x)) = y)(0, n)",
            "forall n. even(n) -> (rtc x y. s(s(x)) = y)(0, n)",
            "(rtc x y. (rtc w u. s(w) = u)(x, y))(0, n)",
        ]
        for text in cases:
            f = parse_formula(text, sig)
            out = beta_translate(f)
            assert "rtc" not in pretty(out)
            assert free_vars(out) == free_vars(f)

    def test_tc_mode_guard(self):
        f = parse_formula("(rtc w u. s(w) = u)(a, b)", ARITH_SIGNATURE)
        out = pretty(beta_translate(f, mode="tc"))
        assert "lt(" not in out
        assert "(rtc" in out  # ordering guard stays in closure form

    def test_nested_inner_first(self):
        f = parse_formula("(rtc x y. (rtc w u. s(w) = u)(x, y))(0, n)",
                          ARITH_SIGNATURE)
        out = beta_translate(f)
        assert "rtc" not in pretty(out)

    def test_signature_checked(self):
        sig = Signature.make(constants={"k"}, functions={"f": 1})
        f = parse_formula("f(k) = k", sig)
        with pytest.raises(SignatureMismatch):
            beta_translate(f)
        with pytest.raises(SignatureMismatch, match="constant 'k' outside"):
            beta_translate(parse_formula("k = 0", sig))
        with pytest.raises(ValueError, match="unknown beta translation mode 'pb'"):
            beta_translate(parse_formula("0 = 0", sig), mode="pb")

    def test_custom_template_validated(self):
        with pytest.raises(SignatureMismatch):
            BetaConfig(parse_formula("beta(c, i, i)",
                                     Signature.make(predicates={"beta": 3})))

    def test_executable_beta_instances(self):
        # bounded semantic check over the naturals with a concrete base-3
        # digit-extraction beta: the translation of the ordering encoding
        # agrees with <= on small instances
        BASE = 3

        def nat_eval(f, v, bounds):
            match f:
                case Pred("beta", (c, i, k)):
                    return (_t(c, v) // BASE ** _t(i, v)) % BASE == _t(k, v)
                case Pred("lt", (a, b)):
                    return _t(a, v) < _t(b, v)
                case Eq(l, r):
                    return _t(l, v) == _t(r, v)
                case Not(s):
                    return not nat_eval(s, v, bounds)
                case And(l, r):
                    return nat_eval(l, v, bounds) and nat_eval(r, v, bounds)
                case Or(l, r):
                    return nat_eval(l, v, bounds) or nat_eval(r, v, bounds)
                case Implies(l, r):
                    return (not nat_eval(l, v, bounds)) or nat_eval(r, v, bounds)
                case Exists(x, b):
                    return any(nat_eval(b, {**v, x: a}, bounds)
                               for a in range(bounds.get(x, bounds["_"])))
                case Forall(x, b):
                    return all(nat_eval(b, {**v, x: a}, bounds)
                               for a in range(bounds.get(x, bounds["_"])))
            raise AssertionError(f"unexpected formula {f}")

        def _t(t, v):
            match t:
                case Var(name):
                    return v[name]
                case Const("0"):
                    return 0
                case App("s", (a,)):
                    return _t(a, v) + 1
                case App("add", (a, b)):
                    return _t(a, v) + _t(b, v)
            raise AssertionError(f"unexpected term {t}")

        leq = parse_formula("(rtc w u. s(w) = u)(a, b)", ARITH_SIGNATURE)
        out = beta_translate(leq)
        # per-variable witness bounds: sequence codes need up to 3^3;
        # positions and chain values stay below 4
        bounds = {"c": BASE ** 3, "_": 4}
        for a, b in itertools.product(range(3), repeat=2):
            expect = a <= b
            assert nat_eval(out, {"a": a, "b": b}, bounds) == expect, (a, b)

