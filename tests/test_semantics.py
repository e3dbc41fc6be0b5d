import itertools
import random
import time

import pytest

from rtcproof.errors import (BudgetExceeded, NotApplicable, SignatureMismatch,
                             UnboundVariable)
from rtcproof.kernel import RuleId, rule_instance
from rtcproof.semantics import Evaluator, FiniteModel, evaluate, find_counter_model
from rtcproof.syntax import (App, Const, Eq, Or, Pred, Rtc, Signature, Var, parse_formula,
                             parse_sequent)
from rtcproof.tracecheck import edge_matrix

import sys, os
sys.path.insert(0, os.path.dirname(__file__))
from genrules import SIG as GEN_SIG, generate_instances
from oracles import (NoCounterexample, NotAnRtcFormula, degree, descent_witness,
                     evaluate_warshall, find_counter_model_brute, invalidates,
                     iter_models, minimal_chain)

SIG = Signature.make(predicates={"E": 2, "q": 1, "r0": 0})


def F(text, sig=SIG):
    return parse_formula(text, sig)


def S(text, sig=SIG):
    return parse_sequent(text, sig)


def model(n, E=(), q=(), r0=False):
    return FiniteModel(n, {}, {}, {
        "E": frozenset(E), "q": frozenset((x,) for x in q),
        "r0": frozenset([()] if r0 else []),
    })


CHAIN3 = model(3, E={(0, 1), (1, 2)})


class TestEvaluate:
    def test_reflexive_always(self):
        f = F("(rtc x y. E(x, y))(t, t)")
        for m in [model(1), CHAIN3, model(2, E={(1, 0)})]:
            for a in range(m.domain_size):
                assert evaluate(m, {"t": a}, f)

    def test_chain_reachable(self):
        f = F("(rtc x y. E(x, y))(c0, c2)")
        assert evaluate(CHAIN3, {"c0": 0, "c2": 2}, f)
        assert not evaluate(CHAIN3, {"c0": 2, "c2": 0}, f)

    def test_connectives(self):
        m = model(2, q=(0,))
        assert evaluate(m, {}, F("forall x. q(x) \\/ ~q(x)"))
        assert evaluate(m, {}, F("exists x. q(x)"))
        assert not evaluate(m, {}, F("forall x. q(x)"))
        assert evaluate(m, {}, F("top"))
        assert not evaluate(m, {}, F("bot"))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            evaluate(CHAIN3, {}, F("q(v)"))

    @pytest.mark.parametrize("f, v, error, message", [
        (Pred("q", (Const("k"),)), {}, SignatureMismatch, "constant 'k' not interpreted"),
        (Pred("q", (App("g", (Var("u"),)),)), {"u": 0}, SignatureMismatch,
         "function 'g' not interpreted"),
        (Pred("P", (Var("u"),)), {"u": 0}, SignatureMismatch, "predicate 'P' not interpreted"),
        (Pred("E", (Var("u"), Var("w"))), {"u": 0}, UnboundVariable,
         "variable 'w' has no value"),
        (Eq(Var("u"), App("s", (Var("w"),))), {"u": 0}, UnboundVariable,
         "variable 'w' has no value"),
        (F("(rtc x y. E(x, y) /\\ q(z))(a, b)"), {"a": 0, "b": 1}, UnboundVariable,
         "variable 'z' has no value"),
        (Pred("P", (App("s", (Var("u"),)),)), {"u": 0}, SignatureMismatch,
         "predicate 'P' not interpreted"),
    ])
    def test_error_messages(self, f, v, error, message):
        # raised when the formula is evaluated, not when it is compiled
        m = FiniteModel(3, {}, {"s": {(0,): 1}}, dict(CHAIN3.pred_interp))
        ev = Evaluator(m)
        for _ in range(2):
            with pytest.raises(error) as exc:
                ev.holds(f, v)
            assert str(exc.value) == message

    def test_errors_are_lazy(self):
        # an unbound side variable is not read in the reflexive case, and an
        # uninterpreted symbol not on a branch that is cut short
        m = FiniteModel(3, {}, {}, dict(CHAIN3.pred_interp))
        assert evaluate(m, {"a": 1, "b": 1}, F("(rtc x y. E(x, y) /\\ q(z))(a, b)"))
        assert evaluate(m, {}, Or(F("top"), Pred("P", ()))) is True

    def test_rtc_with_side_variable(self):
        # body references a variable bound outside the closure
        f = F("forall u. (rtc x y. E(x, y) /\\ q(u))(a, b) -> q(u)")
        m = model(2, E={(0, 1)}, q=(1,))
        assert evaluate(m, {"a": 0, "b": 1}, f)
        assert not evaluate(m, {"a": 0, "b": 0}, f)  # reflexive case ignores the body

    def test_reads_the_model_afresh(self):
        # a model edited after a call is evaluated as it is now
        f = F("(rtc x y. E(x, y))(a, b)")
        m, v = model(2), {"a": 0, "b": 1}
        assert evaluate(m, v, f) is False
        m.pred_interp["E"] = {(0, 1)}
        assert Evaluator(m).holds(f, v) is True
        assert evaluate(m, v, f) is True


class TestWarshallAgreement:
    def test_exhaustive_size_3(self):
        sig = Signature.make(predicates={"E": 2})
        f = F("(rtc x y. E(x, y))(u, w)", sig)
        for n in (1, 2, 3):
            for m in iter_models(sig, n):
                for u, w in itertools.product(range(n), repeat=2):
                    v = {"u": u, "w": w}
                    assert evaluate(m, v, f) == evaluate_warshall(m, v, f)

    def test_nested_formulas_sampled(self):
        rng = random.Random(5)
        sig = Signature.make(predicates={"E": 2, "q": 1})
        fs = [F("(rtc x y. E(x, y) /\\ q(x))(u, w)", sig),
              F("~(rtc x y. E(y, x))(u, w)", sig),
              F("(rtc x y. (rtc a b. E(a, b))(x, y))(u, w)", sig),
              F("exists z. (rtc x y. E(x, y))(u, z) /\\ E(z, w)", sig)]
        models = list(iter_models(sig, 2))
        sample = rng.sample(list(iter_models(sig, 3)), 60)
        for m in models + sample:
            n = m.domain_size
            for f in fs:
                for u, w in itertools.product(range(n), repeat=2):
                    v = {"u": u, "w": w}
                    assert evaluate(m, v, f) == evaluate_warshall(m, v, f)


class TestDegree:
    RTC = None

    def setup_method(self):
        self.f = F("(rtc x y. E(x, y))(a, b)")

    def test_zero_iff_equal(self):
        assert degree(CHAIN3, {"a": 1, "b": 1}, self.f) == 0

    def test_shortest_chain(self):
        assert degree(CHAIN3, {"a": 0, "b": 2}, self.f) == 2
        m = model(3, E={(0, 1), (1, 2), (0, 2)})
        assert degree(m, {"a": 0, "b": 2}, self.f) == 1

    def test_unsatisfied(self):
        assert degree(CHAIN3, {"a": 2, "b": 0}, self.f) is None

    def test_coherence_with_evaluate(self):
        sig = Signature.make(predicates={"E": 2})
        f = F("(rtc x y. E(x, y))(a, b)", sig)
        for m in iter_models(sig, 3):
            for a, b in itertools.product(range(3), repeat=2):
                v = {"a": a, "b": b}
                d = degree(m, v, f)
                assert (d is not None) == evaluate(m, v, f)
                if a == b:
                    assert d == 0

    def test_not_rtc(self):
        with pytest.raises(NotAnRtcFormula):
            degree(CHAIN3, {}, F("q(a)"))

    def test_minimal_chain_deterministic(self):
        m = model(4, E={(0, 1), (0, 2), (1, 3), (2, 3)})
        # two shortest chains 0-1-3 and 0-2-3: lexicographically least wins
        assert minimal_chain(m, {"a": 0, "b": 3}, self.f) == [0, 1, 3]


class TestCounterModel:
    def test_smallest_refutation(self):
        sig = Signature.make(constants={"a"}, predicates={"p": 1})
        res = find_counter_model(parse_sequent("|- p(a)", sig), 1, (), sig)
        assert res is not None
        m, v = res
        assert m.domain_size == 1 and m.pred_interp["p"] == frozenset()

    def test_tautology_none(self):
        sig = Signature.make(constants={"a"}, predicates={"p": 1})
        assert find_counter_model(parse_sequent("p(a) |- p(a)", sig), 3, (), sig) is None

    def test_rtc_asymmetry(self):
        sig = Signature.make(predicates={"E": 2})
        s = parse_sequent("(rtc x y. E(x, y))(a, b) |- (rtc x y. E(x, y))(b, a)", sig)
        res = find_counter_model(s, 3, (), sig)
        m, v = res
        assert m.domain_size == 2
        assert m.pred_interp["E"] == frozenset({(0, 1)})
        assert v == {"a": 0, "b": 1}

    def test_iso_pruning_same_answer(self):
        sig = Signature.make(predicates={"E": 2})
        s = parse_sequent(
            "(rtc x y. E(x, y))(a, b), (rtc x y. E(x, y))(b, c)"
            " |- (rtc x y. E(x, y))(a, c)", sig)
        assert find_counter_model(s, 3, (), sig) is None

    def test_theory_restricts_models(self):
        sig = Signature.make(predicates={"q": 1})
        theory = (parse_sequent("|- q(x)", sig),)
        s = parse_sequent("|- q(a)", sig)
        assert find_counter_model(s, 3, theory, sig) is None
        assert find_counter_model(s, 3, (), sig) is not None

    def test_budget(self):
        sig = Signature.make(predicates={"E": 2})
        valid = parse_sequent("E(a, a) |- E(a, a)", sig)
        with pytest.raises(BudgetExceeded):
            find_counter_model(valid, 4, (), sig, budget=3)
        # a refutation found within the budget is returned normally
        s = parse_sequent("|- E(a, a)", sig)
        assert find_counter_model(s, 1, (), sig, budget=3) is not None
        # one search node per size, but size 3 has 3^6 valuations to check
        wide = parse_sequent("q(b), q(c), q(d), q(e), q(f) |- a = a", SIG)
        assert find_counter_model(wide, 2, (), SIG, budget=100) is None
        with pytest.raises(BudgetExceeded, match="729 tuples"):
            find_counter_model(wide, 3, (), SIG, budget=100)
        # the theory checks count too, built per size before any cell is
        # set: 16 goal tuples and 4^6 instances at size 4
        q_sig = Signature.make(predicates={"q": 1})
        axiom = parse_sequent("q(x1), q(x2), q(x3), q(x4), q(x5) |- q(y)", q_sig)
        goal = parse_sequent("q(a) |- q(b)", q_sig)
        assert find_counter_model(goal, 3, (axiom,), q_sig, budget=2000) is None
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="16 tuples of constants and variables"
                                                 " and 4096 theory instances at size 4"):
            find_counter_model(goal, 4, (axiom,), q_sig, budget=2000)
        assert time.perf_counter() - start < 1

    def test_budget_counts_table_cells(self):
        # a leaf sets every cell, one node each: 2^7 cells of a 7-ary
        # predicate are past a budget of 100 before any is built, while
        # the goal has only two tuples
        p_sig = Signature.make(predicates={"p": 7})
        atom = "p(" + ", ".join(["a"] * 7) + ")"
        goal = parse_sequent(f"|- {atom} \\/ ~{atom}", p_sig)
        assert find_counter_model(goal, 1, (), p_sig, budget=100) is None
        with pytest.raises(BudgetExceeded, match="^counter-model search budget 100"
                                                 " exhausted: 128 table cells at size 2$"):
            find_counter_model(goal, 2, (), p_sig, budget=100)
        # function cells count too: f/2, g/2 and q/1 have 10 cells at size 2
        # and 21 at size 3; this goal dies at the root, one node per size
        f_sig = Signature.make(functions={"f": 2, "g": 2}, predicates={"q": 1})
        goal = parse_sequent("bot, q(f(a, g(a, a))) |-", f_sig)
        assert find_counter_model(goal, 2, (), f_sig, budget=20) is None
        with pytest.raises(BudgetExceeded, match=" 21 table cells at size 3$"):
            find_counter_model(goal, 3, (), f_sig, budget=20)
        # with fewer cells than the budget, the search nodes still count:
        # size 2 has 4 cells of E, and spends more than 5 nodes
        e_sig = Signature.make(predicates={"E": 2})
        valid = parse_sequent("E(a, a) |- E(a, a)", e_sig)
        with pytest.raises(BudgetExceeded, match="^counter-model search budget 5 exhausted$"):
            find_counter_model(valid, 2, (), e_sig, budget=5)

    def test_agrees_with_brute_force(self):
        # the goals above, and their theory, against the enumerator
        e_sig = Signature.make(predicates={"E": 2})
        p_sig = Signature.make(constants={"a"}, predicates={"p": 1})
        q_sig = Signature.make(predicates={"q": 1})
        cases = [
            ("|- p(a)", (), p_sig, 1), ("p(a) |- p(a)", (), p_sig, 3),
            ("(rtc x y. E(x, y))(a, b) |- (rtc x y. E(x, y))(b, a)", (), e_sig, 3),
            ("(rtc x y. E(x, y))(a, b), (rtc x y. E(x, y))(b, c)"
             " |- (rtc x y. E(x, y))(a, c)", (), e_sig, 3),
            ("|- q(a)", ("|- q(x)",), q_sig, 3), ("|- q(a)", (), q_sig, 3),
            ("E(a, a) |- E(a, a)", (), e_sig, 3), ("|- E(a, a)", (), e_sig, 1),
        ]
        for goal, theory, sig, size in cases:
            s = parse_sequent(goal, sig)
            th = tuple(parse_sequent(ax, sig) for ax in theory)
            assert (find_counter_model(s, size, th, sig)
                    == find_counter_model_brute(s, size, th, sig)), goal

    def test_dump_format(self):
        m = FiniteModel(2, {"a": 0}, {"s": {(0,): 1, (1,): 0}},
                        {"E": frozenset({(0, 1)})})
        assert m.dump() == ("model { size = 2; const a = 0;"
                            " fn s = [1, 0]; pred E = { (0, 1) }; }")


class TestDescent:
    def test_rtccase_progress(self):
        concl = S("(rtc x y. E(x, y))(a, b) |- r0")
        prin = F("(rtc x y. E(x, y))(a, b)")
        r = rule_instance(RuleId.RtcCase, concl, principal=prin, eigenvar="z")
        v = {"a": 0, "b": 2}
        assert invalidates(CHAIN3, v, concl)
        idx, m2, v2 = descent_witness(r, CHAIN3, v)
        assert idx == 1
        assert v2["z"] == 1  # penultimate element of the minimal chain
        ancestor = Rtc(prin.x, prin.y, prin.body, prin.src, Var("z"))
        assert degree(m2, v2, ancestor) == 1 < degree(CHAIN3, v, prin)

    def test_rtcstep_two_cases(self):
        concl = S("|- (rtc x y. E(x, y))(a, b)")
        prin = F("(rtc x y. E(x, y))(a, b)")
        r = rule_instance(RuleId.RtcStep, concl, principal=prin, witness=Var("a"))
        m = model(2)
        idx, _, v2 = descent_witness(r, m, {"a": 0, "b": 1})
        assert invalidates(m, v2, r.premises[idx])

    def test_weakening_same_pair(self):
        concl = S("q(a), E(a, b) |- r0")
        r = rule_instance(RuleId.WL, concl, principal=F("E(a, b)"))
        m = model(2, E={(0, 1)}, q=(0,))
        idx, m2, v2 = descent_witness(r, m, {"a": 0, "b": 1})
        assert (idx, m2, v2) == (0, m, {"a": 0, "b": 1})

    def test_refl_not_applicable(self):
        concl = S("|- (rtc x y. E(x, y))(t, t)")
        r = rule_instance(RuleId.RtcRefl, concl,
                          principal=F("(rtc x y. E(x, y))(t, t)"))
        with pytest.raises(NotApplicable):
            descent_witness(r, model(2), {"t": 0})

    def test_no_counterexample(self):
        concl = S("q(a) |- q(a), r0")
        r = rule_instance(RuleId.WR, concl, principal=F("r0"))
        with pytest.raises(NoCounterexample):
            descent_witness(r, model(1, q=(0,)), {"a": 0})


def _valuations(fvs, n):
    for vals in itertools.product(range(n), repeat=len(fvs)):
        yield dict(zip(fvs, vals))


def _models_for(inst, max_size):
    """Models over exactly the symbols the instance mentions."""
    from rtcproof.syntax import formula_subterms, App, Const, Pred as P
    preds, fns, consts = {}, {}, set()

    def scan_formula(f):
        from rtcproof.syntax import (And, Bot, Eq, Exists, Forall, Implies,
                                     Not, Or, Pred, Rtc, Top)
        match f:
            case Pred(name, args):
                preds[name] = len(args)
                for a in args:
                    scan_term(a)
            case Eq(l, r):
                scan_term(l), scan_term(r)
            case Not(s):
                scan_formula(s)
            case And(l, r) | Or(l, r) | Implies(l, r):
                scan_formula(l), scan_formula(r)
            case Forall(_, b) | Exists(_, b):
                scan_formula(b)
            case Rtc(_, _, b, s, t):
                scan_formula(b), scan_term(s), scan_term(t)
            case _:
                pass

    def scan_term(t):
        match t:
            case App(fn, args):
                fns[fn] = len(args)
                for a in args:
                    scan_term(a)
            case Const(name):
                consts.add(name)
            case _:
                pass

    for seq in (inst.conclusion,) + inst.premises:
        for f in seq.antecedent + seq.succedent:
            scan_formula(f)
    sig = Signature.make(consts, fns, preds)
    for n in range(1, max_size + 1):
        yield from iter_models(sig, n)


class TestDescentHarness:
    def test_generated_instances(self):
        # a slice of the acceptance harness: descent always lands on an
        # invalidated premise, degrees never increase, progress decreases
        insts = generate_instances(20260810, 40)
        checked = 0
        for inst in insts:
            fvs = sorted(inst.conclusion.free_vars())
            for m in _models_for(inst, 2):
                for v in _valuations(fvs, m.domain_size):
                    if not invalidates(m, v, inst.conclusion):
                        continue
                    idx, m2, v2 = descent_witness(inst, m, v)
                    assert invalidates(m2, v2, inst.premises[idx])
                    # each trace pair, its keys read back as the formulas
                    # of the conclusion and of the premise
                    src = {f.key(): f for f in inst.conclusion.antecedent}
                    dst = {f.key(): f for f in inst.premises[idx].antecedent}
                    for (a, b), progressing in edge_matrix(inst, idx).d.items():
                        d_from = degree(m, v, src[a])
                        d_to = degree(m2, v2, dst[b])
                        assert d_from is not None and d_to is not None
                        assert d_to <= d_from
                        if progressing:
                            assert d_to < d_from
                    checked += 1
        assert checked > 50
