import pytest

from rtcproof import kernel
from rtcproof.errors import (FreshnessViolation, NotApplicable, RtcError, SchemaMismatch,
                             UnknownTheoryAxiom)
from rtcproof.kernel import (SCHEMA, RuleId, RuleInstance, RuleParams,
                             check_rule_instance, expected_premises, make_subst,
                             match_formula, match_sequent, rule_instance)
from rtcproof.syntax import (App, Eq, Pred, Rtc, Sequent, Signature, Var,
                             parse_formula, parse_sequent)

SIG = Signature.make(constants={"c0", "0"},
                     functions={"s": 1, "pair": 2},
                     predicates={"p": 2, "q": 1, "E": 2, "r0": 0},
                     pair_symbol="pair", pair_constant="c0")


def F(text):
    return parse_formula(text, SIG)


def S(text):
    return parse_sequent(text, SIG)


def ok(rule, concl, theory=(), **params):
    r = rule_instance(rule, concl, theory=theory, sig=SIG, **params)
    check_rule_instance(r, theory, SIG)
    return r


AX = (S("p(x, y), q(x) |- q(y)"),)

# (rule, conclusion, params, theory) for one positive instance per rule
POSITIVE = {
    RuleId.Axiom: ("q(a) |- q(a)", {}, ()),
    RuleId.TopR: ("q(a) |- top, q(b)", {"principal": "top"}, ()),
    RuleId.BotL: ("bot, q(a) |- q(b)", {"principal": "bot"}, ()),
    RuleId.WL: ("q(a), q(b) |- q(a)", {"principal": "q(b)"}, ()),
    RuleId.WR: ("q(a) |- q(a), q(b)", {"principal": "q(b)"}, ()),
    RuleId.AndL: ("q(a) /\\ q(b) |- q(a)", {"principal": "q(a) /\\ q(b)"}, ()),
    RuleId.AndR: ("q(a), q(b) |- q(a) /\\ q(b)", {"principal": "q(a) /\\ q(b)"}, ()),
    RuleId.OrL: ("q(a) \\/ q(b) |- q(a), q(b)", {"principal": "q(a) \\/ q(b)"}, ()),
    RuleId.OrR: ("q(a) |- q(a) \\/ q(b)", {"principal": "q(a) \\/ q(b)"}, ()),
    RuleId.ImpL: ("q(a), q(a) -> q(b) |- q(b)", {"principal": "q(a) -> q(b)"}, ()),
    RuleId.ImpR: ("|- q(a) -> q(a)", {"principal": "q(a) -> q(a)"}, ()),
    RuleId.NotL: ("~q(a) |- q(b)", {"principal": "~q(a)"}, ()),
    RuleId.NotR: ("q(a) |- ~q(b)", {"principal": "~q(b)"}, ()),
    RuleId.ExL: ("exists x. q(x) |- r0", {"principal": "exists x. q(x)",
                                          "eigenvar": "z"}, ()),
    RuleId.ExR: ("q(a) |- exists x. q(x)", {"principal": "exists x. q(x)",
                                            "witness": Var("a")}, ()),
    RuleId.AllL: ("forall x. q(x) |- q(a)", {"principal": "forall x. q(x)",
                                             "witness": Var("a")}, ()),
    RuleId.AllR: ("r0 |- forall x. q(x)", {"principal": "forall x. q(x)",
                                           "eigenvar": "z"}, ()),
    RuleId.EqL1: ("a = b, q(a) |- q(b)", {"principal": "a = b",
                                          "template": ("q(h)", "h")}, ()),
    RuleId.EqL2: ("a = b, q(b) |- q(a)", {"principal": "a = b",
                                          "template": ("q(h)", "h")}, ()),
    RuleId.EqR: ("|- s(a) = s(a)", {}, ()),
    RuleId.Cut: ("q(a) |- q(b)", {"cut_formula": "q(0)"}, ()),
    RuleId.Subst: (None, None, ()),
    RuleId.RtcRefl: ("|- (rtc x y. p(x, y))(t, t)",
                     {"principal": "(rtc x y. p(x, y))(t, t)"}, ()),
    RuleId.RtcStep: ("|- (rtc x y. E(x, y))(a, c)",
                     {"principal": "(rtc x y. E(x, y))(a, c)",
                      "witness": Var("b")}, ()),
    RuleId.RtcInd: ("q(a), (rtc x y. E(x, y))(a, b) |- q(b)",
                    {"principal": "(rtc x y. E(x, y))(a, b)",
                     "template": ("q(h)", "h"),
                     "eigenvar": "u", "eigenvar2": "v"}, ()),
    RuleId.RtcCase: ("(rtc x y. s(x) = y)(0, n) |- r0",
                     {"principal": "(rtc x y. s(x) = y)(0, n)",
                      "eigenvar": "z"}, ()),
    RuleId.PairInj: ("|- a = u /\\ b = v",
                     {"principal": "a = u /\\ b = v"}, ()),
    RuleId.PairConstAx: ("<a, b> = c0 |- q(a)",
                         {"principal": "<a, b> = c0"}, ()),
    RuleId.TheoryAxiom: ("p(a, s(a)), q(a) |- q(s(a))", {}, AX),
}


def _params(raw):
    out = {}
    for k, v in raw.items():
        if k in ("principal", "cut_formula"):
            out[k] = F(v)
        elif k == "template":
            out[k] = (F(v[0]), v[1])
        else:
            out[k] = v
    return out


def _subst_instance():
    src = S("q(x) |- p(x, x)")
    theta = make_subst({"x": Var("a")})
    return rule_instance(RuleId.Subst, src.substituted(dict(theta)),
                         substitution=theta, source=src)


class TestEveryRule:
    @pytest.mark.parametrize("rule", list(RuleId), ids=lambda r: r.value)
    def test_positive(self, rule):
        if rule is RuleId.Subst:
            r = _subst_instance()
            check_rule_instance(r)
        else:
            concl, raw, theory = POSITIVE[rule]
            r = ok(rule, S(concl), theory=theory, **_params(raw))
        assert len(r.premises) == SCHEMA[rule].premises

    @pytest.mark.parametrize("rule", list(RuleId), ids=lambda r: r.value)
    def test_negative_wrong_premises(self, rule):
        theory = ()
        if rule is RuleId.Subst:
            r = _subst_instance()
        else:
            concl, raw, theory = POSITIVE[rule]
            r = rule_instance(rule, S(concl), theory=theory, sig=SIG, **_params(raw))
        # corrupt the instance: add a bogus premise (or, for 0-premise rules,
        # corrupt the conclusion so the schema no longer applies)
        if SCHEMA[rule].premises > 0:
            bad = RuleInstance(r.rule, r.conclusion,
                               r.premises[:-1] + (S("|- r0"),), r.params)
            with pytest.raises(SchemaMismatch):
                check_rule_instance(bad, theory, SIG)
        else:
            bad = RuleInstance(r.rule, r.conclusion, (S("|- r0"),), r.params)
            with pytest.raises(SchemaMismatch):
                check_rule_instance(bad, theory, SIG)


# each rule with a principal of a fixed class, given the atom q(a) on the
# principal's side: (conclusion, the NotApplicable text); the texts, bar
# TopR's and BotL's, are those the kernel raised before its rules were read
# from one schema table
WRONG_PRINCIPAL = {
    RuleId.TopR: ("|- q(a)", "TopR principal must be top"),
    RuleId.BotL: ("q(a) |-", "BotL principal must be bot"),
    RuleId.AndL: ("q(a) |-", "AndL principal must be a conjunction"),
    RuleId.AndR: ("|- q(a)", "AndR principal must be a conjunction"),
    RuleId.OrL: ("q(a) |-", "OrL principal must be a disjunction"),
    RuleId.OrR: ("|- q(a)", "OrR principal must be a disjunction"),
    RuleId.ImpL: ("q(a) |-", "ImpL principal must be an implication"),
    RuleId.ImpR: ("|- q(a)", "ImpR principal must be an implication"),
    RuleId.NotL: ("q(a) |-", "NotL principal must be a negation"),
    RuleId.NotR: ("|- q(a)", "NotR principal must be a negation"),
    RuleId.ExL: ("q(a) |-", "ExL principal must be existential"),
    RuleId.ExR: ("|- q(a)", "ExR principal must be existential"),
    RuleId.AllL: ("q(a) |-", "AllL principal must be universal"),
    RuleId.AllR: ("|- q(a)", "AllR principal must be universal"),
    RuleId.EqL1: ("q(a) |-", "equality rules need an equation principal"),
    RuleId.EqL2: ("q(a) |-", "equality rules need an equation principal"),
    RuleId.RtcRefl: ("|- q(a)", "RtcRefl principal must be an rtc formula"),
    RuleId.RtcStep: ("|- q(a)", "RtcStep principal must be an rtc formula"),
    RuleId.RtcInd: ("q(a) |-", "RtcInd principal must be an rtc formula"),
    RuleId.RtcCase: ("q(a) |-", "RtcCase principal must be an rtc formula"),
    RuleId.PairInj: ("|- q(a)", "PairInj principal must be a conjunction of two equations"),
    RuleId.PairConstAx: ("q(a) |-", "PairConstAx principal must equate a pair with the"
                                    " designated constant"),
}


@pytest.mark.parametrize("rule", list(WRONG_PRINCIPAL), ids=lambda r: r.value)
def test_wrong_principal_class(rule):
    # every other parameter is given, so the principal's class is what fails
    concl, message = WRONG_PRINCIPAL[rule]
    params = RuleParams(principal=F("q(a)"), witness=Var("b"), eigenvar="z",
                        eigenvar2="w", template=(F("q(h)"), "h"))
    with pytest.raises(NotApplicable) as exc:
        expected_premises(rule, S(concl), params, sig=SIG)
    assert str(exc.value) == message


class TestFreshness:
    def test_rtccase_fresh_violation(self):
        concl = S("(rtc x y. s(x) = y)(0, n), q(z) |- r0")
        with pytest.raises(FreshnessViolation):
            expected_premises(RuleId.RtcCase, concl,
                              RuleParams(principal=F("(rtc x y. s(x) = y)(0, n)"),
                                         eigenvar="z"))

    def test_exl_fresh_violation(self):
        concl = S("exists x. q(x) |- q(z)")
        with pytest.raises(FreshnessViolation):
            expected_premises(RuleId.ExL, concl,
                              RuleParams(principal=F("exists x. q(x)"), eigenvar="z"))

    def test_rtcind_y_in_template(self):
        concl = S("p(v, a), (rtc x y. E(x, y))(a, b) |- p(v, b)")
        with pytest.raises(FreshnessViolation):
            expected_premises(RuleId.RtcInd, concl,
                              RuleParams(principal=F("(rtc x y. E(x, y))(a, b)"),
                                         template=(F("p(v, h)"), "h"),
                                         eigenvar="u", eigenvar2="v"))

    @pytest.mark.parametrize("x, y", [("v", "w"), ("u", "v")])
    def test_rtcind_step_variable_in_template(self, x, y):
        """A step variable, x or y, that is a parameter v of the template is
        refused: the step premise must hold for arbitrary x and y."""
        concl = S("p(v, a), (rtc x y. E(x, y))(a, b) |- p(v, b)")
        with pytest.raises(FreshnessViolation,
                           match="occurs free in the induction template") as exc:
            expected_premises(RuleId.RtcInd, concl,
                              RuleParams(principal=F("(rtc x y. E(x, y))(a, b)"),
                                         template=(F("p(v, h)"), "h"),
                                         eigenvar=x, eigenvar2=y))
        assert exc.value.var == "v"

    def test_mutated_eigenvar_always_caught(self):
        concl = S("exists x. q(x), q(w) |- r0")
        # w occurs in the context: never accepted as eigenvariable
        with pytest.raises(FreshnessViolation):
            expected_premises(RuleId.ExL, concl,
                              RuleParams(principal=F("exists x. q(x)"), eigenvar="w"))


RTC_CASE = dict(principal="(rtc x y. s(x) = y)(0, n)", eigenvar="z")
RTC_IND = dict(principal="(rtc x y. E(x, y))(a, b)", template=("q(h)", "h"))

# every eigenvariable condition: (rule, conclusion, params, the variable
# and the place the error names).
# The places are taken in order, and RtcInd's x before its y within each,
# so y in the context is named before x in the template
FRESHNESS = {
    "exl_context": (RuleId.ExL, "exists x. q(x), q(z) |- r0",
                    dict(principal="exists x. q(x)", eigenvar="z"), "z", "context"),
    "exl_principal": (RuleId.ExL, "exists x. p(x, z) |- r0",
                      dict(principal="exists x. p(x, z)", eigenvar="z"),
                      "z", "principal formula"),
    "exl_context_and_principal": (RuleId.ExL, "exists x. p(x, z), q(z) |- r0",
                                  dict(principal="exists x. p(x, z)", eigenvar="z"),
                                  "z", "context"),
    "allr_context": (RuleId.AllR, "q(z) |- forall x. q(x)",
                     dict(principal="forall x. q(x)", eigenvar="z"), "z", "context"),
    "allr_principal": (RuleId.AllR, "r0 |- forall x. p(x, z)",
                       dict(principal="forall x. p(x, z)", eigenvar="z"),
                       "z", "principal formula"),
    "rtccase_context": (RuleId.RtcCase, "(rtc x y. s(x) = y)(0, n), q(z) |- r0",
                        RTC_CASE, "z", "context"),
    "rtccase_principal": (RuleId.RtcCase, "(rtc x y. s(x) = y)(0, z) |- r0",
                          dict(RTC_CASE, principal="(rtc x y. s(x) = y)(0, z)"),
                          "z", "principal formula"),
    "rtcind_context_x_and_y": (
        RuleId.RtcInd, "q(u), q(v), q(a), (rtc x y. E(x, y))(a, b) |- q(b)",
        dict(RTC_IND, eigenvar="u", eigenvar2="v"), "u", "context"),
    "rtcind_context_y_before_template_x": (
        RuleId.RtcInd, "q(v), p(u, a), (rtc x y. E(x, y))(a, b) |- p(u, b)",
        dict(RTC_IND, template=("p(u, h)", "h"), eigenvar="u", eigenvar2="v"),
        "v", "context"),
    "rtcind_template_x_and_y": (
        RuleId.RtcInd, "p(u, a) /\\ p(v, a), (rtc x y. E(x, y))(a, b) |- p(u, b) /\\ p(v, b)",
        dict(RTC_IND, template=("p(u, h) /\\ p(v, h)", "h"), eigenvar="u", eigenvar2="v"),
        "u", "induction template"),
    "rtcind_body_x_and_y": (
        RuleId.RtcInd, "q(a), (rtc x y. p(x, u) /\\ p(v, y))(a, b) |- q(b)",
        dict(RTC_IND, principal="(rtc x y. p(x, u) /\\ p(v, y))(a, b)",
             eigenvar="u", eigenvar2="v"),
        "u", "closure body"),
}


@pytest.mark.parametrize("case", list(FRESHNESS))
def test_freshness_messages(case):
    rule, concl, raw, var, place = FRESHNESS[case]
    with pytest.raises(FreshnessViolation) as exc:
        expected_premises(rule, S(concl), RuleParams(**_params(raw)), sig=SIG)
    assert exc.value.var == var
    assert str(exc.value) == f"variable {var!r} is not fresh: occurs free in the {place}"


# side conditions of the rules with eigenvariables: (rule, conclusion,
# params, the error's type and text)
SIDE_CONDITIONS = {
    "rtcind_same_variables": (
        RuleId.RtcInd, "q(a), (rtc x y. E(x, y))(a, b) |- q(b)",
        dict(principal="(rtc x y. E(x, y))(a, b)", template=("q(h)", "h"),
             eigenvar="u", eigenvar2="u"),
        FreshnessViolation, "variable 'u' is not fresh: induction variables must be distinct"),
    "rtcind_no_base": (
        RuleId.RtcInd, "(rtc x y. E(x, y))(a, b) |- q(b)",
        dict(principal="(rtc x y. E(x, y))(a, b)", template=("q(h)", "h"),
             eigenvar="u", eigenvar2="w"),
        NotApplicable, "q(a) not in antecedent"),
    "exl_eigenvar_in_principal": (
        RuleId.ExL, "exists x. p(x, z) |- r0",
        dict(principal="exists x. p(x, z)", eigenvar="z"),
        FreshnessViolation, "variable 'z' is not fresh: occurs free in the principal formula"),
    "allr_eigenvar_in_principal": (
        RuleId.AllR, "r0 |- forall x. p(x, z)",
        dict(principal="forall x. p(x, z)", eigenvar="z"),
        FreshnessViolation, "variable 'z' is not fresh: occurs free in the principal formula"),
}


@pytest.mark.parametrize("case", sorted(SIDE_CONDITIONS))
def test_side_condition_messages(case):
    rule, concl, raw, error, message = SIDE_CONDITIONS[case]
    with pytest.raises(error) as exc:
        expected_premises(rule, S(concl), RuleParams(**_params(raw)), sig=SIG)
    assert str(exc.value) == message


NO_PAIR = Signature.make(constants={"c0"}, functions={"pair": 2},
                         predicates={"q": 1, "E": 2})
NO_PAIR_CONSTANT = Signature.make(constants={"c0"}, functions={"pair": 2},
                                  predicates={"q": 1, "E": 2}, pair_symbol="pair")

# guards on parameters and on the signature, each met with a principal of
# the right class on its side, so that the guard is what refuses: (rule,
# conclusion, params, signature, the NotApplicable text)
GUARDS = {
    "rtcind_only_eigenvar": (
        RuleId.RtcInd, "q(a), (rtc x y. E(x, y))(a, b) |- q(b)",
        dict(RTC_IND, eigenvar="u"), SIG, "RtcInd requires its two variables"),
    "rtcind_only_eigenvar2": (
        RuleId.RtcInd, "q(a), (rtc x y. E(x, y))(a, b) |- q(b)",
        dict(RTC_IND, eigenvar2="w"), SIG, "RtcInd requires its two variables"),
    "pairinj_no_pair_symbol": (
        RuleId.PairInj, "|- a = u /\\ b = v", dict(principal="a = u /\\ b = v"), NO_PAIR,
        "PairInj needs a signature with a pair symbol"),
    "pairconstax_no_pair_constant": (
        RuleId.PairConstAx, "<a, b> = c0 |-", dict(principal="<a, b> = c0"), NO_PAIR_CONSTANT,
        "PairConstAx needs a pair symbol and a designated constant"),
    "pairconstax_no_signature": (
        RuleId.PairConstAx, "<a, b> = c0 |-", dict(principal="<a, b> = c0"), None,
        "PairConstAx needs a pair symbol and a designated constant"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_guard_messages(case):
    rule, concl, raw, sig, message = GUARDS[case]
    with pytest.raises(NotApplicable) as exc:
        expected_premises(rule, S(concl), RuleParams(**_params(raw)), sig=sig)
    assert str(exc.value) == message


# principals of the right class on their side but of the wrong shape, under
# SIG's pair symbol and pair constant, so that the shape test is what
# refuses: (rule, conclusion, principal).  A PairConstAx that let the first
# two through would close refutable leaves.
WRONG_SHAPE = {
    "pairconstax_other_rhs": (RuleId.PairConstAx, "<a, b> = d |-", "<a, b> = d"),
    "pairconstax_other_function": (RuleId.PairConstAx, "s(a) = c0 |-", "s(a) = c0"),
    "pairconstax_variable_lhs": (RuleId.PairConstAx, "a = c0 |-", "a = c0"),
    "pairinj_right_not_equation": (RuleId.PairInj, "|- a = u /\\ q(b)", "a = u /\\ q(b)"),
    "pairinj_left_not_equation": (RuleId.PairInj, "|- q(b) /\\ a = u", "q(b) /\\ a = u"),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPE))
def test_wrong_shape_of_right_class(case):
    rule, concl, principal = WRONG_SHAPE[case]
    with pytest.raises(NotApplicable) as exc:
        expected_premises(rule, S(concl), RuleParams(principal=F(principal)), sig=SIG)
    assert str(exc.value) == SCHEMA[rule].wrong


# instances that fit no schema, each with the premises that a kernel missing
# the refusal would derive: (rule, conclusion, premises, params, theory, the
# error's type and text).  The first five are locally unsound: some model
# satisfies the premises and not the conclusion.  The last two would only
# build in weakening.
REFUSED = {
    "axiom_sides_differ": (RuleId.Axiom, "q(a) |- q(b)", [], {}, (), SchemaMismatch,
                           "Axiom: Axiom conclusion must be exactly phi |- phi"),
    "eqr_sides_differ": (RuleId.EqR, "|- a = b", [], {}, (), SchemaMismatch,
                         "EqR: EqR needs t = t in the succedent"),
    "rtcind_no_goal": (
        RuleId.RtcInd, "(rtc x y. E(x, y))(a, b), a = a |-", ["u = u, E(u, v) |- v = v"],
        dict(principal="(rtc x y. E(x, y))(a, b)", template=("h = h", "h"),
             eigenvar="u", eigenvar2="v"), (),
        SchemaMismatch, "RtcInd: b = b not in succedent"),
    "principal_absent": (RuleId.AndL, "|- q(a)", ["q(a), q(b) |- q(a)"],
                         dict(principal="q(a) /\\ q(b)"), (), SchemaMismatch,
                         "AndL: principal q(a) /\\ q(b) not in antecedent"),
    "eql_shown_absent": (RuleId.EqL1, "a = b |- r0", ["|- q(a), r0"],
                         dict(principal="a = b", template=("q(h)", "h")), (),
                         SchemaMismatch, "EqL1: rewritten formula q(b) not in succedent"),
    "eqr_with_context": (RuleId.EqR, "q(a) |- a = a", [], {}, (), SchemaMismatch,
                         "EqR: EqR conclusion must be exactly |- t = t"),
    "theory_axiom_extra_formula": (
        RuleId.TheoryAxiom, "p(a, s(a)), q(a), q(0) |- q(s(a))", [], {}, AX,
        UnknownTheoryAxiom,
        "p(a, s(a)), q(0), q(a) |- q(s(a)) is not an instance of any theory axiom"),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_instances(case):
    rule, concl, prems, raw, theory, error, message = REFUSED[case]
    r = RuleInstance(rule, S(concl), tuple(map(S, prems)), RuleParams(**_params(raw)))
    with pytest.raises(error) as exc:
        check_rule_instance(r, theory, SIG)
    assert str(exc.value) == message


class TestRoundTrip:
    def test_expected_equals_premises(self):
        for rule, (concl, raw, theory) in POSITIVE.items():
            if rule is RuleId.Subst:
                continue
            params = _params(raw)
            r = rule_instance(rule, S(concl), theory=theory, sig=SIG, **params)
            check_rule_instance(r, theory, SIG)
            exp = expected_premises(rule, r.conclusion, r.params, theory, SIG)
            assert list(r.premises) == exp


class TestSchemas:
    def test_spec_andr_example(self):
        sig = Signature.make(predicates={"pp": 0, "qq": 0})
        concl = parse_sequent("|- pp /\\ qq", sig)
        prems = expected_premises(RuleId.AndR, concl,
                                  RuleParams(principal=parse_formula("pp /\\ qq", sig)))
        assert [str(x) for x in prems] == ["|- pp", "|- qq"]

    def test_spec_rtcstep_example(self):
        concl = S("|- (rtc x y. E(x, y))(a, c)")
        prems = expected_premises(
            RuleId.RtcStep, concl,
            RuleParams(principal=F("(rtc x y. E(x, y))(a, c)"), witness=Var("b")))
        assert prems == [S("|- (rtc x y. E(x, y))(a, b)"), S("|- E(b, c)")]

    def test_alll_without_witness(self):
        with pytest.raises(NotApplicable):
            expected_premises(RuleId.AllL, S("forall x. q(x) |- q(a)"),
                              RuleParams(principal=F("forall x. q(x)")))

    def test_spec_rtccase_example(self):
        concl = S("(rtc x y. s(x) = y)(0, n) |- r0")
        r = ok(RuleId.RtcCase, concl,
               principal=F("(rtc x y. s(x) = y)(0, n)"), eigenvar="z")
        assert r.premises[0] == S("0 = n |- r0")
        assert r.premises[1] == S("(rtc x y. s(x) = y)(0, z), s(z) = n |- r0")

    def test_theory_axiom_unknown(self):
        with pytest.raises(UnknownTheoryAxiom):
            expected_premises(RuleId.TheoryAxiom, S("q(a) |- q(b)"), RuleParams(),
                              theory=AX)

    def test_pair_inj_direction(self):
        r = ok(RuleId.PairInj, S("|- a = u /\\ b = v"),
               principal=F("a = u /\\ b = v"))
        assert r.premises == (S("|- <a, b> = <u, v>"),)


class TestMatching:
    def test_match_instances(self):
        pat = S("p(x, y), q(x) |- q(y)")
        tgt = S("p(a, s(a)), q(a) |- q(s(a))")
        thetas = list(match_sequent(pat, tgt, exact=True))
        assert len(thetas) == 1
        assert thetas[0] == {"x": Var("a"), "y": App("s", (Var("a"),))}

    def test_match_subset(self):
        pat = S("q(x) |- q(y)")
        tgt = S("q(a), p(a, b) |- q(b), r0")
        assert any(th == {"x": Var("a"), "y": Var("b")}
                   for th in match_sequent(pat, tgt))

    def test_match_respects_binders(self):
        pat = S("forall u. p(u, x) |-")
        tgt = S("forall w. p(w, w) |-")
        # x would have to be the bound w: no capture-escaping match allowed
        assert list(match_sequent(pat, tgt, exact=True)) == []

    def test_inner_binder_hides_outer_one(self):
        # forall y. forall y. q(y) reads the inner y: it is not an instance of
        # forall x. forall z. q(x), whose one match is the other target
        pat = S("forall x. forall z. q(x) |-")
        tgt = S("forall y. forall y. q(y), forall a. forall b. q(a) |-")
        assert match_formula(pat.antecedent[0], F("forall y. forall y. q(y)"), {}) is None
        assert list(match_sequent(pat, tgt)) == [{}]

    @pytest.mark.parametrize("exact", [False, True])
    def test_each_side_is_reverified(self, exact, monkeypatch):
        # a matcher that proposes wrong substitutions: the first instance
        # misses the target's antecedent, the second its succedent, and the
        # key comparison drops each on its own side
        pat, tgt = S("q(x) |- q(y)"), S("q(a) |- q(b)")
        right = {"x": Var("a"), "y": Var("b")}
        proposals = [{"x": Var("c"), "y": Var("b")}, {"x": Var("a"), "y": Var("c")}, right]

        def propose(pats, targets, theta):
            yield from (theta,) if theta else proposals
        monkeypatch.setattr(kernel, "_match_formula_sets", propose)
        assert list(match_sequent(pat, tgt, exact)) == [right]

    def test_predicate_arity_differs(self):
        # a signature gives each predicate one arity; the matcher does not
        # rely on it
        pat, tgt = Pred("p", (Var("x"),)), Pred("p", (Var("a"), Var("b")))
        assert match_formula(pat, tgt, {}) is None


def count_sound_models(inst, size=2):
    """The number of models up to `size` over inst's symbols where every
    premise is valid, after asserting that the conclusion is valid in each
    of them."""
    from test_semantics import _models_for, _valuations
    from rtcproof.semantics import Evaluator, sequent_holds

    def valid_in(ev, seq, n):
        fvs = sorted(seq.free_vars())
        return all(sequent_holds(ev, v, seq) for v in _valuations(fvs, n))

    checked = 0
    for m in _models_for(inst, size):
        ev = Evaluator(m)
        n = m.domain_size
        if all(valid_in(ev, p, n) for p in inst.premises):
            assert valid_in(ev, inst.conclusion, n), (
                f"{inst.rule.value}: premises valid but conclusion "
                f"fails in {m.dump()}")
            checked += 1
    return checked


class TestLocalSoundness:
    def test_premise_validity_implies_conclusion_validity(self):
        # bridge to the semantics oracle over generated instances: in every
        # small model where each premise holds under all valuations, the
        # conclusion holds under all valuations too
        from genrules import generate_instances

        checked = sum(count_sound_models(inst) for inst in generate_instances(99, 60))
        assert checked > 100

    def test_perturbed_instances_are_refused_or_sound(self):
        # valid instances changed in one place (genrules.PERTURBATIONS): a
        # principal moved or dropped, a premise formula dropped or added, an
        # eigenvariable made free in the context, a leaf's sides made to
        # differ, or a two-term atom's terms swapped.  The kernel refuses
        # all but swaps in the context of a rule that closes any context
        # (RtcRefl, TopR, BotL), which leave a valid instance: 990 of the
        # 1,000 are refused, and each of the ten accepted must be sound
        from genrules import PERTURBATIONS, SIG as GEN_SIG, perturbed_instances

        any_context = {RuleId.RtcRefl, RuleId.TopR, RuleId.BotL}
        refused, accepted, checked = {}, {}, 0
        for name, inst in perturbed_instances(5, 1000):
            try:
                check_rule_instance(inst, sig=GEN_SIG)
            except RtcError:
                refused[name] = refused.get(name, 0) + 1
                continue
            kind = "context swap" if name == "swap" and inst.rule in any_context else name
            accepted[kind] = accepted.get(kind, 0) + 1
            sound = count_sound_models(inst)
            assert sound > 0, inst
            checked += sound
        assert refused.keys() == PERTURBATIONS.keys()
        assert accepted.keys() <= {"context swap"}, accepted
        assert checked > 0
