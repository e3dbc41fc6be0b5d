"""Local checking of inference-rule instances.

`expected_premises` generates the unique premise list for a rule application
from its conclusion and parameters; `check_rule_instance` verifies a given
instance by comparing against it.  Rules follow the classical sequent
calculus with equality and substitution, extended with the four rules for
the reflexive-transitive-closure operator, the two pairing rules, and
theory-axiom leaves.  Sequent sides are sets, so contraction is implicit;
weakening is explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping

from .errors import (FreshnessViolation, NotApplicable, SchemaMismatch,
                     UnknownTheoryAxiom)
from .syntax import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                     Not, Or, Pred, Rtc, Sequent, Signature, Term, Var,
                     free_vars, parts, substitute, term_vars)


class RuleId(Enum):
    Axiom = "Axiom"
    WL = "WL"
    WR = "WR"
    AndL = "AndL"
    AndR = "AndR"
    OrL = "OrL"
    OrR = "OrR"
    ImpL = "ImpL"
    ImpR = "ImpR"
    NotL = "NotL"
    NotR = "NotR"
    ExL = "ExL"
    ExR = "ExR"
    AllL = "AllL"
    AllR = "AllR"
    EqL1 = "EqL1"
    EqL2 = "EqL2"
    EqR = "EqR"
    Cut = "Cut"
    Subst = "Subst"
    RtcRefl = "RtcRefl"
    RtcStep = "RtcStep"
    RtcInd = "RtcInd"
    RtcCase = "RtcCase"
    PairInj = "PairInj"
    PairConstAx = "PairConstAx"
    TheoryAxiom = "TheoryAxiom"


PREMISE_COUNT: dict[RuleId, int] = {
    RuleId.Axiom: 0, RuleId.EqR: 0, RuleId.RtcRefl: 0,
    RuleId.PairConstAx: 0, RuleId.TheoryAxiom: 0,
    RuleId.WL: 1, RuleId.WR: 1, RuleId.AndL: 1, RuleId.OrR: 1,
    RuleId.ImpR: 1, RuleId.NotL: 1, RuleId.NotR: 1, RuleId.ExL: 1,
    RuleId.ExR: 1, RuleId.AllL: 1, RuleId.AllR: 1, RuleId.EqL1: 1,
    RuleId.EqL2: 1, RuleId.Subst: 1, RuleId.RtcInd: 1, RuleId.PairInj: 1,
    RuleId.AndR: 2, RuleId.OrL: 2, RuleId.ImpL: 2, RuleId.Cut: 2,
    RuleId.RtcStep: 2, RuleId.RtcCase: 2,
}

Substitution = tuple[tuple[str, Term], ...]


def make_subst(theta: Mapping[str, Term]) -> Substitution:
    return tuple(sorted(theta.items()))


@dataclass(frozen=True)
class RuleParams:
    """Rule-specific parameters; unused fields stay None."""

    principal: Formula | None = None
    witness: Term | None = None
    eigenvar: str | None = None
    eigenvar2: str | None = None            # second variable of RtcInd
    template: tuple[Formula, str] | None = None
    substitution: Substitution | None = None
    source: Sequent | None = None           # premise of Subst
    cut_formula: Formula | None = None
    cut_left: Sequent | None = None         # contexts of the left cut premise
    cut_right: Sequent | None = None


@dataclass(frozen=True)
class RuleInstance:
    rule: RuleId
    conclusion: Sequent
    premises: tuple[Sequent, ...]
    params: RuleParams = field(default_factory=RuleParams)


def rule_instance(rule: RuleId, conclusion: Sequent, theory: tuple[Sequent, ...] = (),
                  sig: Signature | None = None, **params) -> RuleInstance:
    """Build an instance whose premises are generated from the schema."""
    p = RuleParams(**params)
    prems = expected_premises(rule, conclusion, p, theory=theory, sig=sig)
    return RuleInstance(rule, conclusion, tuple(prems), p)


# ---------------------------------------------------------------------------
# Schema instantiation

def _need(cond: bool, detail: str) -> None:
    """Raise NotApplicable(detail) unless cond; a message that formats a
    formula is raised at its own site, so that it is built only on failure."""
    if not cond:
        raise NotApplicable(detail)


def _principal_in(f: Formula | None, side: tuple[Formula, ...], where: str) -> Formula:
    _need(f is not None, "principal formula required")
    if f not in side:
        raise NotApplicable(f"principal {f} not in {where}")
    return f


def expected_premises(rule: RuleId, conclusion: Sequent, params: RuleParams,
                      theory: tuple[Sequent, ...] = (),
                      sig: Signature | None = None) -> list[Sequent]:
    """The unique premise list making `check_rule_instance` succeed.

    Raises NotApplicable when the conclusion or parameters do not fit the
    schema, FreshnessViolation when an eigenvariable side condition fails,
    and UnknownTheoryAxiom for TheoryAxiom conclusions not in the theory.
    """
    ant, suc = conclusion.antecedent, conclusion.succedent
    p = params

    match rule:
        case RuleId.Axiom:
            _need(len(ant) == 1 and len(suc) == 1 and ant[0] == suc[0],
                  "Axiom conclusion must be exactly phi |- phi")
            return []

        case RuleId.EqR:
            _need(len(ant) == 0 and len(suc) == 1, "EqR conclusion must be exactly |- t = t")
            f = suc[0]
            _need(isinstance(f, Eq) and f.lhs == f.rhs, "EqR needs t = t in the succedent")
            return []

        case RuleId.WL:
            f = _principal_in(p.principal, ant, "antecedent")
            return [conclusion.without_ant(f)]

        case RuleId.WR:
            f = _principal_in(p.principal, suc, "succedent")
            return [conclusion.without_succ(f)]

        case RuleId.AndL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, And), "AndL principal must be a conjunction")
            return [conclusion.without_ant(f).with_ant(f.left, f.right)]

        case RuleId.AndR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, And), "AndR principal must be a conjunction")
            base = conclusion.without_succ(f)
            return [base.with_succ(f.left), base.with_succ(f.right)]

        case RuleId.OrL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Or), "OrL principal must be a disjunction")
            base = conclusion.without_ant(f)
            return [base.with_ant(f.left), base.with_ant(f.right)]

        case RuleId.OrR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Or), "OrR principal must be a disjunction")
            return [conclusion.without_succ(f).with_succ(f.left, f.right)]

        case RuleId.ImpL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Implies), "ImpL principal must be an implication")
            base = conclusion.without_ant(f)
            return [base.with_succ(f.left), base.with_ant(f.right)]

        case RuleId.ImpR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Implies), "ImpR principal must be an implication")
            return [conclusion.without_succ(f).with_ant(f.left).with_succ(f.right)]

        case RuleId.NotL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Not), "NotL principal must be a negation")
            return [conclusion.without_ant(f).with_succ(f.sub)]

        case RuleId.NotR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Not), "NotR principal must be a negation")
            return [conclusion.without_succ(f).with_ant(f.sub)]

        case RuleId.ExL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Exists), "ExL principal must be existential")
            z = p.eigenvar
            _need(z is not None, "ExL requires an eigenvariable")
            base = conclusion.without_ant(f)
            _check_fresh(z, base, f)
            return [base.with_ant(substitute(f.body, {f.var: Var(z)}))]

        case RuleId.AllR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Forall), "AllR principal must be universal")
            z = p.eigenvar
            _need(z is not None, "AllR requires an eigenvariable")
            base = conclusion.without_succ(f)
            _check_fresh(z, base, f)
            return [base.with_succ(substitute(f.body, {f.var: Var(z)}))]

        case RuleId.AllL:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Forall), "AllL principal must be universal")
            _need(p.witness is not None, "AllL requires a witness term")
            inst = substitute(f.body, {f.var: p.witness})
            return [conclusion.without_ant(f).with_ant(inst)]

        case RuleId.ExR:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Exists), "ExR principal must be existential")
            _need(p.witness is not None, "ExR requires a witness term")
            inst = substitute(f.body, {f.var: p.witness})
            return [conclusion.without_succ(f).with_succ(inst)]

        case RuleId.EqL1 | RuleId.EqL2:
            eq = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(eq, Eq), "equality rules need an equation principal")
            _need(p.template is not None, "equality rules need a rewrite template")
            phi, x = p.template
            phi_s = substitute(phi, {x: eq.lhs})
            phi_t = substitute(phi, {x: eq.rhs})
            if rule is RuleId.EqL1:
                shown, rewritten = phi_t, phi_s
            else:
                shown, rewritten = phi_s, phi_t
            if shown not in suc:
                raise NotApplicable(f"rewritten formula {shown} not in succedent")
            return [conclusion.without_ant(eq).without_succ(shown).with_succ(rewritten)]

        case RuleId.Cut:
            _need(p.cut_formula is not None, "Cut requires a cut formula")
            left = p.cut_left if p.cut_left is not None else Sequent(ant, suc)
            right = p.cut_right if p.cut_right is not None else Sequent(ant, suc)
            merged = Sequent(left.antecedent + right.antecedent,
                             left.succedent + right.succedent)
            _need(merged == conclusion, "Cut contexts do not rebuild the conclusion")
            return [left.with_succ(p.cut_formula), right.with_ant(p.cut_formula)]

        case RuleId.Subst:
            _need(p.substitution is not None, "Subst requires a substitution")
            _need(p.source is not None, "Subst requires its source sequent")
            inst = p.source.substituted(dict(p.substitution))
            _need(inst == conclusion, "conclusion is not the stated instance of the source")
            return [p.source]

        case RuleId.RtcRefl:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Rtc), "RtcRefl principal must be an rtc formula")
            _need(f.src == f.dst, "RtcRefl endpoints must be syntactically equal")
            return []

        case RuleId.RtcStep:
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, Rtc), "RtcStep principal must be an rtc formula")
            _need(p.witness is not None, "RtcStep requires an intermediate term")
            r = p.witness
            base = conclusion.without_succ(f)
            step = substitute(f.body, {f.x: r, f.y: f.dst})
            return [base.with_succ(Rtc(f.x, f.y, f.body, f.src, r)),
                    base.with_succ(step)]

        case RuleId.RtcCase:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Rtc), "RtcCase principal must be an rtc formula")
            z = p.eigenvar
            _need(z is not None, "RtcCase requires a fresh variable")
            base = conclusion.without_ant(f)
            _check_fresh(z, base, f)
            ancestor = Rtc(f.x, f.y, f.body, f.src, Var(z))
            step = substitute(f.body, {f.x: Var(z), f.y: f.dst})
            return [base.with_ant(Eq(f.src, f.dst)),
                    base.with_ant(ancestor, step)]

        case RuleId.RtcInd:
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Rtc), "RtcInd principal must be an rtc formula")
            _need(p.template is not None, "RtcInd requires an induction template")
            _need(p.eigenvar is not None and p.eigenvar2 is not None,
                  "RtcInd requires its two variables")
            psi, tvar = p.template
            x, y = p.eigenvar, p.eigenvar2
            if x == y:
                raise FreshnessViolation(y, "induction variables must be distinct")
            psi_x = substitute(psi, {tvar: Var(x)})
            psi_s = substitute(psi, {tvar: f.src})
            psi_t = substitute(psi, {tvar: f.dst})
            if psi_s not in ant:
                raise NotApplicable(f"{psi_s} not in antecedent")
            if psi_t not in suc:
                raise NotApplicable(f"{psi_t} not in succedent")
            gamma = conclusion.without_ant(f).without_ant(psi_s)
            delta_side = gamma.without_succ(psi_t)
            ctx_vars = delta_side.free_vars()
            body_free = free_vars(f.body) - {f.x, f.y}
            if x in ctx_vars:
                raise FreshnessViolation(x, "occurs free in the context")
            if y in ctx_vars:
                raise FreshnessViolation(y, "occurs free in the context")
            if y in free_vars(psi_x) - {x}:
                raise FreshnessViolation(y, "occurs free in the induction template")
            if x in body_free or y in body_free:
                raise FreshnessViolation(x if x in body_free else y,
                                         "occurs free in the closure body")
            body_inst = substitute(f.body, {f.x: Var(x), f.y: Var(y)})
            psi_y = substitute(psi_x, {x: Var(y)})
            return [delta_side.with_ant(psi_x, body_inst).with_succ(psi_y)]

        case RuleId.PairInj:
            _need(sig is not None and sig.pair_symbol is not None,
                  "PairInj needs a signature with a pair symbol")
            f = _principal_in(p.principal, suc, "succedent")
            _need(isinstance(f, And) and isinstance(f.left, Eq) and isinstance(f.right, Eq),
                  "PairInj principal must be a conjunction of two equations")
            pr = sig.pair_symbol
            lhs = App(pr, (f.left.lhs, f.right.lhs))
            rhs = App(pr, (f.left.rhs, f.right.rhs))
            return [conclusion.without_succ(f).with_succ(Eq(lhs, rhs))]

        case RuleId.PairConstAx:
            _need(sig is not None and sig.pair_symbol is not None
                  and sig.pair_constant is not None,
                  "PairConstAx needs a pair symbol and a designated constant")
            f = _principal_in(p.principal, ant, "antecedent")
            _need(isinstance(f, Eq) and isinstance(f.lhs, App)
                  and f.lhs.fn == sig.pair_symbol and len(f.lhs.args) == 2
                  and f.rhs == Const(sig.pair_constant),
                  "PairConstAx principal must equate a pair with the designated constant")
            return []

        case RuleId.TheoryAxiom:
            for ax in theory:
                if any(True for _ in match_sequent(ax, conclusion, exact=True)):
                    return []
            raise UnknownTheoryAxiom(
                f"{conclusion} is not an instance of any theory axiom")

    raise NotApplicable(f"unknown rule {rule}")


def _check_fresh(z: str, context: Sequent, principal: Formula) -> None:
    if z in context.free_vars():
        raise FreshnessViolation(z, "occurs free in the context")
    if z in free_vars(principal):
        raise FreshnessViolation(z, "occurs free in the principal formula")


def check_rule_instance(r: RuleInstance, theory: tuple[Sequent, ...] = (),
                        sig: Signature | None = None) -> None:
    """Raise SchemaMismatch / FreshnessViolation / UnknownTheoryAxiom unless
    the instance fits its rule schema exactly."""
    expected_count = PREMISE_COUNT[r.rule]
    if len(r.premises) != expected_count:
        raise SchemaMismatch(
            f"{r.rule.value} takes {expected_count} premises, got {len(r.premises)}")
    try:
        expected = expected_premises(r.rule, r.conclusion, r.params, theory, sig)
    except NotApplicable as exc:
        raise SchemaMismatch(f"{r.rule.value}: {exc}") from exc
    if list(r.premises) != expected:
        raise SchemaMismatch(
            f"{r.rule.value}: premises {[str(s) for s in r.premises]} do not match "
            f"the schema's {[str(s) for s in expected]}")


# ---------------------------------------------------------------------------
# First-order matching (for theory axioms and cycle formation)

def match_term(pat: Term, tgt: Term, theta: dict[str, Term],
               bound: dict[str, str], tgt_bound: frozenset[str]) -> dict[str, Term] | None:
    match pat:
        case Var(name):
            if name in bound:
                return theta if tgt == Var(bound[name]) else None
            if term_vars(tgt) & tgt_bound:
                return None  # image would escape a binder in the target
            if name in theta:
                return theta if theta[name] == tgt else None
            out = dict(theta)
            out[name] = tgt
            return out
        case Const(_):
            return theta if pat == tgt else None
        case App(fn, args):
            if not (isinstance(tgt, App) and tgt.fn == fn and len(tgt.args) == len(args)):
                return None
            for pa, ta in zip(args, tgt.args):
                nxt = match_term(pa, ta, theta, bound, tgt_bound)
                if nxt is None:
                    return None
                theta = nxt
            return theta
    return None


def match_formula(pat: Formula, tgt: Formula, theta: dict[str, Term],
                  bound: dict[str, str] | None = None,
                  tgt_bound: frozenset[str] = frozenset()) -> dict[str, Term] | None:
    """Match pat against tgt instantiating pat's free variables; None on failure."""
    if pat.__class__ is not tgt.__class__:
        return None
    if pat.__class__ is Pred and pat.name != tgt.name:
        return None
    pbind, psubs, pterms = parts(pat)
    tbind, tsubs, tterms = parts(tgt)
    if len(pterms) != len(tterms):
        return None
    bound = bound or {}
    inner, inner_tgt = bound, tgt_bound
    if pbind:
        inner = {**bound, **dict(zip(pbind, tbind))}
        inner_tgt = tgt_bound | set(tbind)
    for p, t in zip(psubs, tsubs):
        theta = match_formula(p, t, theta, inner, inner_tgt)
        if theta is None:
            return None
    for p, t in zip(pterms, tterms):
        theta = match_term(p, t, theta, bound, tgt_bound)
        if theta is None:
            return None
    return theta


def _match_formula_sets(pats: tuple[Formula, ...], targets: tuple[Formula, ...],
                        theta: dict[str, Term]) -> Iterator[dict[str, Term]]:
    if not pats:
        yield theta
        return
    head, rest = pats[0], pats[1:]
    for tgt in targets:
        nxt = match_formula(head, tgt, theta)
        if nxt is not None:
            yield from _match_formula_sets(rest, targets, nxt)


def match_sequent(pattern: Sequent, target: Sequent,
                  exact: bool = False) -> Iterator[dict[str, Term]]:
    """Substitutions theta with pattern.theta ⊆ target (== target when exact).

    Every candidate is re-verified through `substitute`, so binder-related
    corner cases in the matcher cannot produce false positives.
    """
    seen: set[tuple] = set()
    for th_a in _match_formula_sets(pattern.antecedent, target.antecedent, {}):
        for th in _match_formula_sets(pattern.succedent, target.succedent, th_a):
            key = tuple(sorted((v, t) for v, t in th.items()))
            if key in seen:
                continue
            seen.add(key)
            inst = pattern.substituted(th)
            if exact:
                if inst == target:
                    yield th
            elif target.contains(inst):
                yield th
