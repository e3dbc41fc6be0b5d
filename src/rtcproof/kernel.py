"""Local checking of inference-rule instances.

`expected_premises` generates the unique premise list for a rule application
from its conclusion and parameters; `check_rule_instance` verifies a given
instance by comparing against it.  Rules follow the classical sequent
calculus with equality and substitution, extended with the four rules for
the reflexive-transitive-closure operator, the two pairing rules, and
theory-axiom leaves.  Sequent sides are sets, so contraction is implicit;
weakening is explicit.

`SCHEMA` states each rule's shape once: its premise count, the side and
class of its principal formula, the message for a principal of another
class, and the parameters it takes besides its principal; an instance
that sets any other parameter fails `check_rule_instance`.
`expected_premises` finds, checks and removes the principal from the table
before it builds the premises, and the prover selects its moves by it; no
rule finds its principal outside `SCHEMA`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, NamedTuple

from .errors import (FreshnessViolation, NotApplicable, SchemaMismatch,
                     UnknownTheoryAxiom)
from .syntax import (And, App, Bot, Const, Eq, Exists, Forall, Formula,
                     Implies, Not, Or, Pred, Rtc, Sequent, Signature, Term,
                     Top, Var, free_vars, parts, substitute, term_vars)


class RuleId(Enum):
    Axiom = "Axiom"
    TopR = "TopR"
    BotL = "BotL"
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


class Schema(NamedTuple):
    premises: int
    side: str | None = None      # the conclusion side holding the principal
    cls: type | None = None      # the principal's class; None admits any
    wrong: str = ""              # NotApplicable text for another class
    params: tuple[str, ...] = ()  # RuleParams fields taken besides the principal


ANT, SUC = "antecedent", "succedent"

SCHEMA: dict[RuleId, Schema] = {
    RuleId.Axiom: Schema(0),
    RuleId.TopR: Schema(0, SUC, Top, "TopR principal must be top"),
    RuleId.BotL: Schema(0, ANT, Bot, "BotL principal must be bot"),
    RuleId.WL: Schema(1, ANT),
    RuleId.WR: Schema(1, SUC),
    RuleId.AndL: Schema(1, ANT, And, "AndL principal must be a conjunction"),
    RuleId.AndR: Schema(2, SUC, And, "AndR principal must be a conjunction"),
    RuleId.OrL: Schema(2, ANT, Or, "OrL principal must be a disjunction"),
    RuleId.OrR: Schema(1, SUC, Or, "OrR principal must be a disjunction"),
    RuleId.ImpL: Schema(2, ANT, Implies, "ImpL principal must be an implication"),
    RuleId.ImpR: Schema(1, SUC, Implies, "ImpR principal must be an implication"),
    RuleId.NotL: Schema(1, ANT, Not, "NotL principal must be a negation"),
    RuleId.NotR: Schema(1, SUC, Not, "NotR principal must be a negation"),
    RuleId.ExL: Schema(1, ANT, Exists, "ExL principal must be existential", ("eigenvar",)),
    RuleId.ExR: Schema(1, SUC, Exists, "ExR principal must be existential", ("witness",)),
    RuleId.AllL: Schema(1, ANT, Forall, "AllL principal must be universal", ("witness",)),
    RuleId.AllR: Schema(1, SUC, Forall, "AllR principal must be universal", ("eigenvar",)),
    RuleId.EqL1: Schema(1, ANT, Eq, "equality rules need an equation principal", ("template",)),
    RuleId.EqL2: Schema(1, ANT, Eq, "equality rules need an equation principal", ("template",)),
    RuleId.EqR: Schema(0),
    RuleId.Cut: Schema(2, params=("cut_formula", "cut_left", "cut_right")),
    RuleId.Subst: Schema(1, params=("substitution", "source")),
    RuleId.RtcRefl: Schema(0, SUC, Rtc, "RtcRefl principal must be an rtc formula"),
    RuleId.RtcStep: Schema(2, SUC, Rtc, "RtcStep principal must be an rtc formula", ("witness",)),
    RuleId.RtcInd: Schema(1, ANT, Rtc, "RtcInd principal must be an rtc formula",
                          ("template", "eigenvar", "eigenvar2")),
    RuleId.RtcCase: Schema(2, ANT, Rtc, "RtcCase principal must be an rtc formula",
                           ("eigenvar",)),
    RuleId.PairInj: Schema(1, SUC, And,
                           "PairInj principal must be a conjunction of two equations"),
    RuleId.PairConstAx: Schema(0, ANT, Eq, "PairConstAx principal must equate a pair"
                                           " with the designated constant"),
    RuleId.TheoryAxiom: Schema(0),
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
    schema = SCHEMA[rule]
    if schema.side is not None:
        # the principal: found on its side, of its class, and removed to
        # leave the premises' context `base`; `add` adds to base on that side
        f = p.principal
        _need(f is not None, "principal formula required")
        if f not in getattr(conclusion, schema.side):
            raise NotApplicable(f"principal {f} not in {schema.side}")
        if schema.cls is not None:
            _need(isinstance(f, schema.cls), schema.wrong)
        if schema.premises:
            left = schema.side == ANT
            base = conclusion.without_ant(f) if left else conclusion.without_succ(f)
            add = base.with_ant if left else base.with_succ

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
        case RuleId.WL | RuleId.WR:
            return [base]
        case RuleId.AndL | RuleId.OrR:
            return [add(f.left, f.right)]
        case RuleId.AndR | RuleId.OrL:
            return [add(f.left), add(f.right)]
        case RuleId.ImpL:
            return [base.with_succ(f.left), base.with_ant(f.right)]
        case RuleId.ImpR:
            return [base.with_ant(f.left).with_succ(f.right)]
        case RuleId.NotL:
            return [base.with_succ(f.sub)]
        case RuleId.NotR:
            return [base.with_ant(f.sub)]
        case RuleId.ExL | RuleId.AllR:
            z = p.eigenvar
            _need(z is not None, f"{rule.value} requires an eigenvariable")
            _check_fresh((z,), ("context", base.free_vars()),
                         ("principal formula", free_vars(f)))
            return [add(substitute(f.body, {f.var: Var(z)}))]
        case RuleId.AllL | RuleId.ExR:
            _need(p.witness is not None, f"{rule.value} requires a witness term")
            return [add(substitute(f.body, {f.var: p.witness}))]
        case RuleId.EqL1 | RuleId.EqL2:
            _need(p.template is not None, "equality rules need a rewrite template")
            phi, x = p.template
            phi_s = substitute(phi, {x: f.lhs})
            phi_t = substitute(phi, {x: f.rhs})
            if rule is RuleId.EqL1:
                shown, rewritten = phi_t, phi_s
            else:
                shown, rewritten = phi_s, phi_t
            if shown not in suc:
                raise NotApplicable(f"rewritten formula {shown} not in succedent")
            return [base.without_succ(shown).with_succ(rewritten)]
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
            inst = p.source.substituted_keys(dict(p.substitution))
            _need(inst == conclusion.keys(),
                  "conclusion is not the stated instance of the source")
            return [p.source]
        case RuleId.RtcRefl:
            _need(f.src == f.dst, "RtcRefl endpoints must be syntactically equal")
            return []
        case RuleId.RtcStep:
            _need(p.witness is not None, "RtcStep requires an intermediate term")
            r = p.witness
            step = substitute(f.body, {f.x: r, f.y: f.dst})
            return [base.with_succ(Rtc(f.x, f.y, f.body, f.src, r)),
                    base.with_succ(step)]
        case RuleId.RtcCase:
            z = p.eigenvar
            _need(z is not None, "RtcCase requires a fresh variable")
            _check_fresh((z,), ("context", base.free_vars()),
                         ("principal formula", free_vars(f)))
            ancestor = Rtc(f.x, f.y, f.body, f.src, Var(z))
            step = substitute(f.body, {f.x: Var(z), f.y: f.dst})
            return [base.with_ant(Eq(f.src, f.dst)),
                    base.with_ant(ancestor, step)]
        case RuleId.RtcInd:
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
            delta_side = base.without_ant(psi_s).without_succ(psi_t)
            # the step premise must hold for arbitrary x and y
            _check_fresh((x, y), ("context", delta_side.free_vars()),
                         ("induction template", free_vars(psi) - {tvar}),
                         ("closure body", free_vars(f.body) - {f.x, f.y}))
            body_inst = substitute(f.body, {f.x: Var(x), f.y: Var(y)})
            psi_y = substitute(psi_x, {x: Var(y)})
            return [delta_side.with_ant(psi_x, body_inst).with_succ(psi_y)]
        case RuleId.PairInj:
            _need(sig is not None and sig.pair_symbol is not None,
                  "PairInj needs a signature with a pair symbol")
            _need(isinstance(f.left, Eq) and isinstance(f.right, Eq), schema.wrong)
            pr = sig.pair_symbol
            return [add(Eq(App(pr, (f.left.lhs, f.right.lhs)),
                           App(pr, (f.left.rhs, f.right.rhs))))]
        case RuleId.PairConstAx:
            _need(sig is not None and sig.pair_symbol is not None
                  and sig.pair_constant is not None,
                  "PairConstAx needs a pair symbol and a designated constant")
            _need(isinstance(f.lhs, App) and f.lhs.fn == sig.pair_symbol
                  and len(f.lhs.args) == 2 and f.rhs == Const(sig.pair_constant),
                  schema.wrong)
            return []
        case RuleId.TheoryAxiom:
            for ax in theory:
                if any(True for _ in match_sequent(ax, conclusion, exact=True)):
                    return []
            raise UnknownTheoryAxiom(
                f"{conclusion} is not an instance of any theory axiom")
        case RuleId.TopR | RuleId.BotL:
            return []


def _check_fresh(names: tuple[str, ...], *places: tuple[str, set[str]]) -> None:
    """The one eigenvariable check: raise FreshnessViolation for the first
    of `names` free in a place, the places, (what, free variables) pairs,
    taken in order."""
    for what, taken in places:
        for v in names:
            if v in taken:
                raise FreshnessViolation(v, f"occurs free in the {what}")


def check_rule_instance(r: RuleInstance, theory: tuple[Sequent, ...] = (),
                        sig: Signature | None = None) -> None:
    """Raise SchemaMismatch / FreshnessViolation / UnknownTheoryAxiom unless
    the instance fits its rule schema exactly and sets no parameter the rule
    does not take."""
    schema = SCHEMA[r.rule]
    if len(r.premises) != schema.premises:
        raise SchemaMismatch(
            f"{r.rule.value} takes {schema.premises} premises, got {len(r.premises)}")
    for name in RuleParams.__dataclass_fields__:
        if (getattr(r.params, name) is not None and name not in schema.params
                and (name != "principal" or schema.side is None)):
            raise SchemaMismatch(f"{r.rule.value} takes no {name} parameter")
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

def match_term(pat: Term, tgt: Term, theta: dict[str, Term], bound: Mapping[str, int],
               tgt_bound: Mapping[str, int]) -> dict[str, Term] | None:
    match pat:
        case Var(name):
            if name in bound:   # the target variable bound at the same level
                ok = tgt.__class__ is Var and tgt_bound.get(tgt.name) == bound[name]
                return theta if ok else None
            if term_vars(tgt) & tgt_bound.keys():
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


def match_formula(pat: Formula, tgt: Formula, theta: dict[str, Term],
                  bound: Mapping[str, int] = {}, tgt_bound: Mapping[str, int] = {},
                  depth: int = 0) -> dict[str, Term] | None:
    """Match pat against tgt instantiating pat's free variables; None on
    failure.  `bound` and `tgt_bound` give the de Bruijn level, below
    `depth`, of each variable bound around pat and tgt."""
    if pat.__class__ is not tgt.__class__:
        return None
    if pat.__class__ is Pred and pat.name != tgt.name:
        return None
    pbind, psubs, pterms = parts(pat)
    tbind, tsubs, tterms = parts(tgt)
    if len(pterms) != len(tterms):
        return None
    inner, inner_tgt = bound, tgt_bound
    if pbind:
        levels = range(depth, depth + len(pbind))
        inner = {**bound, **dict(zip(pbind, levels))}
        inner_tgt = {**tgt_bound, **dict(zip(tbind, levels))}
    for p, t in zip(psubs, tsubs):
        theta = match_formula(p, t, theta, inner, inner_tgt, depth + len(pbind))
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

    Every candidate is re-verified by comparing the keys of pattern.theta
    (`Sequent.substituted_keys`) with target's, so binder-related corner
    cases in the matcher cannot produce false positives.  No theta comes
    twice: one theta matches a pattern formula to one key of the target.
    """
    ant, suc = target.keys()
    ant_set, suc_set = set(ant), set(suc)
    for th_a in _match_formula_sets(pattern.antecedent, target.antecedent, {}):
        for th in _match_formula_sets(pattern.succedent, target.succedent, th_a):
            inst_ant, inst_suc = pattern.substituted_keys(th)
            if exact:
                if inst_ant == ant and inst_suc == suc:
                    yield th
            elif ant_set.issuperset(inst_ant) and suc_set.issuperset(inst_suc):
                yield th
