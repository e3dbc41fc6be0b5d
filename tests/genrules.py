"""Seeded random generator of kernel-valid rule instances over small
signatures (at most two predicates and one function), used by the descent
and local-soundness harnesses, and of ill-formed ones: a valid instance
perturbed in one place, for the kernel to refuse."""

import dataclasses
import random

from rtcproof.kernel import SCHEMA, RuleId, make_subst, rule_instance
from rtcproof.syntax import (And, App, Bot, Eq, Exists, Forall, Implies, Not,
                             Or, Pred, Rtc, Sequent, Signature, Top, Var, parts,
                             rebuild, subformulas, substitute)

SIG = Signature.make(functions={"g": 1}, predicates={"e": 2, "q": 1})

VARS = ("a", "b", "d")

RULES = [
    RuleId.WL, RuleId.WR, RuleId.AndL, RuleId.AndR, RuleId.OrL, RuleId.OrR,
    RuleId.ImpL, RuleId.ImpR, RuleId.NotL, RuleId.NotR, RuleId.ExL,
    RuleId.ExR, RuleId.AllL, RuleId.AllR, RuleId.EqL1, RuleId.EqL2,
    RuleId.Cut, RuleId.Subst, RuleId.RtcStep, RuleId.RtcCase, RuleId.RtcInd,
    RuleId.TopR, RuleId.BotL,
]


def _term(rng, depth=1):
    if depth > 0 and rng.random() < 0.25:
        return App("g", (_term(rng, depth - 1),))
    return Var(rng.choice(VARS))


def _atom(rng):
    k = rng.randrange(3)
    if k == 0:
        return Pred("e", (_term(rng), _term(rng)))
    if k == 1:
        return Pred("q", (_term(rng),))
    return Eq(_term(rng), _term(rng))


def _rtc(rng):
    body = rng.choice([
        Pred("e", (Var("x"), Var("y"))),
        And(Pred("e", (Var("x"), Var("y"))), Pred("q", (Var("x"),))),
        Or(Pred("e", (Var("x"), Var("y"))), Eq(Var("x"), Var("y"))),
    ])
    return Rtc("x", "y", body, _term(rng), _term(rng))


def _formula(rng, depth=2):
    if depth <= 0:
        return _atom(rng)
    k = rng.randrange(8)
    if k == 0:
        return Not(_formula(rng, depth - 1))
    if k == 1:
        return And(_formula(rng, depth - 1), _formula(rng, depth - 1))
    if k == 2:
        return Or(_formula(rng, depth - 1), _formula(rng, depth - 1))
    if k == 3:
        return Implies(_formula(rng, depth - 1), _formula(rng, depth - 1))
    if k == 4:
        return Forall(rng.choice(VARS), _formula(rng, depth - 1))
    if k == 5:
        return Exists(rng.choice(VARS), _formula(rng, depth - 1))
    if k == 6:
        return _rtc(rng)
    return _atom(rng)


def _context(rng, n):
    return tuple(_formula(rng, rng.randrange(2)) for _ in range(n))


def generate_instance(rng):
    """One kernel-valid rule instance, or None when the draw does not fit."""
    rule = rng.choice(RULES)
    gamma = _context(rng, rng.randrange(2))
    delta = _context(rng, rng.randrange(2))
    try:
        if rule in (RuleId.WL, RuleId.AndL, RuleId.OrL, RuleId.ImpL, RuleId.NotL):
            shape = {RuleId.WL: _formula(rng, 1),
                     RuleId.AndL: And(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.OrL: Or(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.ImpL: Implies(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.NotL: Not(_formula(rng, 1))}[rule]
            concl = Sequent(gamma + (shape,), delta)
            return rule_instance(rule, concl, sig=SIG, principal=shape)
        if rule in (RuleId.WR, RuleId.AndR, RuleId.OrR, RuleId.ImpR, RuleId.NotR):
            shape = {RuleId.WR: _formula(rng, 1),
                     RuleId.AndR: And(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.OrR: Or(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.ImpR: Implies(_formula(rng, 1), _formula(rng, 1)),
                     RuleId.NotR: Not(_formula(rng, 1))}[rule]
            concl = Sequent(gamma, delta + (shape,))
            return rule_instance(rule, concl, sig=SIG, principal=shape)
        if rule in (RuleId.ExL, RuleId.AllR):
            body = _formula(rng, 1)
            prin = Exists("x", body) if rule is RuleId.ExL else Forall("x", body)
            concl = (Sequent(gamma + (prin,), delta) if rule is RuleId.ExL
                     else Sequent(gamma, delta + (prin,)))
            return rule_instance(rule, concl, sig=SIG, principal=prin, eigenvar="z")
        if rule in (RuleId.ExR, RuleId.AllL):
            body = _formula(rng, 1)
            prin = Exists("x", body) if rule is RuleId.ExR else Forall("x", body)
            concl = (Sequent(gamma, delta + (prin,)) if rule is RuleId.ExR
                     else Sequent(gamma + (prin,), delta))
            return rule_instance(rule, concl, sig=SIG, principal=prin,
                                 witness=_term(rng))
        if rule in (RuleId.EqL1, RuleId.EqL2):
            eq = Eq(_term(rng), _term(rng))
            hole = "h"
            tmpl = substitute(_formula(rng, 1), {rng.choice(VARS): Var(hole)})
            shown_side = eq.rhs if rule is RuleId.EqL1 else eq.lhs
            shown = substitute(tmpl, {hole: shown_side})
            concl = Sequent(gamma + (eq,), delta + (shown,))
            return rule_instance(rule, concl, sig=SIG, principal=eq,
                                 template=(tmpl, hole))
        if rule is RuleId.TopR:
            return rule_instance(rule, Sequent(gamma, delta + (Top(),)), principal=Top())
        if rule is RuleId.BotL:
            return rule_instance(rule, Sequent(gamma + (Bot(),), delta), principal=Bot())
        if rule is RuleId.Cut:
            cf = _formula(rng, 1)
            concl = Sequent(gamma, delta)
            return rule_instance(rule, concl, sig=SIG, cut_formula=cf)
        if rule is RuleId.Subst:
            source = Sequent(gamma, delta)
            theta = {v: _term(rng) for v in sorted(source.free_vars())
                     if rng.random() < 0.6}
            concl = source.substituted(theta)
            return rule_instance(rule, concl, sig=SIG,
                                 substitution=make_subst(theta), source=source)
        if rule is RuleId.RtcStep:
            prin = _rtc(rng)
            concl = Sequent(gamma, delta + (prin,))
            return rule_instance(rule, concl, sig=SIG, principal=prin,
                                 witness=_term(rng))
        if rule is RuleId.RtcCase:
            prin = _rtc(rng)
            concl = Sequent(gamma + (prin,), delta)
            return rule_instance(rule, concl, sig=SIG, principal=prin, eigenvar="z")
        if rule is RuleId.RtcInd:
            prin = _rtc(rng)
            psi = rng.choice([Pred("q", (Var("h"),)),
                              Rtc("x", "y", Pred("e", (Var("x"), Var("y"))),
                                  _term(rng), Var("h"))])
            psi_s = substitute(psi, {"h": prin.src})
            psi_t = substitute(psi, {"h": prin.dst})
            concl = Sequent(gamma + (psi_s, prin), delta + (psi_t,))
            return rule_instance(rule, concl, sig=SIG, principal=prin,
                                 template=(psi, "h"), eigenvar="u", eigenvar2="v")
    except Exception:
        return None
    return None


def generate_instances(seed, count):
    """Exactly `count` kernel-valid instances, deterministic per seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = generate_instance(rng)
        if inst is not None:
            out.append(inst)
    return out


# ---------------------------------------------------------------------------
# Ill-formed instances: one perturbation of a kernel-valid one


def _leaf(rng):
    """A kernel-valid Axiom, EqR or RtcRefl instance."""
    rule = rng.choice((RuleId.Axiom, RuleId.EqR, RuleId.RtcRefl))
    if rule is RuleId.Axiom:
        f = _formula(rng, 1)
        return rule_instance(rule, Sequent((f,), (f,)))
    if rule is RuleId.EqR:
        t = _term(rng)
        return rule_instance(rule, Sequent((), (Eq(t, t),)))
    r = _rtc(rng)
    prin = Rtc(r.x, r.y, r.body, r.src, r.src)
    concl = Sequent(_context(rng, rng.randrange(2)), _context(rng, rng.randrange(2)) + (prin,))
    return rule_instance(rule, concl, sig=SIG, principal=prin)


def _sides_differ(rng, inst):
    """A leaf whose two sides, or whose rtc endpoints, differ."""
    if inst.rule is RuleId.Axiom:
        f, g = inst.conclusion.antecedent[0], _formula(rng, 1)
        return None if g == f else dataclasses.replace(inst, conclusion=Sequent((f,), (g,)))
    if inst.rule is RuleId.EqR:
        t, u = _term(rng), _term(rng)
        return None if t == u else dataclasses.replace(inst, conclusion=Sequent((), (Eq(t, u),)))
    if inst.rule is RuleId.RtcRefl:
        old, u = inst.params.principal, _term(rng)
        if u == old.src:
            return None
        new = Rtc(old.x, old.y, old.body, old.src, u)
        concl = inst.conclusion.without_succ(old).with_succ(new)
        return dataclasses.replace(inst, conclusion=concl,
                                   params=dataclasses.replace(inst.params, principal=new))
    return None


def _principal_moved(rng, inst):
    """The conclusion with its principal on the wrong side, or dropped."""
    side, f = SCHEMA[inst.rule].side, inst.params.principal
    if side is None:
        return None
    c = inst.conclusion
    rest = c.without_ant(f) if side == "antecedent" else c.without_succ(f)
    if rng.random() < 0.5:
        return dataclasses.replace(inst, conclusion=rest)
    moved = rest.with_succ(f) if side == "antecedent" else rest.with_ant(f)
    return dataclasses.replace(inst, conclusion=moved)


def _premise_changed(rng, inst):
    """One premise with a formula dropped or added."""
    if not inst.premises:
        return None
    i = rng.randrange(len(inst.premises))
    prem = inst.premises[i]
    formulas = [(side, f) for side in ("antecedent", "succedent") for f in getattr(prem, side)]
    if formulas and rng.random() < 0.5:
        side, f = rng.choice(formulas)
        prem = prem.without_ant(f) if side == "antecedent" else prem.without_succ(f)
    else:
        g = _formula(rng, 1)
        prem = prem.with_ant(g) if rng.random() < 0.5 else prem.with_succ(g)
    premises = inst.premises[:i] + (prem,) + inst.premises[i + 1:]
    return dataclasses.replace(inst, premises=premises)


def _eigenvar_taken(rng, inst):
    """An eigenvariable made free in the context of the conclusion and of
    every premise."""
    names = [v for v in (inst.params.eigenvar, inst.params.eigenvar2) if v is not None]
    if not names:
        return None
    taken = Pred("q", (Var(rng.choice(names)),))
    return dataclasses.replace(inst, conclusion=inst.conclusion.with_ant(taken),
                               premises=tuple(p.with_ant(taken) for p in inst.premises))


def _swapped(f, k):
    """f with the two terms of its k-th two-term atom swapped: an equation,
    an `e` atom or an rtc formula's endpoints."""
    def go(g):
        nonlocal k
        binders, subs, terms = parts(g)
        if len(terms) == 2:
            k -= 1
            if k == -1:
                return rebuild(g, binders, subs, terms[::-1])
        return rebuild(g, binders, tuple(go(h) for h in subs), terms)

    return go(f)


def _args_swapped(rng, inst):
    """One two-term atom of the conclusion or of one premise, its terms
    swapped."""
    i = rng.randrange(1 + len(inst.premises))
    seq = (inst.conclusion,) + inst.premises
    side = rng.choice(("antecedent", "succedent"))
    fs = getattr(seq[i], side)
    if not fs:
        return None
    f = rng.choice(fs)
    n = sum(len(parts(g)[2]) == 2 for g in subformulas(f))
    if n == 0:
        return None
    g = _swapped(f, rng.randrange(n))
    if g == f:
        return None
    new = seq[i].without_ant(f).with_ant(g) if side == "antecedent" \
        else seq[i].without_succ(f).with_succ(g)
    if i == 0:
        return dataclasses.replace(inst, conclusion=new)
    return dataclasses.replace(inst, premises=seq[1:i] + (new,) + seq[i + 1:])


PERTURBATIONS = {
    "principal": _principal_moved,
    "premise": _premise_changed,
    "eigenvariable": _eigenvar_taken,
    "sides": _sides_differ,
    "swap": _args_swapped,
}


def perturbed_instances(seed, count):
    """Exactly `count` (perturbation, instance) pairs, deterministic per seed:
    each instance is a kernel-valid one (a leaf one time in four) changed in
    one place by the named perturbation."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        inst = _leaf(rng) if rng.random() < 0.25 else generate_instance(rng)
        name = rng.choice(list(PERTURBATIONS))
        bad = None if inst is None else PERTURBATIONS[name](rng, inst)
        if bad is not None and bad != inst:
            out.append((name, bad))
    return out
