"""Syntactic translations.

* `derive_induction(b, ind, step)` adds to the `GraphBuilder` b the cyclic
  derivation that simulates `ind`, an instance of the explicit induction
  rule RtcInd that the kernel re-checks: a Subst / RtcCase / Cut / Subst
  cycle around a companion, whose step Subst rests on the caller's node
  `step`, the proof of ind's premise.  The rule's side conditions are the
  kernel's alone.
* `explicit_to_cyclic` rewrites a finite proof using explicit induction into
  a cyclic proof with one cycle per eliminated induction node.
* `beta_translate` eliminates the transitive-closure operator over the
  arithmetic signature via a beta-function predicate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotApplicable, SignatureMismatch
from .kernel import (RuleId, RuleInstance, check_rule_instance, make_subst,
                     rule_instance)
from .proofgraph import GraphBuilder, ProofGraph, renumber
from .syntax import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                     Not, Or, Pred, Rtc, Sequent, Signature, Term, Var,
                     formula_subterms, free_vars, fresh_name, parts, rebuild,
                     substitute, term_vars)

ARITH_SIGNATURE = Signature.make(constants={"0"}, functions={"s": 1, "add": 2})


def _pick(hints: tuple[str, ...], taken: set[str]) -> list[str]:
    """One name per hint, distinct and outside `taken`: the hint itself
    where it is free, else the first free hint0, hint1, ..."""
    out: list[str] = []
    for hint in hints:
        avoid = taken | set(out)
        out.append(hint if hint not in avoid else fresh_name(avoid, hint=hint))
    return out


def derive_induction(b: GraphBuilder, ind: RuleInstance, step: int,
                     constants: frozenset[str] = frozenset()) -> int:
    """Add to b the cyclic simulation of the explicit induction instance
    `ind` and return the id of its root.  The variables it adds are named
    apart from the signature's `constants`, which a proof file would read
    them as.

    ind is an RtcInd instance, checked here by the kernel.  Its conclusion
    is Γ, ψ(s), (rtc u v. φ)(s, t) |- Δ, ψ(t), and its one premise, the
    induction step Γ, ψ(x), φ(x, y) |- Δ, ψ(y) for its two variables x and
    y, is the caller's node `step`, which must already be in b.  The root
    concludes ind's conclusion with the closure's binders renamed to x, y.
    """
    check_rule_instance(ind)
    (step_seq,) = ind.premises
    if b.nodes[step].sequent != step_seq:
        raise NotApplicable(f"step node concludes {b.nodes[step].sequent}, "
                            f"induction step is {step_seq}")
    prin: Rtc = ind.params.principal
    template, tvar = ind.params.template
    x, y = ind.params.eigenvar, ind.params.eigenvar2
    s, t = prin.src, prin.dst
    phi = substitute(prin.body, {prin.x: Var(x), prin.y: Var(y)})
    psi = substitute(template, {tvar: Var(x)})
    psi_s = substitute(psi, {x: s})
    psi_t = substitute(psi, {x: t})
    gamma = tuple(f for f in ind.conclusion.antecedent if f not in (psi_s, prin))
    delta = tuple(f for f in ind.conclusion.succedent if f != psi_t)
    v, w, z = _pick(("v", "w", "z"), ind.conclusion.free_vars() | {x, y} | constants)

    closure = Rtc(x, y, phi, Var(v), Var(w))
    psi_v = substitute(psi, {x: Var(v)})
    psi_w = substitute(psi, {x: Var(w)})
    psi_z = substitute(psi, {x: Var(z)})
    phi_zw = substitute(phi, {x: Var(z), y: Var(w)})

    companion_seq = Sequent(gamma + (psi_v, closure), delta + (psi_w,))
    root_seq = Sequent(gamma + (psi_s, Rtc(x, y, phi, s, t)), delta + (psi_t,))
    companion = b.reserve()

    # left case branch: v = w, close by rewriting psi[v/x] into psi[w/x]
    case = rule_instance(RuleId.RtcCase, companion_seq, principal=closure, eigenvar=z)
    eq_prem = case.premises[0]
    eql = rule_instance(RuleId.EqL1, eq_prem, principal=Eq(Var(v), Var(w)),
                        template=(psi, x))
    ax = b.add_axiom_closure(eql.premises[0], psi_v)
    n_eq = b.add_internal(eql, (ax,))

    # right case branch: cut on psi[z/x]
    step_prem = case.premises[1]
    cut_left = Sequent(gamma + (psi_v, Rtc(x, y, phi, Var(v), Var(z))), delta)
    cut_right = Sequent(gamma + (phi_zw,), delta + (psi_w,))
    cut = rule_instance(RuleId.Cut, step_prem, cut_formula=psi_z,
                        cut_left=cut_left, cut_right=cut_right)

    # cut premise 0: substitute w := z in the companion, then loop back
    sub_back = rule_instance(RuleId.Subst, cut.premises[0],
                             substitution=make_subst({w: Var(z)}),
                             source=companion_seq)
    bud = b.add_bud(companion_seq, companion)
    n_back = b.add_internal(sub_back, (bud,))

    # cut premise 1: substitute x := z, y := w in the induction step
    sub_step = rule_instance(RuleId.Subst, cut.premises[1],
                             substitution=make_subst({x: Var(z), y: Var(w)}),
                             source=step_seq)
    n_step = b.add_internal(sub_step, (step,))

    n_cut = b.add_internal(cut, (n_back, n_step))
    b.fill_internal(companion, case, (n_eq, n_cut))
    root_rule = rule_instance(RuleId.Subst, root_seq,
                              substitution=make_subst({v: s, w: t}),
                              source=companion_seq)
    return b.add_internal(root_rule, (companion,))


def explicit_to_cyclic(p: ProofGraph, constants: frozenset[str] = frozenset()) -> ProofGraph:
    """Replace every explicit-induction node by its cyclic simulation, its
    new variables named apart from the signature's `constants`.

    The input must be a finite proof (no buds); the output has the same
    end-sequent, no RtcInd node, and one extra cycle per replaced node.
    Each input node is translated once, so a premise shared by several
    nodes stays shared.
    """
    if any(node.is_bud for node in p.nodes.values()):
        raise NotApplicable("input proof must be finite (no buds)")

    b = GraphBuilder()
    done: dict[int, int] = {}   # input id -> id in b of its translation
    for nid in p.unfold():
        if nid in done:
            continue
        node = p.nodes[nid]
        kids = tuple(done[c] for c in node.children)
        if node.rule is not RuleId.RtcInd:
            done[nid] = b.add_internal(p.instance(nid), kids)
            continue
        done[nid] = derive_induction(b, p.instance(nid), kids[0], constants)

    return renumber(b.graph(done[p.root]))


# ---------------------------------------------------------------------------
# Beta translation

@dataclass(frozen=True)
class BetaConfig:
    """Template predicate capturing a beta-function: B(c, i, k) holds when
    position i of the sequence coded by c equals k."""

    formula: Formula = field(default_factory=lambda: Pred("beta", (Var("c"), Var("i"), Var("k"))))

    def __post_init__(self):
        if free_vars(self.formula) != {"c", "i", "k"}:
            raise SignatureMismatch(
                "beta template must have free variables exactly ['c', 'i', 'k']")

    def apply(self, code: Term, index: Term, value: Term) -> Formula:
        return substitute(self.formula, {"c": code, "i": index, "k": value})


def _conj(fs: list[Formula]) -> Formula:
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def _check_arith(f: Formula) -> None:
    for t in formula_subterms(f):
        match t:
            case Const(name) if name != "0":
                raise SignatureMismatch(f"constant {name!r} outside the arithmetic signature")
            case App(fn, args) if (fn, len(args)) not in (("s", 1), ("add", 2)):
                raise SignatureMismatch(f"function {fn!r}/{len(args)} outside "
                                        "the arithmetic signature")
            case _:
                pass


def beta_translate(f: Formula, cfg: BetaConfig | None = None, mode: str = "pa") -> Formula:
    """Eliminate rtc over the arithmetic signature {0, s, add}.

    Homomorphic on everything but rtc; an rtc formula becomes the disjunction
    of endpoint equality with the existence of a beta-coded chain.  The
    bounded quantifier over chain positions is `forall u. u = z \\/ u < z ->`
    with `<` a primitive predicate `lt` in pa mode, or itself expanded
    through the closure encoding of the ordering in tc mode (tc output is
    rtc-free except for those ordering guards).
    """
    if mode not in ("pa", "tc"):
        raise ValueError(f"unknown beta translation mode {mode!r}")
    cfg = cfg or BetaConfig()
    _check_arith(f)

    def tr(g: Formula, avoid: set[str]) -> Formula:
        binders, subs, terms = parts(g)
        subs = tuple(tr(h, avoid | set(binders)) for h in subs)
        if isinstance(g, Rtc):
            return _expand_rtc(*binders, *subs, *terms, avoid)
        return rebuild(g, binders, subs, terms)

    def _expand_rtc(xv: str, yv: str, body: Formula, src: Term, dst: Term,
                    avoid: set[str]) -> Formula:
        used = (avoid | (free_vars(body) - {xv, yv})
                | term_vars(src) | term_vars(dst))
        z, c, u, v, w = names = _pick(("z", "c", "u", "v", "w"), used)
        B = cfg.apply
        step_body = substitute(body, {xv: Var(v), yv: Var(w)})
        inner_ex = Exists(v, Exists(w, _conj([
            B(Var(c), Var(u), Var(v)),
            B(Var(c), App("s", (Var(u),)), Var(w)),
            step_body])))
        if mode == "pa":
            less = Pred("lt", (Var(u), Var(z)))
        else:
            rb, ru = _pick(("w", "u"), used | set(names))
            less = And(Not(Eq(Var(u), Var(z))),
                       Rtc(rb, ru, Eq(App("s", (Var(rb),)), Var(ru)),
                           Var(u), Var(z)))
        guard = Forall(u, Implies(Or(Eq(Var(u), Var(z)), less), inner_ex))
        chain = Exists(z, Exists(c, _conj([
            B(Var(c), Const("0"), src),
            B(Var(c), App("s", (Var(z),)), dst),
            guard])))
        return Or(Eq(src, dst), chain)

    return tr(f, set())

