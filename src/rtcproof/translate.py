"""Syntactic translations.

* `derive_induction` builds the cyclic derivation that simulates the
  explicit induction rule: a Subst / RtcCase / Cut / Subst cycle around a
  companion, leaving the induction-step sequent as the single open premise.
* `explicit_to_cyclic` rewrites a finite proof using explicit induction into
  a cyclic proof with one cycle per eliminated induction node.
* `beta_translate` eliminates the transitive-closure operator over the
  arithmetic signature via a beta-function predicate.
* `encode_rtc2` encodes closures of 4-ary relations using ordered pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (FreshnessViolation, MissingPairSymbol, NotApplicable,
                     SignatureMismatch, VariableClash)
from .kernel import RuleId, make_subst, rule_instance
from .proofgraph import GraphBuilder, ProofGraph, ProofNode, renumber
from .syntax import (And, App, Const, Eq, Exists, Forall, Formula, Implies,
                     Not, Or, Pred, Rtc, Sequent, Signature, Term, Var,
                     all_names, formula_subterms, free_vars, fresh_name,
                     parts, rebuild, substitute, term_vars)

ARITH_SIGNATURE = Signature.make(constants={"0"}, functions={"s": 1, "add": 2})


def _pick(hints: tuple[str, ...], taken: set[str]) -> list[str]:
    """One name per hint, distinct and outside `taken`: the hint itself
    where it is free, else the first free hint0, hint1, ..."""
    out: list[str] = []
    for hint in hints:
        avoid = taken | set(out)
        out.append(hint if hint not in avoid else fresh_name(avoid, hint=hint))
    return out


@dataclass
class Fragment:
    """A proof graph with one open premise, to be closed by a subproof."""

    nodes: dict[int, ProofNode]
    root: int
    open_id: int
    open_sequent: Sequent

    def close(self, subproof: ProofGraph) -> ProofGraph:
        """Splice subproof (whose end-sequent must equal the open premise)."""
        nodes = dict(subproof.nodes)
        root = self.graft(nodes, max(subproof.nodes) + 1, subproof.root)
        return renumber(ProofGraph(nodes, root))

    def graft(self, nodes: dict[int, ProofNode], base: int, sub_root: int) -> int:
        """Copy the fragment into nodes at ids base + i, its open premise
        replaced by the node sub_root of nodes; returns the new root id."""
        if nodes[sub_root].sequent != self.open_sequent:
            raise NotApplicable(
                f"subproof concludes {nodes[sub_root].sequent}, "
                f"fragment needs {self.open_sequent}")

        def new_id(old: int) -> int:
            return sub_root if old == self.open_id else base + old

        for old, node in self.nodes.items():
            if old != self.open_id:
                nodes[base + old] = replace(
                    node, children=tuple(new_id(c) for c in node.children),
                    companion=None if node.companion is None else new_id(node.companion))
        return base + self.root


def derive_induction(gamma: tuple[Formula, ...], delta: tuple[Formula, ...],
                     phi: Formula, psi: Formula, x: str, y: str,
                     s: Term, t: Term) -> Fragment:
    """Cyclic simulation of the explicit induction rule.

    Root conclusion: Γ, ψ[s/x], (rtc x y. φ)(s, t) |- Δ, ψ[t/x], with the
    induction-step sequent Γ, ψ, φ |- Δ, ψ[y/x] as the one open premise.
    phi and psi are given with their free variables x (and y for phi).
    """
    ctx = Sequent(gamma, delta)
    ctx_vars = ctx.free_vars()
    if x == y:
        raise FreshnessViolation(y, "induction variables must be distinct")
    if x in ctx_vars:
        raise FreshnessViolation(x, "occurs free in the context")
    if y in ctx_vars | (free_vars(psi) - {x}):
        raise FreshnessViolation(y, "occurs free in the context or template")

    v, w, z = _pick(("v", "w", "z"), ctx_vars | free_vars(phi) | free_vars(psi)
                    | term_vars(s) | term_vars(t) | {x, y})

    closure = Rtc(x, y, phi, Var(v), Var(w))
    psi_v = substitute(psi, {x: Var(v)})
    psi_w = substitute(psi, {x: Var(w)})
    psi_z = substitute(psi, {x: Var(z)})
    psi_s = substitute(psi, {x: s})
    psi_t = substitute(psi, {x: t})
    phi_zw = substitute(phi, {x: Var(z), y: Var(w)})

    companion_seq = Sequent(gamma + (psi_v, closure), delta + (psi_w,))
    root_seq = Sequent(gamma + (psi_s, Rtc(x, y, phi, s, t)), delta + (psi_t,))
    open_seq = Sequent(gamma + (psi, phi), delta + (substitute(psi, {x: Var(y)}),))

    b = GraphBuilder()
    root = b.reserve()
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

    # cut premise 1: substitute x := z, y := w in the open induction step
    sub_step = rule_instance(RuleId.Subst, cut.premises[1],
                             substitution=make_subst({x: Var(z), y: Var(w)}),
                             source=open_seq)
    open_id = b.reserve()
    n_step = b.add_internal(sub_step, (open_id,))

    n_cut = b.add_internal(cut, (n_back, n_step))
    b.fill_internal(companion, case, (n_eq, n_cut))
    root_rule = rule_instance(RuleId.Subst, root_seq,
                              substitution=make_subst({v: s, w: t}),
                              source=companion_seq)
    b.fill_internal(root, root_rule, (companion,))
    b.nodes[open_id] = ProofNode(open_seq)  # placeholder
    return Fragment(b.nodes, root, open_id, open_seq)


def explicit_to_cyclic(p: ProofGraph) -> ProofGraph:
    """Replace every explicit-induction node by its cyclic simulation.

    The input must be a finite proof (no buds); the output has the same
    end-sequent, no RtcInd node, and one extra cycle per replaced node.
    """
    if any(node.is_bud for node in p.nodes.values()):
        raise NotApplicable("input proof must be finite (no buds)")

    nodes: dict[int, ProofNode] = {}
    done: list[int] = []   # new ids of translated subtrees, in post-order
    base = 0               # the next free id
    # post-order over the tree unfolding: a node after all its children
    stack = [(p.root, False)]
    while stack:
        nid, expanded = stack.pop()
        node = p.nodes[nid]
        if not expanded:
            stack.append((nid, True))
            stack.extend((c, False) for c in reversed(node.children))
            continue
        kids = done[len(done) - len(node.children):]
        del done[len(done) - len(node.children):]
        if node.rule is not RuleId.RtcInd:
            nodes[base] = replace(node, children=tuple(kids))
            done.append(base)
            base += 1
            continue
        params = node.params
        prin: Rtc = params.principal
        psi_tmpl, tvar = params.template
        x, y = params.eigenvar, params.eigenvar2
        psi_x = substitute(psi_tmpl, {tvar: Var(x)})
        phi_xy = substitute(prin.body, {prin.x: Var(x), prin.y: Var(y)})
        concl = node.sequent
        psi_s = substitute(psi_tmpl, {tvar: prin.src})
        psi_t = substitute(psi_tmpl, {tvar: prin.dst})
        gamma = tuple(f for f in concl.antecedent if f not in (psi_s, prin))
        delta = tuple(f for f in concl.succedent if f != psi_t)
        frag = derive_induction(gamma, delta, phi_xy, psi_x, x, y,
                                prin.src, prin.dst)
        done.append(frag.graft(nodes, base, kids[0]))
        base += max(frag.nodes) + 1

    return renumber(ProofGraph(nodes, done[0]))


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


def encode_rtc2(x1: str, x2: str, y1: str, y2: str, phi: Formula,
                s1: Term, s2: Term, t1: Term, t2: Term,
                sig: Signature) -> Formula:
    """Closure of a 4-ary relation via ordered pairs:
    (rtc x y. exists x1 x2 y1 y2. x = <x1,x2> /\\ y = <y1,y2> /\\ phi)
    applied to (<s1,s2>, <t1,t2>) with x, y fresh."""
    if sig.pair_symbol is None:
        raise MissingPairSymbol("signature has no pair symbol")
    quad = (x1, x2, y1, y2)
    if len(set(quad)) != 4:
        raise VariableClash(f"component variables must be distinct: {quad}")
    pair = sig.pair_symbol
    used = (all_names(phi) | set(quad)
            | term_vars(s1) | term_vars(s2) | term_vars(t1) | term_vars(t2))
    x = fresh_name(used, hint="_p")
    y = fresh_name(used | {x}, hint="_p")
    body: Formula = _conj([Eq(Var(x), App(pair, (Var(x1), Var(x2)))),
                           Eq(Var(y), App(pair, (Var(y1), Var(y2)))),
                           phi])
    for var in reversed(quad):
        body = Exists(var, body)
    return Rtc(x, y, body, App(pair, (s1, s2)), App(pair, (t1, t2)))
