"""Bounded automated search for cut-free cyclic (and finite) proofs.

Iterative deepening over a deterministic, fair move order: closure moves
(axioms, theory instances), cycle formation against ancestors, invertible
propositional rules, case unfolding, equality rewrites, then witness rules
round-robined over a finite term pool.  Cycle formation is pre-filtered by
the composed trace matrix of the would-be cycle and every complete
candidate is re-checked by the structural validator and the global trace
condition before being accepted.  Counter-model search runs interleaved
with the deepening, so invalid goals are refuted quickly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .errors import BudgetExceeded, RtcError
from .kernel import (RuleId, RuleInstance, make_subst, match_sequent,
                     rule_instance)
from .proofgraph import GraphBuilder, ProofGraph, renumber, validate_structure
from .semantics import FiniteModel, Valuation, find_counter_model
from .syntax import (And, App, Eq, Exists, Forall, Formula, Implies, Not,
                     Or, Rtc, Sequent, Signature, Term, Var, formula_subterms,
                     free_vars, fresh_name, parts, rebuild, substitute,
                     term_key, term_vars)
from .tracecheck import EdgeMatrix, check_global_trace_condition, edge_matrix


@dataclass
class SearchConfig:
    max_depth: int = 12
    max_nodes: int = 100_000
    allow_cut: bool = False
    theory: tuple[Sequent, ...] = ()
    sig: Signature = field(default_factory=Signature.make)
    refute_size: int = 3
    fresh_pool: int = 1
    global_companions: bool = False


@dataclass
class Proved:
    graph: ProofGraph


@dataclass
class Refuted:
    model: FiniteModel
    valuation: Valuation


@dataclass
class Unknown:
    reason: str  # "depth" | "budget"


SearchOutcome = Proved | Refuted | Unknown


# ---------------------------------------------------------------------------
# Plans: lightweight proof trees built during search

@dataclass
class Plan:
    rule: RuleInstance | None            # None for buds
    children: tuple["Plan", ...] = ()
    companion_token: int | None = None
    sequent: Sequent | None = None
    token: int | None = None

    def conclusion(self) -> Sequent:
        return self.rule.conclusion if self.rule is not None else self.sequent


def _leaf(rule: RuleInstance) -> Plan:
    return Plan(rule)


def _node(rule: RuleInstance, *children: Plan) -> Plan:
    return Plan(rule, tuple(children))


def _weaken_plan(target: Sequent, inner: Plan, theory=(), sig=None) -> Plan:
    """Wrap inner in WL/WR nodes until its conclusion grows to target."""
    plan = inner
    current = inner.conclusion()
    for f in target.antecedent:
        if f not in set(current.antecedent):
            current = current.with_ant(f)
            plan = _node(rule_instance(RuleId.WL, current, theory, sig, principal=f), plan)
    for f in target.succedent:
        if f not in set(current.succedent):
            current = current.with_succ(f)
            plan = _node(rule_instance(RuleId.WR, current, theory, sig, principal=f), plan)
    assert current == target
    return plan


def _axiom_plan(seq: Sequent, phi: Formula) -> Plan:
    core = Sequent((phi,), (phi,))
    return _weaken_plan(seq, _leaf(rule_instance(RuleId.Axiom, core)))


def assemble(plan: Plan) -> ProofGraph:
    b = GraphBuilder()
    token2id: dict[int, int] = {}

    def walk(p: Plan) -> int:
        nid = b.reserve()
        if p.token is not None:
            token2id[p.token] = nid
        if p.rule is None:
            b.fill_bud(nid, p.sequent, token2id[p.companion_token])
        else:
            kids = tuple(walk(c) for c in p.children)
            b.fill_internal(nid, p.rule, kids)
        return nid

    root = walk(plan)
    return b.graph(root)


# ---------------------------------------------------------------------------
# Moves

@dataclass
class Move:
    subgoals: tuple[Sequent, ...]
    matrices: tuple[EdgeMatrix, ...]
    build: Callable[[list[Plan]], Plan]
    rid: RuleId | None = None
    params: object = None


def _rule_move(rule: RuleInstance) -> Move:
    mats = tuple(edge_matrix(rule, i) for i in range(len(rule.premises)))
    return Move(rule.premises, mats, lambda kids, r=rule: _node(r, *kids),
                rule.rule, rule.params)


def _try_rule(out: list[Move], rid: RuleId, concl: Sequent, cfg: SearchConfig,
              **params) -> None:
    try:
        out.append(_rule_move(rule_instance(rid, concl, cfg.theory, cfg.sig, **params)))
    except RtcError:
        pass


def _chain_matrix(plan: Plan) -> EdgeMatrix:
    """Composed matrix along a linear plan chain (each node one child)."""
    mat: EdgeMatrix | None = None
    p = plan
    while p.rule is not None and p.children:
        m = edge_matrix(p.rule, 0)
        mat = m if mat is None else mat.compose(m)
        p = p.children[0]
    if mat is None:
        keys = [f.key() for f in plan.conclusion().antecedent if isinstance(f, Rtc)]
        mat = EdgeMatrix({(k, k): False for k in keys})
    return mat


def _term_pool(seq: Sequent, cfg: SearchConfig) -> list[Term]:
    terms: dict[str, Term] = {}
    for f in seq.antecedent + seq.succedent:
        for t in formula_subterms(f):
            terms.setdefault(term_key(t, {}), t)
    pool = [terms[k] for k in sorted(terms)]
    avoid = seq.free_vars()
    for _ in range(cfg.fresh_pool):
        name = fresh_name(avoid, hint="_v")
        avoid = avoid | {name}
        pool.append(Var(name))
    return pool


def _replace_term(f: Formula, old: Term, new: Term) -> Formula:
    """Replace free occurrences of the term old; conservatively skips binder
    scopes that capture variables of old or new."""
    blocked = term_vars(old) | term_vars(new)

    def goterm(t: Term) -> Term:
        if t == old:
            return new
        if isinstance(t, App):
            return App(t.fn, tuple(goterm(a) for a in t.args))
        return t

    def go(g: Formula) -> Formula:
        binders, subs, terms = parts(g)
        if blocked.isdisjoint(binders):
            subs = tuple(go(h) for h in subs)
        return rebuild(g, binders, subs, tuple(goterm(t) for t in terms))

    return go(f)


@dataclass
class Ancestor:
    sequent: Sequent
    token: int
    matrix: EdgeMatrix  # composed from the ancestor node down to the current node


def _bud_moves(seq: Sequent, ancestors: tuple[Ancestor, ...],
               registry: tuple[tuple[Sequent, int], ...],
               cfg: SearchConfig) -> Iterator[Move]:
    def closure_plan(target: Sequent, comp_seq: Sequent, token: int,
                     theta: dict[str, Term]) -> Plan:
        bud = Plan(None, (), token, comp_seq)
        inst = comp_seq.substituted(theta)
        inner = bud if not theta and inst == comp_seq else _node(
            rule_instance(RuleId.Subst, inst, cfg.theory, cfg.sig,
                          substitution=make_subst(theta), source=comp_seq), bud)
        return _weaken_plan(target, inner, cfg.theory, cfg.sig)

    for anc in ancestors:
        for theta in match_sequent(anc.sequent, seq):
            plan = closure_plan(seq, anc.sequent, anc.token, theta)
            cyc = anc.matrix.compose(_chain_matrix(plan))
            if cyc.idempotent_power().has_progressing_diagonal():
                yield Move((), (), lambda kids, p=plan: p, RuleId.Subst, theta)
    if cfg.global_companions:
        anc_tokens = {a.token for a in ancestors}
        for comp_seq, token in registry:
            if token in anc_tokens:
                continue
            for theta in match_sequent(comp_seq, seq):
                plan = closure_plan(seq, comp_seq, token, theta)
                yield Move((), (), lambda kids, p=plan: p, RuleId.Subst, theta)
                break  # one instance per companion is plenty


def moves(seq: Sequent, ancestors: tuple[Ancestor, ...],
          registry: tuple[tuple[Sequent, int], ...],
          cfg: SearchConfig) -> Iterator[Move]:
    """Deterministic fair candidate ordering: closures and theory leaves,
    cycle formation, invertible rules, case unfolding, equality rewrites,
    then (rule, witness) pairs round-robined over the term pool."""
    ant, suc = seq.antecedent, seq.succedent
    ant_set, suc_set = set(ant), set(suc)

    # 1. closure moves
    for f in ant:
        if f in suc_set:
            yield Move((), (), lambda kids, p=_axiom_plan(seq, f): p, RuleId.Axiom, f)
            break
    for f in suc:
        if isinstance(f, Eq) and f.lhs == f.rhs:
            core = Sequent((), (f,))
            leaf = _leaf(rule_instance(RuleId.EqR, core))
            yield Move((), (), lambda kids, p=_weaken_plan(seq, leaf): p, RuleId.EqR, f)
            break
    for f in suc:
        if isinstance(f, Rtc) and f.src == f.dst:
            try:
                leaf = _leaf(rule_instance(RuleId.RtcRefl, seq, cfg.theory,
                                           cfg.sig, principal=f))
            except RtcError:
                continue
            yield Move((), (), lambda kids, p=leaf: p, RuleId.RtcRefl, f)
    if cfg.sig.pair_symbol and cfg.sig.pair_constant:
        for f in ant:
            try:
                leaf = _leaf(rule_instance(RuleId.PairConstAx, seq, cfg.theory,
                                           cfg.sig, principal=f))
            except RtcError:
                continue
            yield Move((), (), lambda kids, p=leaf: p, RuleId.PairConstAx, f)
            break
    for ax in cfg.theory:
        for theta in match_sequent(ax, seq):
            inst = ax.substituted(theta)
            leaf = _leaf(rule_instance(RuleId.TheoryAxiom, inst, cfg.theory, cfg.sig))
            yield Move((), (), lambda kids, p=_weaken_plan(seq, leaf, cfg.theory, cfg.sig): p,
                       RuleId.TheoryAxiom, inst)

    # 2. cycle formation
    yield from _bud_moves(seq, ancestors, registry, cfg)

    # 3. invertible rules
    out: list[Move] = []
    for f in ant:
        if isinstance(f, And):
            _try_rule(out, RuleId.AndL, seq, cfg, principal=f)
        elif isinstance(f, Not):
            _try_rule(out, RuleId.NotL, seq, cfg, principal=f)
        elif isinstance(f, Exists):
            z = fresh_name(seq.free_vars(), hint="_v")
            _try_rule(out, RuleId.ExL, seq, cfg, principal=f, eigenvar=z)
    for f in suc:
        if isinstance(f, Or):
            _try_rule(out, RuleId.OrR, seq, cfg, principal=f)
        elif isinstance(f, Implies):
            _try_rule(out, RuleId.ImpR, seq, cfg, principal=f)
        elif isinstance(f, Not):
            _try_rule(out, RuleId.NotR, seq, cfg, principal=f)
        elif isinstance(f, Forall):
            z = fresh_name(seq.free_vars(), hint="_v")
            _try_rule(out, RuleId.AllR, seq, cfg, principal=f, eigenvar=z)
    for f in suc:
        if isinstance(f, And):
            _try_rule(out, RuleId.AndR, seq, cfg, principal=f)
    for f in ant:
        if isinstance(f, Or):
            _try_rule(out, RuleId.OrL, seq, cfg, principal=f)
        elif isinstance(f, Implies):
            _try_rule(out, RuleId.ImpL, seq, cfg, principal=f)
    yield from out

    # 4. case unfolding of antecedent closures
    for f in ant:
        if isinstance(f, Rtc):
            z = fresh_name(seq.free_vars(), hint="_v")
            caseout: list[Move] = []
            _try_rule(caseout, RuleId.RtcCase, seq, cfg, principal=f, eigenvar=z)
            yield from caseout

    # 5. equality rewrites (all-occurrence templates, both directions)
    for eq in ant:
        if not isinstance(eq, Eq) or eq.lhs == eq.rhs:
            continue
        hole = fresh_name(seq.free_vars(), hint="_h")
        for target in suc:
            eqout: list[Move] = []
            tmpl1 = _replace_term(target, eq.rhs, Var(hole))
            if tmpl1 != target:
                _try_rule(eqout, RuleId.EqL1, seq, cfg, principal=eq,
                          template=(tmpl1, hole))
            tmpl2 = _replace_term(target, eq.lhs, Var(hole))
            if tmpl2 != target:
                _try_rule(eqout, RuleId.EqL2, seq, cfg, principal=eq,
                          template=(tmpl2, hole))
            yield from eqout

    # 6. witness rules, round-robined so every (rule, witness) pair appears
    pool = _term_pool(seq, cfg)
    for w in pool:
        wout: list[Move] = []
        for f in suc:
            if isinstance(f, Rtc):
                _try_rule(wout, RuleId.RtcStep, seq, cfg, principal=f, witness=w)
            elif isinstance(f, Exists):
                _try_rule(wout, RuleId.ExR, seq, cfg, principal=f, witness=w)
        for f in ant:
            if isinstance(f, Forall):
                _try_rule(wout, RuleId.AllL, seq, cfg, principal=f, witness=w)
        yield from wout

    # 7. analytic cuts driven by theory axioms: when all but one antecedent
    # formula of an axiom instance is already present, cut in the missing one
    for ax in cfg.theory:
        for i, missing in enumerate(ax.antecedent):
            rest = Sequent(ax.antecedent[:i] + ax.antecedent[i + 1:], ax.succedent)
            for theta in match_sequent(rest, seq):
                if not free_vars(missing) <= set(theta):
                    continue
                cut_f = substitute(missing, theta)
                if cut_f in ant_set:
                    continue
                cutout: list[Move] = []
                _try_rule(cutout, RuleId.Cut, seq, cfg, cut_formula=cut_f)
                yield from cutout

    # 8. experimental unrestricted cuts over sequent subformulas
    if cfg.allow_cut:
        seen: set[str] = set()
        for f in ant + suc:
            for sub in _subformulas(f):
                if sub.key() in seen or sub in ant_set:
                    continue
                seen.add(sub.key())
                cutout = []
                _try_rule(cutout, RuleId.Cut, seq, cfg, cut_formula=sub)
                yield from cutout


def _subformulas(f: Formula) -> Iterator[Formula]:
    """f and its subformulas under propositional connectives only."""
    yield f
    binders, subs, _ = parts(f)
    if not binders:
        for g in subs:
            yield from _subformulas(g)


# ---------------------------------------------------------------------------
# Search

class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceeded("search node budget exhausted")


def _search(seq: Sequent, depth: int, ancestors: tuple[Ancestor, ...],
            registry: tuple[tuple[Sequent, int], ...], cfg: SearchConfig,
            budget: _Budget, tokens: itertools.count) -> Iterator[Plan]:
    token = next(tokens)
    for move in moves(seq, ancestors, registry, cfg):
        budget.spend()
        if not move.subgoals:
            plan = move.build([])
            plan.token = token
            yield plan
            continue
        if depth == 0:
            continue

        def expand(i: int, acc: list[Plan],
                   reg: tuple[tuple[Sequent, int], ...]) -> Iterator[Plan]:
            if i == len(move.subgoals):
                plan = move.build(acc)
                plan.token = token
                yield plan
                return
            next_anc = tuple(Ancestor(a.sequent, a.token,
                                      a.matrix.compose(move.matrices[i]))
                             for a in ancestors)
            next_anc += (Ancestor(seq, token, move.matrices[i]),)
            for sub in _search(move.subgoals[i], depth - 1, next_anc, reg,
                               cfg, budget, tokens):
                sub_reg = reg
                if cfg.global_companions:
                    sub_reg = reg + tuple(_collect_tokens(sub))
                yield from expand(i + 1, acc + [sub], sub_reg)

        yield from expand(0, [], registry)


def _collect_tokens(plan: Plan) -> Iterator[tuple[Sequent, int]]:
    if plan.rule is not None and plan.token is not None:
        yield plan.conclusion(), plan.token
    for c in plan.children:
        yield from _collect_tokens(c)


def prove(goal: Sequent, cfg: SearchConfig) -> SearchOutcome:
    """Search for a checker-accepted proof of goal, interleaved with bounded
    counter-model search; deterministic for a fixed configuration."""
    budget = _Budget(cfg.max_nodes)
    exhausted_depth = True
    for depth in range(1, cfg.max_depth + 1):
        try:
            for plan in _search(goal, depth, (), (), cfg, budget, itertools.count()):
                g = assemble(plan)
                errs = validate_structure(g, cfg.theory, cfg.sig)
                if errs:
                    raise AssertionError(f"prover built an invalid graph: {errs[0]}")
                if check_global_trace_condition(g).accepted:
                    return Proved(renumber(g))
        except BudgetExceeded:
            exhausted_depth = False
            break
        if depth <= cfg.refute_size:
            try:
                found = find_counter_model(goal, depth, cfg.theory, cfg.sig,
                                           budget=cfg.max_nodes)
                if found is not None:
                    return Refuted(found[0], found[1])
            except BudgetExceeded:
                pass
    return Unknown("depth" if exhausted_depth else "budget")

