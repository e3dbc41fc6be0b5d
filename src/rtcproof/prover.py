"""Bounded automated search for cyclic (and finite) proofs.

One search path: iterative deepening over a deterministic, fair move order.
A move is either a closed `Plan` (an axiom leaf or theory instance, or a
bud closing a cycle against an ancestor, under the weakenings it needs) or
a `RuleInstance` whose premises are the subgoals.  The order is: closure
moves, cycle formation, invertible propositional rules, case unfolding,
equality rewrites, pair injectivity (under a pair symbol), witness rules
round-robined over a finite term pool, then analytic cuts on theory
axioms.  The phases of rules with a principal, the pairing rules too, are
built from `kernel.SCHEMA`: each passes over one side of the sequent and
picks a formula's rule by its class, bar `RtcRefl`, `TopR` and `BotL`,
for speed.  Buds close only against ancestors, and a bud names its companion
by its depth on the search path, its index in the ancestor tuple, so a
subgoal's plans depend on the subgoal and its ancestors' sequents and trace
matrices alone, not on the search call that found them; `assemble` reads
each bud's companion off the search nodes of its path.  Cycle formation is
pre-filtered by the trace matrix of the would-be cycle: the ancestor's
matrix, composed with the bud's Subst edge's `tracecheck.edge_matrix` if any.
Every complete candidate is re-checked by the structural validator and the
global trace condition before being accepted.  Counter-model search runs
interleaved with the deepening, so invalid goals are refuted quickly.

Three cut-offs drop only work that can yield no plan, so the plans and
their order stay those of the search without them:
- a leaf (depth 0) builds only its closed moves, since an open move there
  has no room for its subgoals;
- a bud is tried only against an ancestor whose path down to the bud has
  a progressing trace step, since the Subst and weakening steps that close
  it never progress;
- when the premises after premise i find no plan for the first solution of
  premise i, the move ends, since their searches do not read that solution.
The node budget is one counter across the deepening iterations.  It counts
the moves that `moves` yields, so it counts only moves that the node can use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BudgetExceeded, RtcError
from .kernel import (SCHEMA, RuleId, RuleInstance, make_subst, match_sequent,
                     rule_instance)
from .proofgraph import GraphBuilder, ProofGraph, validate_structure, weakenings
from .semantics import FiniteModel, Valuation, find_counter_model
from .syntax import (Bot, Eq, Rtc, Sequent, Signature, Term, Top, Var,
                     all_names, formula_subterms, free_vars, fresh_name,
                     replace_terms, substitute, term_key)
from .tracecheck import EdgeMatrix, check_global_trace_condition, edge_matrix


@dataclass
class SearchConfig:
    max_depth: int = 12
    max_nodes: int = 100_000
    theory: tuple[Sequent, ...] = ()
    sig: Signature = field(default_factory=Signature.make)
    refute_size: int = 3


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
    companion: int | None = None         # a bud's companion, by its depth
    sequent: Sequent | None = None
    node: bool = False                   # a search node's open move: an ancestor

    def conclusion(self) -> Sequent:
        return self.rule.conclusion if self.rule is not None else self.sequent


def _weaken_plan(target: Sequent, inner: Plan) -> Plan:
    """Wrap inner in WL/WR nodes until its conclusion grows to target."""
    plan = inner
    for inst in weakenings(inner.conclusion(), target):
        plan = Plan(inst, (plan,))
    return plan


def assemble(plan: Plan) -> ProofGraph:
    """The plan tree as a graph numbered in preorder from the root 0.  A
    bud's companion is the search node at its depth on the bud's path."""
    b = GraphBuilder()

    def walk(p: Plan, path: tuple[int, ...]) -> int:
        nid = b.reserve()
        if p.node:
            path += (nid,)
        if p.rule is None:
            b.fill_bud(nid, p.sequent, path[p.companion])
        else:
            kids = tuple(walk(c, path) for c in p.children)
            b.fill_internal(nid, p.rule, kids)
        return nid

    root = walk(plan, ())
    return b.graph(root)


# ---------------------------------------------------------------------------
# Moves

def _rule(rid: RuleId, seq: Sequent, cfg: SearchConfig,
          **params) -> Iterator[RuleInstance]:
    """The instance of rid concluding seq, if the rule applies."""
    try:
        inst = rule_instance(rid, seq, cfg.theory, cfg.sig, **params)
    except RtcError:
        return
    yield inst


def _fresh(taken: set[str], cfg: SearchConfig, hint: str = "_v") -> str:
    """A name for the prover to invent, apart from `taken` and from the
    signature's constants: a proof file reads such a name back as the
    constant."""
    return fresh_name(taken | cfg.sig.constants, hint)


def _term_pool(seq: Sequent, cfg: SearchConfig) -> list[Term]:
    """The sequent's terms in key order, then one fresh variable."""
    terms: dict[str, Term] = {}
    for f in seq.antecedent + seq.succedent:
        for t in formula_subterms(f):
            terms.setdefault(term_key(t, {}), t)
    pool = [terms[k] for k in sorted(terms)]
    return pool + [Var(_fresh(seq.free_vars(), cfg))]


@dataclass
class Ancestor:
    sequent: Sequent
    matrix: EdgeMatrix  # composed from the ancestor node down to the current node


def _bud_moves(seq: Sequent, ancestors: tuple[Ancestor, ...],
               cfg: SearchConfig) -> Iterator[Plan]:
    """Buds closing seq against an ancestor whose cycle progresses.  Subst
    and weakening steps never progress, so an ancestor whose path down to
    seq has no progressing entry cannot close a good cycle.  The cycle's
    matrix skips the weakenings: they drop only pairs that end outside the
    ancestor, which compose no further and are not diagonal."""
    for depth, anc in enumerate(ancestors):
        if not any(anc.matrix.d.values()):
            continue
        for theta in match_sequent(anc.sequent, seq):
            bud = Plan(None, (), depth, anc.sequent)
            inst = anc.sequent.substituted(theta)
            inner, mat = bud, anc.matrix
            if theta or inst != anc.sequent:
                subst = rule_instance(RuleId.Subst, inst, cfg.theory, cfg.sig,
                                      substitution=make_subst(theta), source=anc.sequent)
                inner, mat = Plan(subst, (bud,)), mat.compose(edge_matrix(subst, 0))
            if mat.idempotent_power().has_progressing_diagonal():
                yield _weaken_plan(seq, inner)


def _phase(*rules: RuleId) -> tuple[str, dict[type, RuleId]]:
    """The side the rules' principals share, and each rule by the class of
    its principal."""
    return SCHEMA[rules[0]].side, {SCHEMA[r].cls: r for r in rules}


# the open moves with a principal, by phase in move order: each phase is
# one pass over one side of the sequent
_OPEN_PHASES = (
    _phase(RuleId.AndL, RuleId.NotL, RuleId.ExL),
    _phase(RuleId.OrR, RuleId.ImpR, RuleId.NotR, RuleId.AllR),
    _phase(RuleId.AndR),
    _phase(RuleId.OrL, RuleId.ImpL),
    _phase(RuleId.RtcCase),
)
_WITNESS_PHASES = (_phase(RuleId.RtcStep, RuleId.ExR), _phase(RuleId.AllL))
_PAIR_CONST_PHASES = (_phase(RuleId.PairConstAx),)
_PAIR_INJ_PHASES = (_phase(RuleId.PairInj),)
_TOP, _BOT = Top(), Bot()


def _principal_moves(seq: Sequent, cfg: SearchConfig, phases,
                     **params) -> Iterator[RuleInstance]:
    """The phases' instances on seq, each principal in side order; a rule
    that takes an eigenvariable gets a fresh one."""
    for side, rules in phases:
        for f in getattr(seq, side):
            rid = rules.get(f.__class__)
            if rid is not None and "eigenvar" in SCHEMA[rid].params:
                z = _fresh(seq.free_vars(), cfg)
                yield from _rule(rid, seq, cfg, principal=f, eigenvar=z)
            elif rid is not None:
                yield from _rule(rid, seq, cfg, principal=f, **params)


def moves(seq: Sequent, ancestors: tuple[Ancestor, ...], cfg: SearchConfig,
          depth: int) -> Iterator[Plan | RuleInstance]:
    """Deterministic fair candidate ordering: closures and theory leaves,
    cycle formation, invertible rules, case unfolding, equality rewrites,
    pair injectivity, (rule, witness) pairs round-robined over the term
    pool, then cuts driven by theory axioms.  A closed move is a Plan; any other move is a
    RuleInstance whose premises are the subgoals.  The closed moves come
    first, and at depth 0 they are the only ones, since a leaf has no room
    for subgoals."""
    ant, suc = seq.antecedent, seq.succedent
    ant_set, suc_set = set(ant), set(suc)

    # 1. closure moves
    for f in ant:
        if f in suc_set:
            yield _weaken_plan(seq, Plan(rule_instance(RuleId.Axiom, Sequent((f,), (f,)))))
            break
    for f in suc:
        if isinstance(f, Eq) and f.lhs == f.rhs:
            yield _weaken_plan(seq, Plan(rule_instance(RuleId.EqR, Sequent((), (f,)))))
            break
    # not a phase: the endpoint test here is cheaper than a kernel call on
    # every rtc succedent, which made `prove` 6% slower
    for f in suc:
        if isinstance(f, Rtc) and f.src == f.dst:
            yield from map(Plan, _rule(RuleId.RtcRefl, seq, cfg, principal=f))
    # nor are these: a phase over both sides made `prove` 2.5% slower
    if _TOP in suc_set:
        yield Plan(rule_instance(RuleId.TopR, seq, principal=_TOP))
    if _BOT in ant_set:
        yield Plan(rule_instance(RuleId.BotL, seq, principal=_BOT))
    if cfg.sig.pair_symbol and cfg.sig.pair_constant:
        leaves = _principal_moves(seq, cfg, _PAIR_CONST_PHASES)
        yield from map(Plan, itertools.islice(leaves, 1))
    for ax in cfg.theory:
        for theta in match_sequent(ax, seq):
            inst = ax.substituted(theta)
            yield _weaken_plan(seq, Plan(rule_instance(RuleId.TheoryAxiom, inst,
                                                       cfg.theory, cfg.sig)))

    # 2. cycle formation
    yield from _bud_moves(seq, ancestors, cfg)
    if depth == 0:
        return

    # 3. invertible rules, then 4. case unfolding of antecedent closures
    yield from _principal_moves(seq, cfg, _OPEN_PHASES)

    # 5. equality rewrites (all-occurrence templates, both directions)
    for eq in ant:
        if not isinstance(eq, Eq) or eq.lhs == eq.rhs:
            continue
        # apart from bound names too: `replace_terms` leaves alone a scope
        # that binds the hole
        hole = _fresh(set().union(*map(all_names, ant + suc)), cfg, hint="_h")
        for target in suc:
            tmpl1 = replace_terms(target, {eq.rhs: Var(hole)})
            if tmpl1 != target:
                yield from _rule(RuleId.EqL1, seq, cfg, principal=eq, template=(tmpl1, hole))
            tmpl2 = replace_terms(target, {eq.lhs: Var(hole)})
            if tmpl2 != target:
                yield from _rule(RuleId.EqL2, seq, cfg, principal=eq, template=(tmpl2, hole))

    # 6. pair injectivity, under a signature with a pair symbol
    if cfg.sig.pair_symbol:
        yield from _principal_moves(seq, cfg, _PAIR_INJ_PHASES)

    # 7. witness rules, round-robined so every (rule, witness) pair appears
    for w in _term_pool(seq, cfg):
        yield from _principal_moves(seq, cfg, _WITNESS_PHASES, witness=w)

    # 8. analytic cuts driven by theory axioms: when all but one antecedent
    # formula of an axiom instance is already present, cut in the missing one
    for ax in cfg.theory:
        for i, missing in enumerate(ax.antecedent):
            rest = Sequent(ax.antecedent[:i] + ax.antecedent[i + 1:], ax.succedent)
            for theta in match_sequent(rest, seq):
                if not free_vars(missing) <= set(theta):
                    continue
                cut_f = substitute(missing, theta)
                if cut_f not in ant_set:
                    yield from _rule(RuleId.Cut, seq, cfg, cut_formula=cut_f)


# ---------------------------------------------------------------------------
# Search

def _search(seq: Sequent, depth: int, ancestors: tuple[Ancestor, ...],
            cfg: SearchConfig, spent: Iterator[int]) -> Iterator[Plan]:
    for move in moves(seq, ancestors, cfg, depth):
        if next(spent) > cfg.max_nodes:
            raise BudgetExceeded("search node budget exhausted")
        if isinstance(move, Plan):
            yield move
            continue

        def expand(i: int, acc: tuple[Plan, ...]) -> Iterator[Plan]:
            if i == len(move.premises):
                yield Plan(move, acc, node=True)
                return
            mat = edge_matrix(move, i)
            below = tuple(Ancestor(a.sequent, a.matrix.compose(mat)) for a in ancestors)
            below += (Ancestor(seq, mat),)
            for sub in _search(move.premises[i], depth - 1, below, cfg, spent):
                closed = False
                for plan in expand(i + 1, acc + (sub,)):
                    closed = True
                    yield plan
                if not closed:
                    # premises i+1... are searched apart from acc, so they
                    # fail for every other solution of premise i as well
                    return

        yield from expand(0, ())


def prove(goal: Sequent, cfg: SearchConfig) -> SearchOutcome:
    """Search for a checker-accepted proof of goal, interleaved with bounded
    counter-model search; deterministic for a fixed configuration."""
    spent = itertools.count(1)
    exhausted_depth = True
    for depth in range(1, cfg.max_depth + 1):
        try:
            for plan in _search(goal, depth, (), cfg, spent):
                g = assemble(plan)
                errs = validate_structure(g, cfg.theory, cfg.sig)
                if errs:
                    raise AssertionError(f"prover built an invalid graph: {errs[0]}")
                if g.end_sequent() != goal:
                    raise AssertionError(f"prover built a proof of {g.end_sequent()}")
                if check_global_trace_condition(g).accepted:
                    return Proved(g)
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

