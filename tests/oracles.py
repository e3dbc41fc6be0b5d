"""Test oracles: reference implementations that the tests compare the
package against; the program never runs them.  `full_closure` is the
composition closure that the antichain of `tracecheck.trace_closure`
prunes; `check_by_path_enumeration` cross-checks both.
`idempotent_power_by_table` cross-checks `EdgeMatrix.idempotent_power`,
and `evaluate_warshall` the reachability evaluator.  `kleene_holds` is the
per-constructor interpreter whose Kleene values the compiled closures of
`semantics.Evaluator` must match.  `degree`, `minimal_chain`, `invalidates` and
`descent_witness` build the descending counter-models of Brotherston &
Simpson (J. Logic Comput. 2011).  `find_counter_model_brute` enumerates
complete models (`iter_skeletons`) for the cell search to agree with.
`expand_fair` lists the prover's moves in search order, and
`search_unpruned` is the prover's search without its cut-offs.
`validate_formula` checks a parsed formula's symbols against a signature,
apart from the parser that checked them as it read them.  `NotAnRtcFormula`
and `NoCounterexample` are raised by these oracles alone."""

import itertools
from collections import deque
from collections.abc import Iterator

from rtcproof import tracecheck
from rtcproof.errors import (NotApplicable, ParseError, RtcError, SignatureMismatch,
                             UnboundVariable)
from rtcproof.kernel import (RuleId, RuleInstance, make_subst, match_sequent,
                             rule_instance)
from rtcproof.proofgraph import ProofGraph
from rtcproof.prover import (Ancestor, Plan, SearchConfig, _cycle_matrix,
                             _weaken_plan, moves)
from rtcproof.semantics import (Evaluator, FiniteModel, Valuation, _closure,
                                sequent_holds, used_signature)
from rtcproof.syntax import (And, App, Bot, Const, Eq, Exists, Forall, Formula,
                             Implies, Not, Or, Pred, Rtc, Sequent, Signature,
                             Term, Top, Var, free_vars, parts, positional_key,
                             substitute, subterms)
from rtcproof.tracecheck import (CycleReport, EdgeMatrix, FlowEdge, _flow_root,
                                 _flow_succ, _shortest_path, edge_matrix,
                                 flow_edges)


class NotAnRtcFormula(RtcError):
    """`degree` or `minimal_chain` was given a formula that is not rtc."""


class NoCounterexample(RtcError):
    """The given model/valuation does not invalidate the conclusion."""


def check_by_path_enumeration(g: ProofGraph, max_period: int) -> CycleReport:
    """Bounded independent check: examine every ultimately periodic path with
    period length <= max_period; a period is bad iff the idempotent power of
    its composed matrix lacks a progressing diagonal pair."""
    edges = flow_edges(g)
    succ: dict[int, list[FlowEdge]] = {}
    for e in edges:
        succ.setdefault(e.src, []).append(e)
    for lst in succ.values():
        lst.sort(key=lambda e: e.dst)

    def dist_back(start: int) -> dict[int, int]:
        pred: dict[int, list[int]] = {}
        for e in edges:
            if e.src >= start and e.dst >= start:
                pred.setdefault(e.dst, []).append(e.src)
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for p in pred.get(u, ()):
                if p not in dist:
                    dist[p] = dist[u] + 1
                    queue.append(p)
        return dist

    for start in g.internal_ids():
        back = dist_back(start)

        # DFS over edge walks start -> ... -> start of length <= max_period,
        # visiting only nodes >= start (each cyclic walk counted once); the
        # distances back to start keep every walk inside start's SCC
        stack: list[tuple[int, tuple[FlowEdge, ...]]] = [(start, ())]
        while stack:
            node, walk = stack.pop()
            for e in succ.get(node, ()):
                if e.dst == start:
                    cyc = walk + (e,)
                    mat = cyc[0].matrix
                    for e2 in cyc[1:]:
                        mat = mat.compose(e2.matrix)
                    if not mat.idempotent_power().has_progressing_diagonal():
                        period = (start,) + tuple(x.dst for x in cyc)
                        prefix = _shortest_path(_flow_succ(g), _flow_root(g), start)
                        return CycleReport("rejected", prefix, period, cyc,
                                           detail="bad period found by enumeration")
                if e.dst > start:
                    needed = back.get(e.dst)
                    if needed is not None and len(walk) + 1 + needed <= max_period:
                        stack.append((e.dst, walk + (e,)))
    return CycleReport("accepted")


def full_closure(edges: list[FlowEdge], companions: list[int]) -> CycleReport:
    """Reference for `tracecheck.trace_closure`: the Ramsey-style composition
    closure (Lee, Jones & Ben-Amram, POPL 2001) that keeps every distinct
    path matrix.  Per companion, in the given order, paths grow breadth
    first, one per (end node, matrix), and the check stops at the first loop
    added that is idempotent without a progressing diagonal pair; it counts
    against `tracecheck.CLOSURE_CAP` as the antichain does."""
    out: dict[int, list[FlowEdge]] = {}
    for e in edges:
        out.setdefault(e.src, []).append(e)
    size = 0
    for c in companions:
        seen: set[tuple[int, frozenset]] = set()  # (end node, matrix entries)
        queue: deque[tuple[EdgeMatrix | None, tuple[FlowEdge, ...]]] = deque([(None, ())])
        while queue:
            mat, path = queue.popleft()
            for e in out.get(path[-1].dst if path else c, ()):
                ext = mat.compose(e.matrix) if path else e.matrix
                key = (e.dst, frozenset(ext.d.items()))
                if key in seen:
                    continue
                if size >= tracecheck.CLOSURE_CAP:
                    return CycleReport("indeterminate", detail="closure cap exceeded")
                size += 1
                seen.add(key)
                walk = path + (e,)
                if (e.dst == c and not ext.has_progressing_diagonal()
                        and ext.is_idempotent()):
                    return CycleReport("rejected", (), (c,) + tuple(f.dst for f in walk),
                                       walk, detail="idempotent cycle without progress")
                queue.append((ext, walk))
    return CycleReport("accepted")


def idempotent_power_by_table(m: EdgeMatrix) -> EdgeMatrix:
    """The idempotent power of m, read off the table of its powers: the
    powers repeat from index `first` with some period, and the idempotent is
    the power whose exponent is the first multiple of the period from
    there."""
    powers = [m]
    seen = {frozenset(m.d.items()): 0}     # a power's pairs -> its index
    cur = m
    while True:
        cur = cur.compose(m)
        key = frozenset(cur.d.items())
        if key in seen:
            first = seen[key]
            period = len(powers) - first
            exp = first
            while (exp + 1) % period != 0:  # exponents are index+1
                exp += 1
            return powers[exp]
        seen[key] = len(powers)
        powers.append(cur)


def evaluate_warshall(m: FiniteModel, v: Valuation, f: Formula) -> bool:
    """Independent evaluator: rtc via Floyd-Warshall boolean closure; terms
    are read by `_KleeneInterpreter.term`, so none of `semantics.Evaluator`
    takes part."""
    term = _KleeneInterpreter(m).term
    match f:
        case Eq(l, r):
            return term(l, v) == term(r, v)
        case Pred(name, args):
            rel = m.pred_interp.get(name)
            if rel is None:
                raise SignatureMismatch(f"predicate {name!r} not interpreted")
            return tuple(term(a, v) for a in args) in rel
        case Top():
            return True
        case Bot():
            return False
        case Not(s):
            return not evaluate_warshall(m, v, s)
        case And(l, r):
            return evaluate_warshall(m, v, l) and evaluate_warshall(m, v, r)
        case Or(l, r):
            return evaluate_warshall(m, v, l) or evaluate_warshall(m, v, r)
        case Implies(l, r):
            return (not evaluate_warshall(m, v, l)) or evaluate_warshall(m, v, r)
        case Exists(x, b):
            return any(evaluate_warshall(m, {**v, x: a}, b) for a in range(m.domain_size))
        case Forall(x, b):
            return all(evaluate_warshall(m, {**v, x: a}, b) for a in range(m.domain_size))
        case Rtc(x, y, b, s, t):
            n = m.domain_size
            closure = [[evaluate_warshall(m, {**v, x: i, y: j}, b) for j in range(n)]
                       for i in range(n)]
            for k in range(n):
                ck = closure[k]
                for i in range(n):
                    if closure[i][k]:
                        ci = closure[i]
                        for j in range(n):
                            if ck[j]:
                                ci[j] = True
            sv, tv = term(s, v), term(t, v)
            return sv == tv or closure[sv][tv]
    raise TypeError(f"not a formula: {f!r}")


class _KleeneInterpreter:
    """Kleene evaluation by one `match` per constructor on every call: the
    interpreter that `semantics.Evaluator` compiled into closures, with
    reachability cached per model and no parent evaluator."""

    def __init__(self, model: FiniteModel):
        self.model = model
        self._reach: dict[tuple, tuple[list[int], list[int]]] = {}

    def term(self, t: Term, v: Valuation) -> int | None:
        match t:
            case Var(name):
                try:
                    return v[name]
                except KeyError:
                    raise UnboundVariable(f"variable {name!r} has no value") from None
            case Const(name):
                try:
                    return self.model.const_interp[name]
                except KeyError:
                    raise SignatureMismatch(f"constant {name!r} not interpreted") from None
            case App(fn, args):
                table = self.model.fn_interp.get(fn)
                if table is None:
                    raise SignatureMismatch(f"function {fn!r} not interpreted")
                return table.get(tuple([self.term(a, v) for a in args]))
        raise TypeError(f"not a term: {t!r}")

    def holds(self, f: Formula, v: Valuation) -> bool | None:
        match f:
            case Pred(name, args):
                rel = self.model.pred_interp.get(name)
                if rel is None:
                    raise SignatureMismatch(f"predicate {name!r} not interpreted")
                cell = tuple([self.term(a, v) for a in args])
                if None in cell or cell in self.model.unknown.get(name, ()):
                    return None
                return cell in rel
            case Rtc(_, _, _, s, t):
                sv, tv = self.term(s, v), self.term(t, v)
                if sv is None or tv is None:
                    return None
                if sv == tv:
                    return True
                lower, upper = self.reach(f, v)
                if lower[sv] >> tv & 1:
                    return True
                return None if upper[sv] >> tv & 1 else False
            case Implies(l, r):
                a = self.holds(l, v)
                if a is False:
                    return True
                b = self.holds(r, v)
                return b if a else (True if b else None)
            case Forall(x, b):
                out = True
                w = dict(v)
                for a in range(self.model.domain_size):
                    w[x] = a
                    val = self.holds(b, w)
                    if val is False:
                        return False
                    if val is None:
                        out = None
                return out
            case Exists(x, b):
                out: bool | None = False
                w = dict(v)
                for a in range(self.model.domain_size):
                    w[x] = a
                    val = self.holds(b, w)
                    if val:
                        return True
                    if val is None:
                        out = None
                return out
            case And(l, r):
                a = self.holds(l, v)
                if a is False:
                    return False
                b = self.holds(r, v)
                return b if a else (False if b is False else None)
            case Or(l, r):
                a = self.holds(l, v)
                if a is True:
                    return True
                b = self.holds(r, v)
                return b if a is False else (True if b else None)
            case Not(s):
                a = self.holds(s, v)
                return None if a is None else not a
            case Eq(l, r):
                a, b = self.term(l, v), self.term(r, v)
                return None if a is None or b is None else a == b
            case Top():
                return True
            case Bot():
                return False
        raise TypeError(f"not a formula: {f!r}")

    def reach(self, f: Rtc, v: Valuation) -> tuple[list[int], list[int]]:
        """(lower, upper) reachability bitmasks by >= 1 body steps known to
        hold and not known to fail."""
        relation = positional_key(f.body, (f.x, f.y))
        side = tuple(sorted(free_vars(f.body) - {f.x, f.y}))
        try:
            key = relation, tuple(v[e] for e in side)
        except KeyError as exc:
            raise UnboundVariable(f"variable {exc.args[0]!r} has no value") from None
        cached = self._reach.get(key)
        if cached is None:
            n, w = self.model.domain_size, dict(v)
            adj = []
            for a in range(n):
                w[f.x] = a
                row = []
                for b in range(n):
                    w[f.y] = b
                    row.append(self.holds(f.body, w))
                adj.append(row)
            cached = self._reach[key] = (
                _closure([sum(1 << b for b, e in enumerate(row) if e) for row in adj]),
                _closure([sum(1 << b for b, e in enumerate(row) if e is not False)
                          for row in adj]))
        return cached


def kleene_holds(m: FiniteModel, v: Valuation, f: Formula) -> bool | None:
    """Reference for `Evaluator.holds`: True or False when f has that value
    in every completion of m, None otherwise."""
    return _KleeneInterpreter(m).holds(f, v)


def iter_skeletons(sig: Signature, n: int) -> Iterator[tuple[dict, dict]]:
    """(fn_interp, pred_interp) pairs in the documented enumeration order of
    `rtcproof.semantics`."""
    fns, preds = sig.functions, sig.predicates
    tuples_of = {ar: list(itertools.product(range(n), repeat=ar))
                 for _, ar in itertools.chain(fns, preds)}

    def fn_tables() -> Iterator[dict]:
        pools = [itertools.product(range(n), repeat=n ** ar) for _, ar in fns]
        for combo in itertools.product(*pools):
            yield {name: dict(zip(tuples_of[ar], flat))
                   for (name, ar), flat in zip(fns, combo)}

    def pred_tables() -> Iterator[dict]:
        sizes = [2 ** (n ** ar) for _, ar in preds]
        for masks in itertools.product(*(range(sz) for sz in sizes)):
            yield {name: frozenset(t for i, t in enumerate(tuples_of[ar]) if masks[k] >> i & 1)
                   for k, (name, ar) in enumerate(preds)}

    for fn_i in fn_tables():
        for pred_i in pred_tables():
            yield fn_i, pred_i


def find_counter_model_brute(s: Sequent, max_size: int, theory: tuple[Sequent, ...] = (),
                             sig: Signature | None = None
                             ) -> tuple[FiniteModel, Valuation] | None:
    """Reference for `find_counter_model`: every complete model in
    enumeration order, evaluated two-valued with constants read through the
    model; the first (model, valuation) satisfying the theory and every
    antecedent but no succedent.  When sig has a pair symbol, the models
    interpret it and its constant too, and only those that obey the pairing
    rules count; the model returned keeps the used symbols alone."""
    used = used_signature((s,) + tuple(theory), sig)
    full = used
    if sig.pair_symbol is not None:
        full = used.merge(Signature.make(
            {sig.pair_constant} - {None}, {sig.pair_symbol: 2},
            pair_symbol=sig.pair_symbol, pair_constant=sig.pair_constant))

    def valuations(seq: Sequent, n: int) -> Iterator[Valuation]:
        fvs = sorted(seq.free_vars())
        for vals in itertools.product(range(n), repeat=len(fvs)):
            yield dict(zip(fvs, vals))

    for n in range(1, max_size + 1):
        for m in iter_models(full, n):
            if not pairing_holds(m, full):
                continue
            ev = Evaluator(m)
            if all(sequent_holds(ev, v, ax) for ax in theory for v in valuations(ax, n)):
                for v in valuations(s, n):
                    if not sequent_holds(ev, v, s):
                        return restrict(m, used), v
    return None


def pairing_holds(m: FiniteModel, sig: Signature) -> bool:
    """Whether m's pair function, if sig has one, is injective (`PairInj`)
    and never takes the pair constant's value (`PairConstAx`)."""
    if sig.pair_symbol is None:
        return True
    values = list(m.fn_interp[sig.pair_symbol].values())
    if len(set(values)) < len(values):
        return False
    return sig.pair_constant is None or m.const_interp[sig.pair_constant] not in values


def restrict(m: FiniteModel, sig: Signature) -> FiniteModel:
    """m with the tables of sig's symbols alone."""
    fns, preds = dict(sig.functions), dict(sig.predicates)
    return FiniteModel(m.domain_size,
                       {c: v for c, v in m.const_interp.items() if c in sig.constants},
                       {f: t for f, t in m.fn_interp.items() if f in fns},
                       {p: t for p, t in m.pred_interp.items() if p in preds})


def iter_models(sig: Signature, n: int) -> Iterator[FiniteModel]:
    """All models of size n over sig in documented enumeration order."""
    consts = sorted(sig.constants)
    for fn_i, pred_i in iter_skeletons(sig, n):
        for cvals in itertools.product(range(n), repeat=len(consts)):
            yield FiniteModel(n, dict(zip(consts, cvals)), fn_i, pred_i)


def degree(m: FiniteModel, v: Valuation, f: Formula) -> int | None:
    """Length of a minimal witnessing chain; 0 iff endpoint values coincide;
    None when the rtc formula is unsatisfied."""
    chain = minimal_chain(m, v, f)
    return None if chain is None else len(chain) - 1


def minimal_chain(m: FiniteModel, v: Valuation, f: Formula) -> list[int] | None:
    """The lexicographically least minimal-length witnessing element sequence
    [a_0..a_n], or None if the formula is false.  [a_0] when v(src)=v(dst)."""
    if not isinstance(f, Rtc):
        raise NotAnRtcFormula(f"degree is defined for rtc formulas, not {f}")
    ev = Evaluator(m)
    term = _KleeneInterpreter(m).term
    sv, tv = term(f.src, v), term(f.dst, v)
    if sv == tv:
        return [sv]
    n = m.domain_size
    adj = [[ev.holds(f.body, {**v, f.x: a, f.y: b}) for b in range(n)]
           for a in range(n)]
    # BFS backwards from tv: dist[b] = fewest steps from b to tv
    dist: list[int | None] = [None] * n
    dist[tv] = 0
    frontier = [tv]
    while frontier:
        nxt = []
        for u in frontier:
            for b in range(n):
                if adj[b][u] and dist[b] is None:
                    dist[b] = dist[u] + 1
                    nxt.append(b)
        frontier = nxt
    if dist[sv] is None:
        return None
    chain = [sv]
    cur, remaining = sv, dist[sv]
    while cur != tv:
        for b in range(n):
            if adj[cur][b] and dist[b] == remaining - 1:
                chain.append(b)
                cur, remaining = b, remaining - 1
                break
        else:
            raise AssertionError("BFS invariant broken")
    return chain


def invalidates(m: FiniteModel, v: Valuation, s: Sequent) -> bool:
    ev = Evaluator(m)
    return (all(ev.holds(f, v) for f in s.antecedent)
            and not any(ev.holds(f, v) for f in s.succedent))


def descent_witness(r: RuleInstance, m: FiniteModel, v: Valuation
                    ) -> tuple[int, FiniteModel, Valuation]:
    """Given (m, v) invalidating r's conclusion, return (premise_index, m', v')
    invalidating that premise, with degrees non-increasing along trace pairs
    and strictly decreasing along progressing ones."""
    if r.rule is RuleId.RtcRefl:
        raise NotApplicable("the conclusion of reflexivity has no counter-model")
    if not invalidates(m, v, r.conclusion):
        raise NoCounterexample("the given pair does not invalidate the conclusion")
    if not r.premises:
        raise NotApplicable(f"{r.rule.value} has no premises to descend into")
    ev = Evaluator(m)
    p = r.params
    # rule parameters (cut formulas, witness terms) may introduce variables
    # absent from the conclusion; fix them to 0 ahead of premise selection
    needed = set()
    for prem in r.premises:
        needed |= prem.free_vars()
    v = {**{x: 0 for x in sorted(needed - set(v))}, **v}

    def holds(f: Formula) -> bool:
        return ev.holds(f, v)

    idx, v2 = 0, dict(v)
    match r.rule:
        case (RuleId.WL | RuleId.WR | RuleId.AndL | RuleId.OrR | RuleId.ImpR
              | RuleId.NotL | RuleId.NotR | RuleId.AllL | RuleId.ExR
              | RuleId.EqL1 | RuleId.EqL2 | RuleId.PairInj):
            pass

        case RuleId.AndR:
            idx = 0 if not holds(p.principal.left) else 1

        case RuleId.OrL:
            idx = 0 if holds(p.principal.left) else 1

        case RuleId.ImpL:
            idx = 0 if not holds(p.principal.left) else 1

        case RuleId.Cut:
            idx = 0 if not holds(p.cut_formula) else 1

        case RuleId.ExL:
            inst = substitute(p.principal.body, {p.principal.var: Var(p.eigenvar)})
            for a in range(m.domain_size):
                if ev.holds(inst, {**v, p.eigenvar: a}):
                    v2 = {**v, p.eigenvar: a}
                    break
            else:
                raise AssertionError("existential was true but no witness element found")

        case RuleId.AllR:
            inst = substitute(p.principal.body, {p.principal.var: Var(p.eigenvar)})
            for a in range(m.domain_size):
                if not ev.holds(inst, {**v, p.eigenvar: a}):
                    v2 = {**v, p.eigenvar: a}
                    break
            else:
                raise AssertionError("universal was false on every element?")

        case RuleId.Subst:
            theta = dict(p.substitution)
            term = _KleeneInterpreter(m).term
            v2 = {x: term(theta.get(x, Var(x)), v) for x in p.source.free_vars()}

        case RuleId.RtcStep:
            f = p.principal
            mid = Rtc(f.x, f.y, f.body, f.src, p.witness)
            idx = 0 if not holds(mid) else 1

        case RuleId.RtcCase:
            chain = minimal_chain(m, v, p.principal)
            if chain is None:
                raise AssertionError("rtc antecedent was true but has no chain")
            if len(chain) == 1:
                idx = 0
            else:
                # penultimate element of the minimal chain: the principal's
                # degree strictly decreases on the progressing trace pair
                idx, v2 = 1, {**v, p.eigenvar: chain[-2]}

        case RuleId.RtcInd:
            chain = minimal_chain(m, v, p.principal)
            if chain is None:
                raise AssertionError("rtc antecedent was true but has no chain")
            x, y = p.eigenvar, p.eigenvar2
            for i in range(len(chain) - 1):
                cand = {**v, x: chain[i], y: chain[i + 1]}
                if invalidates(m, cand, r.premises[0]):
                    v2 = cand
                    break
            else:
                raise AssertionError("no failing induction step along the minimal chain")

        case _:
            raise NotApplicable(f"descent not defined for {r.rule.value}")

    if not invalidates(m, v2, r.premises[idx]):
        if r.rule is RuleId.PairInj:
            raise NotApplicable("pairing is not injective in this finite model")
        raise AssertionError(
            f"{r.rule.value}: chosen premise {idx} not invalidated; unsound instance?")
    return idx, m, v2


def expand_fair(node: Sequent, cfg: SearchConfig) -> list[tuple[RuleId, object]]:
    """The deterministic candidate ordering exposed for inspection: every
    applicable (rule, parameters) pair in the order the search tries them.
    A closed move is named by its core rule, below its weakenings."""
    out = []
    for m in moves(node, (), cfg, 1):
        while isinstance(m, Plan) and m.rule.rule in (RuleId.WL, RuleId.WR):
            m = m.children[0]
        rule = m.rule if isinstance(m, Plan) else m
        out.append((rule.rule, rule.params))
    return out


def search_unpruned(seq: Sequent, depth: int, ancestors: tuple[Ancestor, ...],
                    cfg: SearchConfig) -> Iterator[Plan]:
    """The prover's search without its cut-offs: every move is built at a
    leaf and the open ones are skipped there, every ancestor is tried for a
    bud and kept when the composed cycle matrix progresses, and each
    solution of a premise is combined with the search of the next premise,
    however often that search fails."""
    every = list(moves(seq, (), cfg, 1))
    buds = []
    for at, anc in enumerate(ancestors):
        for theta in match_sequent(anc.sequent, seq):
            bud = Plan(None, (), at, anc.sequent)
            inst = anc.sequent.substituted(theta)
            if theta or inst != anc.sequent:
                bud = Plan(rule_instance(RuleId.Subst, inst, cfg.theory, cfg.sig,
                                         substitution=make_subst(theta),
                                         source=anc.sequent), (bud,))
            plan = _weaken_plan(seq, bud)
            if _cycle_matrix(anc, plan).idempotent_power().has_progressing_diagonal():
                buds.append(plan)
    closed = [m for m in every if isinstance(m, Plan)]
    for move in closed + buds + every[len(closed):]:
        if isinstance(move, Plan):
            yield move
            continue
        if depth == 0:
            continue
        mats = [edge_matrix(move, i) for i in range(len(move.premises))]

        def expand(i: int, acc: tuple[Plan, ...]) -> Iterator[Plan]:
            if i == len(move.premises):
                yield Plan(move, acc, node=True)
                return
            below = tuple(Ancestor(a.sequent, a.matrix.compose(mats[i]))
                          for a in ancestors) + (Ancestor(seq, mats[i]),)
            for sub in search_unpruned(move.premises[i], depth - 1, below, cfg):
                yield from expand(i + 1, acc + (sub,))

        yield from expand(0, ())


def validate_formula(f: Formula, sig: Signature) -> None:
    """Check arities and declaredness of every symbol in f."""
    if isinstance(f, Pred):
        ar = dict(sig.predicates).get(f.name)
        if ar is None:
            raise ParseError(None, f"predicate {f.name!r} not declared")
        if ar != len(f.args):
            raise ParseError(None, f"predicate {f.name!r} expects {ar} args,"
                                   f" got {len(f.args)}")
    binders, subs, terms = parts(f)
    if len(set(binders)) != len(binders):
        raise ParseError(0, "rtc binders must be distinct")
    for g in subs:
        validate_formula(g, sig)
    for t in terms:
        for u in subterms(t):
            if isinstance(u, Const) and u.name not in sig.constants:
                raise ParseError(None, f"constant {u.name!r} not declared")
            if isinstance(u, App):
                ar = sig.fn_arity(u.fn)
                if ar is None:
                    raise ParseError(None, f"function {u.fn!r} not declared")
                if ar != len(u.args):
                    raise ParseError(None, f"function {u.fn!r} expects {ar} args,"
                                           f" got {len(u.args)}")
