"""Brute-force evaluation in finite first-order structures.

Provides the truth oracle used to sanity-check the proof systems: formula
evaluation (with rtc handled by graph reachability) and bounded
counter-model search.  The degree of an rtc formula and the descending
counter-model witness for locally valid rule instances are test oracles in
`tests/oracles.py`.

Model enumeration order (documented contract): by domain size, then per
size lexicographically over table encodings in the order (function tables,
predicate tables, constant assignments), symbols sorted by name within each
group.  Function tables are flat value lists over argument tuples in
lexicographic order; predicate tables are bitmasks over the same tuple
order, enumerated ascending (so the empty relation comes first).

Counterexample dump format:

    model { size = 2; const a = 0; fn s = [1, 0]; pred E = { (0, 1) }; }
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .errors import BudgetExceeded, SignatureMismatch, UnboundVariable
from .syntax import (And, App, Bot, Const, Eq, Exists, Forall, Formula,
                     Implies, Not, Or, Pred, Rtc, Sequent, Signature, Term,
                     Top, Var, formula_subterms, free_vars, fresh_name, parts,
                     rebuild)

Valuation = dict[str, int]


@dataclass
class FiniteModel:
    """Explicit finite structure over domain {0..domain_size-1}."""

    domain_size: int
    const_interp: dict[str, int] = field(default_factory=dict)
    fn_interp: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    pred_interp: dict[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)

    def dump(self) -> str:
        parts = [f"size = {self.domain_size};"]
        for c in sorted(self.const_interp):
            parts.append(f"const {c} = {self.const_interp[c]};")
        for f in sorted(self.fn_interp):
            table = self.fn_interp[f]
            flat = [str(table[a]) for a in sorted(table)]
            parts.append(f"fn {f} = [{', '.join(flat)}];")
        for p in sorted(self.pred_interp):
            tuples = sorted(self.pred_interp[p])
            shown = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in tuples)
            parts.append(f"pred {p} = {{ {shown} }};" if shown else f"pred {p} = {{ }};")
        return "model { " + " ".join(parts) + " }"


class Evaluator:
    """Evaluates formulas in one model; caches rtc reachability per model."""

    def __init__(self, model: FiniteModel):
        self.model = model
        self._reach: dict[tuple, list[set[int]]] = {}
        self._adj: dict[tuple, list[list[bool]]] = {}

    def term(self, t: Term, v: Valuation) -> int:
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
                return table[tuple(self.term(a, v) for a in args)]
        raise TypeError(f"not a term: {t!r}")

    def holds(self, f: Formula, v: Valuation) -> bool:
        match f:
            case Eq(l, r):
                return self.term(l, v) == self.term(r, v)
            case Pred(name, args):
                rel = self.model.pred_interp.get(name)
                if rel is None:
                    raise SignatureMismatch(f"predicate {name!r} not interpreted")
                return tuple(self.term(a, v) for a in args) in rel
            case Top():
                return True
            case Bot():
                return False
            case Not(s):
                return not self.holds(s, v)
            case And(l, r):
                return self.holds(l, v) and self.holds(r, v)
            case Or(l, r):
                return self.holds(l, v) or self.holds(r, v)
            case Implies(l, r):
                return (not self.holds(l, v)) or self.holds(r, v)
            case Exists(x, b):
                return any(self.holds(b, {**v, x: a}) for a in range(self.model.domain_size))
            case Forall(x, b):
                return all(self.holds(b, {**v, x: a}) for a in range(self.model.domain_size))
            case Rtc(_, _, _, s, t):
                sv, tv = self.term(s, v), self.term(t, v)
                if sv == tv:
                    return True
                return tv in self.reach(f, v)[sv]
        raise TypeError(f"not a formula: {f!r}")

    def adjacency(self, f: Rtc, v: Valuation) -> list[list[bool]]:
        """Step relation of an rtc formula's body under v."""
        key = self._cache_key(f, v)
        adj = self._adj.get(key)
        if adj is None:
            n = self.model.domain_size
            adj = [[False] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    if self.holds(f.body, {**v, f.x: a, f.y: b}):
                        adj[a][b] = True
            self._adj[key] = adj
        return adj

    def reach(self, f: Rtc, v: Valuation) -> list[set[int]]:
        """reach[a] = elements reachable from a by >= 1 body steps... including
        a itself only when a lies on a cycle; reflexive closure is handled by
        the caller comparing endpoint values."""
        key = self._cache_key(f, v)
        cached = self._reach.get(key)
        if cached is not None:
            return cached
        adj = self.adjacency(f, v)
        n = self.model.domain_size
        out: list[set[int]] = []
        for start in range(n):
            seen: set[int] = set()
            frontier = [b for b in range(n) if adj[start][b]]
            seen.update(frontier)
            while frontier:
                nxt = []
                for u in frontier:
                    for w in range(n):
                        if adj[u][w] and w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            out.append(seen)
        self._reach[key] = out
        return out

    def _cache_key(self, f: Rtc, v: Valuation) -> tuple:
        extras = sorted(free_vars(f.body) - {f.x, f.y})
        try:
            vals = tuple(v[e] for e in extras)
        except KeyError as exc:
            raise UnboundVariable(f"variable {exc.args[0]!r} has no value") from None
        return (f.key(), vals)


def _evaluator(m: FiniteModel) -> Evaluator:
    ev = getattr(m, "_evaluator", None)
    if ev is None:
        ev = Evaluator(m)
        m._evaluator = ev
    return ev


def evaluate(m: FiniteModel, v: Valuation, f: Formula) -> bool:
    """Truth of f in m under v; rtc via graph reachability."""
    return _evaluator(m).holds(f, v)


# ---------------------------------------------------------------------------
# Model enumeration and counter-model search

def _replace_consts(f: Formula, mapping: Mapping[str, str]) -> Formula:
    def goterm(t: Term) -> Term:
        match t:
            case Var(_):
                return t
            case Const(name):
                return Var(mapping[name]) if name in mapping else t
            case App(fn, args):
                return App(fn, tuple(goterm(a) for a in args))
        raise TypeError

    binders, subs, terms = parts(f)
    return rebuild(f, binders, tuple(_replace_consts(g, mapping) for g in subs),
                   tuple(goterm(t) for t in terms))


def used_signature(sequents: tuple[Sequent, ...], sig: Signature) -> Signature:
    """The sub-signature of symbols actually occurring in the sequents."""
    consts: set[str] = set()
    fns: dict[str, int] = {}
    preds: dict[str, int] = {}

    def scan(f: Formula) -> None:
        if isinstance(f, Pred):
            preds[f.name] = len(f.args)
        for g in parts(f)[1]:
            scan(g)

    for seq in sequents:
        for f in seq.antecedent + seq.succedent:
            scan(f)
            for t in formula_subterms(f):
                if isinstance(t, Const):
                    consts.add(t.name)
                elif isinstance(t, App):
                    fns[t.fn] = len(t.args)
    pair = sig.pair_symbol if sig.pair_symbol in fns else None
    pair_const = sig.pair_constant if pair and sig.pair_constant in consts else None
    return Signature.make(consts, fns, preds, pair, pair_const)


def _tuples(n: int, arity: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=arity))


def iter_skeletons(sig: Signature, n: int) -> Iterator[tuple[dict, dict]]:
    """(fn_interp, pred_interp) pairs in documented lexicographic order."""
    fns = sorted(sig.function_map.items())
    preds = sorted(sig.predicate_map.items())
    tuples_of = {ar: _tuples(n, ar) for _, ar in itertools.chain(fns, preds)}

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


def sequent_holds(ev: Evaluator, v: Valuation, s: Sequent) -> bool:
    return (not all(ev.holds(f, v) for f in s.antecedent)
            or any(ev.holds(f, v) for f in s.succedent))


def find_counter_model(s: Sequent, max_size: int, theory: tuple[Sequent, ...] = (),
                       sig: Signature | None = None, budget: int = 2_000_000
                       ) -> tuple[FiniteModel, Valuation] | None:
    """First model/valuation (in enumeration order) satisfying the theory and
    every antecedent of s but no succedent; None if none exists within the
    size bound.  Absence is NOT a validity proof.

    Raises BudgetExceeded when more than `budget` candidate models would be
    examined.
    """
    if sig is None:
        raise SignatureMismatch("find_counter_model requires a signature")
    # symbols absent from goal and theory cannot affect satisfaction; skip
    # their tables so the enumeration stays small
    sig = used_signature((s,) + tuple(theory), sig)
    consts = sorted(sig.constants)
    used = set().union(s.free_vars(), *(ax.free_vars() for ax in theory)) | set(consts)
    cvars = {}
    for c in consts:
        name = fresh_name(used | set(cvars.values()), hint=f"_k{c}_")
        cvars[c] = name
    goal = Sequent(tuple(_replace_consts(f, cvars) for f in s.antecedent),
                   tuple(_replace_consts(f, cvars) for f in s.succedent))
    th = tuple(Sequent(tuple(_replace_consts(f, cvars) for f in ax.antecedent),
                       tuple(_replace_consts(f, cvars) for f in ax.succedent))
               for ax in theory)
    goal_fvs = sorted(s.free_vars())
    count = 0
    for n in range(1, max_size + 1):
        for fn_i, pred_i in iter_skeletons(sig, n):
            skeleton = FiniteModel(n, {}, fn_i, pred_i)
            ev = Evaluator(skeleton)
            for cvals in itertools.product(range(n), repeat=len(consts)):
                count += 1
                if count > budget:
                    raise BudgetExceeded(f"counter-model search budget {budget} exhausted")
                base = {cvars[c]: val for c, val in zip(consts, cvals)}
                if th and not _theory_ok(ev, th, base, n):
                    continue
                for vals in itertools.product(range(n), repeat=len(goal_fvs)):
                    v = {**base, **dict(zip(goal_fvs, vals))}
                    if (all(ev.holds(f, v) for f in goal.antecedent)
                            and not any(ev.holds(f, v) for f in goal.succedent)):
                        model = FiniteModel(n, dict(zip(consts, cvals)), fn_i, pred_i)
                        return model, dict(zip(goal_fvs, vals))
    return None


def _theory_ok(ev: Evaluator, theory: tuple[Sequent, ...], base: Valuation, n: int) -> bool:
    for ax in theory:
        fvs = sorted(ax.free_vars() - set(base))
        for vals in itertools.product(range(n), repeat=len(fvs)):
            if not sequent_holds(ev, {**base, **dict(zip(fvs, vals))}, ax):
                return False
    return True
