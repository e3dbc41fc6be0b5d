"""Evaluation in finite first-order structures, total or partial.

Provides the truth oracle used to sanity-check the proof systems: formula
evaluation (with rtc handled by graph reachability) and bounded
counter-model search.  The degree of an rtc formula and the descending
counter-model witness for locally valid rule instances are test oracles in
`tests/oracles.py`, as is the brute-force enumerator
`find_counter_model_brute` that the search is tested against.

A model may be partial: an argument tuple missing from its symbol's table,
a function's or a predicate's, is an unset cell, whose value is not yet
chosen.  `Evaluator.holds` reads such models in Kleene's
three-valued logic and returns None where the answer depends on unset
cells; a definite answer holds in every completion, and a complete model
never yields None.  Each formula and term is compiled once, at its first
evaluation, into a tree of closures kept on it (Feeley & Lapalme, "Using
closures for code generation", 1987), so no evaluation dispatches on
constructors; an rtc closure holds its step relation's key and side
variables, and an atom over variables alone reads its cell from the
valuation.  Unknown symbols and unbound variables raise when the closure
runs, not when it is built: closures read the valuation unguarded, and
`Evaluator.holds` turns its `KeyError` into `UnboundVariable`.

Model enumeration order (documented contract): by domain size, then per
size lexicographically over table encodings in the order (function tables,
predicate tables, constant assignments), symbols sorted by name within each
group.  Function tables are flat value lists over argument tuples in
lexicographic order; predicate tables are bitmasks over the same tuple
order, enumerated ascending (so the empty relation comes first).
`find_counter_model` keeps this contract without enumerating: it fills
table cells depth-first in the same order and cuts every partial model in
which no (constants, valuation) tuple can still be a counter-model (the
cell-by-cell search of SEM, Zhang & Zhang 1995, and Mace4, McCune 2003).
It also cuts every partial model whose tables a swap of two domain
elements makes lexicographically smaller in that order, whatever the
unset cells hold (lex-leader symmetry breaking, Crawford, Ginsberg, Luks &
Roy 1996).  The first model stays the same: counter-models, the theory and
the pairing rules are closed under permutations of the domain, so the
first counter-model's tables are the least of their isomorphic copies,
and no swap makes them smaller.  Its budget counts search nodes, one per
cell assignment tried and not cut by a swap, plus one root per domain
size, and bounds what a size builds before its root: the goal's tuples,
the theory's instances and the table cells.

Counterexample dump format:

    model { size = 2; const a = 0; fn s = [1, 0]; pred E = { (0, 1) }; }
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import BudgetExceeded, SignatureMismatch, UnboundVariable
from .syntax import (And, App, Bot, Const, Eq, Exists, Forall, Formula,
                     Implies, Not, Or, Pred, Rtc, Sequent, Signature, Term,
                     Top, Var, all_names, free_vars, fresh_name,
                     positional_key, replace_terms, symbols)

Valuation = dict[str, int]


@dataclass
class FiniteModel:
    """Explicit finite structure over domain {0..domain_size-1}.  Each symbol
    has a table from argument tuple to value, an element or a bool; a tuple
    missing from its table is an unset cell, and makes the model partial."""

    domain_size: int
    const_interp: dict[str, int] = field(default_factory=dict)
    fn_interp: dict[str, dict[tuple[int, ...], int]] = field(default_factory=dict)
    pred_interp: dict[str, dict[tuple[int, ...], bool]] = field(default_factory=dict)

    def dump(self) -> str:
        parts = [f"size = {self.domain_size};"]
        for c in sorted(self.const_interp):
            parts.append(f"const {c} = {self.const_interp[c]};")
        for f in sorted(self.fn_interp):
            table = self.fn_interp[f]
            flat = [str(table[a]) for a in sorted(table)]
            parts.append(f"fn {f} = [{', '.join(flat)}];")
        for p in sorted(self.pred_interp):
            tuples = sorted(t for t, b in self.pred_interp[p].items() if b)
            shown = ", ".join("(" + ", ".join(map(str, t)) + ")" for t in tuples)
            parts.append(f"pred {p} = {{ {shown} }};" if shown else f"pred {p} = {{ }};")
        return "model { " + " ".join(parts) + " }"


class Evaluator:
    """Evaluates formulas in one (possibly partial) model in Kleene's
    three-valued logic; caches rtc reachability per model."""

    def __init__(self, model: FiniteModel, base: Evaluator | None = None):
        """`base`, if given, evaluates a model that `model` extends: every
        cell known there has the same value here, so its definite rtc
        steps carry over."""
        self.model = model
        self._reach: dict[tuple, tuple[list[int], list[int]]] = {}
        self._adj: dict[tuple, list[list[bool | None]]] = {}
        self._base_adj = base._adj if base else {}

    def holds(self, f: Formula, v: Valuation) -> bool | None:
        """True or False when f has that value however the unset cells (tuples
        missing from their symbols' tables) are filled, None otherwise."""
        try:
            return _compile_formula(f)(self, v)
        except KeyError as exc:
            # a valuation's: the Const closure catches its own lookup
            raise UnboundVariable(f"variable {exc.args[0]!r} has no value") from None

    def _bounds(self, key: tuple, x: str, y: str, body: Compiled,
                v: Valuation) -> tuple[list[int], list[int]]:
        """(lower, upper) as bitmasks per element: bit b of lower[a] is set
        when b is reachable from a by >= 1 body steps known to hold, of
        upper[a] when it is reachable by steps not known to fail; a itself
        only when it lies on such a cycle.  The two agree in a complete
        model.  The reflexive case is the caller's, which compares endpoint
        values.  Caches them, and the step relation, under `key`."""
        n = self.model.domain_size
        old = self._base_adj.get(key)
        w = dict(v)
        adj = []
        for a in range(n):
            w[x] = a
            row = []
            for b in range(n):
                w[y] = b
                e = old[a][b] if old else None
                row.append(body(self, w) if e is None else e)
            adj.append(row)
        self._adj[key] = adj
        lower = _closure([sum(1 << b for b, e in enumerate(row) if e) for row in adj])
        upper = _closure([sum(1 << b for b, e in enumerate(row) if e is not False)
                          for row in adj])
        self._reach[key] = (lower, upper)
        return lower, upper


# ---------------------------------------------------------------------------
# The compiler.  A closure looks its symbols up in ev's model when it runs,
# so a model edited between calls is read as it is now.

Compiled = Callable[[Evaluator, Valuation], "bool | int | None"]


def _compile_term(t: Term) -> Compiled:
    """t's closure (ev, v) -> its value or None, built at its first use and
    kept on t, as `Formula.key` keeps its key."""
    run = getattr(t, "_value", None)
    if run is not None:
        return run
    match t:
        case Var(name):
            def run(ev, v):
                return v[name]
        case Const(name):
            def run(ev, v):
                try:
                    return ev.model.const_interp[name]
                except KeyError:
                    raise SignatureMismatch(f"constant {name!r} not interpreted") from None
        case App(fn, args):
            subs = [_compile_term(a) for a in args]
            def run(ev, v):
                table = ev.model.fn_interp.get(fn)
                if table is None:
                    raise SignatureMismatch(f"function {fn!r} not interpreted")
                # an argument tuple holding None is in no table
                return table.get(tuple([a(ev, v) for a in subs]))
    object.__setattr__(t, "_value", run)
    return run


# the connectives that may skip their right side: (value of the left side
# that decides the formula, the formula's value then)
_SHORT_CUT = {And: (False, False), Or: (True, True), Implies: (False, True)}


def _compile_formula(f: Formula) -> Compiled:
    """f's closure (ev, v) -> its Kleene value, built at its first use and
    kept on f."""
    run = getattr(f, "_holds", None)
    if run is not None:
        return run
    # cases in the order of how often the model search meets them
    match f:
        case Pred(name, args) if all(a.__class__ is Var for a in args):
            names = [a.name for a in args]
            def run(ev, v):
                rel = ev.model.pred_interp.get(name)
                if rel is None:
                    raise SignatureMismatch(f"predicate {name!r} not interpreted")
                return rel.get(tuple([v[x] for x in names]))
        case Pred(name, args):
            terms = [_compile_term(a) for a in args]
            def run(ev, v):
                rel = ev.model.pred_interp.get(name)
                if rel is None:
                    raise SignatureMismatch(f"predicate {name!r} not interpreted")
                # an argument tuple holding None is in no table
                return rel.get(tuple([t(ev, v) for t in terms]))
        case Rtc(x, y, body, src, dst):
            relation = positional_key(body, (x, y))
            side = tuple(sorted(free_vars(body) - {x, y}))
            step, s, t = _compile_formula(body), _compile_term(src), _compile_term(dst)
            def run(ev, v):
                sv, tv = s(ev, v), t(ev, v)
                if sv is None or tv is None:
                    return None
                if sv == tv:
                    return True
                key = relation, tuple([v[x] for x in side])
                bounds = ev._reach.get(key) or ev._bounds(key, x, y, step, v)
                if bounds[0][sv] >> tv & 1:
                    return True
                return None if bounds[1][sv] >> tv & 1 else False
        case Implies(left, right) | And(left, right) | Or(left, right):
            cut, out = _SHORT_CUT[f.__class__]
            l, r = _compile_formula(left), _compile_formula(right)
            def run(ev, v):
                a = l(ev, v)
                if a is cut:
                    return out
                b = r(ev, v)
                return b if a is not None else (out if b is out else None)
        case Forall(x, body) | Exists(x, body):
            # a quantifier stops at the first instance with value `cut`
            cut, b = f.__class__ is Exists, _compile_formula(body)
            def run(ev, v):
                out = not cut
                w = dict(v)
                for a in range(ev.model.domain_size):
                    w[x] = a
                    val = b(ev, w)
                    if val is cut:
                        return cut
                    if val is None:
                        out = None
                return out
        case Not(sub):
            b = _compile_formula(sub)
            def run(ev, v):
                a = b(ev, v)
                return None if a is None else not a
        case Eq(lhs, rhs):
            l, r = _compile_term(lhs), _compile_term(rhs)
            def run(ev, v):
                a, b = l(ev, v), r(ev, v)
                return None if a is None or b is None else a == b
        case Top() | Bot():
            value = f.__class__ is Top
            def run(ev, v):
                return value
    object.__setattr__(f, "_holds", run)
    return run


def _closure(step: list[int]) -> list[int]:
    """Transitive closure of a relation given as one successor bitmask per
    element."""
    out = []
    for start in range(len(step)):
        seen = frontier = step[start]
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            new = step[low.bit_length() - 1] & ~seen
            seen |= new
            frontier |= new
        out.append(seen)
    return out


def evaluate(m: FiniteModel, v: Valuation, f: Formula) -> bool | None:
    """Truth of f in m as it is now, under v; rtc via graph reachability.
    None only when the value depends on a tuple missing from m's tables."""
    return Evaluator(m).holds(f, v)


def sequent_holds(ev: Evaluator, v: Valuation, s: Sequent) -> bool:
    """Two-valued truth of a sequent in a complete model."""
    return (not all(ev.holds(f, v) for f in s.antecedent)
            or any(ev.holds(f, v) for f in s.succedent))


# ---------------------------------------------------------------------------
# Counter-model search

def used_signature(sequents: tuple[Sequent, ...]) -> Signature:
    """The symbols actually occurring in the sequents, with no pair fields."""
    return Signature.make(*symbols(f for seq in sequents
                                   for f in seq.antecedent + seq.succedent))


def find_counter_model(s: Sequent, max_size: int, theory: tuple[Sequent, ...],
                       sig: Signature, budget: int = 2_000_000
                       ) -> tuple[FiniteModel, Valuation] | None:
    """First model/valuation (in enumeration order) satisfying the theory and
    every antecedent of s but no succedent; None if none exists within the
    size bound.  Absence is NOT a validity proof.

    Models obey the pairing rules whenever sig has a pair symbol, since a
    proof may cut pair terms in.  Pairing is injective (`PairInj`), so a
    finite model has one element; with a pair constant, which no pair
    equals (`PairConstAx`), there is no finite model and the result is None.

    Raises BudgetExceeded when the search would visit more than `budget`
    nodes, or reaches a size where the tuples of constant and variable
    values and the theory instances (one per tuple of constant values and
    values of an axiom's own variables) together outnumber `budget`, or
    where the table cells of the used symbols do.  A node is a root per
    size or a cell assignment tried; an assignment that a swap of two
    domain elements cuts is not a node.
    """
    if sig.pair_symbol is not None:
        if sig.pair_constant is not None:
            return None
        max_size = min(max_size, 1)
    # symbols absent from goal and theory cannot affect satisfaction; skip
    # their tables so the search stays small
    sig = used_signature((s,) + tuple(theory))
    consts = sorted(sig.constants)
    # each constant becomes a variable named apart from every name, bound
    # ones included, so that no binder captures it
    used = set(consts).union(*(all_names(f) for seq in (s,) + tuple(theory)
                               for f in seq.antecedent + seq.succedent))
    cvars = {}
    for c in consts:
        cvars[c] = fresh_name(used | set(cvars.values()), hint=f"_k{c}_")
    as_vars = {Const(c): Var(v) for c, v in cvars.items()}

    def replaced(seq: Sequent) -> Sequent:
        return Sequent(tuple(replace_terms(f, as_vars) for f in seq.antecedent),
                       tuple(replace_terms(f, as_vars) for f in seq.succedent))

    search = _CellSearch(replaced(s), tuple(replaced(ax) for ax in theory), sig,
                         [cvars[c] for c in consts], sorted(s.free_vars()), budget)
    for n in range(1, max_size + 1):
        found = search.run(n)
        if found is not None:
            model = FiniteModel(n, dict(zip(consts, found[0])), *found[2:])
            valuation = dict(zip(search.goal_fvs, found[1]))
            _recheck(model, valuation, s, theory)
            return model, valuation
    return None


def _recheck(m: FiniteModel, v: Valuation, s: Sequent, theory: tuple[Sequent, ...]) -> None:
    """Re-check a found counter-model with the two-valued reading of the
    complete model, constants read through the model."""
    ev = Evaluator(m)
    if sequent_holds(ev, v, s) or not all(
            sequent_holds(ev, dict(zip(fvs, vals)), ax)
            for ax in theory for fvs in [sorted(ax.free_vars())]
            for vals in itertools.product(range(m.domain_size), repeat=len(fvs))):
        raise AssertionError(f"cell search returned no counter-model: {m.dump()} {v}")


class _CellSearch:
    """Depth-first search over the table cells of models of one size, in one
    table per used symbol; a cell is unset while its tuple is missing there.

    It also cuts every assignment whose tables T a transposition pi of the
    domain makes lexicographically smaller: cell j of pi(T) holds the value
    of T's cell at pi of j's tuple, a function value mapped through pi, and
    once pi(T) is smaller at the first cell where the two differ, so is
    every completion.  The first counter-model is never cut, since no swap
    makes its tables smaller (see the module docstring).  Cells are set in
    order, so each frame keeps the transpositions still tied with T with
    the first cell not yet compared: a comparison stops at a cell that
    reads an unset one and resumes there one level down, and a
    transposition that makes T larger is dropped for the subtree.

    A check is a sequent under one valuation: the goal under a (constants,
    valuation) tuple, or a theory axiom under the constants and values of
    its own free variables.  Its Kleene value is True when some antecedent
    is definitely false or some succedent definitely true.  A tuple dies
    when its goal check is True or a theory check of its constants is
    False.  A branch with no live tuple is cut.  Each tuple keeps its values
    and shares its theory checks with every tuple of its constant values;
    a node judges those checks once per tuple of constant values.

    Each formula is one (closure, free variables, shape) record, its shape
    the `positional_key` under its free variables.  Definite values stay
    definite down a branch: they are memoised per (shape, values of the
    free variables) in `known` and undone on backtracking, and a node's
    evaluator inherits its parent's definite rtc steps.  A node re-evaluates
    each formula of its live tuples that is not yet definite."""

    def __init__(self, goal: Sequent, theory: tuple[Sequent, ...], sig: Signature,
                 cvars: list[str], goal_fvs: list[str], budget: int):
        self.sig, self.cvars, self.goal_fvs = sig, cvars, goal_fvs
        self.budget, self.nodes = budget, 0
        self.goal_sides = self._sides(goal)
        self.theory_sides = [(self._sides(ax), sorted(ax.free_vars() - set(cvars)))
                             for ax in theory]

    def _sides(self, seq: Sequent) -> tuple[list[tuple], list[tuple]]:
        """Each side of seq as (closure, free variables, shape) records."""
        def record(f: Formula) -> tuple[Compiled, tuple[str, ...], str]:
            fvs = tuple(sorted(free_vars(f)))
            return _compile_formula(f), fvs, positional_key(f, fvs)
        return [record(f) for f in seq.antecedent], [record(f) for f in seq.succedent]

    def _check(self, sides: tuple[list[tuple], list[tuple]], v: Valuation,
               entries: dict) -> tuple:
        """The check of the sequent with these `sides` under v: one entry
        per formula, (the value that makes the sequent true, the formula's
        closure, memo key, the formula's own valuation), shared through
        `entries` by every check with the same wanted value, shape and
        values of the formula's free variables."""
        def entry(want: bool, run: Compiled, fvs: tuple[str, ...], shape: str) -> tuple:
            vals = tuple([v[x] for x in fvs])
            found = entries.get((want, shape, vals))
            if found is None:
                found = entries[want, shape, vals] = (want, run, (shape, vals),
                                                      dict(zip(fvs, vals)))
            return found
        ant, suc = sides
        return tuple([entry(False, *r) for r in ant] + [entry(True, *r) for r in suc])

    def run(self, n: int):
        """(constant values, valuation values, fn tables, predicate tables)
        of the first counter-model of size n, or None."""
        count = n ** (len(self.cvars) + len(self.goal_fvs))
        instances = n ** len(self.cvars) * sum(n ** len(fvs) for _, fvs in self.theory_sides)
        fns, preds = self.sig.functions, self.sig.predicates
        cells = sum(n ** ar for _, ar in fns + preds)
        # the root builds every tuple and theory check, and a leaf sets every
        # cell, one node each: past the budget none is in reach, and memory could fill
        tuples = f"{count} tuples of constants and variables"
        for size, what in ((count, tuples),
                           (count + instances, f"{tuples} and {instances} theory instances"),
                           (cells, f"{cells} table cells")):
            if size > self.budget:
                raise BudgetExceeded(f"counter-model search budget {self.budget} exhausted:"
                                     f" {what} at size {n}")
        entries: dict = {}
        # (goal check, theory checks, constant values, valuation values) per
        # tuple, in product order
        tuples = []
        for cvals in itertools.product(range(n), repeat=len(self.cvars)):
            base = dict(zip(self.cvars, cvals))
            th = [self._check(sides, {**base, **dict(zip(fvs, vals))}, entries)
                  for sides, fvs in self.theory_sides
                  for vals in itertools.product(range(n), repeat=len(fvs))]
            tuples += [(self._check(self.goal_sides, {**base, **dict(zip(self.goal_fvs, vals))},
                                    entries), th, cvals, vals)
                       for vals in itertools.product(range(n), repeat=len(self.goal_fvs))]

        # one table per used symbol, shared with the model
        tables: dict[str, dict[tuple[int, ...], int]] = {sym: {} for sym, _ in fns + preds}
        model = FiniteModel(n, {}, *({s: tables[s] for s, _ in group} for group in (fns, preds)))
        # cells in enumeration order: each function's tuples ascending with
        # values 0..n-1, then each predicate's tuples descending, false first
        cells = [(f, t, range(n)) for f, ar in fns
                 for t in itertools.product(range(n), repeat=ar)]
        cells += [(p, t, (False, True)) for p, ar in preds
                  for t in reversed(list(itertools.product(range(n), repeat=ar)))]
        known: dict[tuple, bool] = {}
        log: list[tuple] = []

        def value(check: tuple, ev: Evaluator, undecided: set) -> bool | None:
            out: bool | None = False
            for want, run, key, v in check:
                val = known.get(key)
                if val is None and key not in undecided:
                    val = run(ev, v)
                    if val is None:
                        undecided.add(key)
                    else:
                        known[key] = val
                        log.append(key)
                if val is want:
                    return True
                if val is None:
                    out = None
            return out

        def visit(live: list[int], base: Evaluator | None) -> tuple[list[int], Evaluator]:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(f"counter-model search budget {self.budget} exhausted")
            ev, undecided, consistent = Evaluator(model, base), set(), {}

            def alive(goal: tuple, th: list[tuple], cvals: tuple[int, ...], _) -> bool:
                if value(goal, ev, undecided) is True:
                    return False
                if cvals not in consistent:
                    consistent[cvals] = all(value(t, ev, undecided) is not False for t in th)
                return consistent[cvals]
            return [j for j in live if alive(*tuples[j])], ev

        def values(d: int):
            return iter(cells[d][2] if d < len(cells) else ())

        root, ev = visit(list(range(len(tuples))), None)
        # the values of the set cells, and each transposition pi of the
        # domain as (src, vmap, first cell not yet compared): cell j of pi(T)
        # holds vmap[j] of T's cell src[j], vmap[j] being pi for a function
        # cell and leaving a predicate cell's value as it is.  A root with no
        # live tuple needs none.
        cur: list = [None] * len(cells)
        tied = []
        if root:
            index = {(sym, t): j for j, (sym, t, _) in enumerate(cells)}
            for i, k in itertools.combinations(range(n), 2):
                pi = list(range(n))
                pi[i], pi[k] = k, i
                tied.append(([index[sym, tuple([pi[a] for a in t])] for sym, t, _ in cells],
                             [pi if sym in model.fn_interp else (False, True)
                              for sym, _, _ in cells], 0))

        def leader(tied: list[tuple], d: int) -> list[tuple] | None:
            """The transpositions still tied with T once cells 0..d are set;
            None when one of them makes T lexicographically smaller."""
            out = []
            for src, vmap, j in tied:
                while j <= d and src[j] <= d:
                    theirs, mine = vmap[j][cur[src[j]]], cur[j]
                    if theirs < mine:
                        return None
                    if theirs > mine:
                        break
                    j += 1
                else:
                    out.append((src, vmap, j))
            return out

        stack = [(0, values(0), root, len(log), ev, tied)]
        while stack:
            d, vals, live, mark, ev, tied = stack[-1]
            if not live:
                stack.pop()
                continue
            if d == len(cells):
                # every cell is set: the first live tuple is the first
                # counter-model in enumeration order
                return (*tuples[live[0]][2:],
                        *({s: dict(sorted(tables[s].items())) for s, _ in group}
                          for group in (fns, preds)))
            sym, t, _ = cells[d]
            # undo the previous value of cell d and what it made known
            tables[sym].pop(t, None)
            while len(log) > mark:
                del known[log.pop()]
            val = next(vals, None)
            if val is None:
                stack.pop()
                continue
            tables[sym][t] = val
            cur[d] = val
            kept = leader(tied, d)
            if kept is None:
                # every completion has a smaller isomorphic copy: no node
                continue
            nxt, child = visit(live, ev)
            stack.append((d + 1, values(d + 1), nxt, len(log), child, kept))
        return None

