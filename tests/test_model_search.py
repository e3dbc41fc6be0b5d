"""The cell-by-cell counter-model search against the brute-force enumerator,
the soundness of three-valued evaluation over partial models, and the
compiled evaluator against the interpreter it replaced."""

import itertools
import os
import random
import sys

import pytest

from rtcproof import semantics
from rtcproof.prooffile import load_theory
from rtcproof.semantics import (Evaluator, FiniteModel, evaluate, find_counter_model,
                                used_signature)
from rtcproof.syntax import (And, App, Bot, Const, Eq, Exists, Forall, Implies, Not,
                             Or, Pred, Rtc, Sequent, Signature, Top, Var, parts,
                             parse_sequent_infer)

sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))
import gen  # noqa: E402
from oracles import evaluate_warshall, find_counter_model_brute, kleene_holds  # noqa: E402

SIG = Signature.make(constants={"c"}, functions={"f": 1}, predicates={"e": 2, "q": 1})
FREE = ("a", "b")
BOUND = ("x", "y", "z")


def _models(sig: Signature, n: int) -> int:
    count = n ** len(sig.constants)
    for _, ar in sig.functions:
        count *= n ** (n ** ar)
    for _, ar in sig.predicates:
        count *= 2 ** (n ** ar)
    return count


# ---------------------------------------------------------------------------
# Random goals over constants, a function, equality, quantifiers and rtc
# formulas whose bodies may quantify and mention outer variables

def _term(rng, scope, depth=1):
    k = rng.random()
    if depth > 0 and k < 0.2:
        return App("f", (_term(rng, scope, depth - 1),))
    if k < 0.35:
        return Const("c")
    return Var(rng.choice(scope))


def _atom(rng, scope):
    k = rng.randrange(3)
    if k == 0:
        return Pred("e", (_term(rng, scope), _term(rng, scope)))
    if k == 1:
        return Pred("q", (_term(rng, scope),))
    return Eq(_term(rng, scope), _term(rng, scope))


def _formula(rng, scope, depth):
    if depth <= 0:
        return _atom(rng, scope)
    k = rng.randrange(9)
    sub = lambda s=scope: _formula(rng, s, depth - 1)  # noqa: E731
    if k == 0:
        return Not(sub())
    if k == 1:
        return And(sub(), sub())
    if k == 2:
        return Or(sub(), sub())
    if k == 3:
        return Implies(sub(), sub())
    if k in (4, 5):
        x = rng.choice(BOUND)
        return (Forall if k == 4 else Exists)(x, sub(scope + (x,)))
    if k in (6, 7):
        x, y = rng.sample(BOUND, 2)
        body = _formula(rng, scope + (x, y), min(depth - 1, 1))
        if rng.random() < 0.5:
            body = And(Pred("e", (Var(x), Var(y))), body)
        return Rtc(x, y, body, _term(rng, scope), _term(rng, scope))
    return _atom(rng, scope)


def random_goal(rng) -> tuple[Sequent, tuple[Sequent, ...]]:
    def side(k):
        return tuple(_formula(rng, FREE, rng.randrange(3)) for _ in range(rng.randrange(k)))
    goal = Sequent(side(3), side(3))
    theory = ()
    if rng.random() < 0.3:
        theory = (Sequent(side(2), (_formula(rng, FREE, 1),)),)
    return goal, theory


def _max_size(goal, theory, cap=600):
    """The largest size <= 3 whose models the brute force can afford."""
    used = used_signature((goal,) + theory, SIG)
    return max(n for n in (1, 2, 3) if n == 1 or _models(used, n) <= cap)


def _same(goal, theory, sig, size):
    got = find_counter_model(goal, size, theory, sig)
    want = find_counter_model_brute(goal, size, theory, sig)
    assert got == want, (str(goal), [str(ax) for ax in theory], size)
    return got


def _tables(m, sig, pi):
    """The tables of pi(m), for pi a permutation of m's domain that is its
    own inverse, as one list of cell values in enumeration order: function
    tables by argument tuple ascending, then predicate tables by tuple
    descending, each group by symbol name."""
    out = []
    for f, tab in sorted(m.fn_interp.items()):
        out += [pi[tab[tuple([pi[a] for a in t])]] for t in sorted(tab)]
    arity = dict(sig.predicates)
    for p, rel in sorted(m.pred_interp.items()):
        out += [tuple([pi[a] for a in t]) in rel for t in
                reversed(list(itertools.product(range(m.domain_size), repeat=arity[p])))]
    return out


def _is_leader(m, sig) -> bool:
    """Whether no transposition of m's domain makes m's tables
    lexicographically smaller."""
    n = m.domain_size
    mine = _tables(m, sig, list(range(n)))
    for i, k in itertools.combinations(range(n), 2):
        pi = list(range(n))
        pi[i], pi[k] = k, i
        if _tables(m, sig, pi) < mine:
            return False
    return True


def test_found_tables_are_lex_leaders():
    # the first counter-model in enumeration order is lex-least among its
    # isomorphic copies, so the search may cut every table that a swap of
    # two elements makes smaller; three elements apart make most goals
    # refuted at size 3, where there are three swaps
    apart, _ = parse_sequent_infer("~ a = b, ~ a = c, ~ b = c |-", SIG)
    rng = random.Random(20261020)
    found = 0
    for _ in range(300):
        goal, theory = random_goal(rng)
        goal = Sequent(apart.antecedent + goal.antecedent, goal.succedent)
        got = find_counter_model(goal, 3, theory, SIG)
        if got is not None:
            assert _is_leader(got[0], SIG), (str(goal), got[0].dump())
            found += 1
    assert 150 < found < 300, found


# goals over a constant, a unary function and a unary predicate whose
# smallest counter-model has size 4
SIZE4_GOALS = (
    "~ c = f(c), ~ c = f(f(c)), ~ f(c) = f(f(c)), ~ c = f(f(f(c))),"
    " ~ f(c) = f(f(f(c))), ~ f(f(c)) = f(f(f(c))) |-",
    "f(f(c)) = c, ~ f(c) = c, ~ a = c, ~ a = f(c), ~ f(a) = a, ~ f(a) = c, ~ f(a) = f(c) |-",
    "~ a = b, ~ a = c, ~ b = c, ~ f(c) = a, ~ f(c) = b, ~ f(c) = c, q(f(a)) |- q(b)",
    "q(a), ~ q(f(a)), q(f(f(a))), ~ q(f(f(f(a)))), ~ f(f(a)) = a, ~ f(f(f(a))) = f(a) |-",
    "~ (rtc x y. f(x) = y)(a, c), ~ (rtc x y. f(x) = y)(c, a), ~ f(a) = a, ~ f(c) = c,"
    " ~ f(a) = f(c) |-",
    "forall x. ~ f(x) = x, forall x. ~ f(f(x)) = x, ~ (rtc x y. f(x) = y)(a, c) |- q(a)",
    "q(c), ~ q(a), ~ q(b), ~ a = b, f(a) = b, f(b) = a, ~ f(c) = a, ~ f(c) = b,"
    " ~ f(c) = c |- exists x. f(x) = c",
)


@pytest.mark.parametrize("goal", SIZE4_GOALS)
def test_size4_goals_agree_with_brute_force(goal):
    """Swaps of two elements move function values as well as cells; at
    size 4 there are six swaps, each with a value map."""
    sig = Signature.make(constants={"c"}, functions={"f": 1}, predicates={"q": 1})
    goal_seq, _ = parse_sequent_infer(goal, sig)
    got = _same(goal_seq, (), sig, 4)
    assert got[0].domain_size == 4 and _is_leader(got[0], sig)


def test_valid_transitivity_nodes(monkeypatch):
    # the nodes after sizes 1, 2 and 3: a root per size and one per cell
    # assignment tried, but none for an assignment that a swap of two
    # elements cuts; without the swaps, size 3 takes 447 nodes, not 191
    nodes = []
    run = semantics._CellSearch.run

    def counted(self, n):
        out = run(self, n)
        nodes.append(self.nodes)
        return out
    monkeypatch.setattr(semantics._CellSearch, "run", counted)
    sig = Signature.make(predicates={"p": 2})
    R = "(rtc x y. p(x, y))"
    goal, _ = parse_sequent_infer(f"{R}(a, b), {R}(b, c) |- {R}(a, c)", sig)
    assert find_counter_model(goal, 3, (), sig) is None
    assert nodes == [1, 16, 207]


def test_random_goals_agree_with_brute_force():
    rng = random.Random(20261018)
    found = 0
    for _ in range(1200):
        goal, theory = random_goal(rng)
        if _same(goal, theory, SIG, _max_size(goal, theory)) is not None:
            found += 1
    # both outcomes occur often enough to mean something
    assert 200 < found < 1100, found


# goals over a signature with a pair symbol, used or not
PAIR_GOALS = ("<a, b> = c |-", "<a, b> = <d, e> |- a = d /\\ b = e",
              "<a, b> = <d, e> |- a = d", "|- q(<a, a>)", "q(<a, b>) |- q(c)",
              "<a, a> = a |- q(a)", "|- exists y. ~ c = y", "|- q(a)")


@pytest.mark.parametrize("goal", PAIR_GOALS)
def test_pairing_goals_agree_with_brute_force(goal):
    """The search keeps the pairing rules, which the enumerator checks on
    every model, with and without the pair constant."""
    for pair_constant in (None, "c"):
        sig = Signature.make(constants={"c"}, functions={"pr": 2}, predicates={"q": 1},
                             pair_symbol="pr", pair_constant=pair_constant)
        goal_seq, _ = parse_sequent_infer(goal, sig)
        _same(goal_seq, (), sig, 2)


def _suite(command):
    for g in gen.goal_inputs(command, 5):
        base, theory = Signature.make(), ()
        if g.theory:
            th = load_theory(g.theory)
            base, theory = base.merge(th.signature), th.axioms
        goal, sig = parse_sequent_infer(g.text, base)
        yield g, goal, theory, sig


@pytest.mark.parametrize("command", ["prove", "refute"])
def test_benchmark_goals_agree_with_brute_force(command):
    """Each goal up to the size `refute` uses, or the prover's default 3;
    a prove goal whose size-3 models number over 1000 up to 2."""
    for g, goal, theory, sig in _suite(command):
        size = g.model_size if command == "refute" else 3
        if command == "prove" and _models(used_signature((goal,) + theory, sig), 3) > 1000:
            size = 2
        got = _same(goal, theory, sig, size)
        assert (got is None) == (g.status == "valid"), g.name


# ---------------------------------------------------------------------------
# Kleene soundness: a definite answer over a partial model holds in every
# completion; a complete model gets the two-valued answer

def _random_model(rng, n):
    cells = list(itertools.product(range(n), repeat=2))
    return FiniteModel(
        n, {"c": rng.randrange(n)}, {"f": {(a,): rng.randrange(n) for a in range(n)}},
        {"e": frozenset(t for t in cells if rng.random() < 0.4),
         "q": frozenset((a,) for a in range(n) if rng.random() < 0.5)})


def _cells(m):
    cells = [("f", (a,)) for a in range(m.domain_size)]
    cells += [("q", (a,)) for a in range(m.domain_size)]
    return cells + [("e", t) for t in itertools.product(range(m.domain_size), repeat=2)]


def _hide(rng, m, k):
    """m with k random cells made unknown."""
    cells = _cells(m)
    return _hidden(m, rng.sample(cells, min(k, len(cells))))


def _hidden(m, hidden):
    """m with the cells in `hidden` made unknown."""
    fn = {"f": {t: b for t, b in m.fn_interp["f"].items() if ("f", t) not in hidden}}
    unknown = {p: frozenset(t for s, t in hidden if s == p) for p in ("e", "q")}
    preds = {p: m.pred_interp[p] - unknown[p] for p in ("e", "q")}
    return FiniteModel(m.domain_size, m.const_interp, fn, preds, unknown)


def _completions(m):
    n = m.domain_size
    fn_missing = [(a,) for a in range(n) if (a,) not in m.fn_interp["f"]]
    pred_cells = [(p, t) for p in ("e", "q") for t in sorted(m.unknown.get(p, ()))]
    for fvals in itertools.product(range(n), repeat=len(fn_missing)):
        for bits in itertools.product((False, True), repeat=len(pred_cells)):
            fn = {"f": {**m.fn_interp["f"], **dict(zip(fn_missing, fvals))}}
            preds = {p: m.pred_interp[p] | {t for (q, t), b in zip(pred_cells, bits)
                                             if q == p and b}
                     for p in ("e", "q")}
            yield FiniteModel(n, m.const_interp, fn, preds)


def test_partial_evaluation_is_sound():
    rng = random.Random(9)
    definite = 0
    for _ in range(400):
        n = rng.randrange(1, 4)
        full = _random_model(rng, n)
        f = _formula(rng, FREE, rng.randrange(4))
        v = {x: rng.randrange(n) for x in FREE}
        partial = _hide(rng, full, rng.randrange(1, 5))
        val = evaluate(partial, v, f)
        for m in _completions(partial):
            got = evaluate(m, v, f)
            assert got is not None
            assert got == evaluate_warshall(m, v, f)
            if val is not None:
                assert got == val, (str(f), partial, m)
        definite += val is not None
    # most formulas are decided before every cell is known
    assert definite > 100, definite


def _constructors(f, seen):
    seen.add(type(f).__name__)
    for g in parts(f)[1]:
        _constructors(g, seen)


def test_compiled_evaluator_matches_interpreter():
    # the compiled closures give the interpreter's value, None included, on
    # partial models: a value turned definite or turned None would change
    # which search nodes are visited.  Each formula is evaluated in a
    # partial model, then in a model that sets some of its unknown cells
    # through an Evaluator built on the first one's, as the search does.
    rng = random.Random(21)
    formulas = [_formula(rng, FREE, rng.randrange(1, 5)) for _ in range(150)]
    # nested rtc whose inner body reads the outer binder x as a side variable
    inner = And(Pred("e", (Var("u"), Var("w"))), Pred("q", (Var("x"),)))
    formulas += [Top(), Bot(), Or(Bot(), Pred("e", (Var("a"), App("f", (Var("b"),))))),
                 Rtc("x", "y", Rtc("u", "w", inner, Var("x"), Var("y")), Var("a"), Const("c"))]
    seen: set[str] = set()
    for f in formulas:
        _constructors(f, seen)
    assert seen == {"Pred", "Eq", "Top", "Bot", "Not", "And", "Or", "Implies",
                    "Forall", "Exists", "Rtc"}
    compared = {True: 0, False: 0, None: 0}
    for _ in range(300):
        n = rng.randrange(1, 4)
        full = _random_model(rng, n)
        cells = _cells(full)
        hidden = rng.sample(cells, rng.randrange(1, min(6, len(cells)) + 1))
        parent = _hidden(full, hidden)
        child = _hidden(full, hidden[:rng.randrange(len(hidden) + 1)])
        parent_ev = Evaluator(parent)
        child_ev = Evaluator(child, base=parent_ev)
        for f in rng.sample(formulas, 8):
            v = {x: rng.randrange(n) for x in FREE}
            for ev, m in ((parent_ev, parent), (child_ev, child)):
                want = kleene_holds(m, v, f)
                assert ev.holds(f, v) is want, (str(f), m, v)
                compared[want] += 1
    assert min(compared.values()) > 100, compared


def test_rtc_bounds_over_partial_edges():
    # 0 -> 1 known, 1 -> 2 unknown, 0 -> 2 and the rest known absent
    sig = Signature.make(predicates={"e": 2})
    goal, _ = parse_sequent_infer("|- (rtc x y. e(x, y))(a, b)", sig)
    f = goal.succedent[0]
    m = FiniteModel(3, {}, {}, {"e": frozenset({(0, 1)})}, {"e": frozenset({(1, 2)})})
    assert evaluate(m, {"a": 0, "b": 1}, f) is True
    assert evaluate(m, {"a": 0, "b": 2}, f) is None
    assert evaluate(m, {"a": 2, "b": 0}, f) is False
    assert evaluate(m, {"a": 1, "b": 1}, f) is True


def test_found_models_are_rechecked(monkeypatch):
    # a search that stopped on a model satisfying the goal is caught there
    sig = Signature.make(predicates={"q": 1})
    goal, _ = parse_sequent_infer("q(a) |- q(a)", sig)
    monkeypatch.setattr(semantics._CellSearch, "run",
                        lambda self, n: ((), (0,), {}, {"q": frozenset()}))
    with pytest.raises(AssertionError):
        find_counter_model(goal, 1, (), sig)



def test_theory_checks_read_once_per_constant_tuple(monkeypatch):
    # all tuples with the same constant values share one list of theory
    # checks, and a node reads it once: a goal variable x that gives each
    # constant tuple 3 goal tuples at size 3, all alike since x = x holds,
    # leaves the reads as they are
    reads = [0]

    class Counted(tuple):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    build = semantics._CellSearch._check
    monkeypatch.setattr(semantics._CellSearch, "_check", lambda self, sides, v, entries: (
        build(self, sides, v, entries) if sides is self.goal_sides
        else Counted(build(self, sides, v, entries))))
    sig = Signature.make(predicates={"q": 1})
    axiom, _ = parse_sequent_infer("q(x1), q(x2) |- q(y)", sig)

    def theory_reads(goal_text: str) -> int:
        """Theory check reads over every model up to size 3."""
        reads[0] = 0
        goal, _ = parse_sequent_infer(goal_text, sig)
        assert find_counter_model(goal, 3, (axiom,), sig) is None
        return reads[0]

    plain = theory_reads("q(a) |- q(b)")
    assert plain > 0
    assert theory_reads("q(a), x = x |- q(b)") == plain
