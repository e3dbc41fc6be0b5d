import random

import pytest

from rtcproof.errors import ParseError
from rtcproof.render import latex_sequent
from rtcproof.syntax import (MAX_DEPTH, And, App, Bot, Const, Eq, Exists,
                             Forall, Formula, Implies, Not, Or, Pred, Rtc,
                             Sequent, Signature, Top, Var, all_names,
                             formula_subterms, free_vars, parse_formula,
                             parse_formula_infer, parse_sequent,
                             parse_sequent_infer, parts, positional_key,
                             pretty, pretty_sequent, pretty_term, rebuild,
                             replace_terms, subformulas, subst_term, substitute,
                             substitute_key, symbols, term_key, term_vars,
                             tokenize)

from helpers import NESTED, token_kind
from oracles import validate_formula

SIG = Signature.make(constants={"0"},
                     functions={"s": 1, "g": 2, "pair": 2},
                     predicates={"p": 2, "q": 1, "E": 2},
                     pair_symbol="pair")


def F(text):
    return parse_formula(text, SIG)


class TestParse:
    def test_rtc_example(self):
        f = F("(rtc x y. s(x) = y)(0, n)")
        assert f == Rtc("x", "y", Eq(App("s", (Var("x"),)), Var("y")),
                        Const("0"), Var("n"))

    def test_alpha_equal_parse(self):
        assert F("(rtc x y. p(x, y))(a, a)") == F("(rtc u v. p(u, v))(a, a)")

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            F("p(x")
        assert exc.value.position == 3

    def test_tokens_are_strings(self):
        # whitespace other than a space, here a tab and a newline, is skipped
        # as spaces are
        assert tokenize("q(a)\t/\\ x' ->\n|-") == ["q", "(", "a", ")", "/\\", "x'", "->",
                                                   "|-", ""]
        assert tokenize("   ") == [""]

    @pytest.mark.parametrize("text, offset", [
        ("q(a) $", 5), ("q(a)\t|", 5), ("q(a) \\ q(b)", 5), ("x := y:", 6),
        ("x' 'y", 3), ("é", 0),
    ])
    def test_character_that_starts_no_token(self, text, offset):
        # reported before any syntax error, at its own offset
        with pytest.raises(ParseError) as exc:
            parse_sequent("(" + text, SIG)
        assert exc.value.position == offset + 1
        assert exc.value.message == f"unexpected character {text[offset]!r}"

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as exc:
            F("f(x) = y")
        assert str(exc.value) == "at offset 0: function 'f' not declared"

    def test_arity(self):
        with pytest.raises(ParseError) as exc:
            F("p(x)")
        assert str(exc.value) == "at offset 0: predicate 'p' expects 2 args, got 1"

    def test_pair_without_pair_symbol(self):
        sig = Signature.make(functions={"pair": 2}, predicates={"q": 1})
        with pytest.raises(ParseError) as exc:
            parse_formula("q(<a, b>)", sig)
        assert str(exc.value) == \
            "at offset 2: pair syntax used but signature has no pair symbol"

    @pytest.mark.parametrize("kind, word", [("functions", "function"),
                                            ("predicates", "predicate")])
    def test_merge_arity_clash(self, kind, word):
        one = Signature.make(**{kind: {"f": 1}})
        with pytest.raises(ParseError) as exc:
            one.merge(Signature.make(**{kind: {"f": 2}}))
        assert str(exc.value) == f"{word} 'f' declared with arities 1 and 2"

    def test_precedence(self):
        f = F("~q(a) /\\ q(b) \\/ q(a) -> q(b)")
        assert isinstance(f, type(F("q(a) -> q(b)")))
        assert f == F("((~q(a) /\\ q(b)) \\/ q(a)) -> q(b)")

    def test_quantifier_body_maximal(self):
        f = F("forall x. q(x) /\\ q(a)")
        assert isinstance(f, Forall)
        assert isinstance(f.body, And)

    def test_pair_sugar(self):
        f = F("<a, b> = <b, a>")
        assert f == Eq(App("pair", (Var("a"), Var("b"))),
                       App("pair", (Var("b"), Var("a"))))

    def test_rtc_binders_distinct(self):
        with pytest.raises(ParseError):
            F("(rtc x x. p(x, x))(a, b)")

    @pytest.mark.parametrize("text, offset", [
        ("forall 0. q(0)", 7), ("exists 0. q(0)", 7),
        ("(rtc 0 y. p(0, y))(a, b)", 5), ("(rtc x 0. p(x, 0))(a, b)", 7),
    ])
    def test_binder_is_not_a_constant(self, text, offset):
        # a binder named like a constant would bind nothing: the body reads
        # the constant
        for parse in (F, lambda t: parse_formula_infer(t, SIG)):
            with pytest.raises(ParseError, match="constant '0' cannot be bound") as exc:
                parse(text)
            assert exc.value.position == offset

    def test_infer(self):
        s, sig = parse_sequent_infer("f(a) = b, r(a, b) |- r(b, f(a))",
                                     Signature.make())
        assert sig.fn_arity("f") == 1
        assert dict(sig.predicates)["r"] == 2


class TestRoundTrip:
    CASES = [
        "p(x, y) /\\ q(x) -> q(y)",
        "~(q(a) \\/ bot)",
        "top -> q(a) \\/ q(b) \\/ q(0)",
        "forall x. exists y. p(x, y) -> p(y, x)",
        "(rtc x y. p(x, y) /\\ ~x = y)(s(0), n)",
        "(forall x. q(x)) /\\ q(a)",
        "q(a) -> q(b) -> q(0)",
        "<a, <b, 0>> = pair(a, pair(b, 0))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_print_parse(self, text):
        f = F(text)
        printed = pretty(f, SIG)
        again = parse_formula(printed, SIG)
        assert again == f
        assert pretty(again, SIG) == printed


class TestFreeVars:
    def test_rtc_binding(self):
        f = Rtc("x", "y", Eq(Var("x"), Var("y")), Var("x"), Var("z"))
        assert free_vars(f) == {"x", "z"}

    def test_forall(self):
        assert free_vars(F("forall x. q(x)")) == set()

    def test_eq(self):
        assert free_vars(Eq(Var("u"), Var("v"))) == {"u", "v"}


class TestSubstitute:
    def test_bound_untouched(self):
        f = Rtc("x", "y", Eq(Var("x"), Var("y")), Var("x"), Var("z"))
        g = substitute(f, {"x": App("s", (Const("0"),))})
        assert g == Rtc("x", "y", Eq(Var("x"), Var("y")),
                        App("s", (Const("0"),)), Var("z"))

    def test_capture_avoided(self):
        f = Forall("y", Pred("p", (Var("x"), Var("y"))))
        g = substitute(f, {"x": Var("y")})
        assert free_vars(g) == {"y"}
        assert g == Forall("w", Pred("p", (Var("y"), Var("w"))))

    def test_identity(self):
        f = F("p(x, y) -> q(x)")
        assert substitute(f, {}) is f
        assert substitute(f, {"x": Var("x")}) == f

    def test_simultaneous(self):
        f = F("p(x, y)")
        g = substitute(f, {"x": Var("y"), "y": Var("x")})
        assert g == F("p(y, x)")


S_A = App("s", (Var("a"),))


class TestReplaceTerms:
    # (formula, key, image, the printed result), the same as the prover's
    # earlier one-term rewrite gave
    CASES = [
        # a binder over a variable of the key: that scope is left alone
        ("q(s(a)) /\\ (forall a. q(s(a))) /\\ (forall b. q(s(a)))", S_A, Var("h"),
         "q(h) /\\ (forall a. q(s(a))) /\\ (forall b. q(h))"),
        # an rtc's endpoints lie outside its binders; a binder over the image
        ("(rtc a y. E(s(a), y))(s(a), b) /\\ (forall h. q(s(a)))", S_A, Var("h"),
         "(rtc a y. E(s(a), y))(h, b) /\\ (forall h. q(s(a)))"),
        # outermost occurrences first, and no rewrite of an image
        ("q(s(s(a)))", S_A, Var("a"), "q(s(a))"),
        ("exists x. E(0, s(0))", Const("0"), Var("k"), "exists x. E(k, s(k))"),
    ]

    @pytest.mark.parametrize("text, old, new, want", CASES)
    def test_one_term(self, text, old, new, want):
        assert pretty(replace_terms(F(text), {old: new})) == want

    def test_simultaneous(self):
        f = replace_terms(F("E(a, b)"), {Var("a"): Var("b"), Var("b"): Var("a")})
        assert pretty(f) == "E(b, a)"


def test_collectors_read_children_first():
    f = F("forall x. (rtc u v. E(u, s(v)))(x, g(x, 0)) /\\ q(0)")
    assert [type(g) for g in subformulas(f)] == [Pred, Rtc, Pred, And, Forall]
    # an rtc body's terms come before its endpoints
    assert [pretty_term(t) for t in formula_subterms(f)] \
        == ["u", "s(v)", "v", "x", "g(x, 0)", "x", "0", "0"]
    assert all_names(f) == {"x", "u", "v"}
    assert term_vars(App("g", (Var("x"), App("s", (Var("y"),))))) == {"x", "y"}


def test_symbols():
    consts, fns, preds = symbols([F("forall x. q(s(0)) /\\ E(x, pair(a, 0))"),
                                  F("(rtc x y. p(x, y))(0, 0)")])
    assert consts == {"0"}
    assert fns == {"s": 1, "pair": 2}
    assert preds == {"q": 1, "E": 2, "p": 2}


def _random_formula(rng, depth, vars_pool=("x", "y", "z", "w")):
    """A random formula over every constructor, with terms built by the
    1-ary `s` and the 2-ary `g`."""
    def term(d):
        r = rng.random()
        if d <= 0 or r < 0.5:
            return Var(rng.choice(vars_pool)) if rng.random() < 0.8 else Const("0")
        if r < 0.75:
            return App("s", (term(d - 1),))
        return App("g", (term(d - 1), term(d - 1)))

    if depth <= 0:
        k = rng.randrange(8)
        if k < 2:
            return Eq(term(1), term(1))
        if k < 4:
            return Pred("q", (term(1),))
        if k < 6:
            return Pred("p", (term(1), term(1)))
        return Top() if k == 6 else Bot()
    k = rng.randrange(8)
    if k == 0:
        return Not(_random_formula(rng, depth - 1, vars_pool))
    if k in (1, 2, 3):
        cls = (And, Or, Implies)[k - 1]
        return cls(_random_formula(rng, depth - 1, vars_pool),
                   _random_formula(rng, depth - 1, vars_pool))
    if k == 4:
        return Forall(rng.choice(vars_pool), _random_formula(rng, depth - 1, vars_pool))
    if k == 5:
        return Exists(rng.choice(vars_pool), _random_formula(rng, depth - 1, vars_pool))
    if k == 6:
        x = rng.choice(vars_pool)
        y = rng.choice([v for v in vars_pool if v != x])
        return Rtc(x, y, _random_formula(rng, depth - 1, vars_pool), term(1), term(1))
    return _random_formula(rng, 0, vars_pool)


def _random_theta(rng, f):
    """A substitution for f of up to three entries: a domain variable of f
    (bound or free) or not in it; an image that is the variable itself, a
    variable named as in f (binders included), a constant or an application
    over such variables.  Sometimes two entries swap two names."""
    names = sorted({b for g in subformulas(f) for b in parts(g)[0]}
                   | free_vars(f) | {"u", "x"})

    def image(v):
        r = rng.random()
        if r < 0.2:
            return Var(v)
        if r < 0.6:
            return Var(rng.choice(names))
        if r < 0.7:
            return Const("0")
        if r < 0.85:
            return App("s", (Var(rng.choice(names)),))
        return App("g", (Var(rng.choice(names)), Var(rng.choice(names))))

    theta = {}
    for _ in range(rng.randrange(1, 4)):
        v = rng.choice(names)
        theta[v] = image(v)
    if rng.random() < 0.3:
        a, b = rng.sample(names, 2)
        theta[a], theta[b] = Var(b), Var(a)
    return theta


# exact key strings, which fix sequent order and so every printed proof
KEY_SIG = Signature.make(constants={"a"}, functions={"f": 1},
                         predicates={"p": 2, "q": 1, "r": 0})
KEYS = {
    "a = f(x)": "(= (c a) (f f (v x)))",
    "p(x, a)": "(p p (v x) (c a))",
    "r": "(p r )",
    "top": "(top)",
    "bot": "(bot)",
    "~ q(x)": "(~ (p q (v x)))",
    "q(x) /\\ r": "(& (p q (v x)) (p r ))",
    "q(x) \\/ r": "(| (p q (v x)) (p r ))",
    "q(x) -> r": "(> (p q (v x)) (p r ))",
    "forall x. p(x, y)": "(all (p p (b 0) (v y)))",
    "exists x. p(x, y)": "(ex (p p (b 0) (v y)))",
    "(rtc u v. p(u, v))(a, y)": "(rtc (p p (b 0) (b 1)) (c a) (v y))",
    "forall x. exists y. (rtc u v. p(u, x) /\\ p(y, v))(x, f(y))":
        "(all (ex (rtc (& (p p (b 2) (b 0)) (p p (b 1) (b 3))) (b 0) (f f (b 1)))))",
    "forall x. forall x. p(x, y)": "(all (all (p p (b 1) (v y))))",
    "(rtc x y. forall y. p(x, y))(y, x)": "(rtc (all (p p (b 0) (b 2))) (v y) (v x))",
}


@pytest.mark.parametrize("text", KEYS)
def test_key_strings(text):
    assert parse_formula(text, KEY_SIG).key() == KEYS[text]


def test_substitute_and_positional_key_strings():
    f = parse_formula("forall x. p(x, y) /\\ q(z)", KEY_SIG)
    theta = {"y": App("f", (Var("x"),)), "z": Const("a"), "x": Var("w")}
    assert substitute_key(f, theta) == "(all (& (p p (b 0) (f f (v x))) (p q (c a))))"
    g = parse_formula("p(b, c) /\\ exists d. p(d, b)", KEY_SIG)
    assert positional_key(g, ("b", "c")) == "(& (p p (b 0) (b 1)) (ex (p p (b 2) (b 0))))"


class TestSubstituteKey:
    """`substitute_key` and `Sequent.substituted_keys` against the keys of
    the formulas and sequents that `substitute` builds."""

    def test_agrees_with_substitute(self):
        rng = random.Random(31)
        classes = set()
        # substitutions that: rename a binder to avoid capture, map a
        # variable to itself, name a variable that f binds, swap two names
        seen = dict.fromkeys(("capture", "identity", "bound", "swap"), 0)
        for _ in range(2500):
            f = _random_formula(rng, rng.randrange(5))
            theta = _random_theta(rng, f)
            g = substitute(f, theta)
            assert substitute_key(f, theta) == g.key(), (pretty(f), theta)
            classes.update(type(h) for h in subformulas(f))
            binders = {b for h in subformulas(f) for b in parts(h)[0]}
            seen["capture"] += any(b.startswith("_v")
                                   for h in subformulas(g) for b in parts(h)[0])
            seen["identity"] += any(t == Var(v) for v, t in theta.items())
            seen["bound"] += not binders.isdisjoint(theta)
            seen["swap"] += any(theta.get(t.name) == Var(v) != t
                                for v, t in theta.items() if isinstance(t, Var))
        assert classes == {Eq, Pred, Top, Bot, Not, And, Or, Implies, Forall, Exists, Rtc}
        assert min(seen.values()) >= 100, seen

    def test_sequent_agrees_with_substituted(self):
        rng = random.Random(37)
        merged = 0   # sequents with two formulas of a side keyed alike
        for _ in range(2000):
            # the sides share formulas, as a Subst chain's do; the third is
            # the first with a renamed, which theta often renames back
            a, b = rng.sample(("x", "y", "z", "w"), 2)
            pool = [_random_formula(rng, rng.randrange(3)) for _ in range(2)]
            pool.append(substitute(pool[0], {a: Var(b)}))
            s = Sequent(tuple(rng.sample(pool, rng.randrange(4))),
                        tuple(rng.sample(pool, rng.randrange(4))))
            theta = _random_theta(rng, And(pool[0], pool[1]))
            if rng.random() < 0.5:
                theta[b] = Var(a)
            inst = s.substituted(theta)
            want = (tuple(f.key() for f in inst.antecedent),
                    tuple(f.key() for f in inst.succedent))
            assert s.substituted_keys(theta) == want, (str(s), theta)
            merged += (len(inst.antecedent) < len(s.antecedent)
                       or len(inst.succedent) < len(s.succedent))
        assert merged >= 20, merged


class TestProperties:
    def test_substitution_lemma(self):
        rng = random.Random(7)
        terms = [Const("0"), Var("u"), App("s", (Var("u"),)), Var("y")]
        for _ in range(300):
            f = _random_formula(rng, rng.randrange(4))
            x = rng.choice(("x", "y", "z"))
            t = rng.choice(terms)
            g = substitute(f, {x: t})
            if x in free_vars(f):
                assert free_vars(g) == (free_vars(f) - {x}) | term_vars(t)
            else:
                assert f == g

    def test_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(200):
            f = _random_formula(rng, rng.randrange(4))
            printed = pretty(f, SIG)
            assert parse_formula(printed, SIG) == f

    def test_roundtrip_binders_named_like_constants(self):
        """A binder that the signature declares as a constant is printed
        under a fresh name, apart from the constants, so that the text
        parses back to the formula; the parser refuses such a binder, so
        the formulas are built directly.  The free occurrences of those
        names are made the constants themselves."""
        rng = random.Random(41)
        renamed = 0
        for _ in range(300):
            f = _random_formula(rng, rng.randrange(1, 5))
            binders = sorted({b for g in subformulas(f) for b in parts(g)[0]})
            if not binders:
                continue
            clash = set(rng.sample(binders, rng.randrange(1, len(binders) + 1)))
            f = substitute(f, {c: Const(c) for c in clash})
            sig = Signature.make(SIG.constants | clash | {"_v0"}, dict(SIG.functions),
                                 dict(SIG.predicates), SIG.pair_symbol)
            printed = pretty(f, sig)
            assert parse_formula(printed, sig) == f, printed
            renamed += printed != pretty(f)
        assert renamed >= 100, renamed

    def test_alpha_eq_requires_same_free(self):
        assert F("q(x)") != F("q(y)")
        assert F("forall x. q(x)") == F("forall z. q(z)")


class TestSequent:
    def test_dedup_under_alpha(self):
        s = parse_sequent("forall x. q(x), forall z. q(z) |- q(a)", SIG)
        assert len(s.antecedent) == 1

    def test_insert_existing_noop(self):
        s = parse_sequent("p(a, b) |- q(a)", SIG)
        assert s.with_ant(F("p(a, b)")) == s

    def test_order_canonical(self):
        s1 = parse_sequent("q(a), q(b) |- ", SIG)
        s2 = parse_sequent("q(b), q(a) |- ", SIG)
        assert s1 == s2 and s1.antecedent == s2.antecedent

    def test_print_shapes(self):
        assert pretty_sequent(parse_sequent("|- q(a)", SIG)) == "|- q(a)"
        assert pretty_sequent(parse_sequent("q(a) |-", SIG)) == "q(a) |-"
        assert pretty_sequent(Sequent((), ())) == "|- "

    def test_alpha_variants_share_a_dict_slot(self):
        s1 = parse_sequent("forall x. q(x) |- exists y. p(y, a)", SIG)
        s2 = parse_sequent("forall z. q(z) |- exists w. p(w, a)", SIG)
        assert s1 == s2 and hash(s1) == hash(s2)
        assert {s1: "first"}[s2] == "first" and len({s1, s2}) == 1


# a value outside the closed term and formula classes is an error, never a
# key or a printed text of None
NOT_SYNTAX = {
    "subst_term": lambda: subst_term(object(), {}),
    "term_key": lambda: term_key(object(), {}),
    "formula_key": lambda: Formula().key(),
    "pretty_term": lambda: pretty_term(object()),
}


@pytest.mark.parametrize("case", sorted(NOT_SYNTAX))
def test_not_syntax_is_type_error(case):
    with pytest.raises(TypeError, match="^not a (term|formula): "):
        NOT_SYNTAX[case]()


class TestShape:
    # one formula per constructor, Implies, Top and Bot included
    EXAMPLES = [
        "s(x) = y", "p(x, 0)", "top", "bot", "~q(x)", "q(x) /\\ q(y)",
        "q(x) \\/ q(y)", "q(x) -> q(y)", "forall x. p(x, y)",
        "exists y. p(x, y)", "(rtc x y. p(x, y))(s(0), z)",
    ]

    def test_examples_cover_every_constructor(self):
        assert {type(F(t)) for t in self.EXAMPLES} == {
            Eq, Pred, Top, Bot, Not, And, Or, Implies, Forall, Exists, Rtc}

    @pytest.mark.parametrize("text", EXAMPLES)
    def test_rebuild_from_own_parts(self, text):
        f = F(text)
        g = rebuild(f, *parts(f))
        assert g == f
        assert type(g) is type(f)
        assert pretty(g, SIG) == pretty(f, SIG)

    def test_rebuild_random(self):
        rng = random.Random(17)
        for _ in range(200):
            stack = [_random_formula(rng, rng.randrange(4))]
            while stack:
                f = stack.pop()
                g = rebuild(f, *parts(f))
                assert type(g) is type(f) and pretty(g) == pretty(f)
                stack.extend(parts(f)[1])

    def test_rtc_parts(self):
        f = F("(rtc x y. p(x, y))(s(0), z)")
        assert parts(f) == (("x", "y"), (f.body,), (f.src, f.dst))

    def test_rebuild_new_parts(self):
        f = F("forall x. q(x)")
        g = rebuild(f, ("y",), (F("q(y) /\\ q(z)"),), ())
        assert pretty(g) == "forall y. q(y) /\\ q(z)"
        h = rebuild(F("p(x, y)"), (), (), (Var("u"), Const("0")))
        assert pretty(h) == "p(u, 0)"

    def test_not_a_formula(self):
        with pytest.raises(TypeError):
            parts(Var("x"))
        with pytest.raises(TypeError):
            rebuild(Var("x"), (), (), ())


# symbols with "_" (escaped in LaTeX) and a zero-ary predicate, on top of SIG
NOTATION_SIG = SIG.merge(Signature.make(constants={"c_1"}, functions={"f_g": 1},
                                        predicates={"z_0": 0}))

# formula -> (pretty, latex_sequent of "|- formula" after its " \vdash ")
NOTATIONS = {
    "s(x) = y": ("s(x) = y", r"\mathit{s}(x) = y"),
    "p(x, 0)": ("p(x, 0)", r"\mathit{p}(x, 0)"),
    "top": ("top", r"\top"),
    "bot": ("bot", r"\bot"),
    "~q(x)": ("~q(x)", r"\neg \mathit{q}(x)"),
    "q(x) /\\ q(y)": ("q(x) /\\ q(y)", r"\mathit{q}(x) \wedge \mathit{q}(y)"),
    "q(x) \\/ q(y)": ("q(x) \\/ q(y)", r"\mathit{q}(x) \vee \mathit{q}(y)"),
    "q(x) -> q(y)": ("q(x) -> q(y)", r"\mathit{q}(x) \rightarrow \mathit{q}(y)"),
    "forall x. p(x, y)": ("forall x. p(x, y)", r"\forall x.\, \mathit{p}(x, y)"),
    "exists y. p(x, y)": ("exists y. p(x, y)", r"\exists y.\, \mathit{p}(x, y)"),
    "(rtc x y. p(x, y))(s(0), z)": (
        "(rtc x y. p(x, y))(s(0), z)",
        r"(\mathsf{rtc}_{x,y}\, \mathit{p}(x, y))(\mathit{s}(0), z)"),
    "<a, <b, 0>> = pair(a, b)": (
        "<a, <b, 0>> = <a, b>",
        r"\langle a, \langle b, 0 \rangle \rangle = \langle a, b \rangle"),
    "z_0 -> ~(z_0 /\\ q(c_1))": (
        "z_0 -> ~(z_0 /\\ q(c_1))",
        r"\mathit{z\_0} \rightarrow \neg (\mathit{z\_0} \wedge \mathit{q}(c\_1))"),
    "forall x_1. (rtc u_v w. E(u_v, f_g(w)))(x_1, c_1) \\/ q(_v0)": (
        "forall x_1. (rtc u_v w. E(u_v, f_g(w)))(x_1, c_1) \\/ q(_v0)",
        r"\forall x\_1.\, (\mathsf{rtc}_{u\_v,w}\, \mathit{E}(u\_v, \mathit{f\_g}(w)))"
        r"(x\_1, c\_1) \vee \mathit{q}(\_v0)"),
    "(q(a) -> q(b)) -> ~(q(a) \\/ q(b)) /\\ (exists y. q(y))": (
        "(q(a) -> q(b)) -> ~(q(a) \\/ q(b)) /\\ (exists y. q(y))",
        r"(\mathit{q}(a) \rightarrow \mathit{q}(b)) \rightarrow \neg (\mathit{q}(a)"
        r" \vee \mathit{q}(b)) \wedge (\exists y.\, \mathit{q}(y))"),
}


def test_notations_cover_the_shape_examples():
    assert set(TestShape.EXAMPLES) <= set(NOTATIONS)


@pytest.mark.parametrize("text", sorted(NOTATIONS))
def test_text_and_latex_notation(text):
    f = parse_formula(text, NOTATION_SIG)
    shown, tex = NOTATIONS[text]
    assert pretty(f, NOTATION_SIG) == shown
    assert latex_sequent(Sequent((), (f,)), NOTATION_SIG) == r" \vdash " + tex


@pytest.mark.parametrize("shape", sorted(NESTED))
def test_nesting_cap(shape):
    text = NESTED[shape]
    f, _ = parse_formula_infer(text(MAX_DEPTH), Signature.make())
    assert parse_formula_infer(pretty(f), Signature.make())[0] == f
    with pytest.raises(ParseError, match=f"nested more than {MAX_DEPTH} levels deep"):
        parse_formula_infer(text(MAX_DEPTH + 1), Signature.make())


def test_nesting_cap_counts_every_operand():
    # the left operand of a chain and the endpoints of an rtc count too
    deep = "~" * (MAX_DEPTH - 2) + "q(a)"
    parse_formula_infer(f"({deep}) /\\ q(a)", Signature.make())
    with pytest.raises(ParseError):
        parse_formula_infer(f"({deep}) /\\ q(a) /\\ q(a)", Signature.make())
    term = "f(" * (MAX_DEPTH - 1) + "a" + ")" * (MAX_DEPTH - 1)
    parse_formula_infer(f"(rtc x y. p(x, y))(b, {term})", Signature.make())
    with pytest.raises(ParseError):
        parse_formula_infer(f"(rtc x y. p(x, y))(f(b), f({term}))", Signature.make())


# tokens a mutation inserts or substitutes, by kind: declared and undeclared
# symbols, variables, keywords; connectives and punctuation
MUTANTS = {
    "ident": ["p", "q", "s", "E", "pair", "0", "x", "y", "f", "r", "forall",
              "exists", "rtc", "bot", "top"],
    "sym": ["(", ")", ",", ".", "=", "~", "/\\", "\\/", "->", "<", ">", "|-"],
}


def _mutate(rng, text):
    """text with one or two tokens deleted, inserted, replaced by one of the
    same kind, or swapped with their right neighbour."""
    toks = tokenize(text)[:-1]
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(toks))
        op = rng.randrange(5)
        if op == 0:
            del toks[i]
        elif op == 1:
            kind = rng.choice(sorted(MUTANTS))
            toks.insert(i, rng.choice(MUTANTS[kind]))
        elif op == 4 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
        else:
            toks[i] = rng.choice(MUTANTS[token_kind(toks[i])])
        if not toks:
            break
    return " ".join(toks)


def test_parsed_formulas_pass_the_oracle():
    # the parser checks symbols as it reads them: whatever it accepts, in
    # either mode, is well formed against the signature it returns
    rng = random.Random(23)
    accepted = {True: 0, False: 0}   # mutated -> texts accepted
    for _ in range(1500):
        fs = [_random_formula(rng, rng.randrange(4)) for _ in range(rng.randrange(1, 3))]
        cut = rng.randrange(len(fs) + 1)
        text = pretty_sequent(Sequent(tuple(fs[:cut]), tuple(fs[cut:])), SIG)
        for candidate in [text] + [_mutate(rng, text) for _ in range(4)]:
            for parse in (lambda t: (parse_sequent(t, SIG), SIG),
                          lambda t: parse_sequent_infer(t, SIG),
                          lambda t: parse_sequent_infer(t, Signature.make())):
                try:
                    seq, sig = parse(candidate)
                except ParseError:
                    continue
                accepted[candidate != text] += 1
                for f in seq.antecedent + seq.succedent:
                    validate_formula(f, sig)
    assert sum(accepted.values()) >= 5000 and accepted[True] >= 1000, accepted
