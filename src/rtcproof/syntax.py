"""Terms, formulas, sequents: construction, parsing, printing, substitution.

Formulas are identified up to renaming of bound variables throughout the
package: `Formula.__eq__`, `__hash__` and the ordering used inside sequents
all go through a de-Bruijn-style canonical key, so two alpha-equivalent
formulas are interchangeable everywhere.  The one key walk also keys under a
substitution: `substitute_key(f, theta)` is the key of `substitute(f,
theta)`, found without building that formula, and
`Sequent.substituted_keys` keys a whole instance so.  Checking that one
sequent is an instance of another, as the kernel's `Subst` rule,
`kernel.match_sequent` and the trace pairs across `Subst` do, thus compares
keys only.

`parts(f)` gives the binders, subformulas and terms of f's top constructor
and `rebuild(f, ...)` applies that constructor to new ones.  Their table,
`_SHAPES`, is the one place that knows each constructor's shape.  Walks
that collect read one iterator per syntax shape, `subformulas(f)` (every
formula occurrence, children before their parent) and `subterms(t)`:
`term_vars`, `formula_subterms`, `all_names` and `symbols` are
comprehensions over them.  Walks that map (`substitute`, `replace_terms`,
`translate.beta_translate`) apply `rebuild` to mapped `parts`.  Walks that
track binder scope or build output recurse over `parts` themselves:
`free_vars`, the key walk (`_formula_key`, with a tag per constructor in
`_TAGS`), `pretty` (a `Notation` gives one format string per constructor)
and `kernel.match_formula`.  So every formula walk reads `parts` except the
compiler `semantics._compile_formula`, which turns a formula into its
evaluation closure once and keeps a `match` per constructor, since each
means something different there; so do the test oracles `evaluate_warshall`
and `kleene_holds` in `tests/oracles.py` (truth conditions).
The walks other modules share live here, each once: `replace_terms`
rewrites terms into terms (the prover's rewrite templates, the model
search's constants), `symbols` lists the symbols that formulas use, and
`positional_key` keys a formula with given variables read by position.
One precedence table, `_PRECEDENCE`, serves the parser and the printer: the
parser reads it to group binary connectives, and the printer to parenthesise,
in both notations, plain text (`TEXT`) and LaTeX (`render.TEX`).

The parser checks each symbol against the signature as it reads it; the
tests keep an independent check, `validate_formula` in `tests/oracles.py`.
The parser refuses a binder that the signature declares as a constant, and
`pretty` prints one (`substitute` can make it) under a fresh name.

A parser tokenises its whole text before it reads a token, so a character
that starts no token is reported before any syntax error, at its own
offset.  A token is a plain string and a position is a token's index; the
text is scanned for character offsets only when an error is raised.  The
parser keeps no memo: `prooffile` parses each formula text of a proof file
once, and cuts a sequent's side at its commas, each piece joined to the next
until its brackets balance: `(` and `<` count up, `)` and `>` down, and the
`>` of `->` not at all.  This is exact.  The brackets of a formula balance,
and a comma inside it lies inside an argument list, a pair or an rtc's
endpoints, where more brackets are open than closed; so a side the parser
reads is cut at the commas between its formulas and nowhere else.  And how
the parser reads a formula at nesting depth 0 depends on the formula's
tokens and on the one token after it, and the delimiters around such a text
(`,`, `;`, `|-`, a closing bracket) are none of the tokens the parser reads
on at (a binary connective, `(` or `=`).  A formula text read whole thus
gives the formula the parser reads from it inside any line, ending where the
text does; a cut the parser would not read so leaves a piece that does not
parse whole, or brackets that never balance.

Concrete grammar (ASCII):

    term  := ident | ident "(" term ("," term)* ")" | "<" term "," term ">"
    atom  := term "=" term | ident "(" term ("," term)* ")" | ident | "bot" | "top"
    form  := atom | "~" form | form "/\\" form | form "\\/" form | form "->" form
           | "forall" ident "." form | "exists" ident "." form
           | "(" "rtc" ident ident "." form ")" "(" term "," term ")" | "(" form ")"
    sequent := form ("," form)* "|-" form ("," form)*    (either side may be empty)

`_Parser.separated` reads every `item (sep item)*` list, in `prooffile` too,
bar argument lists, which `_Parser._applied` reads inline, on `check`'s hot path.

Precedence: ~ > /\\ > \\/ > -> (right associative); quantifier and rtc
bodies extend maximally to the right.  A bare identifier is an atom only
when it is declared as a zero-ary predicate.  Identifiers may start with a
digit, so arithmetic constants like `0` parse as plain identifiers.

Nesting is capped at `MAX_DEPTH` levels, where a level is a connective,
quantifier, rtc, parenthesis, function application or pair around a
formula or term: `~~q(s(a))` nests 3 levels deep.  Deeper text raises a
`ParseError`, since the walks over formulas recurse up to three times per
level and would otherwise hit the recursion limit.  Every recursive call of
the parser opens a level through `_open`, so the cap bounds its recursion
too; a chain of binary connectives, which opens none, waits on a stack.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ParseError, SignatureMismatch

# ---------------------------------------------------------------------------
# Terms

class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


@dataclass(frozen=True)
class App(Term):
    fn: str
    args: tuple[Term, ...]


def subst_term(t: Term, theta: Mapping[str, Term]) -> Term:
    match t:
        case Var(name):
            return theta.get(name, t)
        case Const(_):
            return t
        case App(fn, args):
            return App(fn, tuple(subst_term(a, theta) for a in args))
    raise TypeError(f"not a term: {t!r}")


def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def term_vars(t: Term) -> set[str]:
    return {u.name for u in subterms(t) if u.__class__ is Var}


# ---------------------------------------------------------------------------
# Formulas

class Formula:
    def key(self) -> str:
        """Cached de-Bruijn-style canonical print; alpha-invariant."""
        k = self.__dict__.get("_key")
        if k is None:
            k = _formula_key(self, {}, 0)
            object.__setattr__(self, "_key", k)
        return k

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Formula) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True, eq=False)
class Eq(Formula):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, eq=False)
class Pred(Formula):
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True, eq=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, eq=False)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True, eq=False)
class Rtc(Formula):
    """(rtc x y. body)(src, dst): x and y bind inside body only."""

    x: str
    y: str
    body: Formula
    src: Term
    dst: Term


def term_key(t: Term, env: Mapping[str, int],
             theta: Mapping[str, Term] = {}) -> str:
    """Total-order key for terms; a variable bound at de Bruijn level n in
    `env` reads `(b n)`.  `term_key(t, {})` is the structural key.  A
    variable not in `env` that has an image in `theta` reads as the image's
    structural key: a substitution acts on free occurrences only, and the
    image's variables stay free."""
    match t:
        case Var(name):
            lvl = env.get(name)
            if lvl is not None:
                return f"(b {lvl})"
            return term_key(theta[name], {}) if name in theta else f"(v {name})"
        case Const(name):
            return f"(c {name})"
        case App(fn, args):
            return f"(f {fn} {' '.join(term_key(a, env, theta) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def _formula_key(f: Formula, env: Mapping[str, int], depth: int,
                 theta: Mapping[str, Term] = {}) -> str:
    """`(tag subformula-keys term-keys)`, binders at levels depth, ...; a
    predicate's symbol, which is not one of its parts, follows its tag."""
    if f.__class__ is Pred:
        return f"(p {f.name} {' '.join([term_key(a, env, theta) for a in f.args])})"
    binders, subs, terms = parts(f)
    keys = [_TAGS[f.__class__]]
    inner = {**env, **dict(zip(binders, itertools.count(depth)))} if binders else env
    for g in subs:
        keys.append(_formula_key(g, inner, depth + len(binders), theta))
    for t in terms:
        keys.append(term_key(t, env, theta))
    return f"({' '.join(keys)})"


def substitute_key(f: Formula, theta: Mapping[str, Term]) -> str:
    """`substitute(f, theta).key()`, without building the substituted
    formula: the walk reads each free variable of f through theta.  Since
    `substitute` only renames binders, and keys ignore binder names, the two
    agree."""
    return _formula_key(f, {}, 0, theta) if theta else f.key()


def positional_key(f: Formula, names: tuple[str, ...]) -> str:
    """f's key with `names` read as bound at levels 0, 1, ... in turn: of
    formulas with as many names, those that differ only in how the names
    are spelt, like R(a, b) under (a, b) and R(b, c) under (b, c), share it."""
    return _formula_key(f, {x: i for i, x in enumerate(names)}, len(names))


# ---------------------------------------------------------------------------
# The shape table: `parts` and `rebuild` are the only code that knows which
# fields of each constructor are binders, subformulas and terms.

_SHAPES = {
    Eq: (lambda f: ((), (), (f.lhs, f.rhs)),
         lambda f, b, s, t: Eq(*t)),
    Pred: (lambda f: ((), (), f.args),
           lambda f, b, s, t: Pred(f.name, tuple(t))),
    Top: (lambda f: ((), (), ()),
          lambda f, b, s, t: f),
    Bot: (lambda f: ((), (), ()),
          lambda f, b, s, t: f),
    Not: (lambda f: ((), (f.sub,), ()),
          lambda f, b, s, t: Not(*s)),
    And: (lambda f: ((), (f.left, f.right), ()),
          lambda f, b, s, t: And(*s)),
    Or: (lambda f: ((), (f.left, f.right), ()),
         lambda f, b, s, t: Or(*s)),
    Implies: (lambda f: ((), (f.left, f.right), ()),
              lambda f, b, s, t: Implies(*s)),
    Forall: (lambda f: ((f.var,), (f.body,), ()),
             lambda f, b, s, t: Forall(*b, *s)),
    Exists: (lambda f: ((f.var,), (f.body,), ()),
             lambda f, b, s, t: Exists(*b, *s)),
    Rtc: (lambda f: ((f.x, f.y), (f.body,), (f.src, f.dst)),
          lambda f, b, s, t: Rtc(*b, *s, *t)),
}
_PARTS = {cls: p for cls, (p, _) in _SHAPES.items()}
_REBUILD = {cls: r for cls, (_, r) in _SHAPES.items()}
# the key's tag of each constructor but `Pred`, whose key names its symbol
_TAGS = {Eq: "=", Top: "top", Bot: "bot", Not: "~", And: "&", Or: "|", Implies: ">",
         Forall: "all", Exists: "ex", Rtc: "rtc"}


def parts(f: Formula) -> tuple[tuple[str, ...], tuple[Formula, ...], tuple[Term, ...]]:
    """(binders, subformulas, terms) of f's top constructor.  The binders
    scope over the subformulas only; the terms (atom arguments, rtc
    endpoints) lie outside them."""
    try:
        return _PARTS[f.__class__](f)
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def rebuild(f: Formula, binders: tuple[str, ...], subformulas: tuple[Formula, ...],
            terms: tuple[Term, ...]) -> Formula:
    """f's constructor applied to new parts, as `parts` returns them."""
    try:
        return _REBUILD[f.__class__](f, binders, subformulas, terms)
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None


def free_vars(f: Formula) -> set[str]:
    binders, subs, terms = parts(f)
    out: set[str] = set()
    for g in subs:
        out |= free_vars(g)
    out.difference_update(binders)
    for t in terms:
        out |= term_vars(t)
    return out


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every formula occurrence in f, children before their parent."""
    for g in parts(f)[1]:
        yield from subformulas(g)
    yield f


def all_names(f: Formula) -> set[str]:
    """Every variable name occurring in f, bound or free."""
    return ({b for g in subformulas(f) for b in parts(g)[0]}
            | {t.name for t in formula_subterms(f) if t.__class__ is Var})


def fresh_name(avoid: set[str], hint: str = "_v") -> str:
    """First name hint0, hint1, ... not in avoid."""
    for i in itertools.count():
        cand = f"{hint}{i}"
        if cand not in avoid:
            return cand


def substitute(f: Formula, theta: Mapping[str, Term]) -> Formula:
    """Simultaneous, capture-avoiding substitution on free occurrences."""
    theta = {v: t for v, t in theta.items() if t != Var(v)}
    if not theta:
        return f

    def go(g: Formula, th: dict[str, Term]) -> Formula:
        if not th:
            return g
        binders, subs, terms = parts(g)
        terms = tuple(subst_term(t, th) for t in terms)
        if binders:
            (body,) = subs
            binders, body, th = _push(binders, body, th)
            subs = (go(body, th),)
        else:
            subs = tuple(go(h, th) for h in subs)
        return rebuild(g, binders, subs, terms)

    def _push(binders: tuple[str, ...], body: Formula, th: dict[str, Term]):
        """Restrict th to the binder scope, renaming binders that would capture."""
        th2 = {v: u for v, u in th.items() if v not in binders and v in free_vars(body)}
        if not th2:
            return binders, body, {}
        imgs: set[str] = set()
        for u in th2.values():
            imgs |= term_vars(u)
        new_binders = list(binders)
        for i, x in enumerate(new_binders):
            if x in imgs:
                avoid = (all_names(body) | imgs | set(th2)
                         | set(new_binders))
                nx = fresh_name(avoid)
                # nx occurs nowhere in body, so this rename cannot cascade
                body = go(body, {x: Var(nx)})
                new_binders[i] = nx
        return tuple(new_binders), body, th2

    return go(f, theta)


def replace_terms(f: Formula, mapping: Mapping[Term, Term]) -> Formula:
    """f with each occurrence of a key term of `mapping` replaced by its
    image, outermost occurrences first.  A binder scope that binds a
    variable of any key or image is left as it is, so no occurrence is
    captured or released; that is conservative, not capture-avoiding."""
    blocked: set[str] = set()
    for old, new in mapping.items():
        blocked |= term_vars(old) | term_vars(new)

    def term(t: Term) -> Term:
        new = mapping.get(t)
        if new is not None:
            return new
        if t.__class__ is App:
            return App(t.fn, tuple(map(term, t.args)))
        return t

    def go(g: Formula) -> Formula:
        binders, subs, terms = parts(g)
        if blocked.isdisjoint(binders):
            subs = tuple(map(go, subs))
        return rebuild(g, binders, subs, tuple(map(term, terms)))

    return go(f)


def formula_subterms(f: Formula) -> Iterator[Term]:
    """All term occurrences in f, including inside binders: those of each
    subformula in `subformulas` order."""
    return (u for g in subformulas(f) for t in parts(g)[2] for u in subterms(t))


def symbols(formulas: Iterable[Formula]
            ) -> tuple[set[str], dict[str, int], dict[str, int]]:
    """The constants, and the functions and predicates with their arities,
    that occur in the formulas."""
    consts: set[str] = set()
    fns: dict[str, int] = {}
    preds: dict[str, int] = {}
    for f in formulas:
        preds.update((g.name, len(g.args)) for g in subformulas(f)
                     if g.__class__ is Pred)
        for t in formula_subterms(f):
            if t.__class__ is Const:
                consts.add(t.name)
            elif t.__class__ is App:
                fns[t.fn] = len(t.args)
    return consts, fns, preds


# ---------------------------------------------------------------------------
# Signature

@dataclass(frozen=True)
class Signature:
    constants: frozenset[str] = frozenset()
    functions: tuple[tuple[str, int], ...] = ()
    predicates: tuple[tuple[str, int], ...] = ()
    pair_symbol: str | None = None
    pair_constant: str | None = None

    def __post_init__(self):
        kinds = {"constant": self.constants, "function": dict(self.functions).keys(),
                 "predicate": dict(self.predicates).keys()}
        for (k1, names1), (k2, names2) in itertools.combinations(kinds.items(), 2):
            if both := names1 & names2:
                raise ParseError(None, f"symbol {min(both)!r} declared as both a {k1} and a {k2}")
        if self.pair_symbol is not None and self.fn_arity(self.pair_symbol) != 2:
            raise ParseError(None, f"pair symbol {self.pair_symbol!r} must be a binary function")
        if self.pair_constant is not None and self.pair_constant not in self.constants:
            raise ParseError(None, f"pair constant {self.pair_constant!r} not declared")

    @staticmethod
    def make(constants: Iterable[str] = (), functions: Mapping[str, int] | None = None,
             predicates: Mapping[str, int] | None = None, pair_symbol: str | None = None,
             pair_constant: str | None = None) -> "Signature":
        return Signature(
            constants=frozenset(constants),
            functions=tuple(sorted((functions or {}).items())),
            predicates=tuple(sorted((predicates or {}).items())),
            pair_symbol=pair_symbol,
            pair_constant=pair_constant,
        )

    def fn_arity(self, name: str) -> int | None:
        for n, a in self.functions:
            if n == name:
                return a
        return None

    def merge(self, other: "Signature") -> "Signature":
        fns, preds = dict(self.functions), dict(self.predicates)
        for what, mine, theirs in (("function", fns, other.functions),
                                   ("predicate", preds, other.predicates)):
            for n, a in theirs:
                if mine.setdefault(n, a) != a:
                    raise ParseError(None, f"{what} {n!r} declared with arities {mine[n]} and {a}")
        for what, mine, theirs in (("pair symbol", self.pair_symbol, other.pair_symbol),
                                   ("pair constant", self.pair_constant, other.pair_constant)):
            if mine and theirs and mine != theirs:
                raise SignatureMismatch(f"{what} declared as {mine!r} and {theirs!r}")
        return Signature.make(
            constants=self.constants | other.constants,
            functions=fns, predicates=preds,
            pair_symbol=self.pair_symbol or other.pair_symbol,
            pair_constant=self.pair_constant or other.pair_constant,
        )


# ---------------------------------------------------------------------------
# Sequents

@dataclass(frozen=True, eq=False)
class Sequent:
    """Finite antecedent/succedent sets, deduped under alpha and kept sorted."""

    antecedent: tuple[Formula, ...]
    succedent: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "antecedent", _normalize(self.antecedent))
        object.__setattr__(self, "succedent", _normalize(self.succedent))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Sequent)
                and self.antecedent == other.antecedent
                and self.succedent == other.succedent)

    def __hash__(self) -> int:
        return hash((self.antecedent, self.succedent))

    def __str__(self) -> str:
        return pretty_sequent(self)

    def free_vars(self) -> set[str]:
        out: set[str] = set()
        for f in self.antecedent + self.succedent:
            out |= free_vars(f)
        return out

    def with_ant(self, *fs: Formula) -> "Sequent":
        return Sequent(self.antecedent + tuple(fs), self.succedent)

    def with_succ(self, *fs: Formula) -> "Sequent":
        return Sequent(self.antecedent, self.succedent + tuple(fs))

    def without_ant(self, f: Formula) -> "Sequent":
        return Sequent(tuple(g for g in self.antecedent if g != f), self.succedent)

    def without_succ(self, f: Formula) -> "Sequent":
        return Sequent(self.antecedent, tuple(g for g in self.succedent if g != f))

    def substituted(self, theta: Mapping[str, Term]) -> "Sequent":
        return Sequent(tuple(substitute(f, theta) for f in self.antecedent),
                       tuple(substitute(f, theta) for f in self.succedent))

    def keys(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Each side's formula keys, in order."""
        return (tuple(f.key() for f in self.antecedent),
                tuple(f.key() for f in self.succedent))

    def substituted_keys(self, theta: Mapping[str, Term]
                         ) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """`self.substituted(theta).keys()`, without building that sequent:
        each side's distinct `substitute_key`s, sorted.  Each distinct
        formula is keyed under theta once, even when both sides hold it."""
        sides = (self.antecedent, self.succedent)
        source = {f.key(): f for fs in sides for f in fs}
        image = {k: substitute_key(f, theta) for k, f in source.items()}
        ant, suc = (tuple(sorted({image[f.key()] for f in fs})) for fs in sides)
        return ant, suc


def _normalize(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    seen: dict[str, Formula] = {}
    for f in fs:
        seen.setdefault(f.key(), f)
    return tuple(seen[k] for k in sorted(seen))


# ---------------------------------------------------------------------------
# Precedence: one table for the parser and the printer

_ATOM = 5
# class -> (its level, the level each subformula is printed at); a formula is
# parenthesised where a higher level is asked for, and a class not listed is
# atomic.  /\ and \/ associate to the left, -> to the right.  The parser
# reads a binary connective's right operand at its level here.
_PRECEDENCE = {
    Not: (_ATOM, (4,)),
    And: (3, (3, 4)),
    Or: (2, (2, 3)),
    Implies: (1, (2, 1)),
    Forall: (1, (1,)),
    Exists: (1, (1,)),
    Rtc: (_ATOM, (1,)),
}
_BINARY = {"/\\": And, "\\/": Or, "->": Implies}

MAX_DEPTH = 200   # the deepest nesting the parser accepts
_TOO_DEEP = f"formula nested more than {MAX_DEPTH} levels deep"


# ---------------------------------------------------------------------------
# Parsing

# one token after any whitespace, or the character that starts none
_SYM = r"\|-|->|/\\|\\/|:=|[()\[\]{},.=~<>;/-]"
_IDENT = r"[A-Za-z0-9_][A-Za-z0-9_']*"
_TOKEN_RE = re.compile(rf"\s*(?:(?P<sym>{_SYM})|(?P<ident>{_IDENT})|(?P<bad>\S))")
# every token, as one string each; a character that starts none is skipped
_TOKENS_RE = re.compile(rf"{_SYM}|{_IDENT}")
# the characters an identifier starts with
_WORD = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_")

_KEYWORDS = {"forall", "exists", "rtc", "bot", "top"}


def tokenize(text: str) -> list[str]:
    """The token strings of text, then '' for its end.  A token is an
    identifier when its first character is in `_WORD`, and a symbol
    otherwise.  One `findall` reads every token and skips a character that
    starts none, so the tokens and the spaces fall short of the text only
    where it holds such a character (or whitespace other than a space); a
    slower scan then finds the first one and raises ParseError at its
    offset."""
    toks = _TOKENS_RE.findall(text)
    if len("".join(toks)) + text.count(" ") != len(text):
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                raise ParseError(m.start("bad"), f"unexpected character {m['bad']!r}")
    toks.append("")
    return toks


class _Parser:
    """A parser over the tokens of one text.  A position is a token's index,
    read as a character offset by `at` only where an error is raised.  Every
    recursive call opens a nesting level through `_open`, so `MAX_DEPTH`
    bounds its recursion."""

    def __init__(self, text: str, sig: Signature, infer: bool = False):
        self.text = text
        self.toks = tokenize(text)
        self.offsets: list[int] | None = None
        self.i = 0
        self.sig = sig
        self.infer = infer
        # symbol -> arity, declared or, when infer is set, inferred
        self.fns = dict(sig.functions)
        self.preds = dict(sig.predicates)
        self.depth = self.reach = self.height = 0

    def at(self, i: int) -> int:
        """The character offset of token i; the text is scanned for every
        token's offset once, when the first is asked for."""
        if self.offsets is None:
            self.offsets = [m.start(m.lastgroup) for m in _TOKEN_RE.finditer(self.text)]
            self.offsets.append(len(self.text))
        return self.offsets[i]

    def _after_matching_paren(self) -> str:
        """Token right after the parenthesized group starting at i+1."""
        depth = 0
        for j in range(self.i + 1, len(self.toks)):
            depth += {"(": 1, ")": -1}.get(self.toks[j], 0)
            if depth == 0:
                return self.toks[j + 1]
        return ""

    def inferred_signature(self) -> Signature:
        return Signature.make(self.sig.constants, self.fns, self.preds,
                              self.sig.pair_symbol, self.sig.pair_constant)

    def peek(self) -> str:
        return self.toks[self.i]

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str) -> str:
        val = self.toks[self.i]
        if val != value:
            raise ParseError(self.at(self.i),
                             f"expected {value!r}, found {val or 'end of input'!r}")
        self.i += 1
        return val

    def expect_ident(self) -> str:
        val = self.toks[self.i]
        if val[:1] not in _WORD:
            raise ParseError(self.at(self.i),
                             f"expected identifier, found {val or 'end of input'!r}")
        if val in _KEYWORDS:
            raise ParseError(self.at(self.i), f"keyword {val!r} cannot be used as an identifier")
        self.i += 1
        return val

    def binder(self) -> str:
        """A bound variable's name, which the signature must not declare as
        a constant: the body would read the constant, and bind nothing."""
        i = self.i
        x = self.expect_ident()
        if x in self.sig.constants:
            raise ParseError(self.at(i), f"constant {x!r} cannot be bound")
        return x

    # -- terms

    def term(self) -> Term:
        i = self.i
        val = self.toks[i]
        if val == "<":
            self._open(i)
            self.i += 1
            a = self.term()
            self.expect(",")
            b = self.term()
            self.expect(">")
            if self.sig.pair_symbol is None:
                raise ParseError(self.at(i), "pair syntax used but signature has no pair symbol")
            self.depth -= 1
            return App(self.sig.pair_symbol, (a, b))
        if val[:1] not in _WORD or val in _KEYWORDS:
            raise ParseError(self.at(i), f"expected term, found {val or 'end of input'!r}")
        self.i += 1
        if self.toks[self.i] == "(":
            self._open(i)
            t = self._applied(App, val, i)
            self.depth -= 1
            return t
        if val in self.sig.constants:
            return Const(val)
        return Var(val)

    def separated(self, item, sep: str, closing: tuple[str, ...] = ()) -> list:
        """Items read by `item(self)` and separated by `sep`: one or more, or
        none when the next token, left unread, is in `closing` ('' at the end)."""
        if self.toks[self.i] in closing:
            return []
        out = [item(self)]
        while self.toks[self.i] == sep:
            self.i += 1
            out.append(item(self))
        return out

    def _applied(self, cls: type, name: str, i: int) -> App | Pred:
        """`name(args)` at token i as an `App` or a `Pred`: the one arity
        check of both kinds of symbol, against the declared arity or, in
        inference mode, that of the symbol's first application.  The argument
        list is read inline: it is on `check`'s hot path, where `separated`
        was slower."""
        own, other, what = ((self.fns, self.preds, "function") if cls is App
                            else (self.preds, self.fns, "predicate"))
        self.expect("(")
        args = [self.term()]
        while self.toks[self.i] == ",":
            self.i += 1
            args.append(self.term())
        self.expect(")")
        ar = own.get(name)
        if ar is None:
            if not self.infer or name in other:
                raise ParseError(self.at(i), f"{what} {name!r} not declared")
            own[name] = ar = len(args)
        if ar != len(args):
            raise ParseError(self.at(i), f"{what} {name!r} expects {ar} args, got {len(args)}")
        return cls(name, tuple(args))

    # -- nesting: `depth` counts the levels open on the way down, bounding
    # the recursion, and `reach` is its maximum since last reset; `height`,
    # that of the formula just built, is counted on the way up, since a
    # chain of binary connectives nests deeper without recursion

    def _open(self, i: int) -> None:
        """Open a level at token i."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(self.at(i), _TOO_DEEP)
        self.reach = max(self.reach, self.depth)

    def _rise(self, height: int) -> None:
        """Record a formula one level above `height`."""
        self.height = height + 1
        if self.height > MAX_DEPTH:
            raise ParseError(self.at(self.i), _TOO_DEEP)

    # -- formulas (operator precedence over `_PRECEDENCE`, on one stack)

    def formula(self) -> Formula:
        """The longest formula from here.  Its binary connectives wait on one
        stack between their operands, each operand with its height; the top
        connective is joined to its operands once the next one binds looser
        than the level of its right operand, so a chain recurses no deeper."""
        f = self._unary()
        if self.toks[self.i] not in _BINARY:
            return f
        stack: list = [(f, self.height)]    # operand, connective, operand, ...
        while True:
            cls = _BINARY.get(self.toks[self.i])
            own = _PRECEDENCE[cls][0] if cls else 0
            while len(stack) > 1 and own < _PRECEDENCE[stack[-2]][1][1]:
                (right, h), op, (left, g) = stack.pop(), stack.pop(), stack.pop()
                self._rise(max(g, h))
                stack.append((op(left, right), self.height))
            if cls is None:
                return stack[0][0]
            self.i += 1
            stack += cls, (self._unary(), self.height)

    def _unary(self) -> Formula:
        """An atom, or a formula opened by `~`, a quantifier or a
        parenthesis, each of which nests one level deeper."""
        i = self.i
        val = self.toks[i]
        if val not in ("~", "forall", "exists", "("):
            self.reach = self.depth
            f = self._atom()
            self.height = self.reach - self.depth   # that of its deepest term
            return f
        self._open(i)
        self.i += 1
        if val == "~":
            f = Not(self._unary())
        elif val != "(":
            x = self.binder()
            self.expect(".")
            body = self.formula()
            f = Forall(x, body) if val == "forall" else Exists(x, body)
        elif self.toks[self.i] != "rtc":
            f = self.formula()
            # a parenthesized term-in-equality, e.g. "(x) = y", is not in the
            # grammar, so a closing paren always ends a formula here
            self.expect(")")
        else:
            self.i += 1
            x, y = self.binder(), self.binder()
            if x == y:
                raise ParseError(self.at(i), "rtc binders must be distinct")
            self.expect(".")
            body = self.formula()
            self.expect(")")
            self.expect("(")
            self.reach = self.depth
            s = self.term()
            self.expect(",")
            t = self.term()
            self.expect(")")
            self.height = max(self.height, self.reach - self.depth)
            f = Rtc(x, y, body, s, t)
        self.depth -= 1
        self._rise(self.height)
        return f

    def _atom(self) -> Formula:
        i = self.i
        val = self.toks[i]
        if val == "bot":
            self.i += 1
            return Bot()
        if val == "top":
            self.i += 1
            return Top()
        if val[:1] in _WORD:
            name = val
            nxt = self.toks[i + 1]
            if nxt == "(":
                # predicate or function application; decide by signature, or
                # in inference mode by whether an equation follows
                as_pred = name in self.preds
                if (self.infer and not as_pred and name not in self.fns
                        and self._after_matching_paren() != "="):
                    as_pred = True
                if as_pred:
                    self.i += 1
                    return self._applied(Pred, name, i)
                return self._equation()
            if self.preds.get(name) == 0:
                self.i += 1
                return Pred(name, ())
            return self._equation()
        if val == "<":
            return self._equation()
        raise ParseError(self.at(i), f"expected formula, found {val or 'end of input'!r}")

    def _equation(self) -> Formula:
        lhs = self.term()
        self.expect("=")
        rhs = self.term()
        return Eq(lhs, rhs)

    def sequent(self) -> Sequent:
        ant = self.separated(_Parser.formula, ",", ("|-",))
        self.expect("|-")
        suc = self.separated(_Parser.formula, ",", ("", ";", ")"))
        return Sequent(tuple(ant), tuple(suc))

    def whole(self, item, what: str):
        """What `item(self)` reads, which must be all of the text: the one
        check for trailing input, `what` naming the item in its error."""
        out = item(self)
        if self.toks[self.i]:
            raise ParseError(self.at(self.i), f"trailing input after {what}")
        return out


def parse_formula(text: str, sig: Signature) -> Formula:
    return _Parser(text, sig).whole(_Parser.formula, "formula")


def parse_sequent(text: str, sig: Signature) -> Sequent:
    return _Parser(text, sig).whole(_Parser.sequent, "sequent")


def parse_sequent_infer(text: str, base: Signature) -> tuple[Sequent, Signature]:
    """Parse a sequent, inferring undeclared applied symbols: an application
    followed by '=' is a function, otherwise a predicate; bare undeclared
    identifiers are variables.  Returns it with the signature it was checked
    against: `base` and the symbols it declared."""
    p = _Parser(text, base, infer=True)
    return p.whole(_Parser.sequent, "sequent"), p.inferred_signature()


def parse_formula_infer(text: str, base: Signature) -> tuple[Formula, Signature]:
    p = _Parser(text, base, infer=True)
    return p.whole(_Parser.formula, "formula"), p.inferred_signature()


# ---------------------------------------------------------------------------
# Printing: one precedence walk; a `Notation` holds the concrete symbols

@dataclass(frozen=True)
class Notation:
    """How `pretty` writes formulas.  `formats` has a format string per
    formula class, filled with the printed binders, subformulas and terms of
    `parts` in that order, and one for `App`, filled with a symbol and its
    argument list, which predicates with arguments use too.  `pair` writes
    pair sugar, `name` variables, constants and binders, and `symbol`
    function and predicate symbols; `str` leaves a name as it is."""

    formats: Mapping[type, str]
    pair: str
    name: Callable[[str], str] = str
    symbol: Callable[[str], str] = str


TEXT = Notation({
    Eq: "{} = {}", Top: "top", Bot: "bot", Not: "~{}", And: "{} /\\ {}",
    Or: "{} \\/ {}", Implies: "{} -> {}", Forall: "forall {}. {}",
    Exists: "exists {}. {}", Rtc: "(rtc {} {}. {})({}, {})", App: "{}({})",
}, pair="<{}, {}>")

def pretty_term(t: Term, sig: Signature | None = None, notation: Notation = TEXT) -> str:
    match t:
        case Var(name) | Const(name):
            return notation.name(name)
        case App(fn, args):
            if sig is not None and sig.pair_symbol == fn and len(args) == 2:
                return notation.pair.format(pretty_term(args[0], sig, notation),
                                            pretty_term(args[1], sig, notation))
            return notation.formats[App].format(
                notation.symbol(fn), ", ".join(pretty_term(a, sig, notation) for a in args))
    raise TypeError(f"not a term: {t!r}")


def pretty(f: Formula, sig: Signature | None = None, notation: Notation = TEXT) -> str:
    formats, name = notation.formats, notation.name

    def term(t: Term) -> str:
        # a variable or constant, the commonest term, is written here directly
        return pretty_term(t, sig, notation) if t.__class__ is App else name(t.name)

    def go(g: Formula, level: int) -> str:
        cls = g.__class__
        if cls is Pred:
            text = notation.symbol(g.name)
            if g.args:
                text = formats[App].format(text, ", ".join(map(term, g.args)))
            return text
        binders, subs, terms = parts(g)
        if binders and sig is not None and not sig.constants.isdisjoint(binders):
            # such a binder would read back as the constant: rename it
            names, avoid = list(binders), all_names(g) | sig.constants
            for i, b in enumerate(binders):
                if b in sig.constants:
                    names[i] = fresh_name(avoid)
                    avoid.add(names[i])
            subs = (substitute(subs[0], dict(zip(binders, map(Var, names)))),)
            binders = names
        own, sublevels = _PRECEDENCE.get(cls, (_ATOM, ()))
        text = formats[cls].format(*map(name, binders), *map(go, subs, sublevels),
                                   *map(term, terms))
        return f"({text})" if level > own else text

    return go(f, 1)


def pretty_sequent(s: Sequent, sig: Signature | None = None) -> str:
    ant = ", ".join(pretty(f, sig) for f in s.antecedent)
    suc = ", ".join(pretty(f, sig) for f in s.succedent)
    if ant and suc:
        return f"{ant} |- {suc}"
    if ant:
        return f"{ant} |-"
    return f"|- {suc}"
