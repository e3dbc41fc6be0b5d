"""Seeded inputs for the benchmark, each with its answer known by construction.

The seed changes only the surface of an input: identifier names, node
numbering, line order and the order of formulas inside a sequent. Sizes,
shapes and the order in which inputs run are fixed, so runs with different
seeds do the same amount of work in the same sequence and their timings can
be compared. Goal names keep their relative
order under renaming (every free name gets the same suffix), so the prover
and the model search, whose move and enumeration orders follow the sorted
names, walk the same search on every seed.

Formulas are built as tuples, printed in the program's concrete syntax and
kept for the benchmark's own evaluator (see oracle.py):

    term     ('v', name) | ('f', fn, (term, ...))
    formula  ('rtc', x, y, body, src, dst) | ('p', name, (term, ...))
             | ('eq', s, t) | ('not', f) | ('and' | 'or' | 'imp', f, g)
             | ('all' | 'ex', x, f)
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass, field

# Thread counts of the multi-thread cyclic proofs and lengths of the acyclic
# Subst chains. The chains stay shorter than about 330 nodes, where the
# program's recursive structure walk overflows the interpreter stack. Five
# chains of 190 to 210 nodes cost about the same, so that the 90th
# percentile of a check run falls among them (see below), not on one input.
THREADS = (2, 3, 4, 5, 6)
REJECTED_THREADS = (2, 3, 4, 5)
CHAIN_LENGTHS = (60, 120, 190, 195, 200, 205, 210)
CHAIN_WIDTH = 2

# With N inputs each run k times, the inclusive quantile q of the N * k
# operation times sits at index q * (N * k - 1) of the sorted times. For odd
# N with 0.9 * N ending in .5 (15, 25, 35) the median and the 90th
# percentile fall inside the k repeats of one input, not between two inputs
# of very different cost, so they do not jump when the pass count changes.
# The check workload has 19 corpus files + 16 generated files, prove has 35
# goals and refute 15.

CORPUS_DIR = "corpus"
REJECTED_CORPUS = ("bad_no_progress.tcp", "bad_rtc_no_progress.tcp",
                   "bad_subst_loop.tcp")


@dataclass
class CheckInput:
    name: str
    path: str
    verdict: str                 # accepted | rejected
    cycles: int | None = None    # basic cycles, None where not printed


@dataclass
class GoalInput:
    name: str
    ant: tuple
    suc: tuple
    status: str                  # valid | invalid
    min_size: int | None = None  # smallest counter-model, invalid goals only
    theory: str | None = None
    model_size: int = 3          # --model-size for refute
    text: str = field(default="", init=False)

    def argv(self, command: str) -> list[str]:
        out = [command, self.text]
        if self.theory:
            out += ["--theory", self.theory]
        if command == "refute":
            out += ["--model-size", str(self.model_size)]
        return out


# ---------------------------------------------------------------------------
# Printing in the program's syntax

def term_text(t) -> str:
    if t[0] == "v":
        return t[1]
    return f"{t[1]}({', '.join(term_text(a) for a in t[2])})"


def formula_text(f, top: bool = True) -> str:
    tag = f[0]
    if tag == "p":
        return f"{f[1]}({', '.join(term_text(a) for a in f[2])})"
    if tag == "eq":
        return f"{term_text(f[1])} = {term_text(f[2])}"
    if tag == "rtc":
        _, x, y, body, s, t = f
        return f"(rtc {x} {y}. {formula_text(body)})({term_text(s)}, {term_text(t)})"
    if tag == "not":
        return "~(" + formula_text(f[1]) + ")"
    if tag in ("all", "ex"):
        word = "forall" if tag == "all" else "exists"
        text = f"{word} {f[1]}. {formula_text(f[2])}"
    else:
        op = {"and": "/\\", "or": "\\/", "imp": "->"}[tag]
        text = f"{formula_text(f[1], False)} {op} {formula_text(f[2], False)}"
    return text if top else f"({text})"


def sequent_text(ant, suc) -> str:
    left = ", ".join(formula_text(f) for f in ant)
    right = ", ".join(formula_text(f) for f in suc)
    return f"{left} |- {right}".strip()


def rename(f, names: dict, bound: frozenset = frozenset()):
    """Rename free variables and predicate/function symbols via names."""
    tag = f[0]
    if tag == "v":
        return f if f[1] in bound else ("v", names.get(f[1], f[1]))
    if tag == "f":
        return ("f", names.get(f[1], f[1]), tuple(rename(a, names, bound) for a in f[2]))
    if tag == "p":
        return ("p", names.get(f[1], f[1]), tuple(rename(a, names, bound) for a in f[2]))
    if tag == "eq":
        return ("eq", rename(f[1], names, bound), rename(f[2], names, bound))
    if tag == "rtc":
        _, x, y, body, s, t = f
        return ("rtc", x, y, rename(body, names, bound | {x, y}),
                rename(s, names, bound), rename(t, names, bound))
    if tag == "not":
        return ("not", rename(f[1], names, bound))
    if tag in ("all", "ex"):
        return (tag, f[1], rename(f[2], names, bound | {f[1]}))
    return (tag, rename(f[1], names, bound), rename(f[2], names, bound))


def _suffix(rng: random.Random) -> str:
    """A digit and a letter: no keyword of the syntax (`bot`, `rtc`, ...)
    contains a digit, so no suffixed name can become one."""
    return rng.choice(string.digits) + rng.choice(string.ascii_lowercase)


# ---------------------------------------------------------------------------
# check: pre-proofs

def V(name: str):
    return ("v", name)


def rtc(s: str, t: str, pred: str = "p"):
    return ("rtc", "x", "y", ("p", pred, (V("x"), V("y"))), V(s), V(t))


class _ProofText:
    """Collects node lines under seeded ids and writes a .tcp file."""

    def __init__(self, rng: random.Random, sig: str, count: int):
        self.rng = rng
        self.sig = sig
        ids = list(range(count))
        rng.shuffle(ids)
        self.ids = ids
        self.next = 0
        self.lines: list[str] = []

    def reserve(self) -> int:
        nid = self.ids[self.next]
        self.next += 1
        return nid

    def seq(self, ant, suc) -> str:
        ant, suc = list(ant), list(suc)
        self.rng.shuffle(ant)
        self.rng.shuffle(suc)
        return sequent_text(ant, suc)

    def rule(self, nid, ant, suc, rule, params, premises):
        self.lines.append(f"node {nid} : {self.seq(ant, suc)} ; rule={rule} ; "
                          f"params={{{' ; '.join(params)}}} ; "
                          f"premises=[{', '.join(map(str, premises))}]")

    def bud(self, nid, ant, suc, companion):
        self.lines.append(f"node {nid} : {self.seq(ant, suc)} ; bud -> {companion}")

    def text(self, root: int) -> str:
        assert self.next == len(self.ids), (self.next, len(self.ids))
        self.rng.shuffle(self.lines)
        return "\n".join(["tcp 1", self.sig, "theory -", f"root {root}"]
                         + self.lines) + "\n"


def multi_thread_proof(k: int, rejected: bool, rng: random.Random) -> str:
    """A cyclic pre-proof of  R(a1, b1), ..., R(ak, bk), q(c) |- q(c), R(c, c).

    A chain of Cut nodes on q(c) copies the root into one branch per thread.
    Branch i unfolds thread i by RtcCase; its step premise weakens the new
    step formula away and returns to the root through Subst [bi := zi], and
    its equation premise closes by RtcRefl on R(c, c). Every thread survives
    every branch and each branch progresses its own thread, so the k basic
    cycles, which all share the root, satisfy the global trace condition.
    The rejected variant adds q(d) to the root and one more branch that
    weakens q(d) and returns through Subst [d := c]: a cycle on which no
    trace progresses.
    """
    sx = _suffix(rng)
    P, Q = "p" + sx, "q" + sx
    a = [f"a{i}{sx}" for i in range(k)]
    b = [f"b{i}{sx}" for i in range(k)]
    z = [f"z{i}{sx}" for i in range(k)]
    c, d = "c" + sx, "d" + sx
    threads = [rtc(a[i], b[i], P) for i in range(k)]
    q_c = ("p", Q, (V(c),))
    q_d = ("p", Q, (V(d),))
    refl = rtc(c, c, P)
    root_ant = threads + [q_c] + ([q_d] if rejected else [])
    suc = [q_c, refl]
    branches = k + (1 if rejected else 0)
    count = (branches - 1) + 5 * k + (3 if rejected else 0)
    out = _ProofText(rng, f"sig pred {P}/2, {Q}/1", count)
    F = formula_text
    root_seq = out.seq(root_ant, suc)

    cut_ids = [out.reserve() for _ in range(branches - 1)]
    heads: list[int] = []
    for i in range(k):
        case, eq, wl, sub, bud = (out.reserve() for _ in range(5))
        heads.append(case)
        step = ("p", P, (V(z[i]), V(b[i])))
        ancestor = rtc(a[i], z[i], P)
        rest = [f for f in root_ant if f is not threads[i]]
        out.rule(case, root_ant, suc, "RtcCase",
                 [f"principal=({F(threads[i])})", f"eigenvar={z[i]}"], [eq, wl])
        out.rule(eq, rest + [("eq", V(a[i]), V(b[i]))], suc, "RtcRefl",
                 [f"principal=({F(refl)})"], [])
        out.rule(wl, rest + [ancestor, step], suc, "WL", [f"principal=({F(step)})"], [sub])
        out.rule(sub, rest + [ancestor], suc, "Subst",
                 [f"subst=[{b[i]} := {z[i]}]", f"source=({root_seq})"], [bud])
        out.bud(bud, root_ant, suc, cut_ids[0] if cut_ids else case)
    if rejected:
        wl, sub, bud = (out.reserve() for _ in range(3))
        heads.append(wl)
        rest = [f for f in root_ant if f is not q_d]
        out.rule(wl, root_ant, suc, "WL", [f"principal=({F(q_d)})"], [sub])
        out.rule(sub, rest, suc, "Subst", [f"subst=[{d} := {c}]", f"source=({root_seq})"],
                 [bud])
        out.bud(bud, root_ant, suc, cut_ids[0])
    for j, cid in enumerate(cut_ids):
        right = cut_ids[j + 1] if j + 1 < len(cut_ids) else heads[j + 1]
        out.rule(cid, root_ant, suc, "Cut", [f"cut=({F(q_c)})"], [heads[j], right])
    return out.text(cut_ids[0] if cut_ids else heads[0])


def subst_chain_proof(n: int, width: int, rng: random.Random) -> str:
    """An acyclic proof of n nodes: Subst steps that each rename the left
    endpoint of `width` rtc formulas, then weakenings down to an Axiom."""
    sx = _suffix(rng)
    P = "p" + sx
    closing = 2 * (width - 1) + 1
    steps = n - closing
    v = [f"v{j}{sx}" for j in range(steps + 1)]
    w = [f"w{t}{sx}" for t in range(width)]
    out = _ProofText(rng, f"sig pred {P}/2", n)
    ids = [out.reserve() for _ in range(n)]

    def forms(j):
        return [rtc(v[j], w[t], P) for t in range(width)]

    for j in range(steps):
        source = out.seq(forms(j + 1), forms(j + 1))
        out.rule(ids[j], forms(j), forms(j), "Subst",
                 [f"subst=[{v[j + 1]} := {v[j]}]", f"source=({source})"], [ids[j + 1]])
    ant, suc = forms(steps), forms(steps)
    keep = ant[0]
    for i, f in enumerate(ant[1:]):
        out.rule(ids[steps + 2 * i], ant, suc, "WL", [f"principal=({formula_text(f)})"],
                 [ids[steps + 2 * i + 1]])
        ant = [g for g in ant if g is not f]
        out.rule(ids[steps + 2 * i + 1], ant, suc, "WR", [f"principal=({formula_text(f)})"],
                 [ids[steps + 2 * i + 2]])
        suc = [g for g in suc if g is not f]
    out.rule(ids[-1], [keep], [keep], "Axiom", [], [])
    return out.text(ids[0])


def check_inputs(seed: int, workdir: str, root: str) -> list[CheckInput]:
    """The corpus files plus the generated pre-proofs, written to workdir."""
    rng = random.Random(seed)
    out: list[CheckInput] = []
    corpus = os.path.join(root, CORPUS_DIR)
    for name in sorted(os.listdir(corpus)):
        if name.endswith(".tcp"):
            verdict = "rejected" if name in REJECTED_CORPUS else "accepted"
            out.append(CheckInput(name, os.path.join(corpus, name), verdict))
    generated: list[tuple[str, str, str, int | None]] = []
    for k in THREADS:
        generated.append((f"threads{k}", multi_thread_proof(k, False, rng), "accepted", k))
    for k in REJECTED_THREADS:
        generated.append((f"threads{k}_bad", multi_thread_proof(k, True, rng),
                          "rejected", None))
    for n in CHAIN_LENGTHS:
        generated.append((f"chain{n}", subst_chain_proof(n, CHAIN_WIDTH, rng), "accepted", 0))
    os.makedirs(workdir, exist_ok=True)
    for name, text, verdict, cycles in generated:
        path = os.path.join(workdir, name + ".tcp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out.append(CheckInput(name, path, verdict, cycles))
    return out


# ---------------------------------------------------------------------------
# prove and refute: goals

def _p(*args):
    return ("p", "p", tuple(V(a) for a in args))


def _q(a, name="q"):
    return ("p", name, (V(a),))


def _ne(a, b):
    return ("not", ("eq", V(a), V(b)))


R = rtc
_S = lambda t: ("f", "s", (t,))  # noqa: E731
_RS = lambda a, b: ("rtc", "x", "y", ("eq", _S(V("x")), V("y")), a, b)  # noqa: E731

# (name, antecedent, succedent, status, minimal counter-model size, theory)
PROVE_SUITE = [
    ("trans_abc", [R("a", "b"), R("b", "c")], [R("a", "c")], "valid", None, None),
    ("trans_cab", [R("c", "a"), R("a", "b")], [R("c", "b")], "valid", None, None),
    ("trans_bca", [R("b", "c"), R("c", "a")], [R("b", "a")], "valid", None, None),
    ("trans_ant_q", [_q("d"), R("a", "b"), R("b", "c")], [R("a", "c")], "valid", None, None),
    ("trans_suc_q", [R("a", "b"), R("b", "c")], [R("a", "c"), _q("a")], "valid", None, None),
    ("trans_suc_and", [R("a", "b"), R("b", "c")],
     [R("a", "c"), ("and", _q("a"), _q("a", "r"))], "valid", None, None),
    ("trans_ant_p", [R("a", "b"), R("b", "c"), _p("c", "d")], [R("a", "c")],
     "valid", None, None),
    ("trans_conj", [("and", R("a", "b"), R("b", "c"))], [R("a", "c")], "valid", None, None),
    ("trans_conj_q", [("and", R("a", "b"), R("b", "c")), _q("a")], [R("a", "c")],
     "valid", None, None),
    ("step1", [_p("a", "b")], [R("a", "b")], "valid", None, None),
    ("step2", [_p("a", "b"), _p("b", "c")], [R("a", "c")], "valid", None, None),
    ("step3", [_p("a", "b"), _p("b", "c"), _p("c", "d")], [R("a", "d")], "valid", None, None),
    ("extend1", [R("a", "b"), _p("b", "c")], [R("a", "c")], "valid", None, None),
    ("extend2", [R("a", "b"), _p("b", "c"), _p("c", "d")], [R("a", "d")], "valid", None, None),
    ("prepend1", [_p("a", "b"), R("b", "c")], [R("a", "c")], "valid", None, None),
    ("prepend2", [_p("a", "b"), _p("b", "c"), R("c", "d")], [R("a", "d")],
     "valid", None, None),
    ("nat_p", [("p", "p", (V("0"),)), _RS(V("0"), V("n"))], [("p", "p", (V("n"),))],
     "valid", None, "step"),
    ("indstep", [("p", "p", (V("a"),)), R("a", "b", "e")], [("p", "p", (V("b"),))],
     "valid", None, "indstep"),
    ("prop_and", [("and", _q("a"), _q("b"))], [("and", _q("b"), _q("a"))], "valid", None, None),
    ("prop_or", [("or", _q("a"), _q("b")), ("imp", _q("a"), _q("a", "r")),
                 ("imp", _q("b"), _q("a", "r"))], [_q("a", "r")], "valid", None, None),
    ("prop_not", [("or", ("not", _q("a")), _q("a", "r")), _q("a")], [_q("a", "r")],
     "valid", None, None),
    ("quant_inst", [("all", "x", _q("x"))], [_q("a")], "valid", None, None),
    ("quant_ex", [("all", "x", ("imp", _q("x"), _q("x", "r"))), _q("a")],
     [("ex", "y", _q("y", "r"))], "valid", None, None),
    ("quant_and", [("all", "x", ("and", _q("x"), _q("x", "r")))], [("all", "y", _q("y"))],
     "valid", None, None),
    ("eq_subst", [("eq", V("a"), V("b")), _q("a")], [_q("b")], "valid", None, None),
    ("eq_trans", [("eq", V("a"), V("b")), ("eq", V("b"), V("c"))], [("eq", V("a"), V("c"))],
     "valid", None, None),
    ("bad_sym", [R("a", "b")], [R("b", "a")], "invalid", 2, None),
    ("bad_atom", [_q("a")], [_q("b")], "invalid", 2, None),
    ("bad_trans_step", [R("a", "b"), R("b", "c")], [_p("a", "c")], "invalid", 1, None),
    ("bad_reach", [], [R("a", "b")], "invalid", 2, None),
    ("bad_quant", [("ex", "x", _q("x"))], [("all", "x", _q("x"))], "invalid", 2, None),
    ("bad_path", [R("a", "b"), _ne("a", "b")], [_p("a", "b")], "invalid", 3, None),
    ("bad_distinct", [_ne("a", "b"), _ne("b", "c")], [("eq", V("a"), V("c"))],
     "invalid", 3, None),
    ("bad_mix", [_q("a"), ("not", _q("b")), _ne("a", "c"), _ne("b", "c")], [_q("c")],
     "invalid", 3, None),
    ("bad_loop", [R("a", "a")], [], "invalid", 1, None),
]

# Invalid goals are searched up to size 4 and must be refuted at their known
# minimal size; valid goals are searched exhaustively up to size 3. The four
# transitivity goals cost about the same, so the 90th percentile of a refute
# run falls among them.
REFUTE_SUITE = [
    ("bad_atom", [_q("a")], [_q("b")], "invalid", 2, None),
    ("bad_reach", [], [R("a", "b")], "invalid", 2, None),
    ("bad_sym", [R("a", "b")], [R("b", "a")], "invalid", 2, None),
    ("bad_distinct3", [_ne("a", "b"), _ne("b", "c")], [("eq", V("a"), V("c"))],
     "invalid", 3, None),
    ("bad_path3", [R("a", "b"), _ne("a", "b")], [_p("a", "b")], "invalid", 3, None),
    ("bad_mix3", [_q("a"), ("not", _q("b")), _ne("a", "c"), _ne("b", "c")], [_q("c")],
     "invalid", 3, None),
    ("bad_orbit4", [_RS(V("a"), V("b")), _ne("a", "b"), ("not", ("eq", _S(V("a")), V("b"))),
                    ("not", ("eq", _S(_S(V("a"))), V("b")))], [], "invalid", 4, None),
    ("bad_path4", [R("a", "b"), _ne("a", "b"), ("not", _p("a", "b")),
                   ("not", ("ex", "z", ("and", _p("a", "z"), _p("z", "b"))))], [],
     "invalid", 4, None),
    ("trans_abc", [R("a", "b"), R("b", "c")], [R("a", "c")], "valid", None, None),
    ("trans_cab", [R("c", "a"), R("a", "b")], [R("c", "b")], "valid", None, None),
    ("trans_conj", [("and", R("a", "b"), R("b", "c"))], [R("a", "c")], "valid", None, None),
    ("extend1", [R("a", "b"), _p("b", "c")], [R("a", "c")], "valid", None, None),
    ("step2", [_p("a", "b"), _p("b", "c")], [R("a", "c")], "valid", None, None),
    ("prepend1", [_p("a", "b"), R("b", "c")], [R("a", "c")], "valid", None, None),
    ("trans_bca", [R("b", "c"), R("c", "a")], [R("b", "a")], "valid", None, None),
]

THEORY_SYMBOLS = {"step": {"p", "s", "0"}, "indstep": {"p", "e"}}
REFUTE_SIZE_INVALID, REFUTE_SIZE_VALID = 4, 3


def symbols(fs) -> tuple[set[str], dict[str, int], dict[str, int]]:
    """Free variables, predicate arities and function arities of formulas."""
    variables: set[str] = set()
    preds: dict[str, int] = {}
    fns: dict[str, int] = {}

    def go(f, bound: frozenset) -> None:
        tag = f[0]
        if tag == "v":
            if f[1] not in bound:
                variables.add(f[1])
        elif tag in ("f", "p"):
            (fns if tag == "f" else preds)[f[1]] = len(f[2])
            for a in f[2]:
                go(a, bound)
        elif tag == "rtc":
            go(f[3], bound | {f[1], f[2]})
            go(f[4], bound)
            go(f[5], bound)
        elif tag in ("all", "ex"):
            go(f[2], bound | {f[1]})
        else:
            for g in f[1:]:
                go(g, bound)

    for f in fs:
        go(f, frozenset())
    return variables, preds, fns


def goal_inputs(command: str, seed: int) -> list[GoalInput]:
    """The prove or refute suite under seeded names and formula order."""
    rng = random.Random(seed)
    suite = PROVE_SUITE if command == "prove" else REFUTE_SUITE
    sx = _suffix(rng)
    out = []
    for name, ant, suc, status, min_size, theory in suite:
        fixed = THEORY_SYMBOLS.get(theory, set())
        variables, preds, fns = symbols(ant + suc)
        names = {n: n + sx for n in variables | set(preds) | set(fns) if n not in fixed}
        ant = [rename(f, names) for f in ant]
        suc = [rename(f, names) for f in suc]
        size = REFUTE_SIZE_INVALID if status == "invalid" else REFUTE_SIZE_VALID
        g = GoalInput(name, tuple(ant), tuple(suc), status, min_size, theory, size)
        shown_ant, shown_suc = list(ant), list(suc)
        rng.shuffle(shown_ant)
        rng.shuffle(shown_suc)
        g.text = sequent_text(shown_ant, shown_suc)
        out.append(g)
    return out


def main() -> None:
    import argparse
    import json
    ap = argparse.ArgumentParser(description="Write one seed's inputs to a directory.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    listing = {"check": [vars(c) for c in check_inputs(args.seed, args.out, root)]}
    for command in ("prove", "refute"):
        listing[command] = [{"name": g.name, "status": g.status, "min_size": g.min_size,
                             "argv": g.argv(command)} for g in goal_inputs(command, args.seed)]
    with open(os.path.join(args.out, "inputs.json"), "w", encoding="utf-8") as fh:
        json.dump(listing, fh, indent=1)


if __name__ == "__main__":
    main()
