"""Golden parse errors: seeded corruptions of goal texts and of the node and
sig lines of the corpus files, each with the line, offset and message of the
`ParseError` it raises, as stored in `parse_errors.json`.  The table pins the
offset of every raise site the corruptions reach, and the errors a mutated
text meets first.

    PYTHONPATH=src python tests/test_parse_errors.py

writes the table afresh from the program as it stands."""

import json
import os
import random
import re

from rtcproof.errors import ParseError, RtcError
from rtcproof.prooffile import parse_proof
from rtcproof.syntax import Signature, parse_sequent_infer

from conftest import CORPUS

TABLE = os.path.join(os.path.dirname(__file__), "parse_errors.json")
COUNT = 150          # entries of each kind: goal texts, and lines of a file

# what a corruption inserts: characters that start no token or only start
# one, brackets and punctuation, and words of the syntax and the line format
CHARS = list("$|\\:'@()<>,.;=~-[]{}/ ") + ["a", "0", "x"]
WORDS = ["forall", "exists", "rtc", "bot", "top", "q", "s", "0", "rule", "params",
         "premises", "bud", "principal", "subst", "source", "Cut", "|-", "->", ":=",
         "/\\", "\\/", "fn", "pred", "const", "pair", "/1", "/2"]


# inputs that reach the raise sites the corruptions above rarely reach: a
# pair without a pair symbol, a predicate used as a function, equal rtc
# binders, nesting past the cap by prefixes, by a chain and by terms, a bound
# constant, repeated parameters and substitution variables, a node line with
# no colon or a repeated id, conflicting declarations, a line of no number
SITE_GOALS = [
    "<a, b> = c |-",
    "p(a), q(p(a)) |-",
    "(rtc x x. p(x, x))(a, b) |-",
    "~" * 201 + "q(a) |-",
    " -> ".join(["q(a)"] * 202) + " |-",
    "q(" + "f(" * 201 + "a" + ")" * 201 + ") |-",
    "q(a), forall rtc. q(a) |-",
]
# (corpus file, line number, line put there); line 7 of nat_p.tcp is node 2
NODE_2 = "node 2 : {} |- p(0) ; rule={} ; params={{{}}} ; premises=[{}]"
SITE_LINES = [
    ("nat_p.tcp", 7, NODE_2.format("forall 0. p(0)", "Axiom", "", "")),
    ("nat_p.tcp", 7, NODE_2.format("<0, 0> = 0", "Axiom", "", "")),
    ("nat_p.tcp", 7, NODE_2.format("p(0)", "WL", "principal=(p(0)) ; principal=(p(0))", "")),
    ("nat_p.tcp", 7, NODE_2.format("p(0)", "Subst", "subst=[x := 0, x := 0]", "")),
    ("nat_p.tcp", 7, NODE_2.format("p(" + "s(" * 201 + "0" + ")" * 201 + ")", "Axiom", "", "")),
    ("nat_p.tcp", 7, NODE_2.format("p(0)", "WL", "principal=(" + "~" * 201 + "p(0))", "")),
    ("nat_p.tcp", 7, NODE_2.format("p(0)", "Axiom", "", "x")),
    ("nat_p.tcp", 7, "node 2 p(0) |- p(0)"),
    ("nat_p.tcp", 7, NODE_2.format("p(0)", "Axiom", "", "").replace("node 2", "node 1")),
    ("nat_p.tcp", 2, "sig const 0 ; fn s/1, s/2 ; pred p/1"),
    ("nat_p.tcp", 2, "sig const s ; fn s/1 ; pred p/1"),
    ("nat_p.tcp", 4, "root x"),
]


def _corrupt(rng, text):
    """text with one or two characters or words inserted, deleted, replaced
    or moved; a word is inserted or replaced at word boundaries."""
    for _ in range(rng.randrange(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(5)
        if op == 0 and text:
            j = min(len(text), i + rng.randrange(1, 4))
            text = text[:i] + text[j:]
        elif op == 1:
            text = text[:i] + rng.choice(CHARS) + text[i:]
        elif op == 2:
            words = [m.span() for m in re.finditer(r"[\w']+", text)]
            if words:
                a, b = rng.choice(words)
                text = text[:a] + rng.choice(WORDS) + text[b:]
        elif op == 3:
            text = text[:i] + " " + rng.choice(WORDS) + " " + text[i:]
        elif text:
            a, b = sorted(rng.sample(range(len(text) + 1), 2))
            text = text[:a] + text[b:] + text[a:b]
    return text


def _files():
    out = {}
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            out[name] = fh.read().splitlines()
    return out


def _raised(parse):
    """(line, offset, message) of the ParseError parse() raises, or None."""
    try:
        parse()
    except ParseError as exc:
        return exc.line, exc.position, exc.message
    except RtcError:        # a file fault found after parsing: not a parse error
        return None
    return None


def _replaced(files, name, lineno, line):
    lines = list(files[name])
    lines[lineno - 1] = line
    return "\n".join(lines) + "\n"


def _goal_error(goal):
    return _raised(lambda: parse_sequent_infer(goal, Signature.make()))


def _line_error(files, name, lineno, line):
    return _raised(lambda: parse_proof(_replaced(files, name, lineno, line)))


def draw(seed=35):
    """The table's entries, in order: COUNT corrupted goals and the goals of
    SITE_GOALS, each [text, line, offset, message], then COUNT corrupted
    lines of corpus files and the lines of SITE_LINES, each [file, line
    number, line, line, offset, message]."""
    rng = random.Random(seed)
    files = _files()
    names = sorted(files)
    goals, lines = [], []
    while len(goals) < COUNT or len(lines) < COUNT:
        name = rng.choice(names)
        numbered = [(n, line) for n, line in enumerate(files[name], 1)
                    if line.startswith(("node ", "sig "))]
        lineno, line = rng.choice(numbered)
        if rng.randrange(2) and len(goals) < COUNT and line.startswith("node "):
            goal = _corrupt(rng, line.partition(" : ")[2].split(" ; ")[0])
            got = _goal_error(goal)
            if got is not None:
                goals.append([goal, *got])
        elif len(lines) < COUNT:
            bad = _corrupt(rng, line)
            got = _line_error(files, name, lineno, bad)
            if got is not None:
                lines.append([name, lineno, bad, *got])
    goals += ([goal, *_goal_error(goal)] for goal in SITE_GOALS)
    lines += ([*site, *_line_error(files, *site)] for site in SITE_LINES)
    return goals + lines


def test_parse_errors_match_the_table():
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    files = _files()
    for entry in table:
        if len(entry) == 4:
            goal, *want = entry
            got = _goal_error(goal)
        else:
            *site, line, offset, message = entry
            got, want = _line_error(files, *site), (line, offset, message)
        assert got == tuple(want), entry


def test_table_holds_what_is_drawn():
    # the inputs are drawn afresh, so the table cannot fall out of step with
    # the corruptions; the errors are compared in the test above
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    assert [e[:-3] for e in draw()] == [e[:-3] for e in table]


if __name__ == "__main__":
    with open(TABLE, "w", encoding="utf-8") as fh:
        fh.write("[\n" + ",\n".join(map(json.dumps, draw())) + "\n]\n")
