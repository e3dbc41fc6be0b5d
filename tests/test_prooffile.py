"""The .tcp front end: the field reader of node lines and its formula memo,
the order of `parse_proof`'s errors, and token-level mutants of whole proof
files."""

import importlib.util
import os
import random
import re
import sys

import pytest

from rtcproof import prooffile
from rtcproof.cli import main
from rtcproof.errors import ParseError, RtcError
from rtcproof.prooffile import load_theory, parse_proof, parse_theory
from rtcproof.proofgraph import validate_structure
from rtcproof.syntax import (MAX_DEPTH, Signature, _Parser, parse_formula, parse_sequent,
                             tokenize)

from conftest import CORPUS
from helpers import NESTED, token_kind
from preproofs import subst_chain, thread_proof

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _refused(self, body):
    """The field reader refusing a node line: the token reader reads it, with
    a parser of its own that shares nothing with the other lines."""
    return None


def _outcome(text):
    """Everything `parse_proof` makes of text, or the error it raises."""
    try:
        pf = parse_proof(text)
    except RtcError as exc:
        return "error", type(exc).__name__, getattr(exc, "line", None), str(exc)
    # the reprs show each formula's structure and bound names, which
    # formula equality, up to renaming, does not compare
    return "parsed", repr(pf.graph.nodes), pf.graph.root, pf.signature, pf.theory_name


def _valid_texts(tmp_path, monkeypatch):
    """(name, text) of every corpus file, every proof in a golden output, and
    the pre-proofs the benchmark generates for its seed-1, seed-5 and
    seed-11 `check` inputs (the others are the corpus files)."""
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            yield name, fh.read()
    for name in sorted(os.listdir(GOLDEN)):
        with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
            text = fh.read()
        if "tcp 1\n" in text:
            yield name, text[text.index("tcp 1\n"):]
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)   # for its dataclasses
    spec.loader.exec_module(gen)
    for seed in (1, 5, 11):
        for ci in gen.check_inputs(seed, str(tmp_path / f"seed{seed}"), ROOT):
            if ci.name.endswith(".tcp"):
                continue
            with open(ci.path, encoding="utf-8") as fh:
                yield f"{ci.name} (seed {seed})", fh.read()


def test_field_reader_reads_as_token_reader(tmp_path, monkeypatch):
    # the token reader reads a line only where the field reader refuses it:
    # on valid input, never
    fallbacks = []
    token_reader = prooffile._parse_node
    monkeypatch.setattr(prooffile, "_parse_node",
                        lambda p: fallbacks.append(p) or token_reader(p))
    fields = set()
    count = 0
    for name, text in _valid_texts(tmp_path, monkeypatch):
        pf = parse_proof(text)
        assert not fallbacks, name
        with monkeypatch.context() as m:
            m.setattr(prooffile._Fields, "node", _refused)
            assert repr(parse_proof(text)) == repr(pf), name
        fallbacks.clear()
        fields.update(f for node in pf.graph.nodes.values()
                      for f, v in vars(node.params).items() if v is not None)
        count += 1
    assert count == 19 + 10 + 3 * 16
    # every kind of parameter was read, the template's formula and identifier too
    kinds = {kind for _, field, kind in prooffile._PARAMS if field in fields}
    assert kinds == set(prooffile._KINDS), kinds


# sides the field reader cuts at commas by bracket counts: (antecedent,
# whether both readers accept it); `<` and `>` are brackets, the `>` of `->`
# is not, and a side's brackets may go negative before they balance
SIDES = [
    ("E(<a, b>, c), q(<a, <b, c>>)", True),
    ("q(<a, b>) -> q(<b, a>), q(a)", True),
    ("(rtc x y. E(x, y) -> q(y))(<a, b>, c), q(a)", True),
    ("(rtc x y. E(<x, y>, x) -> q(y) -> q(x))(a, b)", True),
    ("q(a) -> (rtc x y. E(x, y))(a, <b, c>), q(b)", True),
    ("(q(a)), ((q(b)))", True),
    ("q(a)), (q(b)", False),
    ("q(a)>, <q(b)", False),
    ("q(<a, b)), (q(c>)", False),
    ("q(a), (q(b)", False),
    ("q(a), q(b))", False),
    ("q(<a, b), q(c)", False),
    ("q(a), , q(b)", False),
    ("q(a),", False),
]


@pytest.mark.parametrize("side, valid", SIDES)
def test_sides_cut_by_bracket_counts(side, valid, monkeypatch):
    # each side gives what the token reader gives, or its error; a side both
    # accept is read by the field reader alone
    text = ("tcp 1\nsig const c ; fn pr/2 ; pred E/2, q/1 ; pair pr\ntheory -\nroot 0\n"
            f"node 0 : {side} |- {side} ; rule=Axiom ; params={{}} ; premises=[]\n")
    fallbacks = []
    token_reader = prooffile._parse_node
    monkeypatch.setattr(prooffile, "_parse_node",
                        lambda p: fallbacks.append(p) or token_reader(p))
    got = _outcome(text)
    assert (got[0] == "parsed") == valid and len(fallbacks) == (not valid), got
    with monkeypatch.context() as m:
        m.setattr(prooffile._Fields, "node", _refused)
        assert _outcome(text) == got


# a node line with a formula {f} in its sequent, in a `source` and in a
# `principal`; node 1, where there is one, closes it
DEEP = {
    "sequent": "node 0 : {f} |- q(a) ; rule=Axiom ; params={{}} ; premises=[]",
    "source": "node 0 : q(a) |- q(a) ; rule=Subst ; params={{subst=[] ;"
              " source=({f} |- q(a))}} ; premises=[1]",
    "principal": "node 0 : q(a) |- q(a) ; rule=WL ; params={{principal=({f})}}"
                 " ; premises=[1]",
}


def _deep_file(place, f):
    return ("tcp 1\nsig fn f/1 ; pred p/2, q/1\ntheory -\nroot 0\n"
            + DEEP[place].format(f=f)
            + "\nnode 1 : q(a) |- q(a) ; rule=Axiom ; params={} ; premises=[]\n")


@pytest.mark.parametrize("place", sorted(DEEP))
def test_nesting_cap_on_node_lines(place, tmp_path, monkeypatch, capsys):
    # each field is read at nesting depth 0: MAX_DEPTH levels parse in every
    # field, and one more is refused where the token reader refuses it
    sig = parse_proof(_deep_file(place, "q(a)")).signature
    for shape, nested in sorted(NESTED.items()):
        f = nested(MAX_DEPTH)
        node = parse_proof(_deep_file(place, f)).graph.nodes[0]
        read = {"sequent": node.sequent.antecedent[0],
                "source": node.params.source and node.params.source.antecedent[0],
                "principal": node.params.principal}[place]
        assert repr(read) == repr(parse_formula(f, sig)), shape
        text = _deep_file(place, nested(MAX_DEPTH + 1))
        with monkeypatch.context() as m:
            m.setattr(prooffile._Fields, "node", _refused)
            with pytest.raises(ParseError) as info:
                parse_proof(text)
        want = info.value
        path = tmp_path / f"{shape}.tcp"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 3
        assert capsys.readouterr() == ("", f"error: {want}\n"), shape
        assert (want.line, want.message) == (5, "formula nested more than 200 levels deep")
        if shape == "negations":    # at the 201st `~`
            line = text.splitlines()[4]
            assert want.position == line.index("~") + MAX_DEPTH


def test_memo_parses_each_formula_text_once(monkeypatch):
    # subst_chain(200) holds 200 distinct formula texts: each Subst node
    # repeats its own formula on both sides and its premise's in `source`,
    # so without the memo 798 formulas are parsed
    entries = {"top": 0, "open": 0}
    formula = _Parser.formula

    def counted(self, *args):
        entries["top"] += entries["open"] == 0
        entries["open"] += 1
        try:
            return formula(self, *args)
        finally:
            entries["open"] -= 1

    monkeypatch.setattr(_Parser, "formula", counted)
    pf = parse_proof(subst_chain(200))
    assert len(pf.graph.nodes) == 200
    assert entries["top"] == 200


def test_bad_character_reported_before_syntax_error():
    # the unknown rule id comes first on the line, but the line does not
    # tokenise: the bad character is reported, as when tokens were read first
    text = thread_proof(2).replace("rule=Cut ; params={cut=(q(c))}",
                                   "rule=Nope ; params={cut=(q(c) $)}", 1)
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    assert (info.value.line, info.value.position, info.value.message) \
        == (15, 136, "unexpected character '$'")
    # also where the text before it was parsed on an earlier line
    text = subst_chain(4).replace("rule=Axiom", "rule=Nope").replace("(v3, w)", "(v3, w$)", 1)
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    assert (info.value.line, info.value.position, info.value.message) \
        == (7, 138, "unexpected character '$'")


def test_error_in_repeated_formula_reported_at_first_line():
    # q(c) is on every node line; undeclared, it is reported on the first
    text = thread_proof(2).replace("sig pred p/2, q/1", "sig pred p/2")
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines, 1) if line.startswith("node "))
    assert (info.value.line, info.value.position, info.value.message) \
        == (first, lines[first - 1].index("q(c)"), "function 'q' not declared")


TINY = ("tcp 1\nsig pred q/1\ntheory -\nroot 0\n"
        "node 0 : q(a) |- q(a) ; rule=Axiom ; params={} ; premises=[]\n")

# one edit of TINY per error of its header and line format: (text replaced,
# replacement, the error's text with its line and offset, if it has one)
FILE_ERRORS = {
    "no_header": ("tcp 1\n", "", "missing 'tcp 1' header"),
    "no_root": ("root 0\n", "", "missing 'root' line"),
    "version": ("tcp 1", "tcp 2", "line 1, offset 4: unsupported proof format version '2'"),
    # the offset of the line's end
    "no_colon": ("node 0 :", "node 0", "line 5, offset 58: expected ':' after the node id"),
    "sig_section": ("sig pred q/1", "sig pred q/1 ; rel r/2",
                    "line 2, offset 15: unknown signature section 'rel'"),
}


@pytest.mark.parametrize("case", sorted(FILE_ERRORS))
def test_file_error_messages(case):
    old, new, message = FILE_ERRORS[case]
    with pytest.raises(RtcError) as info:
        parse_proof(TINY.replace(old, new))
    assert str(info.value) == message


# ind_double.tcp's first RtcInd node (line 6) with the signature declaring
# one of its parameters as a constant: (the constant, text ending in it)
RULE_PARAMETERS = (("u", "eigenvar=u"), ("v", "eigenvar2=v"), ("h", ")), h"))


@pytest.mark.parametrize("name,marker", RULE_PARAMETERS)
def test_rule_parameter_is_not_a_constant(name, marker, monkeypatch):
    # an eigenvariable or a template's variable is a variable: both readers
    # refuse a constant there, at the parameter
    with open(os.path.join(CORPUS, "ind_double.tcp"), encoding="utf-8") as fh:
        text = fh.read().replace("sig pred e/2", f"sig const {name} ; pred e/2")
    line = text.splitlines()[5]
    sig = Signature.make(constants={name}, predicates={"e": 2})
    assert prooffile._Fields(sig).node(line.split(":", 1)[1]) is None
    errors = []
    for refuse in (False, True):
        with monkeypatch.context() as m:
            if refuse:
                m.setattr(prooffile._Fields, "node", _refused)
            with pytest.raises(ParseError) as info:
                parse_proof(text)
        errors.append((info.value.line, info.value.position, info.value.message))
    assert errors[0] == errors[1] == (
        6, line.index(marker) + len(marker) - 1, f"constant {name!r} cannot be bound")


# a symbol fault in a sequent: (the sig line, its signature, the sequent,
# the error's message)
SYMBOL_FAULTS = {
    "function_undeclared": ("pred q/1", dict(predicates={"q": 1}),
                            "q(a) |- f(a) = a", "function 'f' not declared"),
    "function_arity": ("fn s/1 ; pred q/1", dict(functions={"s": 1}, predicates={"q": 1}),
                       "q(a) |- s(a, a) = a", "function 's' expects 1 args, got 2"),
    "predicate_arity": ("pred q/1", dict(predicates={"q": 1}),
                        "q(a) |- q(a, a)", "predicate 'q' expects 1 args, got 2"),
    "pair_without_pair_symbol": ("fn pr/2 ; pred q/1",
                                 dict(functions={"pr": 2}, predicates={"q": 1}),
                                 "q(<a, b>) |- q(a)",
                                 "pair syntax used but signature has no pair symbol"),
}


@pytest.mark.parametrize("case", sorted(SYMBOL_FAULTS))
def test_symbol_fault_reads_alike_from_text_and_file(case):
    # a plain ParseError with one message, from a goal's text and from a
    # node line, where it also names the line and the offset in it
    sig_line, sig, seq, message = SYMBOL_FAULTS[case]
    with pytest.raises(ParseError) as from_text:
        parse_sequent(seq, Signature.make(**sig))
    node = f"node 0 : {seq} ; rule=Axiom ; params={{}} ; premises=[]"
    with pytest.raises(ParseError) as from_file:
        parse_proof(f"tcp 1\nsig {sig_line}\ntheory -\nroot 0\n{node}\n")
    assert type(from_text.value) is type(from_file.value) is ParseError
    assert from_text.value.message == from_file.value.message == message
    assert (from_file.value.line, from_file.value.position) \
        == (5, node.index(seq) + from_text.value.position)


def test_symbol_declared_again_with_its_arity():
    again = TINY.replace("sig pred q/1", "sig pred q/1, q/1 ; pred q/1")
    assert parse_proof(again).signature == parse_proof(TINY).signature


def test_theory_file_error_messages(tmp_path, capsys):
    with pytest.raises(ParseError) as info:
        parse_theory("theory\nsig pred q/1\n")
    assert str(info.value) == "line 1, offset 6: expected a theory name"
    with pytest.raises(RtcError) as info:
        parse_theory("sig pred q/1\naxiom q(a) |- q(a)\n")
    assert str(info.value) == "theory file has no 'theory <name>' line"
    path = tmp_path / "tiny.tcp"
    path.write_text(TINY, encoding="utf-8")
    assert main(["check", str(path), "--theory", "no_such_theory"]) == 3
    assert capsys.readouterr() == (
        "", "error: theory 'no_such_theory': no such file or bundled theory\n")


# tokens a mutation inserts or substitutes, by kind: declared and undeclared
# symbols and variables, keywords and words of the line format; connectives,
# punctuation, and a character no token starts
NAMES = ["p", "q", "s", "r", "a", "b", "c", "x", "y", "z0", "0", "1", "7"]
POOL = {
    "ident": NAMES + ["forall", "exists", "rtc", "bot", "top", "rule", "params",
                      "premises", "bud", "Cut", "Subst", "WL", "principal", "cut",
                      "source", "subst"],
    "sym": ["(", ")", ",", ".", "=", "~", "/\\", "\\/", "->", "<", ">", "|-", ";", "[",
            "]", "{", "}", ":=", "$"],
}


def _mutate(rng, tokens, ops=("delete", "insert", "replace", "swap"), pool=POOL):
    """tokens, one or two of them deleted, inserted, replaced by one of the
    same kind or swapped with their right neighbour, joined by spaces.  An
    inserted token has no kind, so it is never replaced."""
    tokens = [(token_kind(tok), tok) for tok in tokens]
    for _ in range(rng.randrange(1, 3)):
        if not tokens:
            break
        i = rng.randrange(len(tokens))
        op = rng.choice(ops)
        if op == "delete":
            del tokens[i]
        elif op == "insert":
            tokens.insert(i, ("", rng.choice(pool[rng.choice(sorted(pool))])))
        elif op == "swap" and i + 1 < len(tokens):
            tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
        elif tokens[i][0] in pool:
            tokens[i] = ("", rng.choice(pool[tokens[i][0]]))
    return " ".join(val for _, val in tokens)


def _mutant(rng, text):
    """text with the tokens of one line mutated, mostly a node line; or with
    names replaced in a run of a node line's tokens, from one identifier to
    another, wherever the run occurs in the file, so that the memo meets
    the mutated text again on later lines."""
    lines = text.splitlines()
    nodes = [j for j, line in enumerate(lines) if line.startswith("node ")]
    j = rng.choice(nodes) if rng.randrange(10) else rng.randrange(len(lines))
    head, colon, body = lines[j].partition(" : ")
    if not colon:
        head, body = "", lines[j]
    tokens = tokenize(body)[:-1]
    idents = [i for i, tok in enumerate(tokens) if token_kind(tok) == "ident"]
    if not colon or rng.randrange(2):
        lines[j] = head + colon + _mutate(rng, tokens)
        return "\n".join(lines) + "\n"
    i, k = sorted(rng.sample(idents, 2))
    k = min(k, i + 7)
    while token_kind(tokens[k]) != "ident":
        k -= 1
    at = _Parser(body, Signature.make()).at
    old = body[at(i):at(k) + len(tokens[k])]
    run = tokens[i:k + 1]
    new = _mutate(rng, run, ("replace",), {"ident": NAMES})
    # at word boundaries, where tokens start and end: `p` is replaced, but
    # not the p of `premises`
    return re.sub(rf"(?<![\w']){re.escape(old)}(?![\w'])", lambda m: new, text)


def _sources():
    for name in sorted(os.listdir(CORPUS)):
        with open(os.path.join(CORPUS, name), encoding="utf-8") as fh:
            yield fh.read()
    yield thread_proof(2)
    yield thread_proof(3, rejected=True)
    yield subst_chain(6)


def test_mutants_parse_as_without_shared_memo(tmp_path, monkeypatch, capsys):
    rng = random.Random(2718)
    path = str(tmp_path / "mutant.tcp")
    seen = {"parsed": 0, "invalid": 0, "errors": 0}
    for source in _sources():
        for _ in range(16):
            text = _mutant(rng, source)
            got = _outcome(text)
            with monkeypatch.context() as m:
                m.setattr(prooffile._Fields, "node", _refused)
                assert _outcome(text) == got, text
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code = main(["check", path])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2, 3) and "internal error" not in err, (text, err)
            if got[0] == "error":
                seen["errors"] += 1
                continue
            seen["parsed"] += 1
            pf = parse_proof(text)
            try:
                axioms, sig = (), pf.signature
                if pf.theory_name:
                    theory = load_theory(pf.theory_name)
                    axioms, sig = theory.axioms, sig.merge(theory.signature)
                faults = validate_structure(pf.graph, axioms, sig)
            except (OSError, RtcError):   # exit 3, as the command reports them
                continue
            if faults:
                seen["invalid"] += 1
                assert "accepted" not in out, text
    assert min(seen.values()) >= 50, seen
