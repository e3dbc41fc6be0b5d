"""Versioned, line-oriented text formats for proofs (.tcp) and theories (.tc).

Proof file:

    tcp 1
    sig const a, b ; fn s/1 ; pred p/2 ; pair pair ; pairconst c
    theory arith
    root 0
    node 0 : <sequent> ; rule=RtcCase ; params={principal=(...) ; eigenvar=z} ; premises=[1, 2]
    node 2 : <sequent> ; bud -> 0

Theory file:

    theory arith
    sig const 0 ; fn s/1, add/2
    axiom s(x) = 0 |-
    axiom |- add(x, 0) = x

A `sig` or `theory` value of `-` means empty/none.  Blank lines and lines
starting with `#` are ignored.  Every other line starts with a keyword; a
malformed line raises a ParseError naming it, offsets counting from its start.

A proof repeats its formulas: a Subst node's `source` repeats its premise's
sequent, and the nodes of a cycle repeat their companion's context.
`parse_proof` reads each node line with a field reader, `_Fields`.  One
match of `_NODE_RE` cuts the line into its fields (the sequent, `bud -> N`
or the rule id, parameters and premises), and only the texts of formulas and
terms are parsed.  Each formula text and each side of a sequent is parsed
once per file, through memos dropped when `parse_proof` returns; under the
file's one signature the same text parses to the same formula.  The cuts
are exact, since no formula, term or sequent holds a `;` and the commas
between formulas are those where the brackets balance (see `syntax`).  A
line the field reader does not wholly accept is read again by the token
reader, `_parse_node`, which raises the error: errors have one source, and
their text, line, offset and order are the token reader's.
"""

from __future__ import annotations

import importlib.resources
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from .errors import ParseError, RtcError
from .kernel import RuleId, RuleParams
from .proofgraph import ProofGraph, ProofNode
from .syntax import (_IDENT, Formula, Sequent, Signature, Term, _Parser, parse_sequent,
                     pretty, pretty_sequent, pretty_term)


@dataclass(frozen=True)
class TheoryFile:
    name: str | None            # None for the empty theory
    signature: Signature
    axioms: tuple[Sequent, ...]


@dataclass
class ProofFile:
    graph: ProofGraph
    signature: Signature
    theory_name: str | None = None


# ---------------------------------------------------------------------------
# Lines

def _lines(text: str, kind: str, keywords: tuple[str, ...], once: tuple[str, ...]
           ) -> Iterator[tuple[int, int, str, str]]:
    """(line number, offset of the rest, keyword, rest) of each line that is
    not blank or a comment.  The keyword is the line's whole first word and
    must be one of `keywords`; one of `once` may start one line only."""
    first: dict[str, int] = {}      # keyword of `once` -> its line
    for lineno, raw in enumerate(text.splitlines(), 1):
        words = raw.split(None, 1)
        if not words or words[0].startswith("#"):
            continue
        keyword, rest = words[0], (words[1] if len(words) > 1 else "")
        if keyword not in keywords:
            raise ParseError(len(raw) - len(raw.lstrip()),
                             f"unrecognized {kind} line {raw.strip()!r}", lineno)
        if keyword in first:
            raise ParseError(0, f"repeated {keyword!r} line (first on line {first[keyword]})",
                             lineno)
        if keyword in once:
            first[keyword] = lineno
        at = len(raw) - len(rest) if rest else len(raw.rstrip())
        yield lineno, at, keyword, rest.rstrip()


@contextmanager
def _on_line(lineno: int, at: int) -> Iterator[None]:
    """Re-raise a ParseError with a position in the text at offset `at` of a
    line as one naming the line, its offset counted from the line's start.
    An error of the line as a whole, such as a signature's pair symbol that
    is not a binary function, has no position and is placed at `at`."""
    try:
        yield
    except ParseError as exc:
        raise ParseError(at + (exc.position or 0), exc.message, lineno) from None


# ---------------------------------------------------------------------------
# Signature lines

def _number(text: str, pos: int, what: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(pos, f"{what} must be a number, found {text!r}")
    return int(text)


def _expect_number(p: _Parser, what: str) -> int:
    i = p.i
    text = p.expect_ident()
    return int(text) if text.isascii() and text.isdigit() else _number(text, p.at(i), what)


def _arity(p: _Parser) -> tuple[str, int]:
    name = p.expect_ident()
    p.expect("/")
    return name, _expect_number(p, "arity")


_SECTIONS = {"fn": "function", "pred": "predicate"}


def _parse_sig_line(p: _Parser) -> Signature:
    consts: set[str] = set()
    arities: dict[str, dict[str, int]] = {"fn": {}, "pred": {}}
    pair: dict[str, str] = {}           # "pair" and "pairconst" -> symbol

    def declare(p: _Parser, val: str) -> None:
        """One `name/arity`; a symbol may be declared again with its arity."""
        i = p.i
        name, arity = _arity(p)
        first = arities[val].setdefault(name, arity)
        if first != arity:
            raise ParseError(p.at(i), f"{_SECTIONS[val]} {name!r} declared with"
                                      f" arities {first} and {arity}")

    def section(p: _Parser) -> None:
        i = p.i
        val = p.next()
        if val == "const":
            consts.update(p.separated(_Parser.expect_ident, ","))
        elif val in arities:
            p.separated(lambda p: declare(p, val), ",")
        elif val in ("pair", "pairconst"):
            pair[val] = p.expect_ident()
        else:
            raise ParseError(p.at(i), f"unknown signature section {val!r}")

    if p.peek() == "-":
        p.next()
    else:
        p.separated(section, ";")
    return Signature.make(consts, arities["fn"], arities["pred"],
                          pair.get("pair"), pair.get("pairconst"))


def _sig_line(sig: Signature) -> str:
    parts = []
    if sig.constants:
        parts.append("const " + ", ".join(sorted(sig.constants)))
    if sig.functions:
        parts.append("fn " + ", ".join(f"{n}/{a}" for n, a in sig.functions))
    if sig.predicates:
        parts.append("pred " + ", ".join(f"{n}/{a}" for n, a in sig.predicates))
    if sig.pair_symbol:
        parts.append(f"pair {sig.pair_symbol}")
    if sig.pair_constant:
        parts.append(f"pairconst {sig.pair_constant}")
    return "sig " + (" ; ".join(parts) if parts else "-")


# ---------------------------------------------------------------------------
# Theory files

def parse_theory(text: str) -> TheoryFile:
    """Parse a .tc file.  Its axioms are read after every header line, under
    its signature wherever the `sig` line stands."""
    name = None
    sig = Signature.make()
    lines: list[tuple[int, int, str]] = []      # (line, offset, axiom text)
    for lineno, at, keyword, rest in _lines(text, "theory", ("theory", "sig", "axiom"),
                                            ("theory", "sig")):
        with _on_line(lineno, at):
            if keyword == "theory":
                if not rest:
                    raise ParseError(0, "expected a theory name")
                name = rest
            elif keyword == "sig":
                sig = _Parser(rest, Signature.make()).whole(_parse_sig_line, "signature")
            else:
                lines.append((lineno, at, rest))
    if name is None:
        raise RtcError("theory file has no 'theory <name>' line")
    axioms = []
    for lineno, at, rest in lines:
        with _on_line(lineno, at):
            axioms.append(parse_sequent(rest, sig))
    return TheoryFile(name, sig, tuple(axioms))


def bundled_theory_path(name: str) -> str | None:
    res = importlib.resources.files("rtcproof") / "theories" / f"{name}.tc"
    return str(res) if res.is_file() else None


def load_theory(name_or_path: str) -> TheoryFile:
    """Load a theory from a path, or by bundled name (e.g. 'arith')."""
    path = name_or_path
    if not os.path.exists(path):
        bundled = bundled_theory_path(name_or_path)
        if bundled is None:
            raise RtcError(f"theory {name_or_path!r}: no such file or bundled theory")
        path = bundled
    with open(path, encoding="utf-8") as fh:
        return parse_theory(fh.read())


# ---------------------------------------------------------------------------
# Rule parameters

def _prefix(p: _Parser, key: str, expected: str = "") -> None:
    """Read `key=`; the error says what was expected, by default `'key='`."""
    if p.peek() != key:
        raise ParseError(p.at(p.i), "expected " + (expected or f"'{key}='"))
    p.next()
    p.expect("=")


def _parse_template(p: _Parser) -> tuple[Formula, str]:
    p.expect("(")
    f = p.formula()
    p.expect(")")
    p.expect(",")
    return f, p.binder()


def _parse_subst(p: _Parser) -> tuple[tuple[str, Term], ...]:
    bound: set[str] = set()

    def binding(p: _Parser) -> tuple[str, Term]:
        i = p.i
        v = p.expect_ident()
        if v in bound:
            raise ParseError(p.at(i), f"repeated variable {v!r}")
        bound.add(v)
        p.expect(":=")
        return v, p.term()

    return tuple(sorted(p.separated(binding, ",", ("]",))))


# kind -> (opening bracket, closing bracket, printer, parser of what lies between)
_KINDS = {
    # a rule's eigenvariables are variables, so no declared constant
    "ident": ("", "", lambda x, sig: x, _Parser.binder),
    "formula": ("(", ")", pretty, _Parser.formula),
    "term": ("(", ")", pretty_term, _Parser.term),
    "sequent": ("(", ")", pretty_sequent, _Parser.sequent),
    "template": ("(", ")", lambda fx, sig: f"({pretty(fx[0], sig)}), {fx[1]}",
                 _parse_template),
    "subst": ("[", "]", lambda th, sig: ", ".join(f"{v} := {pretty_term(t, sig)}"
                                                  for v, t in th), _parse_subst),
}
# (key in the file, RuleParams field, kind), in printed order
_PARAMS = (
    ("principal", "principal", "formula"),
    ("witness", "witness", "term"),
    ("eigenvar", "eigenvar", "ident"),
    ("eigenvar2", "eigenvar2", "ident"),
    ("template", "template", "template"),
    ("subst", "substitution", "subst"),
    ("source", "source", "sequent"),
    ("cut", "cut_formula", "formula"),
    ("cutleft", "cut_left", "sequent"),
    ("cutright", "cut_right", "sequent"),
)
_PARAM_KEYS = {key: (field, kind) for key, field, kind in _PARAMS}


def _params_text(params: RuleParams, sig: Signature) -> str:
    out = []
    for key, field, kind in _PARAMS:
        value = getattr(params, field)
        if value is not None:
            opening, closing, show, _ = _KINDS[kind]
            out.append(f"{key}={opening}{show(value, sig)}{closing}")
    return "{" + " ; ".join(out) + "}"


def _parse_param(p: _Parser, params: dict[str, object]) -> None:
    """One `key=value` of a params list, stored in params under its
    RuleParams field; a key may appear once."""
    i = p.i
    key = p.expect_ident()
    p.expect("=")
    if key not in _PARAM_KEYS:
        raise ParseError(p.at(p.i), f"unknown parameter {key!r}")
    field, kind = _PARAM_KEYS[key]
    if field in params:
        raise ParseError(p.at(i), f"repeated parameter {key!r}")
    opening, closing, _, parse = _KINDS[kind]
    if opening:
        p.expect(opening)
    params[field] = parse(p)
    if closing:
        p.expect(closing)


def _parse_params(p: _Parser) -> RuleParams:
    p.expect("{")
    params: dict[str, object] = {}
    p.separated(lambda p: _parse_param(p, params), ";", ("}",))
    p.expect("}")
    return RuleParams(**params)


# ---------------------------------------------------------------------------
# Proof files

def serialize_proof(pf: ProofFile) -> str:
    g, sig = pf.graph, pf.signature
    lines = ["tcp 1", _sig_line(sig), f"theory {pf.theory_name or '-'}", f"root {g.root}"]
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        seq = pretty_sequent(node.sequent, sig)
        if node.is_bud:
            lines.append(f"node {nid} : {seq} ; bud -> {node.companion}")
        else:
            prem = "[" + ", ".join(str(c) for c in node.children) + "]"
            lines.append(f"node {nid} : {seq} ; rule={node.rule.value}"
                         f" ; params={_params_text(node.params, sig)}"
                         f" ; premises={prem}")
    return "\n".join(lines) + "\n"


def _parse_node(p: _Parser) -> ProofNode:
    """The node of a node body; a bud has a companion and no rule."""
    seq = p.sequent()
    p.expect(";")
    if p.peek() == "bud":
        p.next()
        p.expect("->")
        return ProofNode(seq, companion=_expect_number(p, "companion id"))
    _prefix(p, "rule", "'rule=' or 'bud ->'")
    i = p.i
    rule_name = p.expect_ident()
    try:
        rid = RuleId(rule_name)
    except ValueError:
        raise ParseError(p.at(i), f"unknown rule id {rule_name!r}") from None
    p.expect(";")
    _prefix(p, "params")
    params = _parse_params(p)
    p.expect(";")
    _prefix(p, "premises")
    p.expect("[")
    children = p.separated(lambda p: _expect_number(p, "premise id"), ",", ("]",))
    p.expect("]")
    return ProofNode(seq, rid, params, tuple(children))


# a node body's fields: the sequent, then a companion or a rule, params and premises
_NODE_RE = re.compile(rf"([^;]*);\s*(?:bud\s*->\s*([0-9]+)|rule\s*=\s*({_IDENT})\s*;"
                      r"\s*params\s*=\s*\{([^{}]*)\}\s*;\s*premises\s*=\s*\[([0-9,\s]*)\])\s*")


class _Fields:
    """The field reader of one file's node lines.  A method reads the text of
    a field or a parameter's value, and raises where the token reader might
    not read the same from it."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.formulas: dict[str, Formula] = {}
        self.sides: dict[str, tuple[Formula, ...]] = {}

    def formula(self, text: str) -> Formula:
        text = text.strip()
        f = self.formulas.get(text)
        if f is None:
            f = self.formulas[text] = _Parser(text, self.sig).whole(
                _Parser.formula, "formula")
        return f

    def side(self, text: str) -> tuple[Formula, ...]:
        """The formulas between the commas at nesting depth 0: the pieces
        between commas, each joined to the next until its brackets balance.
        `(` and `<` open a bracket, `)` and `>` close one, and the `>` of
        `->` neither; a side whose brackets never balance is refused.  Only
        a side that holds a `<` or a `>` has its angles counted."""
        text = text.strip()
        fs = self.sides.get(text)
        if fs is None:
            fs, pieces, depth = [], [], 0
            angled = "<" in text or ">" in text
            for piece in text.split(",") if text else ():
                pieces.append(piece)
                depth += piece.count("(") - piece.count(")")
                if angled:
                    depth += piece.count("<") + piece.count("->") - piece.count(">")
                if not depth:
                    fs.append(self.formula(",".join(pieces)))
                    pieces = []
            if pieces:
                raise ValueError(text)
            fs = self.sides[text] = tuple(fs)
        return fs

    def sequent(self, text: str) -> Sequent:
        left, right = text.split("|-")     # a ValueError unless one `|-`
        return Sequent(self.side(left), self.side(right))

    def subst(self, text: str) -> tuple[tuple[str, Term], ...]:
        return _Parser(text, self.sig).whole(_parse_subst, "subst") if text.strip() else ()

    def params(self, text: str) -> RuleParams:
        params: dict[str, object] = {}
        for item in text.split(";") if text.strip() else ():
            key, _, value = item.partition("=")
            field, kind = _PARAM_KEYS.get(key.strip(), (None, None))
            if field is None or field in params:
                raise ValueError(key)
            opening, closing, _, parse = _KINDS[kind]
            value = value.strip()
            if not (value.startswith(opening) and value.endswith(closing)):
                raise ValueError(value)
            inner = value[len(opening):len(value) - len(closing)]
            read = getattr(self, kind, None)      # formula, sequent and subst
            params[field] = read(inner) if read else _Parser(inner, self.sig).whole(parse, kind)
        return RuleParams(**params)

    def node(self, body: str) -> ProofNode | None:
        """The node of a node body, or None for the token reader to read."""
        m = _NODE_RE.fullmatch(body)
        if m is None:
            return None
        try:
            seq = self.sequent(m[1])
            if m[2] is not None:
                return ProofNode(seq, companion=int(m[2]))
            children = tuple(map(int, m[5].split(","))) if m[5].strip() else ()
            return ProofNode(seq, RuleId(m[3]), self.params(m[4]), children)
        except (ValueError, ParseError):
            return None


def parse_proof(text: str) -> ProofFile:
    """Parse a .tcp file; malformed input raises a ParseError naming its line."""
    sig = Signature.make()
    theory_name: str | None = None
    root: int | None = None
    version = False
    bodies: dict[int, tuple[int, int, str]] = {}   # id -> (line, offset, body)
    header = ("tcp", "sig", "theory", "root")
    for lineno, at, keyword, rest in _lines(text, "proof", header + ("node",), header):
        with _on_line(lineno, at):
            if keyword == "tcp":
                if rest != "1":
                    raise ParseError(0, f"unsupported proof format version {rest!r}")
                version = True
            elif keyword == "sig":
                sig = _Parser(rest, Signature.make()).whole(_parse_sig_line, "signature")
            elif keyword == "theory":
                if not rest:
                    raise ParseError(0, "expected a theory name or '-'")
                theory_name = None if rest == "-" else rest
            elif keyword == "root":
                root = _number(rest, 0, "root id")
            else:
                head, colon, body = rest.partition(":")
                if not colon:
                    raise ParseError(len(rest), "expected ':' after the node id")
                nid = _number(head.strip(), 0, "node id")
                if nid in bodies:
                    raise ParseError(0, f"duplicate node id {nid}"
                                        f" (first on line {bodies[nid][0]})")
                bodies[nid] = (lineno, at + len(head) + 1, body)
    if not version:
        raise RtcError("missing 'tcp 1' header")
    if root is None:
        raise RtcError("missing 'root' line")

    nodes: dict[int, ProofNode] = {}
    fields = _Fields(sig)
    for nid, (lineno, at, body) in bodies.items():
        node = fields.node(body)
        if node is None:
            with _on_line(lineno, at):
                node = _Parser(body, sig).whole(_parse_node, "node")
        nodes[nid] = node
    for nid, node in nodes.items():
        for c in node.children:
            if c not in nodes:
                raise RtcError(f"node {nid}: child {c} missing")
    return ProofFile(ProofGraph(nodes, root), sig, theory_name)
