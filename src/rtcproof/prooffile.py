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
starting with `#` are ignored.
"""

from __future__ import annotations

import importlib.resources
import os
from dataclasses import dataclass

from .errors import ParseError, RtcError
from .kernel import RuleId, RuleParams
from .proofgraph import ProofGraph, ProofNode
from .syntax import (Sequent, Signature, Term, _Parser, pretty, pretty_sequent,
                     pretty_term)


@dataclass(frozen=True)
class TheoryFile:
    name: str
    signature: Signature
    axioms: tuple[Sequent, ...]


@dataclass
class ProofFile:
    graph: ProofGraph
    signature: Signature
    theory_name: str | None = None


# ---------------------------------------------------------------------------
# Signature lines

def _number(text: str, pos: int, what: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise ParseError(pos, f"{what} must be a number, found {text!r}")
    return int(text)


def _expect_number(p: _Parser, what: str) -> int:
    pos = p.peek()[2]
    return _number(p.expect_ident(), pos, what)


def _parse_sig_line(p: _Parser) -> Signature:
    consts: set[str] = set()
    fns: dict[str, int] = {}
    preds: dict[str, int] = {}
    pair_symbol = pair_constant = None
    if p.peek()[1] == "-":
        return Signature.make()
    while True:
        kind, val, pos = p.peek()
        if val == "const":
            p.next()
            consts.add(p.expect_ident())
            while p.peek()[1] == ",":
                p.next()
                consts.add(p.expect_ident())
        elif val == "fn":
            p.next()
            while True:
                name = p.expect_ident()
                p.expect("/")
                fns[name] = _expect_number(p, "arity")
                if p.peek()[1] != ",":
                    break
                p.next()
        elif val == "pred":
            p.next()
            while True:
                name = p.expect_ident()
                p.expect("/")
                preds[name] = _expect_number(p, "arity")
                if p.peek()[1] != ",":
                    break
                p.next()
        elif val == "pair":
            p.next()
            pair_symbol = p.expect_ident()
        elif val == "pairconst":
            p.next()
            pair_constant = p.expect_ident()
        else:
            raise ParseError(pos, f"unknown signature section {val!r}")
        if p.peek()[1] == ";":
            p.next()
            continue
        break
    return Signature.make(consts, fns, preds, pair_symbol, pair_constant)


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
    name = None
    sig = Signature.make()
    axioms: list[Sequent] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("theory"):
            words = line.split(None, 1)
            if len(words) < 2:
                raise ParseError(len(line), "expected a theory name", lineno)
            name = words[1]
        elif line.startswith("sig"):
            p = _Parser(line[3:].strip(), Signature.make())
            sig = _parse_sig_line(p)
        elif line.startswith("axiom"):
            p = _Parser(line[5:].strip(), sig)
            seq = p.sequent()
            if not p.at_eof():
                raise ParseError(p.peek()[2], "trailing input after axiom")
            axioms.append(seq)
        else:
            raise RtcError(f"unrecognized theory line: {line!r}")
    if name is None:
        raise RtcError("theory file has no 'theory <name>' line")
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
# Rule parameter serialization

def _params_text(params: RuleParams, sig: Signature) -> str:
    out = []
    if params.principal is not None:
        out.append(f"principal=({pretty(params.principal, sig)})")
    if params.witness is not None:
        out.append(f"witness=({pretty_term(params.witness, sig)})")
    if params.eigenvar is not None:
        out.append(f"eigenvar={params.eigenvar}")
    if params.eigenvar2 is not None:
        out.append(f"eigenvar2={params.eigenvar2}")
    if params.template is not None:
        f, x = params.template
        out.append(f"template=(({pretty(f, sig)}), {x})")
    if params.substitution is not None:
        items = ", ".join(f"{v} := {pretty_term(t, sig)}"
                          for v, t in params.substitution)
        out.append(f"subst=[{items}]")
    if params.source is not None:
        out.append(f"source=({pretty_sequent(params.source, sig)})")
    if params.cut_formula is not None:
        out.append(f"cut=({pretty(params.cut_formula, sig)})")
    if params.cut_left is not None:
        out.append(f"cutleft=({pretty_sequent(params.cut_left, sig)})")
    if params.cut_right is not None:
        out.append(f"cutright=({pretty_sequent(params.cut_right, sig)})")
    return "{" + " ; ".join(out) + "}"


def _parse_params(p: _Parser) -> RuleParams:
    kw: dict = {}
    p.expect("{")
    while p.peek()[1] != "}":
        key = p.expect_ident()
        p.expect("=")
        if key in ("eigenvar", "eigenvar2"):
            kw[key] = p.expect_ident()
        elif key in ("principal", "cut"):
            p.expect("(")
            f = p.formula()
            p.expect(")")
            kw["principal" if key == "principal" else "cut_formula"] = f
        elif key == "witness":
            p.expect("(")
            t = p.term()
            p.expect(")")
            kw["witness"] = t
        elif key == "template":
            p.expect("(")
            p.expect("(")
            f = p.formula()
            p.expect(")")
            p.expect(",")
            x = p.expect_ident()
            p.expect(")")
            kw["template"] = (f, x)
        elif key == "subst":
            p.expect("[")
            pairs: list[tuple[str, Term]] = []
            while p.peek()[1] != "]":
                v = p.expect_ident()
                p.expect(":=")
                pairs.append((v, p.term()))
                if p.peek()[1] == ",":
                    p.next()
            p.expect("]")
            kw["substitution"] = tuple(sorted(pairs))
        elif key in ("source", "cutleft", "cutright"):
            p.expect("(")
            seq = p.sequent()
            p.expect(")")
            field = {"source": "source", "cutleft": "cut_left",
                     "cutright": "cut_right"}[key]
            kw[field] = seq
        else:
            raise ParseError(p.peek()[2], f"unknown parameter {key!r}")
        if p.peek()[1] == ";":
            p.next()
    p.expect("}")
    return RuleParams(**kw)


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
    if p.peek()[1] == "bud":
        p.next()
        p.expect("->")
        return ProofNode(seq, companion=_expect_number(p, "companion id"))
    kind, val, pos = p.peek()
    if val != "rule":
        raise ParseError(pos, "expected 'rule=' or 'bud ->'")
    p.next()
    p.expect("=")
    pos = p.peek()[2]
    rule_name = p.expect_ident()
    try:
        rid = RuleId(rule_name)
    except ValueError:
        raise ParseError(pos, f"unknown rule id {rule_name!r}") from None
    p.expect(";")
    kind, val, pos = p.peek()
    if val != "params":
        raise ParseError(pos, "expected 'params='")
    p.next()
    p.expect("=")
    params = _parse_params(p)
    p.expect(";")
    kind, val, pos = p.peek()
    if val != "premises":
        raise ParseError(pos, "expected 'premises='")
    p.next()
    p.expect("=")
    p.expect("[")
    children: list[int] = []
    while p.peek()[1] != "]":
        children.append(_expect_number(p, "premise id"))
        if p.peek()[1] == ",":
            p.next()
    p.expect("]")
    return ProofNode(seq, rid, params, tuple(children))


def parse_proof(text: str) -> ProofFile:
    """Parse a .tcp file; malformed input raises a ParseError naming its
    line (offsets count from the start of that line)."""
    sig = Signature.make()
    theory_name: str | None = None
    root: int | None = None
    bodies: dict[int, tuple[int, int, str]] = {}   # id -> (line, offset, body)
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        words = raw.split(None, 1)
        if not words or words[0].startswith("#"):
            continue
        keyword, rest = words[0], (words[1] if len(words) > 1 else "")
        if keyword not in ("tcp", "sig", "theory", "root", "node"):
            raise ParseError(len(raw) - len(raw.lstrip()),
                             f"unrecognized proof line {raw.strip()!r}", lineno)
        at = len(raw) - len(rest) if rest else len(raw.rstrip())
        rest = rest.rstrip()
        try:
            if keyword == "tcp":
                if rest != "1":
                    raise ParseError(0, f"unsupported proof format version {rest!r}")
                saw_header = True
            elif keyword == "sig":
                sig = _parse_sig_line(_Parser(rest, Signature.make()))
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
        except ParseError as exc:
            raise ParseError(at + exc.position, exc.message, lineno) from None
    if not saw_header:
        raise RtcError("missing 'tcp 1' header")
    if root is None:
        raise RtcError("missing 'root' line")

    nodes: dict[int, ProofNode] = {}
    for nid, (lineno, at, body) in bodies.items():
        try:
            nodes[nid] = _parse_node(_Parser(body, sig))
        except ParseError as exc:
            raise ParseError(at + exc.position, exc.message, lineno) from None
    for nid, node in nodes.items():
        for c in node.children:
            if c not in nodes:
                raise RtcError(f"node {nid}: child {c} missing")
    return ProofFile(ProofGraph(nodes, root), sig, theory_name)
