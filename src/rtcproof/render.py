"""DOT and LaTeX emitters for proof graphs."""

from __future__ import annotations

from .errors import RtcError
from .proofgraph import ProofGraph, edge_trace_steps
from .syntax import (And, App, Bot, Const, Eq, Exists, Forall, Formula,
                     Implies, Not, Or, Pred, Rtc, Signature, Term, Top, Var,
                     pretty_sequent)


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(g: ProofGraph, sig: Signature | None = None) -> str:
    """Graphviz rendering; bud links dashed, progressing edges highlighted."""
    lines = ["digraph proof {", '  node [shape=box, fontname="monospace"];']
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        label = _dot_escape(f"{nid}: {pretty_sequent(node.sequent, sig)}")
        if node.is_bud:
            lines.append(f'  n{nid} [label="{label}", style=dotted];')
        else:
            lines.append(f'  n{nid} [label="{label}\\n({node.rule.value})"];')
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.is_bud:
            lines.append(f"  n{nid} -> n{node.companion} [style=dashed, constraint=false];")
            continue
        rule = g.instance(nid)
        for i, cid in enumerate(node.children):
            progressing = any(st.progressing for st in edge_trace_steps(rule, i))
            attrs = ' [color=red, penwidth=2.0, label="progress"]' if progressing else ""
            lines.append(f"  n{nid} -> n{cid}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def latex_term(t: Term, sig: Signature | None = None) -> str:
    match t:
        case Var(name) | Const(name):
            return _tex_name(name)
        case App(fn, args):
            if sig is not None and sig.pair_symbol == fn and len(args) == 2:
                return (rf"\langle {latex_term(args[0], sig)}, "
                        rf"{latex_term(args[1], sig)} \rangle")
            return rf"\mathit{{{_tex_name(fn)}}}({', '.join(latex_term(a, sig) for a in args)})"
    raise TypeError(f"not a term: {t!r}")


def _tex_name(name: str) -> str:
    return name.replace("_", r"\_")


def latex_formula(f: Formula, sig: Signature | None = None) -> str:
    def go(g: Formula, level: int) -> str:
        match g:
            case Eq(l, r):
                return f"{latex_term(l, sig)} = {latex_term(r, sig)}"
            case Pred(name, args):
                if not args:
                    return rf"\mathit{{{_tex_name(name)}}}"
                inner = ", ".join(latex_term(a, sig) for a in args)
                return rf"\mathit{{{_tex_name(name)}}}({inner})"
            case Top():
                return r"\top"
            case Bot():
                return r"\bot"
            case Not(s):
                return rf"\neg {go(s, 4)}"
            case And(l, r):
                text = rf"{go(l, 3)} \wedge {go(r, 4)}"
                return rf"({text})" if level > 3 else text
            case Or(l, r):
                text = rf"{go(l, 2)} \vee {go(r, 3)}"
                return rf"({text})" if level > 2 else text
            case Implies(l, r):
                text = rf"{go(l, 2)} \rightarrow {go(r, 1)}"
                return rf"({text})" if level > 1 else text
            case Forall(x, b):
                text = rf"\forall {_tex_name(x)}.\, {go(b, 1)}"
                return rf"({text})" if level > 1 else text
            case Exists(x, b):
                text = rf"\exists {_tex_name(x)}.\, {go(b, 1)}"
                return rf"({text})" if level > 1 else text
            case Rtc(x, y, b, s, t):
                return (rf"(\mathsf{{rtc}}_{{{_tex_name(x)},{_tex_name(y)}}}\, {go(b, 1)})"
                        rf"({latex_term(s, sig)}, {latex_term(t, sig)})")
        raise TypeError(f"not a formula: {g!r}")

    return go(f, 1)


def latex_sequent(s, sig: Signature | None = None) -> str:
    ant = ", ".join(latex_formula(f, sig) for f in s.antecedent)
    suc = ", ".join(latex_formula(f, sig) for f in s.succedent)
    return rf"{ant} \vdash {suc}"


def to_latex(g: ProofGraph, sig: Signature | None = None) -> str:
    """bussproofs rendering of the tree unfolding; buds become leaves marked
    with a dagger naming their companion."""
    companions = sorted({n.companion for n in g.nodes.values() if n.is_bud})
    dagger = {cid: i + 1 for i, cid in enumerate(companions)}
    lines = [r"% requires \usepackage{bussproofs}", r"\begin{prooftree}"]

    # post-order over the tree unfolding: a node's lines follow its children's;
    # path holds the expanded nodes still on the stack, the current ancestors
    stack = [(g.root, False)]
    path: set[int] = set()
    while stack:
        nid, expanded = stack.pop()
        if nid not in g.nodes:
            raise RtcError(f"node {nid} does not exist")
        node = g.nodes[nid]
        if not (node.is_bud or expanded):
            if nid in path:
                raise RtcError(f"premise links through node {nid} form a cycle")
            path.add(nid)
            stack.append((nid, True))
            stack.extend((cid, False) for cid in reversed(node.children))
            continue
        path.discard(nid)
        seq = latex_sequent(node.sequent, sig)
        if node.is_bud:
            mark = rf"\dagger_{dagger[node.companion]}"
            lines.append(rf"\AxiomC{{$({mark}) \; {seq}$}}")
            continue
        label = node.rule.value
        if nid in dagger:
            label += rf" \; \dagger_{dagger[nid]}"
        lines.append(rf"\RightLabel{{\small {label}}}")
        n = len(node.children)
        if n == 0:
            lines.append(rf"\AxiomC{{}}")
            lines.append(rf"\UnaryInfC{{${seq}$}}")
        elif n == 1:
            lines.append(rf"\UnaryInfC{{${seq}$}}")
        elif n == 2:
            lines.append(rf"\BinaryInfC{{${seq}$}}")
        else:
            lines.append(rf"\TrinaryInfC{{${seq}$}}")

    lines.append(r"\end{prooftree}")
    return "\n".join(lines) + "\n"
