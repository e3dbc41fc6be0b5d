"""DOT and LaTeX emitters for proof graphs.

Formulas are printed by `syntax.pretty`; `TEX` is its LaTeX notation, so the
precedence and parenthesisation rules live in `syntax` alone.  The DOT
output marks an edge as progressing when `tracecheck.edge_matrix` gives it a
progressing pair; the graph need not be a valid pre-proof, so only the
edges of rule instances that the kernel accepts are read.  The LaTeX output
follows `ProofGraph.unfold`, which expands each node once, so a premise
shared by several nodes is printed in full once and named by a dagger mark
elsewhere, as a bud names its companion; the output grows with the graph,
not with its tree unfolding.
"""

from __future__ import annotations

from collections import Counter

from .errors import RtcError
from .kernel import check_rule_instance
from .proofgraph import ProofGraph
from .syntax import (And, App, Bot, Eq, Exists, Forall, Implies, Not, Notation,
                     Or, Rtc, Sequent, Signature, Top, pretty, pretty_sequent)
from .tracecheck import edge_matrix


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def _progressing(g: ProofGraph, nid: int, sig: Signature | None) -> list[bool]:
    """Per premise of internal node nid, whether its edge progresses; all
    False when the node's rule instance is not kernel-valid."""
    rule = g.instance(nid)
    try:
        check_rule_instance(rule, sig=sig)
    except RtcError:
        return [False] * len(rule.premises)
    return [any(edge_matrix(rule, i).d.values()) for i in range(len(rule.premises))]


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
        for cid, progressing in zip(node.children, _progressing(g, nid, sig)):
            attrs = ' [color=red, penwidth=2.0, label="progress"]' if progressing else ""
            lines.append(f"  n{nid} -> n{cid}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tex_name(name: str) -> str:
    return name.replace("_", r"\_")


TEX = Notation({
    Eq: "{} = {}", Top: r"\top", Bot: r"\bot", Not: r"\neg {}", And: r"{} \wedge {}",
    Or: r"{} \vee {}", Implies: r"{} \rightarrow {}", Forall: r"\forall {}.\, {}",
    Exists: r"\exists {}.\, {}", Rtc: r"(\mathsf{{rtc}}_{{{},{}}}\, {})({}, {})",
    App: "{}({})",
}, pair=r"\langle {}, {} \rangle", name=_tex_name,
    symbol=lambda s: rf"\mathit{{{_tex_name(s)}}}")


def latex_sequent(s: Sequent, sig: Signature | None = None) -> str:
    ant = ", ".join(pretty(f, sig, TEX) for f in s.antecedent)
    suc = ", ".join(pretty(f, sig, TEX) for f in s.succedent)
    return rf"{ant} \vdash {suc}"


def to_latex(g: ProofGraph, sig: Signature | None = None) -> str:
    """bussproofs rendering of the tree unfolding, each node expanded once.
    A bud, or a node reached again, becomes a leaf marked with a dagger
    naming its companion or that node; the marks are numbered in id order
    over companions and over nodes that are premises of several nodes."""
    premises = Counter(c for n in g.nodes.values() for c in n.children)
    marked = {n.companion for n in g.nodes.values() if n.is_bud}
    marked |= {c for c, k in premises.items() if k > 1}
    dagger = {nid: i + 1 for i, nid in enumerate(sorted(marked))}
    lines = [r"% requires \usepackage{bussproofs}", r"\begin{prooftree}"]

    # a node's lines follow its children's
    printed: set[int] = set()
    for nid in g.unfold():
        node = g.nodes[nid]
        seq = latex_sequent(node.sequent, sig)
        if node.is_bud or nid in printed:
            mark = rf"\dagger_{dagger[nid if nid in printed else node.companion]}"
            lines.append(rf"\AxiomC{{$({mark}) \; {seq}$}}")
            continue
        printed.add(nid)
        label = node.rule.value
        if nid in dagger:
            label += rf" \; \dagger_{dagger[nid]}"
        lines.append(rf"\RightLabel{{\small {label}}}")
        if not node.children:
            lines.append(r"\AxiomC{}")
        inference = ("Unary", "Unary", "Binary", "Trinary")[min(len(node.children), 3)]
        lines.append(rf"\{inference}InfC{{${seq}$}}")

    lines.append(r"\end{prooftree}")
    return "\n".join(lines) + "\n"
