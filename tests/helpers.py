"""Test-only helpers: a graph builder with weakening chains, a replay of
rejection witnesses, formulas nested to a given depth, the kind of a
token, and complete predicate tables."""

import itertools

from rtcproof import proofgraph
from rtcproof.syntax import Sequent
from rtcproof.tracecheck import CycleReport


class GraphBuilder(proofgraph.GraphBuilder):
    def add_weakening_chain(self, target: Sequent, child_id: int) -> int:
        """Grow child's sequent up to target with WL/WR; child must be contained."""
        nid = child_id
        for inst in proofgraph.weakenings(self.nodes[child_id].sequent, target):
            nid = self.add_internal(inst, (nid,))
        return nid


def replay_witness(report: CycleReport) -> bool:
    """Recompose the rejection witness and confirm no idempotent power of the
    period matrix has a progressing diagonal pair."""
    if report.verdict != "rejected" or not report.witness_edges:
        return False
    mat = report.witness_edges[0].matrix
    for e in report.witness_edges[1:]:
        mat = mat.compose(e.matrix)
    return not mat.idempotent_power().has_progressing_diagonal()


# one formula per way of nesting, n levels deep: shape -> n -> formula text
NESTED = {
    "negations": lambda n: "~" * n + "q(a)",
    "parentheses": lambda n: "(" * n + "q(a)" + ")" * n,
    "implications": lambda n: "q(a) -> " * n + "q(a)",
    "conjunctions": lambda n: " /\\ ".join(["q(a)"] * (n + 1)),
    "quantifiers": lambda n: "".join(f"forall x{i}. " for i in range(n)) + "q(x0)",
    "rtc": lambda n: "(rtc x y. " * n + "p(x, y)" + ")(a, b)" * n,
    "terms": lambda n: "q(" + "f(" * n + "a" + ")" * n + ")",
    "mixed": lambda n: ("(" * (n // 2) + "~" * (n // 4) + "q(a)"
                        + " /\\ q(a)" * (n - n // 2 - n // 4) + ")" * (n // 2)),
}


def token_kind(tok: str) -> str:
    """'ident' or 'sym': a token of `syntax.tokenize` is an identifier when
    it starts with a letter, a digit or `_`."""
    return "ident" if tok[0].isalnum() or tok[0] == "_" else "sym"


def table(n: int, arity: int, true=()) -> dict[tuple[int, ...], bool]:
    """The complete table, every tuple set, of a predicate over the domain
    {0..n-1} whose true argument tuples are `true`."""
    true = set(true)
    return {t: t in true for t in itertools.product(range(n), repeat=arity)}
