"""Test-only helpers: a graph builder with weakening chains, and a replay of
rejection witnesses."""

from rtcproof import proofgraph
from rtcproof.kernel import RuleId, rule_instance
from rtcproof.syntax import Sequent
from rtcproof.tracecheck import CycleReport


class GraphBuilder(proofgraph.GraphBuilder):
    def add_weakening_chain(self, target: Sequent, child_id: int) -> int:
        """Grow child's sequent up to target with WL/WR; child must be contained."""
        nid = child_id
        current = self.nodes[child_id].sequent
        assert target.contains(current), "weakening chain needs a contained child"
        for f in target.antecedent:
            if f not in set(current.antecedent):
                parent = current.with_ant(f)
                nid = self.add_internal(
                    rule_instance(RuleId.WL, parent, principal=f), (nid,))
                current = parent
        for f in target.succedent:
            if f not in set(current.succedent):
                parent = current.with_succ(f)
                nid = self.add_internal(
                    rule_instance(RuleId.WR, parent, principal=f), (nid,))
                current = parent
        assert current == target
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
