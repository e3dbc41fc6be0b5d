"""Cyclic pre-proofs as finite graphs with bud/companion assignment.

A node is either internal (carries a rule id and parameters; its premises
are its children's sequents, in order) or a bud: an open leaf pointing back
at a syntactically equal internal node, its companion.  Each fact is stored
once: `ProofGraph.instance` assembles a node's rule instance from the node
and its children, and `ProofGraph.unfold` is the one walk over the tree
unfolding, expanding each node once.  `validate_structure` checks the
graph invariants plus every rule instance.  `weakenings` is the one chain
of WL and WR steps that grows a sequent to a larger one; proofs are built
through `GraphBuilder`.  The trace pairs across an edge are `tracecheck`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from .errors import RtcError, SchemaMismatch
from .kernel import (RuleId, RuleInstance, RuleParams, check_rule_instance,
                     rule_instance)
from .syntax import Formula, Sequent, Signature


@dataclass
class ProofNode:
    sequent: Sequent
    rule: RuleId | None = None            # None for buds
    params: RuleParams = field(default_factory=RuleParams)
    children: tuple[int, ...] = ()
    companion: int | None = None          # set for buds

    @property
    def is_bud(self) -> bool:
        return self.rule is None


@dataclass
class ProofGraph:
    nodes: dict[int, ProofNode]
    root: int

    def internal_ids(self) -> list[int]:
        return [i for i in sorted(self.nodes) if not self.nodes[i].is_bud]

    def end_sequent(self) -> Sequent:
        return self.nodes[self.root].sequent

    def instance(self, nid: int) -> RuleInstance:
        """The rule instance at internal node nid: its conclusion is the
        node's sequent and its premises are the children's sequents."""
        node = self.nodes[nid]
        return RuleInstance(node.rule, node.sequent,
                            tuple(self.nodes[c].sequent for c in node.children),
                            node.params)

    def unfold(self) -> Iterator[int]:
        """The node ids of the tree unfolding in post-order, each node after
        its children, expanding each node once: a bud, or a node reached
        again after its expansion, comes out as a leaf.  RtcError on a
        missing node or on a cycle of premise links, whose unfolding never
        ends."""
        stack = [(self.root, False)]
        path: set[int] = set()   # the expanded nodes on the stack: ancestors
        done: set[int] = set()   # the nodes yielded
        while stack:
            nid, expanded = stack.pop()
            if nid not in self.nodes:
                raise RtcError(f"node {nid} does not exist")
            node = self.nodes[nid]
            if not (node.is_bud or expanded or nid in done):
                if nid in path:
                    raise RtcError(f"premise links through node {nid} form a cycle")
                path.add(nid)
                stack.append((nid, True))
                stack.extend((cid, False) for cid in reversed(node.children))
                continue
            path.discard(nid)
            done.add(nid)
            yield nid


@dataclass(frozen=True)
class GraphError:
    kind: str          # BadPremiseLink | BudMismatch | KernelError | UnreachableNode
    node: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at node {self.node}: {self.detail}"


def validate_structure(g: ProofGraph, theory: tuple[Sequent, ...] = (),
                       sig: Signature | None = None) -> list[GraphError]:
    """Empty list iff the graph is a well-formed pre-proof."""
    errors: list[GraphError] = []
    if g.root not in g.nodes:
        return [GraphError("BadPremiseLink", g.root, "root node does not exist")]

    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.is_bud:
            comp = node.companion
            if comp is None or comp not in g.nodes:
                errors.append(GraphError("BudMismatch", nid, "companion missing"))
                continue
            target = g.nodes[comp]
            if target.is_bud:
                errors.append(GraphError("BudMismatch", nid,
                                         f"companion {comp} is itself a bud"))
            elif target.sequent != node.sequent:
                errors.append(GraphError(
                    "BudMismatch", nid,
                    f"bud sequent {node.sequent} differs from companion's {target.sequent}"))
            if node.children:
                errors.append(GraphError("BadPremiseLink", nid, "bud has children"))
            continue
        missing = [c for c in node.children if c not in g.nodes]
        for cid in missing:
            errors.append(GraphError("BadPremiseLink", nid, f"child {cid} does not exist"))
        if missing:
            continue
        try:
            check_rule_instance(g.instance(nid), theory, sig)
        except SchemaMismatch as exc:
            errors.append(GraphError("KernelError", nid, str(exc)))
        except RtcError as exc:  # freshness, unknown axiom; others are bugs
            errors.append(GraphError("KernelError", nid, f"{type(exc).__name__}: {exc}"))

    # one DFS from the root must reach every node and find no link back to a
    # grey node (one on the walk): premise links form a DAG, cycles use buds
    color = {g.root: "grey"}
    work = [(g.root, iter(g.nodes[g.root].children))]
    cyclic = False
    while work:
        nid, kids = work[-1]
        for c in kids:
            if c in g.nodes and c not in color:
                color[c] = "grey"
                work.append((c, iter(g.nodes[c].children)))
                break
            cyclic = cyclic or color.get(c) == "grey"
        else:
            color[nid] = "black"
            work.pop()
    for nid in sorted(set(g.nodes) - set(color)):
        errors.append(GraphError("UnreachableNode", nid, "not reachable from root"))
    if cyclic:
        errors.append(GraphError("BadPremiseLink", g.root,
                                 "premise links contain a cycle (use buds)"))
    return errors


# ---------------------------------------------------------------------------
# Construction helpers

def weakenings(inner: Sequent, target: Sequent) -> list[RuleInstance]:
    """The WL instances, then the WR instances, that grow inner to target,
    innermost first: each concludes the premise of the next."""
    out: list[RuleInstance] = []
    current = inner
    for f in target.antecedent:
        if f not in set(current.antecedent):
            current = current.with_ant(f)
            out.append(rule_instance(RuleId.WL, current, principal=f))
    for f in target.succedent:
        if f not in set(current.succedent):
            current = current.with_succ(f)
            out.append(rule_instance(RuleId.WR, current, principal=f))
    assert current == target, "weakening needs an inner sequent contained in target"
    return out


class GraphBuilder:
    """Incremental graph construction with forward references for companions."""

    def __init__(self):
        self.nodes: dict[int, ProofNode] = {}
        self._next = 0

    def reserve(self) -> int:
        nid = self._next
        self._next += 1
        return nid

    def fill_internal(self, nid: int, rule: RuleInstance, children: tuple[int, ...]) -> int:
        self.nodes[nid] = ProofNode(rule.conclusion, rule.rule, rule.params, children)
        return nid

    def fill_bud(self, nid: int, seq: Sequent, companion: int) -> int:
        self.nodes[nid] = ProofNode(seq, companion=companion)
        return nid

    def add_internal(self, rule: RuleInstance, children: tuple[int, ...] = ()) -> int:
        return self.fill_internal(self.reserve(), rule, children)

    def add_bud(self, seq: Sequent, companion: int) -> int:
        return self.fill_bud(self.reserve(), seq, companion)

    def add_axiom_closure(self, seq: Sequent, phi: Formula) -> int:
        """Close Γ, phi |- phi, Δ by the documented macro: Axiom + weakenings."""
        axiom = Sequent((phi,), (phi,))
        nid = self.add_internal(rule_instance(RuleId.Axiom, axiom))
        for inst in weakenings(axiom, seq):
            nid = self.add_internal(inst, (nid,))
        return nid

    def graph(self, root: int) -> ProofGraph:
        return ProofGraph(dict(self.nodes), root)


def renumber(g: ProofGraph) -> ProofGraph:
    """Renumber nodes into a stable preorder walk from the root (0, 1, ...)."""
    order: list[int] = []
    seen: set[int] = set()
    # the root, then unvisited nodes by id; children pop in order, as in recursion
    stack = sorted(g.nodes, reverse=True) + [g.root]
    while stack:
        nid = stack.pop()
        if nid in seen:
            continue
        seen.add(nid)
        order.append(nid)
        stack.extend(reversed(g.nodes[nid].children))
    mapping = {old: new for new, old in enumerate(order)}
    nodes = {}
    for old, node in g.nodes.items():
        nodes[mapping[old]] = replace(
            node, children=tuple(mapping[c] for c in node.children),
            companion=None if node.companion is None else mapping[node.companion])
    return ProofGraph(nodes, mapping[g.root])
