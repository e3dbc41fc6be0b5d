"""Deciding the global trace condition for cyclic pre-proofs.

`edge_matrix` is the one definition of the trace pairs across an edge; the
prover's cycle filter and the renderer's progress marks read it too.  Across
`Subst` it keys each premise rtc formula under the substitution
(`syntax.substitute_key`) and pairs it with the conclusion formula of that
key, without building the instance.

The decision procedure, `check_global_trace_condition`, is a Ramsey-style
closure over per-edge trace matrices (size-change termination, Lee, Jones &
Ben-Amram, POPL 2001), pruned to antichains of ⊆-minimal matrices as in
Ramsey-based inclusion checking (Abdulla et al., CAV 2010; Fogarty & Vardi,
TACAS 2010).  The pre-proof is accepted iff no loop at a companion has an
idempotent power without a progressing diagonal pair.  There is one closure
per companion, over the paths from it that follow only edges inside its
strongly connected component (`flow_edges`, the closure's edge list).  The
pruning is exact, since composition and the idempotent power are monotone
under ⊆ (`EdgeMatrix.within`), and a rejection is a real bad path, since the
power tested is the matrix of the loop's path repeated.  CLOSURE_CAP counts
kept matrices across companions.  The closure, basic cycles and the
normality test read one map of cycle steps, `_cycle_succ`.  The tests
cross-check the closure against the full closure and a bounded enumeration
of ultimately periodic paths (`tests/oracles.py`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import BudgetExceeded
from .kernel import RuleId, RuleInstance
from .proofgraph import ProofGraph
from .syntax import Rtc, Sequent, Var, substitute_key

MAX_CYCLES = 100_000   # basic cycles before `enumerate_basic_cycles` gives up
CLOSURE_CAP = 500_000  # kept path matrices before the trace check is indeterminate


class EdgeMatrix:
    """Relation between antecedent rtc formulas (by canonical key) across an
    edge or path, with a progress flag per pair; composition keeps the
    maximal progress over connecting chains."""

    __slots__ = ("d",)

    def __init__(self, entries: dict[tuple[str, str], bool]):
        self.d = entries

    def compose(self, other: "EdgeMatrix") -> "EdgeMatrix":
        by_src: dict[str, list[tuple[str, bool]]] = {}
        for (a, b), p in other.d.items():
            by_src.setdefault(a, []).append((b, p))
        out: dict[tuple[str, str], bool] = {}
        for (a, b), p in self.d.items():
            for c, q in by_src.get(b, ()):
                key = (a, c)
                flag = p or q
                if flag or key not in out:
                    out[key] = out.get(key, False) or flag
        return EdgeMatrix(out)

    def within(self, other: "EdgeMatrix") -> bool:
        """self ⊆ other: every pair of self is in other, with no more progress."""
        d = other.d
        return len(self.d) <= len(d) and all(
            k in d and (d[k] or not p) for k, p in self.d.items())

    def is_idempotent(self) -> bool:
        return self.compose(self) == self

    def has_progressing_diagonal(self) -> bool:
        return any(a == b and p for (a, b), p in self.d.items())

    def idempotent_power(self) -> "EdgeMatrix":
        """The unique idempotent in the cyclic semigroup generated by self:
        the first power that is its own square."""
        cur = self
        while not cur.is_idempotent():
            cur = cur.compose(self)
        return cur

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EdgeMatrix) and self.d == other.d

    def __repr__(self) -> str:
        return f"EdgeMatrix({sorted(self.d.items())!r})"


@dataclass(frozen=True)
class FlowEdge:
    src: int
    dst: int             # buds redirected to their companions
    matrix: EdgeMatrix


@dataclass
class CycleReport:
    verdict: str                              # accepted | rejected | indeterminate
    witness_prefix: tuple[int, ...] = ()
    witness_period: tuple[int, ...] = ()
    witness_edges: tuple[FlowEdge, ...] = ()  # edges realizing the period
    detail: str = ""

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def _rtc_keys(s: Sequent) -> list[str]:
    return [f.key() for f in s.antecedent if isinstance(f, Rtc)]


def edge_matrix(rule: RuleInstance, i: int) -> EdgeMatrix:
    """Trace matrix across premise i of a rule instance that passes
    `check_rule_instance`; on any other instance it may raise.  Its pairs
    run from an antecedent rtc formula of the conclusion to one of the
    premise: across Subst, from the instance of each premise formula that
    the conclusion holds; across premise 1 of RtcCase, from the principal
    to its immediate ancestor, the one progressing pair; across any other
    edge, from each formula that the premise keeps to itself."""
    if rule.rule is RuleId.Subst:
        theta = dict(rule.params.substitution)
        concl = set(_rtc_keys(rule.conclusion))
        return EdgeMatrix({(k, f.key()): False
                           for f in rule.premises[i].antecedent if isinstance(f, Rtc)
                           if (k := substitute_key(f, theta)) in concl})
    entries: dict[tuple[str, str], bool] = {}
    if rule.rule is RuleId.RtcCase and i == 1:
        f = rule.params.principal
        ancestor = Rtc(f.x, f.y, f.body, f.src, Var(rule.params.eigenvar))
        entries[f.key(), ancestor.key()] = True
    kept = set(_rtc_keys(rule.premises[i]))
    for k in _rtc_keys(rule.conclusion):
        if k in kept:
            entries.setdefault((k, k), False)
    return EdgeMatrix(entries)


def _flow_links(g: ProofGraph) -> Iterator[tuple[int, int, int]]:
    """(source, premise index, target) for every premise of every non-bud
    node; a premise landing on a bud continues to the bud's companion (the
    bud-to-companion step is an identity matrix)."""
    for nid in g.internal_ids():
        node = g.nodes[nid]
        for i, cid in enumerate(node.children):
            child = g.nodes[cid]
            yield nid, i, (child.companion if child.is_bud else cid)


def _flow_succ(g: ProofGraph) -> dict[int, list[int]]:
    """Sorted successors of each non-bud node, each distinct flow edge once."""
    succ: dict[int, set[int]] = {n: set() for n in g.internal_ids()}
    for src, _, dst in _flow_links(g):
        succ[src].add(dst)
    return {n: sorted(s) for n, s in succ.items()}


def _sccs(succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components (Tarjan, SIAM J. Comput. 1972), with a
    work stack of (node, successor iterator, stack height) for recursion.
    A node whose component is out gets a low link above every index."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    out: list[list[int]] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]), 0)]
        while work:
            v, it, height = work[-1]
            w = next(it, None)
            if w is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    out.append(stack[height:])
                    del stack[height:]
                    low.update(dict.fromkeys(out[-1], len(succ)))
            elif w not in index:
                work.append((w, iter(succ[w]), len(stack)))
                index[w] = low[w] = len(index)
                stack.append(w)
            else:
                low[v] = min(low[v], low[w])
    return out


def _cycle_succ(g: ProofGraph) -> dict[int, list[int]]:
    """Each non-bud node's sorted flow successors inside its own strongly
    connected component: the steps a cycle can take."""
    succ = _flow_succ(g)
    out: dict[int, list[int]] = {}
    for comp in _sccs(succ):
        if len(comp) == 1:  # most nodes: a comprehension each made `check` slower
            out[comp[0]] = comp if comp[0] in succ[comp[0]] else []
            continue
        members = set(comp)
        out.update((v, [w for w in succ[v] if w in members]) for v in comp)
    return out


def flow_edges(g: ProofGraph) -> list[FlowEdge]:
    """The flow edges that lie inside one strongly connected component, with
    their trace matrices: every edge that a cycle can use, and no other."""
    steps = _cycle_succ(g)
    return [FlowEdge(src, dst, edge_matrix(g.instance(src), i))
            for src, i, dst in _flow_links(g) if dst in steps[src]]


def _flow_root(g: ProofGraph) -> int:
    node = g.nodes[g.root]
    return node.companion if node.is_bud else g.root


def _shortest_path(succ: dict[int, list[int]], src: int, dst: int) -> tuple[int, ...]:
    if src == dst:
        return (src,)
    prev: dict[int, int] = {src: src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if w not in prev:
                prev[w] = u
                if w == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                queue.append(w)
    return ()


def check_global_trace_condition(g: ProofGraph) -> CycleReport:
    """Antichain decision of the global trace condition.

    Accepted iff no loop at a companion has an idempotent power without a
    progressing diagonal pair.  Each companion, in id order, gets a closure
    of its paths along flow edges inside its SCC; this is exact, since every
    infinite path ends in one SCC and visits some companion infinitely often
    (every flow cycle enters a companion from a bud).  Paths grow breadth
    first by single edges on the right.  At each end node only the
    ⊆-minimal path matrices are kept (an antichain): a matrix that reaches a
    node holding some M′ ⊆ it is skipped, a newly kept matrix evicts the
    kept ones that contain it, and a queued path whose matrix was evicted is
    not extended.

    The pruning is exact.  Composition is monotone under ⊆, so by induction
    on paths every path matrix from the companion has a kept matrix below
    it.  The idempotent power is monotone too, so a bad loop L has a kept
    loop M′ ⊆ L whose power lies in L's, and lacks progress as well.  A kept
    loop need not be idempotent, so each is tested by its idempotent power,
    and the check stops at the first bad one kept.  That power is the matrix
    of the loop's path repeated, so a rejection is a real bad path: the
    witness, after a shortest flow path from the root.  Above CLOSURE_CAP
    kept matrices, counted across companions with evicted ones included,
    the verdict is indeterminate.
    """
    companions = sorted({n.companion for n in g.nodes.values() if n.is_bud})
    report = trace_closure(flow_edges(g), companions)
    if report.witness_period:
        report.witness_prefix = _shortest_path(_flow_succ(g), _flow_root(g),
                                               report.witness_period[0])
    return report


def trace_closure(edges: list[FlowEdge], companions: list[int]) -> CycleReport:
    """The closure of `check_global_trace_condition` on a plain edge list,
    one per companion in the order given; a rejection has no prefix."""
    out: dict[int, list[FlowEdge]] = {}
    for e in edges:
        out.setdefault(e.src, []).append(e)
    size = 0  # matrices kept by all closures so far
    for c in companions:
        kept: dict[int, list[EdgeMatrix]] = {}  # end node -> antichain
        queue: deque[tuple[int, EdgeMatrix | None, tuple[FlowEdge, ...]]] = \
            deque([(c, None, ())])
        while queue:
            v, mat, path = queue.popleft()
            if path and not any(m is mat for m in kept[v]):
                continue  # evicted since it was queued
            for e in out.get(v, ()):
                ext = mat.compose(e.matrix) if path else e.matrix
                here = kept.setdefault(e.dst, [])
                if any(m.within(ext) for m in here):
                    continue
                if size >= CLOSURE_CAP:
                    return CycleReport("indeterminate", detail="closure cap exceeded")
                size += 1
                here[:] = [m for m in here if not ext.within(m)]
                here.append(ext)
                walk = path + (e,)
                if (e.dst == c and not ext.has_progressing_diagonal()
                        and not ext.idempotent_power().has_progressing_diagonal()):
                    return CycleReport("rejected", (), (c,) + tuple(f.dst for f in walk),
                                       walk, detail="cycle whose idempotent power"
                                                    " has no progress")
                queue.append((e.dst, ext, walk))
    return CycleReport("accepted")


def enumerate_basic_cycles(g: ProofGraph) -> list[tuple[int, ...]]:
    """All basic cycles of the unfolded graph, canonically rotated so the
    smallest node id comes first, in deterministic order.  Each is found once
    from its smallest node, by a DFS over simple paths of cycle steps through
    larger nodes."""
    succ = _cycle_succ(g)
    out: list[tuple[int, ...]] = []
    for start in sorted(succ):
        path, work = [start], [iter(succ[start])]
        while work:
            w = next(work[-1], None)
            if w is None:
                work.pop()
                path.pop()
            elif w == start:
                out.append(tuple(path))
                if len(out) > MAX_CYCLES:
                    raise BudgetExceeded(f"more than {MAX_CYCLES} basic cycles")
            elif w > start and w not in path:
                path.append(w)
                work.append(iter(succ[w]))
    out.sort(key=lambda c: (len(c), c))
    return out


def is_non_overlapping(g: ProofGraph) -> bool:
    """True iff no two distinct basic cycles share a node: iff no node has
    two cycle steps (else its SCC holds a cycle and an ear on it)."""
    return all(len(s) < 2 for s in _cycle_succ(g).values())
