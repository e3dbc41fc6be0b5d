import contextlib
import dataclasses
import itertools
import random
from collections import deque

import pytest

from rtcproof import tracecheck
from rtcproof.errors import BudgetExceeded
from rtcproof.kernel import RuleId, make_subst, rule_instance
from rtcproof.prooffile import parse_proof
from rtcproof.proofgraph import ProofGraph, validate_structure
from rtcproof.syntax import Signature, Var, parse_formula, parse_sequent
from rtcproof.tracecheck import (EdgeMatrix, FlowEdge, _sccs, check_global_trace_condition,
                                 enumerate_basic_cycles, is_non_overlapping, trace_closure)

from conftest import ACCEPTED, REJECTED
from helpers import GraphBuilder, replay_witness
from oracles import check_by_path_enumeration, full_closure, idempotent_power_by_table
from preproofs import diamond_proof, loop_below_root, subst_chain, thread_proof

SIG = Signature.make(predicates={"p": 2, "q": 1})


def overlap_graph():
    """Two basic cycles through one node.

    Two self-loops on one node via parallel derivations is impossible with
    our schemas, so overlap is staged with two interleaved cycles."""
    b = GraphBuilder()
    sig = SIG
    s0 = parse_sequent("q(a), q(b), q(d) |-", sig)
    n0 = b.reserve()
    # cycle 1: drop q(b), substitute it back
    wl1 = rule_instance(RuleId.WL, s0, principal=parse_formula("q(b)", sig))
    sub1 = rule_instance(RuleId.Subst, wl1.premises[0],
                         substitution=make_subst({"b": Var("a")}), source=s0)
    bud1 = b.add_bud(s0, n0)
    nsub1 = b.add_internal(sub1, (bud1,))
    # cycle 2 shares n0: drop q(d) instead
    wl2 = rule_instance(RuleId.WL, s0, principal=parse_formula("q(d)", sig))
    sub2 = rule_instance(RuleId.Subst, wl2.premises[0],
                         substitution=make_subst({"d": Var("a")}), source=s0)
    bud2 = b.add_bud(s0, n0)
    nsub2 = b.add_internal(sub2, (bud2,))
    # tie both under one branching node
    cut = rule_instance(RuleId.Cut, s0, cut_formula=parse_formula("q(b)", sig))
    # cheat: cut premises are s0 +/- q(b); reuse weakenings to match
    w1 = b.add_weakening_chain(cut.premises[0], nsub1)
    w2 = b.add_weakening_chain(cut.premises[1], nsub2)
    b.fill_internal(n0, cut, (w1, w2))
    return b.graph(n0)


class TestEdgeMatrix:
    def test_compose_max_progress(self):
        a = EdgeMatrix({("t", "t"): True})
        b = EdgeMatrix({("t", "t"): False})
        assert a.compose(b).d == {("t", "t"): True}
        assert b.compose(b).d == {("t", "t"): False}

    def test_compose_associative(self):
        a = EdgeMatrix({("x", "y"): True, ("x", "x"): False})
        b = EdgeMatrix({("y", "z"): False, ("x", "y"): False})
        c = EdgeMatrix({("z", "x"): True, ("y", "y"): False})
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_identity(self):
        i = EdgeMatrix({("t", "t"): False, ("u", "u"): False})
        a = EdgeMatrix({("t", "u"): True})
        assert i.compose(a) == a and a.compose(i) == a

    def test_repr_lists_sorted_pairs(self):
        m = EdgeMatrix({("u", "t"): True, ("t", "u"): False})
        assert repr(m) == "EdgeMatrix([(('t', 'u'), False), (('u', 't'), True)])"

    def test_idempotent_power(self):
        # M swaps two formulas with progress on one leg
        m = EdgeMatrix({("a", "b"): True, ("b", "a"): False})
        e = m.idempotent_power()
        assert e.is_idempotent()
        assert e.has_progressing_diagonal()
        bad = EdgeMatrix({("a", "b"): False, ("b", "a"): False})
        e2 = bad.idempotent_power()
        assert e2.is_idempotent()
        assert not e2.has_progressing_diagonal()

    def test_within(self):
        m = EdgeMatrix({("t", "t"): False, ("t", "u"): True})
        assert m.within(m) and EdgeMatrix({}).within(m)
        assert EdgeMatrix({("t", "u"): False}).within(m)
        assert not EdgeMatrix({("t", "t"): True}).within(m)   # more progress
        assert not EdgeMatrix({("u", "u"): False}).within(m)  # a pair m lacks
        assert not m.within(EdgeMatrix({("t", "t"): False}))

    def test_compose_and_power_are_monotone(self):
        # the antichain's exactness rests on these: M' within M gives M'X
        # within MX, XM' within XM, and the idempotent powers in the same order
        rng = random.Random(31)
        keys = "abc"
        for _ in range(2000):
            big, x = (EdgeMatrix({(a, b): rng.random() < 0.4
                                  for a in keys for b in keys if rng.random() < 0.5})
                      for _ in range(2))
            small = EdgeMatrix({k: p and rng.random() < 0.5
                                for k, p in big.d.items() if rng.random() < 0.7})
            assert small.within(big)
            assert small.compose(x).within(big.compose(x))
            assert x.compose(small).within(x.compose(big))
            assert small.idempotent_power().within(big.idempotent_power())

    def test_idempotent_power_agrees_with_table(self):
        # random relations over 4 keys; the powers of 266 of them repeat
        # with period 2 or 3, so the idempotent is not the first repeat
        rng = random.Random(22)
        keys = "abcd"
        for _ in range(2000):
            m = EdgeMatrix({(a, b): rng.random() < 0.3
                            for a in keys for b in keys if rng.random() < 0.35})
            assert m.idempotent_power() == idempotent_power_by_table(m), m


# a fault that stops the antichain from pruning makes a closure that should
# take a few compositions run for minutes; with this limit it fails at once.
# The most any graph checked under it takes is 152, trial 2087 of
# test_random_edge_lists; accepted thread_proof(12) takes 80.
COMPOSE_LIMIT = 1000


@contextlib.contextmanager
def compose_limit():
    """Within the block, the call of `EdgeMatrix.compose` past COMPOSE_LIMIT
    fails the test."""
    compose, calls = EdgeMatrix.compose, itertools.count(1)

    def counted(self, other):
        if next(calls) > COMPOSE_LIMIT:
            pytest.fail(f"more than {COMPOSE_LIMIT} compositions in one closure")
        return compose(self, other)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(EdgeMatrix, "compose", counted)
        yield


def test_closures_compose_little(corpus_graphs):
    # the first test to check a graph, so that under `pytest -x` a runaway
    # closure fails here rather than hanging a later test
    graphs = {name: entry[0] for name, entry in corpus_graphs.items()}
    graphs.update(thread_graphs(range(1, 13), False))
    graphs.update(thread_graphs(range(1, 13), True))
    graphs.update((f"diamond{k}", parse_proof(diamond_proof(k)).graph) for k in range(2, 7))
    for name, g in graphs.items():
        with compose_limit():
            rep = check_global_trace_condition(g)
        assert rep.accepted != (name in REJECTED or "_bad" in name), name


class TestVerdicts:
    def test_corpus_verdicts(self, corpus_graphs):
        for name in ACCEPTED:
            g = corpus_graphs[name][0]
            assert check_global_trace_condition(g).accepted, name
        for name in REJECTED:
            rep = check_global_trace_condition(corpus_graphs[name][0])
            assert rep.verdict == "rejected", name
            assert rep.witness_period, name
            assert replay_witness(rep), name

    def test_acyclic_vacuous(self, corpus_graphs):
        g = corpus_graphs["chain2.tcp"][0]
        assert enumerate_basic_cycles(g) == []
        assert check_global_trace_condition(g).accepted
        assert check_by_path_enumeration(g, 8).accepted

    def test_method_agreement_corpus(self, corpus_graphs):
        for name in ACCEPTED + REJECTED:
            g = corpus_graphs[name][0]
            a = check_global_trace_condition(g)
            b = check_by_path_enumeration(g, len(g.nodes) + 1)
            assert a.verdict == b.verdict, name

    def test_rejection_witness_is_cycle(self, corpus_graphs):
        for name in REJECTED:
            g = corpus_graphs[name][0]
            rep = check_global_trace_condition(g)
            period = rep.witness_period
            assert period[0] == period[-1]
            edges = {(e.src, e.dst) for e in rep.witness_edges}
            for a, b in zip(period, period[1:]):
                assert (a, b) in edges


class TestBasicCycles:
    def test_transitivity_single_cycle(self, corpus_graphs):
        g = corpus_graphs["transitivity.tcp"][0]
        cycles = enumerate_basic_cycles(g)
        assert len(cycles) == 1
        assert is_non_overlapping(g)

    def test_two_disjoint_cycles(self, corpus_graphs):
        g = corpus_graphs["two_loops.tcp"][0]
        cycles = enumerate_basic_cycles(g)
        assert len(cycles) == 2
        assert is_non_overlapping(g)

    def test_two_loops_same_node_overlap(self):
        g = overlap_graph()
        assert validate_structure(g, (), SIG) == []
        cycles = enumerate_basic_cycles(g)
        assert len(cycles) == 2
        assert not is_non_overlapping(g)

    def test_canonical_rotation(self, corpus_graphs):
        g = corpus_graphs["two_loops.tcp"][0]
        for cyc in enumerate_basic_cycles(g):
            assert cyc[0] == min(cyc)

    def test_non_overlapping_iff_cycles_disjoint(self, corpus_graphs):
        graphs = {name: entry[0] for name, entry in corpus_graphs.items()}
        graphs["overlap"] = overlap_graph()
        for name, g in graphs.items():
            cycles = [set(c) for c in enumerate_basic_cycles(g)]
            disjoint = all(not (a & b) for i, a in enumerate(cycles)
                           for b in cycles[i + 1:])
            assert is_non_overlapping(g) == disjoint, name


class TestSCC:
    def test_matches_mutual_reachability(self):
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 9)
            p = rng.uniform(0.05, 0.5)
            succ = {v: sorted(w for w in range(n) if rng.random() < p)
                    for v in range(n)}
            reach = {v: {v} for v in succ}
            for _ in range(n):
                for v in succ:
                    for w in succ[v]:
                        reach[v] |= reach[w]
            comps = _sccs(succ)
            assert sorted(v for c in comps for v in c) == list(range(n)), seed
            comp_of = {v: i for i, c in enumerate(comps) for v in c}
            for u in succ:
                for v in succ:
                    mutual = v in reach[u] and u in reach[v]
                    assert (comp_of[u] == comp_of[v]) == mutual, seed


class TestReduction:
    def test_non_overlapping_reduction(self, corpus_graphs):
        # on non-overlapping graphs: accepted iff every basic cycle's matrix
        # has a progressing diagonal pair in some power <= node count
        from rtcproof.tracecheck import flow_edges
        for name in ACCEPTED + REJECTED:
            g = corpus_graphs[name][0]
            if not is_non_overlapping(g):
                continue
            edges = {(e.src, e.dst): e.matrix for e in flow_edges(g)}
            ok = True
            for cyc in enumerate_basic_cycles(g):
                mat = None
                for a, bnode in zip(cyc, cyc[1:] + cyc[:1]):
                    m = edges[(a, bnode)]
                    mat = m if mat is None else mat.compose(m)
                power = mat
                found = power.has_progressing_diagonal()
                for _ in range(len(g.nodes)):
                    power = power.compose(mat)
                    found = found or power.has_progressing_diagonal()
                ok = ok and found
            assert ok == check_global_trace_condition(g).accepted, name


def relabel(g: ProofGraph) -> ProofGraph:
    """The same graph with node ids reversed, so the root gets the largest."""
    top = max(g.nodes)
    return ProofGraph({top - n: dataclasses.replace(
        node, children=tuple(top - c for c in node.children),
        companion=None if node.companion is None else top - node.companion)
        for n, node in g.nodes.items()}, top - g.root)


def thread_graphs(ks, rejected: bool) -> dict[str, ProofGraph]:
    out = {}
    for k in ks:
        g = parse_proof(thread_proof(k, rejected)).graph
        assert validate_structure(g, (), SIG) == []
        name = f"threads{k}{'_bad' if rejected else ''}"
        out[name], out[name + "_relabelled"] = g, relabel(g)
    return out


def flow_distances(g: ProofGraph) -> tuple[dict[int, list[int]], dict[int, int]]:
    """Flow successors (buds continue to their companions) and the BFS
    distance of every node from the root."""
    def target(c):
        return g.nodes[c].companion if g.nodes[c].is_bud else c
    succ = {n: [target(c) for c in node.children]
            for n, node in g.nodes.items() if not node.is_bud}
    dist = {target(g.root): 0}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in succ[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return succ, dist


@pytest.mark.parametrize("cap", [7, 8])
def test_cycle_cap_boundary(cap, monkeypatch):
    # diamond_proof(3) has exactly 8 basic cycles: a cap of 8 lists them,
    # a cap of 7 gives up
    g = parse_proof(diamond_proof(3)).graph
    monkeypatch.setattr(tracecheck, "MAX_CYCLES", cap)
    if cap < 8:
        with pytest.raises(BudgetExceeded, match="^more than 7 basic cycles$"):
            enumerate_basic_cycles(g)
    else:
        assert len(enumerate_basic_cycles(g)) == 8


class TestRestrictedClosure:
    def test_long_acyclic_chain_needs_no_closure(self, monkeypatch):
        g = parse_proof(subst_chain(3000)).graph
        assert enumerate_basic_cycles(g) == []
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", 0)
        assert check_global_trace_condition(g).accepted

    @pytest.mark.parametrize("rejected", [False, True])
    def test_six_threads_within_small_cap(self, rejected, monkeypatch):
        # the antichain keeps 28 matrices when accepted and 31 up to the bad
        # loop when rejected; the full closure of the accepted one has 1,087
        g = parse_proof(thread_proof(6, rejected)).graph
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", 2000)
        rep = check_global_trace_condition(g)
        assert rep.verdict == ("rejected" if rejected else "accepted")

    @pytest.mark.parametrize("k", [6, 8])
    def test_rejection_within_cap_of_its_first_bad_loop(self, k, monkeypatch):
        # the check stops at its first bad loop, after 31 and 41 kept
        # matrices (the full closure, after 57 and 107); the whole full
        # closure has 1,280 and 6,656, so a check that built it all would be
        # indeterminate under a cap of 200
        g = parse_proof(thread_proof(k, rejected=True)).graph
        full = check_global_trace_condition(g)
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", 200)
        rep = check_global_trace_condition(g)
        assert rep.verdict == full.verdict == "rejected"
        assert (rep.witness_prefix, rep.witness_period) == \
            (full.witness_prefix, full.witness_period)

    @pytest.mark.parametrize("cap, verdict", [(12, "indeterminate"), (13, "accepted")])
    def test_cap_boundary(self, cap, verdict, monkeypatch):
        # the antichain of thread_proof(3) keeps exactly 13 path matrices,
        # where the full closure holds 63
        g = parse_proof(thread_proof(3)).graph
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", cap)
        assert check_global_trace_condition(g).verdict == verdict

    @pytest.mark.parametrize("cap, verdict", [(57, "indeterminate"), (58, "accepted")])
    def test_twelve_threads_keep_58_matrices(self, cap, verdict, monkeypatch):
        # a count of work, not of time: the full closure of thread_proof(12)
        # composes 188,414 times
        g = parse_proof(thread_proof(12)).graph
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", cap)
        assert check_global_trace_condition(g).verdict == verdict

    def test_past_cap_is_indeterminate(self, monkeypatch):
        g = parse_proof(thread_proof(2)).graph
        monkeypatch.setattr(tracecheck, "CLOSURE_CAP", 1)
        rep = check_global_trace_condition(g)
        assert (rep.verdict, rep.detail) == ("indeterminate", "closure cap exceeded")

    def test_agrees_with_path_enumeration(self):
        # test_method_agreement_corpus covers the corpus
        for rejected in (False, True):
            for name, g in thread_graphs(range(2, 6), rejected).items():
                a = check_global_trace_condition(g)
                b = check_by_path_enumeration(g, len(g.nodes) + 1)
                assert a.accepted != rejected, name
                assert a.verdict == b.verdict, name

    def test_rejection_witness(self, corpus_graphs):
        graphs = {name: corpus_graphs[name][0] for name in REJECTED}
        graphs.update(thread_graphs(range(1, 6), True))
        graphs["loop_below_root"] = parse_proof(loop_below_root(2)).graph
        for name, g in graphs.items():
            rep = check_global_trace_condition(g)
            assert replay_witness(rep), name
            companions = {n.companion for n in g.nodes.values() if n.is_bud}
            period, prefix = rep.witness_period, rep.witness_prefix
            assert period[0] == period[-1] and period[0] in companions, name
            succ, dist = flow_distances(g)
            assert dist[prefix[0]] == 0, name
            assert prefix[-1] == period[0], name
            assert len(prefix) == dist[period[0]] + 1, name
            for path in (prefix, period):
                assert all(b in succ[a] for a, b in zip(path, path[1:])), name

    def test_no_prefix_when_root_does_not_reach_the_loop(self):
        # validation would refuse the unreachable loop; the library call
        # still rejects it, with no path from the root
        text = loop_below_root(0).replace("root 0", "root 9") + \
            "node 9 : q(a) |- q(a) ; rule=Axiom ; params={} ; premises=[]\n"
        rep = check_global_trace_condition(parse_proof(text).graph)
        assert (rep.verdict, rep.witness_prefix, rep.witness_period) == \
            ("rejected", (), (0, 1, 0))

    def test_evicted_path_is_not_extended(self):
        # from companion 0, the path 0 -> 0 -> 1 composes to the empty
        # matrix, which evicts the matrices of both one-edge paths 0 -> 1
        # while they are queued; the first bad loop is then 0 -> 0 -> 1 -> 0,
        # not (0, 1, 0) by an evicted path; this graph is trial 2803 of
        # test_random_edge_lists
        m = EdgeMatrix
        edges = [FlowEdge(0, 0, m({("a", "a"): True})),
                 FlowEdge(0, 1, m({("b", "a"): False})),
                 FlowEdge(1, 0, m({("a", "a"): True, ("b", "a"): False, ("b", "b"): False})),
                 FlowEdge(0, 1, m({("a", "a"): True})),
                 FlowEdge(0, 1, m({("a", "a"): True, ("a", "b"): False}))]
        rep = trace_closure(edges, [0, 1])
        assert (rep.verdict, rep.witness_period) == ("rejected", (0, 0, 1, 0))


def random_flow_graph(rng: random.Random) -> tuple[list[FlowEdge], list[int]]:
    """Up to 6 nodes, 3 trace keys and 10 edges with random matrices, every
    node a companion."""
    n = rng.randint(1, 6)
    keys = "abc"[:rng.randint(1, 3)]
    edges = [FlowEdge(rng.randrange(n), rng.randrange(n),
                      EdgeMatrix({(a, b): rng.random() < 0.3
                                  for a in keys for b in keys if rng.random() < 0.4}))
             for _ in range(rng.randint(1, 10))]
    return edges, list(range(n))


class TestAgainstFullClosure:
    """The antichain against the full composition closure it prunes."""

    def test_proof_graphs(self, corpus_graphs, monkeypatch):
        graphs = {name: entry[0] for name, entry in corpus_graphs.items()}
        for rejected in (False, True):
            graphs.update(thread_graphs(range(1, 9), rejected))
        for k in range(2, 7):
            graphs[f"diamond{k}"] = parse_proof(diamond_proof(k)).graph
        reports = {name: check_global_trace_condition(g) for name, g in graphs.items()}
        monkeypatch.setattr(tracecheck, "trace_closure", full_closure)
        for name, g in graphs.items():
            a, b = reports[name], check_global_trace_condition(g)
            assert (a.verdict, a.witness_prefix, a.witness_period) == \
                (b.verdict, b.witness_prefix, b.witness_period), name

    def test_random_edge_lists(self):
        # 2,261 of the 3,000 are rejected.  The loops then differ on 498: a
        # kept loop need not be idempotent, and a matrix can be evicted by a
        # smaller one from a longer path.  The companion is the same, since
        # each companion's verdict is exact, and the loop is a bad one.
        rng = random.Random(7)
        for trial in range(3000):
            edges, companions = random_flow_graph(rng)
            with compose_limit():
                a = trace_closure(edges, companions)
            b = full_closure(edges, companions)
            assert a.verdict == b.verdict, trial
            if a.verdict == "rejected":
                assert a.witness_period[0] == b.witness_period[0], trial
                assert replay_witness(a), trial
