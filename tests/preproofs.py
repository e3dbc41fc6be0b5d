"""Synthetic pre-proofs in the .tcp text format, for the trace-check tests."""

R = "(rtc x y. p(x, y))"


def _seq(ant: list[str], suc: list[str]) -> str:
    return f"{', '.join(ant)} |- {', '.join(suc)}"


def _text(root: int, lines: list[str]) -> str:
    return "\n".join(["tcp 1", "sig pred p/2, q/1", "theory -", f"root {root}"]
                     + lines) + "\n"


def thread_proof(k: int, rejected: bool = False) -> str:
    """A cyclic pre-proof of  R(a0, b0), ..., R(ak-1, bk-1), q(c) |- q(c), R(c, c).

    A chain of Cut nodes on q(c), from the root 0 down, copies the root into
    one branch per thread. Branch i unfolds R(ai, bi) by RtcCase; the step
    premise weakens p(zi, bi) away and returns to the root through
    Subst [bi := zi]; the equation premise closes by RtcRefl on R(c, c). Each
    of the k basic cycles progresses its own thread, so the pre-proof is
    accepted. The rejected variant adds q(d) to the root and one more branch
    that weakens q(d) and returns through Subst [d := c]: a cycle on which no
    trace progresses.
    """
    threads = [f"{R}(a{i}, b{i})" for i in range(k)]
    root_ant = threads + ["q(c)"] + (["q(d)"] if rejected else [])
    suc = ["q(c)", f"{R}(c, c)"]
    root = _seq(root_ant, suc)
    branches = k + rejected
    cuts = branches - 1
    lines: list[str] = []
    heads: list[int] = []
    for i in range(k):
        case, eq, wl, sub, bud = range(cuts + 5 * i, cuts + 5 * i + 5)
        heads.append(case)
        rest = [f for f in root_ant if f != threads[i]]
        lines += [
            f"node {case} : {root} ; rule=RtcCase ; params={{principal=({threads[i]})"
            f" ; eigenvar=z{i}}} ; premises=[{eq}, {wl}]",
            f"node {eq} : {_seq(rest + [f'a{i} = b{i}'], suc)} ; rule=RtcRefl"
            f" ; params={{principal=({R}(c, c))}} ; premises=[]",
            f"node {wl} : {_seq(rest + [f'{R}(a{i}, z{i})', f'p(z{i}, b{i})'], suc)}"
            f" ; rule=WL ; params={{principal=(p(z{i}, b{i}))}} ; premises=[{sub}]",
            f"node {sub} : {_seq(rest + [f'{R}(a{i}, z{i})'], suc)} ; rule=Subst"
            f" ; params={{subst=[b{i} := z{i}] ; source=({root})}} ; premises=[{bud}]",
            f"node {bud} : {root} ; bud -> 0",
        ]
    if rejected:
        wl, sub, bud = range(cuts + 5 * k, cuts + 5 * k + 3)
        heads.append(wl)
        lines += [
            f"node {wl} : {root} ; rule=WL ; params={{principal=(q(d))}} ; premises=[{sub}]",
            f"node {sub} : {_seq(root_ant[:-1], suc)} ; rule=Subst"
            f" ; params={{subst=[d := c] ; source=({root})}} ; premises=[{bud}]",
            f"node {bud} : {root} ; bud -> 0",
        ]
    for j in range(cuts):
        right = j + 1 if j + 1 < cuts else heads[j + 1]
        lines.append(f"node {j} : {root} ; rule=Cut ; params={{cut=(q(c))}}"
                     f" ; premises=[{heads[j]}, {right}]")
    return _text(0, lines)


def subst_chain(n: int) -> str:
    """An acyclic proof of n nodes: n - 1 Subst steps, each renaming the left
    endpoint of R(vj, w), down to an Axiom."""
    def seq(j):
        return _seq([f"{R}(v{j}, w)"], [f"{R}(v{j}, w)"])
    lines = [f"node {j} : {seq(j)} ; rule=Subst ; params={{subst=[v{j + 1} := v{j}]"
             f" ; source=({seq(j + 1)})}} ; premises=[{j + 1}]" for j in range(n - 1)]
    lines.append(f"node {n - 1} : {seq(n - 1)} ; rule=Axiom ; params={{}} ; premises=[]")
    return _text(0, lines)


def diamond_proof(k: int) -> str:
    """An accepted cyclic proof of  q(a), R(a, b), R(b, c) |- R(a, c), q(a)
    with 3k + 14 nodes and 2^k basic cycles.

    The root reaches the transitivity unfolding through k diamonds of Cut
    nodes on q(a). A Cut on a formula on both sides of its sequent has that
    sequent as both premises, so each diamond is a Cut whose two premises
    are Cuts that both lead to the next level. The unfolding's step premise
    returns to the root through Subst [c := _v0], so every path through the
    diamonds closes its own basic cycle, and each progresses R(b, c).
    """
    def seq(ant: list[str], suc: list[str]) -> str:
        return _seq(["q(a)"] + ant, suc + ["q(a)"])
    root = seq([f"{R}(a, b)", f"{R}(b, c)"], [f"{R}(a, c)"])
    lines: list[str] = []
    for j in range(k):
        top, nxt = 3 * j, 3 * j + 3
        lines.append(f"node {top} : {root} ; rule=Cut ; params={{cut=(q(a))}}"
                     f" ; premises=[{top + 1}, {top + 2}]")
        lines += [f"node {n} : {root} ; rule=Cut ; params={{cut=(q(a))}}"
                  f" ; premises=[{nxt}, {nxt}]" for n in (top + 1, top + 2)]
    case = 3 * k
    eq, wr, wl, ax, step, wp, sub, bud, w1, w2, w3, w4, ax2 = range(case + 1, case + 14)
    rest = [f"{R}(a, b)", f"{R}(b, _v0)"]
    step_ant = ["p(_v0, c)"] + rest
    lines += [
        f"node {case} : {root} ; rule=RtcCase ; params={{principal=({R}(b, c))"
        f" ; eigenvar=_v0}} ; premises=[{eq}, {step}]",
        f"node {eq} : {seq(['b = c', f'{R}(a, b)'], [f'{R}(a, c)'])} ; rule=EqL1"
        f" ; params={{principal=(b = c) ; template=(({R}(a, _h0)), _h0)}} ; premises=[{wr}]",
        f"node {wr} : {seq([f'{R}(a, b)'], [f'{R}(a, b)'])} ; rule=WR"
        f" ; params={{principal=(q(a))}} ; premises=[{wl}]",
        f"node {wl} : {_seq(['q(a)', f'{R}(a, b)'], [f'{R}(a, b)'])} ; rule=WL"
        f" ; params={{principal=(q(a))}} ; premises=[{ax}]",
        f"node {ax} : {_seq([f'{R}(a, b)'], [f'{R}(a, b)'])} ; rule=Axiom"
        f" ; params={{}} ; premises=[]",
        f"node {step} : {seq(step_ant, [f'{R}(a, c)'])} ; rule=RtcStep"
        f" ; params={{principal=({R}(a, c)) ; witness=(_v0)}} ; premises=[{wp}, {w1}]",
        f"node {wp} : {seq(step_ant, [f'{R}(a, _v0)'])} ; rule=WL"
        f" ; params={{principal=(p(_v0, c))}} ; premises=[{sub}]",
        f"node {sub} : {seq(rest, [f'{R}(a, _v0)'])} ; rule=Subst"
        f" ; params={{subst=[c := _v0] ; source=({root})}} ; premises=[{bud}]",
        f"node {bud} : {root} ; bud -> 0",
        f"node {w1} : {seq(step_ant, ['p(_v0, c)'])} ; rule=WR"
        f" ; params={{principal=(q(a))}} ; premises=[{w2}]",
        f"node {w2} : {_seq(['q(a)'] + step_ant, ['p(_v0, c)'])} ; rule=WL"
        f" ; params={{principal=(q(a))}} ; premises=[{w3}]",
        f"node {w3} : {_seq(step_ant, ['p(_v0, c)'])} ; rule=WL"
        f" ; params={{principal=({R}(b, _v0))}} ; premises=[{w4}]",
        f"node {w4} : {_seq(step_ant[:2], ['p(_v0, c)'])} ; rule=WL"
        f" ; params={{principal=({R}(a, b))}} ; premises=[{ax2}]",
        f"node {ax2} : p(_v0, c) |- p(_v0, c) ; rule=Axiom ; params={{}} ; premises=[]",
    ]
    return _text(0, lines)


def loop_below_root(k: int) -> str:
    """A rejected pre-proof whose bad loop hangs k weakenings below the root:
    nodes 0 .. k-1 weaken q(c0), ..., q(ck-1) away, and node k,
    q(a), q(b) |- p(a, a), returns to itself through WL and Subst [b := a]
    with no rtc formula to progress."""
    loop, suc = ["q(a)", "q(b)"], ["p(a, a)"]
    lines = [f"node {j} : {_seq([f'q(c{i})' for i in range(j, k)] + loop, suc)} ; rule=WL"
             f" ; params={{principal=(q(c{j}))}} ; premises=[{j + 1}]" for j in range(k)]
    lines += [
        f"node {k} : {_seq(loop, suc)} ; rule=WL ; params={{principal=(q(b))}}"
        f" ; premises=[{k + 1}]",
        f"node {k + 1} : {_seq(['q(a)'], suc)} ; rule=Subst ; params={{subst=[b := a]"
        f" ; source=({_seq(loop, suc)})}} ; premises=[{k + 2}]",
        f"node {k + 2} : {_seq(loop, suc)} ; bud -> {k}",
    ]
    return _text(0, lines)
