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
