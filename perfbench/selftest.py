"""Self-test of the input generator and the output checker.

    python3 perfbench/selftest.py

Needs neither the program nor its source: it checks the generator's answers
with the benchmark's own code only. Exits 1 and names every failed check.
"""

from __future__ import annotations

import itertools
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import gen  # noqa: E402
import oracle  # noqa: E402

RECURSION_SAFE_NODES = 330
MAX_STRUCTURES = 100_000

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    if not cond:
        failures.append(what)


def structures(size: int, preds: dict, fns: dict):
    """Every model of the given size over the symbols, in no special order."""
    pred_choices = []
    for name, ar in sorted(preds.items()):
        tuples = list(itertools.product(range(size), repeat=ar))
        pred_choices.append([(name, {t for i, t in enumerate(tuples) if mask >> i & 1})
                             for mask in range(2 ** len(tuples))])
    fn_choices = [[(name, list(table))
                   for table in itertools.product(range(size), repeat=size ** ar)]
                  for name, ar in sorted(fns.items())]
    for combo in itertools.product(*pred_choices, *fn_choices):
        m = oracle.Model(size)
        for name, table in combo:
            (m.preds if isinstance(table, set) else m.fns)[name] = table
        yield m


def count_structures(size: int, preds: dict, fns: dict) -> int:
    n = 1
    for ar in preds.values():
        n *= 2 ** (size ** ar)
    for ar in fns.values():
        n *= size ** (size ** ar)
    return n


def has_counter_model(goal, size: int) -> bool:
    variables, preds, fns = gen.symbols(goal.ant + goal.suc)
    names = sorted(variables)
    for m in structures(size, preds, fns):
        for vals in itertools.product(range(size), repeat=len(names)):
            if oracle.falsifies(goal.ant, goal.suc, m, dict(zip(names, vals))):
                return True
    return False


def test_check_inputs() -> None:
    with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2, \
            tempfile.TemporaryDirectory() as d3:
        a = gen.check_inputs(5, d1, gen_root())
        b = gen.check_inputs(5, d2, gen_root())
        c = gen.check_inputs(6, d3, gen_root())
        text = lambda inp: open(inp.path, encoding="utf-8").read()  # noqa: E731
        expect([text(x) for x in a] == [text(x) for x in b], "same seed, same check inputs")
        by_name = {x.name: x for x in c}
        for x in a:
            if x.path.startswith(d1):
                other = text(by_name[x.name])
                expect(text(x) != other, f"{x.name}: seeds 5 and 6 give the same text")
                expect(len(oracle.ProofShape(text(x)).children)
                       == len(oracle.ProofShape(other).children),
                       f"{x.name}: node count depends on the seed")
            shape = oracle.ProofShape(text(x))
            expect(len(shape.children) < RECURSION_SAFE_NODES,
                   f"{x.name}: {len(shape.children)} nodes reach the recursion fault")
            cycles = shape.basic_cycles()
            if x.cycles is not None:
                expect(len(cycles) == x.cycles,
                       f"{x.name}: {len(cycles)} basic cycles, generator recorded {x.cycles}")
            if not x.path.startswith(d1):
                continue
            if x.name.startswith("threads"):
                k = int(x.name[len("threads"):].split("_")[0])
                want = k + (1 if x.verdict == "rejected" else 0)
                expect(len(cycles) == want and oracle.cycles_overlap(cycles),
                       f"{x.name}: expected {want} overlapping cycles")
            if x.name.startswith("chain"):
                expect(len(shape.children) == int(x.name[len("chain"):]) and not cycles,
                       f"{x.name}: not an acyclic chain of its length")


def gen_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_suffixes() -> None:
    keywords = {"forall", "exists", "rtc", "bot", "top"}
    names = {"p", "q", "r", "s", "a", "b", "c", "d", "e", "n", "v", "w", "z"}
    for seed in range(300):
        sx = gen._suffix(gen.random.Random(seed))
        expect(not {n + sx for n in names} & keywords, f"seed {seed}: suffix {sx} makes a keyword")


def test_goals() -> None:
    for command in ("prove", "refute"):
        a, b = gen.goal_inputs(command, 5), gen.goal_inputs(command, 5)
        expect([g.text for g in a] == [g.text for g in b], f"{command}: same seed, same goals")
        c = {g.name: g for g in gen.goal_inputs(command, 6)}
        for g in a:
            expect(g.text != c[g.name].text, f"{command} {g.name}: seed does not matter")
            if g.theory:
                continue
            _, preds, fns = gen.symbols(g.ant + g.suc)
            if g.status == "valid":
                for size in (1, 2):
                    expect(not has_counter_model(g, size),
                           f"{command} {g.name}: valid goal falsified at size {size}")
                continue
            for size in range(1, g.min_size):
                expect(not has_counter_model(g, size),
                       f"{command} {g.name}: counter-model below size {g.min_size}")
            if count_structures(g.min_size, preds, fns) <= MAX_STRUCTURES:
                expect(has_counter_model(g, g.min_size),
                       f"{command} {g.name}: no counter-model of size {g.min_size}")


def test_oracle() -> None:
    with tempfile.TemporaryDirectory() as d:
        inputs = {x.name: x for x in gen.check_inputs(7, d, gen_root())}
        good = inputs["threads3"]
        text = open(good.path, encoding="utf-8").read()
        ok = "accepted; 3 basic cycles; overlapping\n"
        expect(not oracle.verify_check(ok, 0, text, "accepted", 3), "good accepted output")
        expect(oracle.verify_check(ok.replace("3 basic", "2 basic"), 0, text, "accepted", 3),
               "wrong cycle count passes")
        expect(oracle.verify_check(ok.replace("overlapping", "normal"), 0, text,
                                   "accepted", 3), "wrong normality passes")
        expect(oracle.verify_check(ok, 1, text, "rejected", None), "accepted passes as rejected")
        bad = inputs["threads3_bad"]
        text = open(bad.path, encoding="utf-8").read()
        shape = oracle.ProofShape(text)
        cycle = shape.basic_cycles()[0]
        root = shape.flow_root()
        loop = list(cycle[cycle.index(root):] + cycle[:cycle.index(root)]) + [root]
        out = f"rejected; witness period: {loop}; prefix: [{root}]\n"
        expect(not oracle.verify_check(out, 1, text, "rejected", None), "good witness")
        broken = loop[:-2] + [loop[-1]] if len(loop) > 2 else loop + [loop[0]]
        out = f"rejected; witness period: {broken}; prefix: [{root}]\n"
        expect(oracle.verify_check(out, 1, text, "rejected", None), "broken walk passes")
    goal = next(g for g in gen.goal_inputs("refute", 1) if g.name == "bad_atom")
    q = next(f[1] for f in goal.ant)
    a, b = goal.ant[0][2][0][1], goal.suc[0][2][0][1]
    model = f"model {{ size = 2; pred {q} = {{ (0) }}; }}"
    expect(not oracle.verify_model([model, f"valuation {{ {a} = 0, {b} = 1 }}"], goal),
           "good counter-model")
    expect(oracle.verify_model([model, f"valuation {{ {a} = 1, {b} = 1 }}"], goal),
           "non-falsifying valuation passes")
    model3 = f"model {{ size = 3; pred {q} = {{ (0) }}; }}"
    expect(oracle.verify_model([model3, f"valuation {{ {a} = 0, {b} = 1 }}"], goal),
           "non-minimal model passes")
    orbit = next(g for g in gen.goal_inputs("refute", 1) if g.name == "bad_orbit4")
    variables, _, s = gen.symbols(orbit.ant)
    names = sorted(variables)
    model = f"model {{ size = 4; fn {next(iter(s))} = [0, 0, 1, 2]; }}"
    vals = f"valuation {{ {names[0]} = 3, {names[1]} = 0 }}"
    expect(not oracle.verify_model([model, vals], orbit), "good function counter-model")


def main() -> int:
    for test in (test_check_inputs, test_suffixes, test_goals, test_oracle):
        test()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
