"""The benchmark's own output checks, written without the program's code.

- `ProofShape` reads the node structure of a .tcp file (ids, premises,
  buds) and counts basic cycles of its flow graph, with each bud edge sent
  on to the bud's companion, as the checker defines them.
- `parse_model` reads a printed counter-model and valuation, and `holds`
  evaluates the generator's formula tuples (see gen.py) in it, with rtc
  decided by breadth-first reachability.
- `verify_*` compare one command's output with the known answer and return
  a list of problems, empty when the output is right.
"""

from __future__ import annotations

import re
from collections import deque

import gen

_NODE = re.compile(r"^node\s+(\d+)\s*:")
_BUD = re.compile(r";\s*bud\s*->\s*(\d+)\s*$")
_PREMISES = re.compile(r";\s*premises=\[([\d,\s]*)\]\s*$")


class ProofShape:
    """Root, premise lists and bud companions of a .tcp text."""

    def __init__(self, text: str):
        self.root = None
        self.children: dict[int, tuple[int, ...]] = {}
        self.companion: dict[int, int] = {}
        for line in text.splitlines():
            line = line.strip()
            if line.startswith("root"):
                self.root = int(line.split()[1])
            m = _NODE.match(line)
            if not m:
                continue
            nid = int(m.group(1))
            bud = _BUD.search(line)
            if bud:
                self.companion[nid] = int(bud.group(1))
                self.children[nid] = ()
                continue
            prem = _PREMISES.search(line)
            if prem is None:
                raise ValueError(f"node {nid}: no premise list")
            self.children[nid] = tuple(int(x) for x in prem.group(1).replace(",", " ").split())

    def flow_edges(self) -> dict[int, list[int]]:
        succ: dict[int, list[int]] = {}
        for nid, kids in self.children.items():
            if nid in self.companion:
                continue
            succ[nid] = sorted({self.companion.get(c, c) for c in kids})
        return succ

    def flow_root(self) -> int:
        return self.companion.get(self.root, self.root)

    def basic_cycles(self) -> list[tuple[int, ...]]:
        """Every simple cycle, each found once from its smallest node."""
        succ = self.flow_edges()
        out = []
        for start in sorted(succ):
            stack = [(start, (start,))]
            while stack:
                node, path = stack.pop()
                for nxt in succ.get(node, ()):
                    if nxt == start:
                        out.append(path)
                    elif nxt > start and nxt not in path:
                        stack.append((nxt, path + (nxt,)))
        return out

    def is_walk(self, walk: list[int]) -> bool:
        succ = self.flow_edges()
        return all(b in succ.get(a, ()) for a, b in zip(walk, walk[1:]))


def cycles_overlap(cycles: list[tuple[int, ...]]) -> bool:
    seen: set[int] = set()
    for cyc in cycles:
        if seen & set(cyc):
            return True
        seen |= set(cyc)
    return False


# ---------------------------------------------------------------------------
# Finite models

class Model:
    def __init__(self, size: int):
        self.size = size
        self.consts: dict[str, int] = {}
        self.fns: dict[str, list[int]] = {}
        self.preds: dict[str, set[tuple[int, ...]]] = {}


_TUPLE = re.compile(r"\(([\d,\s]*)\)")


def parse_model(lines: list[str]) -> tuple[Model, dict[str, int]]:
    """Read 'model { ... }' and an optional 'valuation { ... }' line."""
    body = lines[0].strip()
    if not (body.startswith("model {") and body.endswith("}")):
        raise ValueError(f"not a model line: {body!r}")
    parts = [p.strip() for p in body[len("model {"):-1].split(";") if p.strip()]
    model = None
    for part in parts:
        key, _, value = part.partition("=")
        key, value = key.split(), value.strip()
        if key == ["size"]:
            model = Model(int(value))
        elif key[0] == "const":
            model.consts[key[1]] = int(value)
        elif key[0] == "fn":
            model.fns[key[1]] = [int(x) for x in value.strip("[] ").split(",") if x.strip()]
        elif key[0] == "pred":
            model.preds[key[1]] = {tuple(int(x) for x in m.replace(",", " ").split())
                                   for m in _TUPLE.findall(value)}
        else:
            raise ValueError(f"unknown model part {part!r}")
    valuation: dict[str, int] = {}
    for line in lines[1:]:
        line = line.strip()
        if line.startswith("valuation {") and line.endswith("}"):
            for item in line[len("valuation {"):-1].split(","):
                if item.strip():
                    name, _, val = item.partition("=")
                    valuation[name.strip()] = int(val)
    return model, valuation


def _term(t, m: Model, v: dict[str, int]) -> int:
    if t[0] == "v":
        return v[t[1]] if t[1] in v else m.consts[t[1]]
    args = tuple(_term(a, m, v) for a in t[2])
    index = 0
    for a in args:                      # row-major over argument tuples
        index = index * m.size + a
    return m.fns[t[1]][index]


def holds(f, m: Model, v: dict[str, int]) -> bool:
    tag = f[0]
    if tag == "p":
        return tuple(_term(a, m, v) for a in f[2]) in m.preds[f[1]]
    if tag == "eq":
        return _term(f[1], m, v) == _term(f[2], m, v)
    if tag == "not":
        return not holds(f[1], m, v)
    if tag == "and":
        return holds(f[1], m, v) and holds(f[2], m, v)
    if tag == "or":
        return holds(f[1], m, v) or holds(f[2], m, v)
    if tag == "imp":
        return not holds(f[1], m, v) or holds(f[2], m, v)
    if tag == "all":
        return all(holds(f[2], m, {**v, f[1]: a}) for a in range(m.size))
    if tag == "ex":
        return any(holds(f[2], m, {**v, f[1]: a}) for a in range(m.size))
    if tag == "rtc":
        _, x, y, body, s, t = f
        src, dst = _term(s, m, v), _term(t, m, v)
        seen, queue = {src}, deque([src])
        while queue:
            u = queue.popleft()
            for w in range(m.size):
                if w not in seen and holds(body, m, {**v, x: u, y: w}):
                    seen.add(w)
                    queue.append(w)
        return dst in seen
    raise ValueError(f"unknown formula tag {tag!r}")


def falsifies(ant, suc, m: Model, v: dict[str, int]) -> bool:
    return all(holds(f, m, v) for f in ant) and not any(holds(f, m, v) for f in suc)


# ---------------------------------------------------------------------------
# Output checks

_ACCEPTED = re.compile(r"^accepted; (\d+) basic cycles?; (normal|overlapping)$")
_REJECTED = re.compile(r"^rejected; witness period: \[([\d,\s]*)\]; prefix: \[([\d,\s]*)\]$")


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.replace(",", " ").split()]


def verify_check(out: str, code: int, proof_text: str, verdict: str,
                 cycles: int | None) -> list[str]:
    """Known verdict and cycle count; cycles and walks against the file's shape."""
    lines = out.strip().splitlines()
    last = lines[-1] if lines else ""
    shape = ProofShape(proof_text)
    problems = []
    if verdict == "accepted":
        m = _ACCEPTED.match(last)
        if code != 0 or not m:
            return [f"expected accepted, got exit {code}: {last!r}"]
        own = shape.basic_cycles()
        if cycles is not None and int(m.group(1)) != cycles:
            problems.append(f"{m.group(1)} basic cycles, generator built {cycles}")
        if int(m.group(1)) != len(own):
            problems.append(f"{m.group(1)} basic cycles, the file has {len(own)}")
        if (m.group(2) == "overlapping") != cycles_overlap(own):
            problems.append(f"reported {m.group(2)} cycles")
        return problems
    m = _REJECTED.match(last)
    if code != 1 or not m:
        return [f"expected rejected, got exit {code}: {last!r}"]
    period, prefix = _ints(m.group(1)), _ints(m.group(2))
    if len(period) < 2 or period[0] != period[-1] or not shape.is_walk(period):
        problems.append(f"witness period {period} is not a closed walk")
    if not prefix or prefix[0] != shape.flow_root() or prefix[-1] != period[0] \
            or not shape.is_walk(prefix):
        problems.append(f"witness prefix {prefix} is not a walk from the root")
    return problems


def verify_model(lines: list[str], goal) -> list[str]:
    """A printed counter-model falsifies the goal at its minimal size."""
    try:
        model, valuation = parse_model(lines)
    except (ValueError, IndexError, AttributeError) as exc:
        return [f"unreadable counter-model: {exc}"]
    missing = gen.symbols(goal.ant + goal.suc)[0] - set(valuation) - set(model.consts)
    if missing:
        return [f"valuation misses {sorted(missing)}"]
    problems = []
    try:
        if not falsifies(goal.ant, goal.suc, model, valuation):
            problems.append("printed model does not falsify the goal")
    except (KeyError, IndexError) as exc:
        problems.append(f"model lacks a symbol or value: {exc}")
    if model.size != goal.min_size:
        problems.append(f"model of size {model.size}, smallest is {goal.min_size}")
    return problems

