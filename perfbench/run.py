"""Benchmark of `rtcproof check`, `prove` and `refute`, run in-process.

    python3 perfbench/run.py --workload check --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Each operation goes through `rtcproof.cli.main`, the code path of
the command line, with its output captured and checked. Times are reported
in reference units (`ref`): operation time divided by the time of a fixed
pure-Python loop sampled around the operations, which cancels most of the
drift in a shared machine's speed. `--trace 1` runs the traced
passes instead and reports per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("check", "prove", "refute")
SETUP_RUNS = 5
CHUNK_TREES = 3
CHUNKS_PER_REF = 100
REF_SHARE = 0.10          # reference-loop time per second of operation time
MIN_CHUNKS = 4            # reference-loop chunks after every operation, at least
SETUP_CODE = "import rtcproof.cli as c; c.build_parser()"
HASH_SEED = "0"

sys.path.insert(0, HERE)
import gen  # noqa: E402
import oracle  # noqa: E402
from spans import Tracer  # noqa: E402


@dataclass(frozen=True)
class _Node:
    tag: str
    kids: tuple


def _tree(depth: int, i: int) -> _Node:
    if depth == 0:
        return _Node(f"v{i & 7}", ())
    return _Node(("and", "or", "imp", "rtc")[depth & 3],
                 (_tree(depth - 1, 2 * i), _tree(depth - 1, 2 * i + 1)))


def _key(n: _Node, env: dict) -> str:
    match n:
        case _Node(tag, ()):
            return f"(b {env[tag]})" if tag in env else f"(v {tag})"
        case _Node("rtc", (left, right)):
            return f"(rtc {_key(left, {**env, 'v0': len(env)})} {_key(right, env)})"
        case _Node(tag, kids):
            return f"({tag} {' '.join(_key(k, env) for k in kids)})"


def ref_chunk() -> float:
    """Seconds for one chunk of the reference loop, with the garbage
    collector paused: build small frozen-dataclass trees, print them to
    canonical keys by recursion and f-strings, then dict, set and sort
    work. It does the kinds of work the program does, on its own data, so
    changes in the machine's speed hit both alike; a tight arithmetic loop
    was tried and tracked the program's speed worse. One reference unit
    (`ref`) is CHUNKS_PER_REF chunks."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        seen: dict = {}
        for r in range(CHUNK_TREES):
            tree = _tree(5, r)
            key = _key(tree, {})
            seen.setdefault(key, tree)
            parts = sorted(set(key.split(" ")))
            seen[parts[0]] = len(parts)
        elapsed = time.perf_counter() - start
        if len(seen) < 2:
            raise AssertionError("reference loop did no work")
        return elapsed
    finally:
        if was_enabled:
            gc.enable()


class RefClock:
    """Samples the reference loop around every operation: MIN_CHUNKS chunks
    at least, more after long operations (REF_SHARE of their time), so that
    the samples of a pass cover the same stretch of time as its work. A
    shared machine's speed can change within a second, so each verdict is
    divided by the chunks just before and just after it, and each pass by
    all chunks of the pass."""

    def __init__(self):
        self.nominal = statistics.median(ref_chunk() for _ in range(20))

    def sample(self, op_seconds: float = 0.0) -> list[float]:
        count = max(MIN_CHUNKS, round(op_seconds * REF_SHARE / self.nominal))
        return [ref_chunk() for _ in range(count)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("PYTHONSTARTUP", None)
    return env


def cold_start(extra: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *extra, "-c", SETUP_CODE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)


def measure_setup() -> float:
    """Median wall time of fresh interpreters importing the CLI and building
    its parser."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = cold_start([])
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
    return statistics.median(times)


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+networkx$")


def measure_networkx_import() -> float:
    """Median seconds the cold start spends importing networkx (0 if it does not)."""
    values = []
    for _ in range(SETUP_RUNS):
        proc = cold_start(["-X", "importtime"])
        if proc.returncode != 0:
            raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-300:]}")
        found = [int(m.group(1)) for m in map(_IMPORTTIME.search, proc.stderr.splitlines()) if m]
        values.append(found[0] / 1e6 if found else 0.0)
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Operations

class Workload:
    """The inputs of one workload and the checks of their outputs."""

    def __init__(self, name: str, seed: int, workdir: str):
        self.name = name
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        if name == "check":
            self.inputs = gen.check_inputs(seed, workdir, ROOT)
            self.texts = {}
            for inp in self.inputs:
                with open(inp.path, encoding="utf-8") as fh:
                    self.texts[inp.name] = fh.read()
            self.argvs = [["check", inp.path] for inp in self.inputs]
        else:
            self.inputs = gen.goal_inputs(name, seed)
            self.argvs = [g.argv(name) for g in self.inputs]
        self._verified: dict[int, tuple[int, str]] = {}

    def verify(self, i: int, code: int, out: str, main) -> list[str]:
        """Problems with operation i's output; the full check runs once per
        distinct output, later passes must repeat it."""
        if self._verified.get(i) == (code, out):
            return []
        inp = self.inputs[i]
        try:
            if self.name == "check":
                problems = oracle.verify_check(out, code, self.texts[inp.name],
                                               inp.verdict, inp.cycles)
            elif self.name == "prove":
                problems = self._verify_prove(inp, code, out, main)
            else:
                problems = self._verify_refute(inp, code, out)
        except Exception as exc:  # output so malformed that checking it failed
            problems = [f"checking the output raised {type(exc).__name__}: {exc}"]
        if not problems:
            self._verified[i] = (code, out)
        return [f"{self.name} {inp.name}: {p}" for p in problems]

    def _verify_refute(self, goal, code: int, out: str) -> list[str]:
        lines = out.strip().splitlines()
        if goal.status == "valid":
            want = f"no counter-model up to size {goal.model_size} (not a validity proof)"
            if code != 2 or lines != [want]:
                return [f"valid goal: expected {want!r}, got exit {code}: {out[:200]!r}"]
            return []
        if code != 1:
            return [f"invalid goal: expected a counter-model, got exit {code}: {out[:200]!r}"]
        return oracle.verify_model(lines, goal)

    def _verify_prove(self, goal, code: int, out: str, main) -> list[str]:
        lines = out.splitlines()
        if goal.status == "invalid":
            if code != 1 or not lines or lines[0] != "refuted; counter-model found:":
                return [f"invalid goal: expected a refutation, got exit {code}: {out[:200]!r}"]
            return oracle.verify_model(lines[1:], goal)
        head = re.match(r"^proved; (\d+) nodes; (\d+) cycle\(s\)$", lines[0] if lines else "")
        if code != 0 or not head:
            return [f"valid goal: expected a proof, got exit {code}: {out[:200]!r}"]
        proof = "\n".join(lines[1:]) + "\n"
        shape = oracle.ProofShape(proof)
        problems = []
        if int(head.group(1)) != len(shape.children):
            problems.append(f"header says {head.group(1)} nodes, proof has {len(shape.children)}")
        if int(head.group(2)) != len(shape.basic_cycles()):
            problems.append(f"header says {head.group(2)} cycles")
        path = os.path.join(self.workdir, f"proof-{goal.name}.tcp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(proof)
        problems += self._same_goal(goal, proof)
        argv = ["check", path] + (["--theory", goal.theory] if goal.theory else [])
        code2, out2 = run_captured(main, argv)
        if code2 != 0 or not out2.startswith("accepted"):
            problems.append(f"check does not accept the proof: exit {code2}: {out2[:200]!r}")
        return problems

    @staticmethod
    def _same_goal(goal, proof: str) -> list[str]:
        from rtcproof.prooffile import load_theory, parse_proof
        from rtcproof.syntax import Signature, parse_sequent_infer
        base = Signature.make()
        if goal.theory:
            base = base.merge(load_theory(goal.theory).signature)
        want, _ = parse_sequent_infer(goal.text, base)
        got = parse_proof(proof).graph.end_sequent()
        return [] if got == want else [f"end sequent {got} is not the goal"]


def run_captured(main, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, buf.getvalue()


def run_pass(work: Workload, main, clock: RefClock, tracer: Tracer | None, first_op: int):
    """One pass over every input: per-operation seconds, the reference-loop
    chunks sampled before the first operation and after each one, and the
    outputs."""
    times, outputs = [], []
    chunks = [clock.sample()]
    for i, argv in enumerate(work.argvs):
        buf, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = main(argv)
                else:
                    code = tracer.operation(first_op + i, main, argv)
        except Exception as exc:  # a crash is a failed operation, not a verdict
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - start)
        outputs.append((code, buf.getvalue(), err.getvalue()))
        chunks.append(clock.sample(times[-1]))
    return times, chunks, outputs


# ---------------------------------------------------------------------------
# Runs

def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, work: Workload, main):
        self.work, self.main = work, main
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.failures: list[str] = []
        self.clock = RefClock()
        self.passes: list[dict] = []

    def one_pass(self, kind: str, tracer: Tracer | None = None) -> dict:
        if tracer is not None:
            tracer.install(counting=kind == "counted")
        try:
            times, chunks, outputs = run_pass(self.work, self.main, self.clock, tracer,
                                              self.attempted)
        finally:
            if tracer is not None:
                tracer.uninstall()
        ref = statistics.mean(c for group in chunks for c in group) * CHUNKS_PER_REF
        op_refs = [statistics.mean(before + after) * CHUNKS_PER_REF
                   for before, after in zip(chunks, chunks[1:])]
        for i, (code, out, err) in enumerate(outputs):
            self.attempted += 1
            if code is None or code == 3:
                self.failed += 1
                self.failures.append(f"{self.work.inputs[i].name}: exit {code} {err.strip()[-200:]}")
            else:
                self.problems += self.work.verify(i, code, out, self.main)
        record = {"kind": kind, "seconds": sum(times), "ref_s": ref, "op_seconds": times,
                  "op_ref_s": op_refs, "chunks": chunks}
        self.passes.append(record)
        return record


def end_to_end(run: Run, seconds: float, start: float) -> dict:
    while True:
        run.one_pass("plain")
        if time.perf_counter() - start >= seconds and run.attempted >= 100:
            break
    ratios = [p["seconds"] / p["ref_s"] for p in run.passes]
    verdicts = [t / r for p in run.passes for t, r in zip(p["op_seconds"], p["op_ref_s"])]
    if len(verdicts) < 100:
        run.problems.append(f"only {len(verdicts)} verdicts; p90 needs 100")
    return {
        "pass_ref": (statistics.median(ratios), "ref"),
        "verdict_p50_ref": (statistics.median(verdicts), "ref"),
        "verdict_p90_ref": (quantile(verdicts, 90), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(run: Run, seconds: float, start: float, spans_path: str) -> dict:
    """Cycles of an untraced pass, a span pass and a count-only pass."""
    span_passes, count_passes, plain = [], [], []
    while True:
        record = run.one_pass("plain")
        plain.append(record["seconds"] / record["ref_s"])
        for counting, sink in ((False, span_passes), (True, count_passes)):
            tracer = Tracer()
            record = run.one_pass("counted" if counting else "traced", tracer)
            sink.append((record, tracer))
        if time.perf_counter() - start >= seconds:
            break
    write_spans(spans_path, span_passes[0][1])
    n = len(span_passes)
    layer = {k: 0.0 for k in span_passes[0][1].self_times()[0]}
    by_name: dict[str, float] = {}
    calls: dict[str, float] = {}
    ops_s = 0.0
    for record, tracer in span_passes:
        by_layer, names, root_s = tracer.self_times()
        accounted = sum(by_layer.values())
        if abs(accounted - root_s) > 1e-6 * max(1.0, root_s):
            run.problems.append(f"layer self times {accounted} != operation time {root_s}")
        for k, v in by_layer.items():
            layer[k] += v / n
        for k, v in names.items():
            by_name[k] = by_name.get(k, 0.0) + v / n
        for k, v in {**tracer.calls, **tracer.counts}.items():
            calls[k] = calls.get(k, 0) + v / n
        ops_s += root_s / n
    counts = count_passes[0][1].counts
    for _, other in count_passes[1:]:
        if other.counts != counts:
            run.problems.append("count-only passes disagree; the program is not deterministic")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced_ref = statistics.mean(r["seconds"] / r["ref_s"] for r, _ in span_passes)
    m = {
        "cli.self_s": (layer["cli"], "s"),
        "syntax.key_calls": (counts["syntax.key"], "count"),
        "syntax.substitute_calls": (counts["syntax.substitute"], "count"),
        "prooffile.parse_s": (by_name.get("prooffile.parse", 0.0), "s"),
        "prooffile.nodes_per_s": (ratio(calls.get("prooffile.nodes", 0),
                                        by_name.get("prooffile.parse", 0.0)), "1/s"),
        "prooffile.serialize_s": (by_name.get("prooffile.serialize", 0.0), "s"),
        "kernel.check_calls": (calls.get("kernel.check", 0), "count"),
        "kernel.check_s": (by_name.get("kernel.check", 0.0), "s"),
        "kernel.instance_calls": (calls.get("kernel.instance", 0), "count"),
        "kernel.instance_s": (by_name.get("kernel.instance", 0.0), "s"),
        "kernel.instance_yield": (ratio(calls.get("kernel.instance_returned", 0),
                                        calls.get("kernel.instance", 0)), "ratio"),
        "kernel.match_calls": (calls.get("kernel.match", 0), "count"),
        "kernel.match_s": (by_name.get("kernel.match", 0.0), "s"),
        "proofgraph.validate_calls": (calls.get("proofgraph.validate", 0), "count"),
        "proofgraph.validate_s": (layer["proofgraph"], "s"),
        "tracecheck.closure_calls": (calls.get("tracecheck.closure", 0), "count"),
        "tracecheck.closure_s": (by_name.get("tracecheck.closure", 0.0), "s"),
        "tracecheck.compose_in_closure": (counts["tracecheck.compose_in_closure"], "count"),
        "tracecheck.compose_in_search": (counts["tracecheck.compose_in_search"], "count"),
        "tracecheck.cycles_calls": (calls.get("tracecheck.cycles", 0), "count"),
        "tracecheck.cycles_s": (by_name.get("tracecheck.cycles", 0.0), "s"),
        "tracecheck.flow_edges_calls": (calls.get("tracecheck.flow_edges", 0), "count"),
        "prover.self_s": (layer["prover"], "s"),
        "prover.moves": (counts["prover.moves"], "count"),
        "prover.candidates": (counts["prover.candidates"], "count"),
        "prover.candidate_yield": (ratio(counts["prover.proofs"],
                                         counts["prover.candidates"]), "ratio"),
        "prover.proof_nodes": (counts["prover.proof_nodes"], "count"),
        "semantics.search_calls": (calls.get("semantics.search", 0), "count"),
        "semantics.search_s": (layer["semantics"], "s"),
        "semantics.structures": (counts["semantics.structures"], "count"),
        "semantics.structures_per_s": (ratio(counts["semantics.structures"],
                                             layer["semantics"]), "1/s"),
        "setup.networkx_s": (measure_networkx_import(), "s"),
        "trace.ops_s": (ops_s, "s"),
        "trace.overhead": (traced_ref / statistics.mean(plain) - 1, "ratio"),
    }
    return m


def write_spans(path: str, tracer: Tracer) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for name, layer, start, end, parent, op in tracer.spans:
            fh.write(json.dumps([name, round(start, 7), round(end, 7), parent, op]) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashes are salted per process and the program keys its
        # tables by formula strings, so the salt moves a process's speed by
        # a few percent. Fix it, as one would fix a link order.
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])

    if not os.path.isfile(os.path.join(SRC, "rtcproof", "cli.py")):
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import rtcproof.cli
    if not os.path.abspath(rtcproof.cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported rtcproof from {rtcproof.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT_DIR, f"inputs-{tag}-{os.getpid()}")
    try:
        setup_s = measure_setup() if not args.trace else None
        work = Workload(args.workload, args.seed, workdir)
        run = Run(work, rtcproof.cli.main)
        start = time.perf_counter()
        if args.trace:
            metrics = traced(run, args.seconds, start, os.path.join(OUT_DIR, f"{tag}.spans.jsonl.gz"))
        else:
            metrics = end_to_end(run, args.seconds, start)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "inputs": [inp.name for inp in work.inputs],
               "ref_chunk_s": run.clock.nominal, "passes": run.passes,
               "problems": run.problems[:50], "failures": run.failures[:50]}
    with open(os.path.join(OUT_DIR, f"{tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**details, "metrics": metrics}, fh, indent=1)
    for p in run.problems[:20] + run.failures[:20]:
        print(p, file=sys.stderr)
    result = {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
