"""Command-line front end.

Commands: check, prove, refute, translate-ind, translate-beta, render.
Exit codes: 0 success / verdict positive; 1 verdict negative (invalid proof,
counter-model found, refutation exists); 2 unknown / budget exceeded;
3 usage or I/O error; 4 internal error (a bug: any other exception, reported
as one `internal error: <Type>: <message>` line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import BudgetExceeded, RtcError
from .prooffile import (ProofFile, TheoryFile, load_theory, parse_proof,
                        serialize_proof)
from .proofgraph import validate_structure
from .prover import Proved, Refuted, SearchConfig, prove
from .render import to_dot, to_latex
from .semantics import find_counter_model
from .syntax import (Signature, parse_formula_infer, parse_sequent_infer,
                     pretty)
from .tracecheck import (MAX_CYCLES, check_global_trace_condition,
                         enumerate_basic_cycles, is_non_overlapping)
from .translate import (ARITH_SIGNATURE, BetaConfig, beta_translate,
                        explicit_to_cyclic)

EXIT_OK, EXIT_NEGATIVE, EXIT_UNKNOWN, EXIT_USAGE, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _read_input(arg: str) -> str:
    if arg.startswith("@"):
        with open(arg[1:], encoding="utf-8") as fh:
            return fh.read().strip()
    return arg


def _write_output(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_NO_THEORY = TheoryFile(None, Signature.make(), ())


def _load_valid_proof(args) -> ProofFile | None:
    """The proof file, validated under the theory of --theory or else of the
    file; None after printing the faults found."""
    with open(args.proof, encoding="utf-8") as fh:
        pf = parse_proof(fh.read())
    name = args.theory or pf.theory_name
    theory = load_theory(name) if name else _NO_THEORY
    errors = validate_structure(pf.graph, theory.axioms,
                                pf.signature.merge(theory.signature))
    for e in errors:
        print(e)
    return None if errors else pf


def _parse_goal(args):
    """The goal sequent, the signature it is read under, and the theory of
    --theory, if any."""
    theory = load_theory(args.theory) if args.theory else _NO_THEORY
    goal, sig = parse_sequent_infer(_read_input(args.goal), theory.signature)
    return goal, sig, theory


def _print_model(model, valuation) -> None:
    print(model.dump())
    if valuation:
        vals = ", ".join(f"{k} = {v}" for k, v in sorted(valuation.items()))
        print(f"valuation {{ {vals} }}")


def cmd_check(args) -> int:
    pf = _load_valid_proof(args)
    if pf is None:
        print("invalid")
        return EXIT_NEGATIVE
    report = check_global_trace_condition(pf.graph)
    if report.verdict == "indeterminate":
        print(f"indeterminate: {report.detail}")
        return EXIT_UNKNOWN
    if report.accepted:
        try:
            count = len(enumerate_basic_cycles(pf.graph))
            cycles = f"{count} basic cycle{'' if count == 1 else 's'}"
        except BudgetExceeded:
            # the verdict stands; only the count is out of reach
            cycles = f"more than {MAX_CYCLES} basic cycles"
        normal = is_non_overlapping(pf.graph)
        print(f"accepted; {cycles}; {'normal' if normal else 'overlapping'}")
        if args.normal and not normal:
            return EXIT_NEGATIVE
        return EXIT_OK
    print(f"rejected; witness period: {list(report.witness_period)};"
          f" prefix: {list(report.witness_prefix)}")
    return EXIT_NEGATIVE


def cmd_prove(args) -> int:
    goal, sig, theory = _parse_goal(args)
    cfg = SearchConfig(max_depth=args.depth, max_nodes=args.max_nodes,
                       theory=theory.axioms, sig=sig, refute_size=args.model_size)
    outcome = prove(goal, cfg)
    if isinstance(outcome, Proved):
        text = serialize_proof(ProofFile(outcome.graph, sig, theory.name))
        cycles = enumerate_basic_cycles(outcome.graph)
        print(f"proved; {len(outcome.graph.nodes)} nodes; {len(cycles)} cycle(s)")
        _write_output(text, args.out)
        return EXIT_OK
    if isinstance(outcome, Refuted):
        print("refuted; counter-model found:")
        _print_model(outcome.model, outcome.valuation)
        return EXIT_NEGATIVE
    print(f"unknown ({outcome.reason})")
    return EXIT_UNKNOWN


def cmd_refute(args) -> int:
    goal, sig, theory = _parse_goal(args)
    try:
        found = find_counter_model(goal, args.model_size, theory.axioms, sig)
    except BudgetExceeded as exc:
        print(f"unknown (budget): {exc}")
        return EXIT_UNKNOWN
    if found is None:
        print(f"no counter-model up to size {args.model_size}"
              " (not a validity proof)")
        return EXIT_UNKNOWN
    _print_model(*found)
    return EXIT_NEGATIVE


def cmd_translate_ind(args) -> int:
    pf = _load_valid_proof(args)
    if pf is None:
        return EXIT_NEGATIVE
    out = explicit_to_cyclic(pf.graph, pf.signature.constants)
    _write_output(serialize_proof(ProofFile(out, pf.signature, pf.theory_name)),
                  args.out)
    return EXIT_OK


def cmd_translate_beta(args) -> int:
    formula, _ = parse_formula_infer(_read_input(args.formula), ARITH_SIGNATURE)
    cfg = BetaConfig()
    if args.beta_template:
        tmpl, _ = parse_formula_infer(_read_input("@" + args.beta_template), ARITH_SIGNATURE)
        cfg = BetaConfig(tmpl)
    out = pretty(beta_translate(formula, cfg, mode=args.mode))
    # the translation nests each rtc body deeper: an output past the
    # parser's cap raises ParseError here, before anything is written
    parse_formula_infer(out, ARITH_SIGNATURE)
    _write_output(out + "\n", args.out)
    return EXIT_OK


def cmd_render(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        pf = parse_proof(fh.read())
    if args.format == "dot":
        text = to_dot(pf.graph, pf.signature)
    elif args.format == "tex":
        text = to_latex(pf.graph, pf.signature)
    else:
        text = serialize_proof(pf)
    _write_output(text, args.out)
    return EXIT_OK


def _count(text: str) -> int:
    """A non-negative integer option value; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call, so no caller changes it."""
    ap = argparse.ArgumentParser(
        prog="rtcproof",
        description="Proof checker, counter-model finder, translator, and "
                    "bounded prover for transitive closure logic.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a proof file and its trace condition")
    p.add_argument("proof")
    p.add_argument("--theory", help="theory file path or bundled name")
    p.add_argument("--normal", action="store_true",
                   help="also require non-overlapping cycles")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("prove", help="search for a cyclic proof of a sequent")
    p.add_argument("goal", help="sequent text, or @file")
    p.add_argument("--theory")
    p.add_argument("--depth", type=_count, default=SearchConfig.max_depth)
    p.add_argument("--max-nodes", type=_count, default=SearchConfig.max_nodes)
    p.add_argument("--model-size", type=_count, default=SearchConfig.refute_size,
                   help="interleaved refutation size bound")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("refute", help="search for a finite counter-model")
    p.add_argument("goal", help="sequent text, or @file")
    p.add_argument("--theory")
    p.add_argument("--model-size", type=_count, default=5)
    p.set_defaults(fn=cmd_refute)

    p = sub.add_parser("translate-ind",
                       help="eliminate explicit induction into cycles")
    p.add_argument("proof")
    p.add_argument("--theory")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_translate_ind)

    p = sub.add_parser("translate-beta",
                       help="beta-translate a formula over the arithmetic signature")
    p.add_argument("formula", help="formula text, or @file")
    p.add_argument("--mode", choices=("tc", "pa"), default="pa")
    p.add_argument("--beta-template", help="file holding a custom B(c, i, k) formula")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_translate_beta)

    p = sub.add_parser("render", help="emit DOT, LaTeX, or the text format")
    p.add_argument("proof")
    p.add_argument("--format", choices=("dot", "tex", "text"), default="text")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (OSError, RtcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
