"""Command-line front end.

Commands: check, prove, refute, translate-ind, translate-beta, render.
Exit codes: 0 success / verdict positive; 1 verdict negative (invalid proof,
counter-model found, refutation exists); 2 unknown / budget exceeded;
3 usage or I/O error; 4 internal error (a bug: any other exception, reported
as one `internal error: <Type>: <message>` line on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import BudgetExceeded, RtcError
from .prooffile import (ProofFile, load_theory, parse_proof, serialize_proof)
from .proofgraph import validate_structure
from .prover import Proved, Refuted, SearchConfig, prove
from .render import to_dot, to_latex
from .semantics import find_counter_model
from .syntax import (Signature, parse_formula_infer, parse_sequent_infer,
                     pretty)
from .tracecheck import (check_global_trace_condition, enumerate_basic_cycles,
                         is_non_overlapping)
from .translate import BetaConfig, beta_translate, explicit_to_cyclic

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


def _resolve_theory(args, file_theory_name: str | None):
    name = getattr(args, "theory", None) or file_theory_name
    if name is None:
        return None
    return load_theory(name)


def _merged_sig(base: Signature, theory) -> Signature:
    return base.merge(theory.signature) if theory is not None else base


def cmd_check(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        pf = parse_proof(fh.read())
    theory = _resolve_theory(args, pf.theory_name)
    sig = _merged_sig(pf.signature, theory)
    axioms = theory.axioms if theory else ()
    errors = validate_structure(pf.graph, axioms, sig)
    if errors:
        for e in errors:
            print(e)
        print("invalid")
        return EXIT_NEGATIVE
    report = check_global_trace_condition(pf.graph)
    if report.verdict == "indeterminate":
        print(f"indeterminate: {report.detail}")
        return EXIT_UNKNOWN
    if report.accepted:
        cycles = enumerate_basic_cycles(pf.graph)
        normal = is_non_overlapping(pf.graph)
        plural = "" if len(cycles) == 1 else "s"
        print(f"accepted; {len(cycles)} basic cycle{plural};"
              f" {'normal' if normal else 'overlapping'}")
        if args.normal and not normal:
            return EXIT_NEGATIVE
        return EXIT_OK
    print(f"rejected; witness period: {list(report.witness_period)};"
          f" prefix: {list(report.witness_prefix)}")
    return EXIT_NEGATIVE


def cmd_prove(args) -> int:
    theory = _resolve_theory(args, None)
    base = _merged_sig(Signature.make(), theory)
    goal, sig = parse_sequent_infer(_read_input(args.goal), base)
    cfg = SearchConfig(max_depth=args.depth, max_nodes=args.max_nodes,
                       theory=theory.axioms if theory else (), sig=sig,
                       refute_size=args.model_size)
    outcome = prove(goal, cfg)
    if isinstance(outcome, Proved):
        text = serialize_proof(ProofFile(outcome.graph, sig,
                                         theory.name if theory else None))
        cycles = enumerate_basic_cycles(outcome.graph)
        print(f"proved; {len(outcome.graph.nodes)} nodes; {len(cycles)} cycle(s)")
        if args.out:
            _write_output(text, args.out)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    if isinstance(outcome, Refuted):
        print("refuted; counter-model found:")
        print(outcome.model.dump())
        if outcome.valuation:
            vals = ", ".join(f"{k} = {v}" for k, v in sorted(outcome.valuation.items()))
            print(f"valuation {{ {vals} }}")
        return EXIT_NEGATIVE
    print(f"unknown ({outcome.reason})")
    return EXIT_UNKNOWN


def cmd_refute(args) -> int:
    theory = _resolve_theory(args, None)
    base = _merged_sig(Signature.make(), theory)
    goal, sig = parse_sequent_infer(_read_input(args.goal), base)
    try:
        found = find_counter_model(goal, args.model_size,
                                   theory.axioms if theory else (), sig)
    except BudgetExceeded as exc:
        print(f"unknown (budget): {exc}")
        return EXIT_UNKNOWN
    if found is None:
        print(f"no counter-model up to size {args.model_size}"
              " (not a validity proof)")
        return EXIT_UNKNOWN
    model, valuation = found
    print(model.dump())
    if valuation:
        vals = ", ".join(f"{k} = {v}" for k, v in sorted(valuation.items()))
        print(f"valuation {{ {vals} }}")
    return EXIT_NEGATIVE


def cmd_translate_ind(args) -> int:
    with open(args.proof, encoding="utf-8") as fh:
        pf = parse_proof(fh.read())
    theory = _resolve_theory(args, pf.theory_name)
    sig = _merged_sig(pf.signature, theory)
    axioms = theory.axioms if theory else ()
    errors = validate_structure(pf.graph, axioms, sig)
    if errors:
        for e in errors:
            print(e)
        return EXIT_NEGATIVE
    out = explicit_to_cyclic(pf.graph)
    _write_output(serialize_proof(ProofFile(out, pf.signature, pf.theory_name)),
                  args.out)
    return EXIT_OK


def cmd_translate_beta(args) -> int:
    from .translate import ARITH_SIGNATURE
    formula, _ = parse_formula_infer(_read_input(args.formula), ARITH_SIGNATURE)
    cfg = BetaConfig()
    if args.beta_template:
        base = ARITH_SIGNATURE
        tmpl, _ = parse_formula_infer(_read_input("@" + args.beta_template), base)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--max-nodes", type=int, default=100_000)
    p.add_argument("--model-size", type=int, default=3,
                   help="interleaved refutation size bound")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("refute", help="search for a finite counter-model")
    p.add_argument("goal", help="sequent text, or @file")
    p.add_argument("--theory")
    p.add_argument("--model-size", type=int, default=5)
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
