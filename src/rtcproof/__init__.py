"""Proof kernel, cyclic-proof checker, and bounded prover for transitive closure logic.

`__all__` is the library API: the names below, re-exported from the modules
that define them.  Every other definition under `rtcproof` has a caller in
the package, or in the benchmark under `perfbench/` for the two that
`tests/test_imports.py` names; test-only code (oracles, generators) lives
under `tests/`.
"""

from .errors import RtcError
from .kernel import (RuleId, RuleInstance, RuleParams, check_rule_instance,
                     expected_premises, rule_instance)
from .proofgraph import GraphBuilder, ProofGraph, ProofNode, validate_structure
from .prooffile import (ProofFile, TheoryFile, load_theory, parse_proof,
                        parse_theory, serialize_proof)
from .prover import Proved, Refuted, SearchConfig, Unknown, prove
from .semantics import FiniteModel, evaluate, find_counter_model
from .syntax import (Formula, Sequent, Signature, Term, free_vars,
                     parse_formula, parse_sequent, pretty, pretty_sequent,
                     substitute)
from .tracecheck import (CycleReport, check_global_trace_condition,
                         enumerate_basic_cycles, is_non_overlapping)
from .translate import (BetaConfig, beta_translate, derive_induction,
                        explicit_to_cyclic)

__all__ = [
    "RtcError",
    "RuleId", "RuleInstance", "RuleParams", "check_rule_instance",
    "expected_premises", "rule_instance",
    "GraphBuilder", "ProofGraph", "ProofNode", "validate_structure",
    "ProofFile", "TheoryFile", "load_theory", "parse_proof", "parse_theory",
    "serialize_proof",
    "Proved", "Refuted", "SearchConfig", "Unknown", "prove",
    "FiniteModel", "evaluate", "find_counter_model",
    "Formula", "Sequent", "Signature", "Term", "free_vars", "parse_formula",
    "parse_sequent", "pretty", "pretty_sequent", "substitute",
    "CycleReport", "check_global_trace_condition", "enumerate_basic_cycles",
    "is_non_overlapping",
    "BetaConfig", "beta_translate", "derive_induction", "explicit_to_cyclic",
]

__version__ = "0.1.0"
