import os
import signal

import pytest

from rtcproof.prooffile import load_theory, parse_proof

# a test that runs this long fails, so that a fault which makes some search
# run away fails the suite instead of hanging it; the slowest test takes
# about 3 s
TIME_LIMIT = 120

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

ACCEPTED = [
    "refl.tcp", "axiom_rtc.tcp", "single_step.tcp", "step_composition.tcp",
    "chain2.tcp", "eq_endpoints.tcp", "and_context.tcp", "forall_inst.tcp",
    "exists_intro.tcp", "or_branch.tcp", "transitivity.tcp", "nat_p.tcp",
    "ind_extend.tcp", "ind_step_theory.tcp", "ind_double.tcp", "two_loops.tcp",
]
REJECTED = ["bad_no_progress.tcp", "bad_rtc_no_progress.tcp", "bad_subst_loop.tcp"]
THEORY_FREE_ACCEPTED = [n for n in ACCEPTED
                        if n not in ("nat_p.tcp", "ind_step_theory.tcp")]
INDUCTION_PROOFS = ["ind_extend.tcp", "ind_step_theory.tcp", "ind_double.tcp"]


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, name)


def load_corpus(name: str):
    """(graph, signature, theory axioms) for a corpus file."""
    with open(corpus_path(name), encoding="utf-8") as fh:
        pf = parse_proof(fh.read())
    if pf.theory_name:
        th = load_theory(pf.theory_name)
        return pf.graph, pf.signature.merge(th.signature), th.axioms
    return pf.graph, pf.signature, ()


@pytest.fixture(scope="session")
def corpus_graphs():
    return {name: load_corpus(name) for name in ACCEPTED + REJECTED}


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test past TIME_LIMIT seconds, where the platform has SIGALRM."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past its time limit of {TIME_LIMIT} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
