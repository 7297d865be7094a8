"""The benchmark's exact-CA oracle against closed forms and the verifier."""

from __future__ import annotations

from distdescribe import CAEstimate, RuleBackend, Verifier, generate_task, get_predicate

from oracle import ExactCAOracle, exact_ca


def test_closed_form_question_task():
    # README: 80% of d1 and 10% of d0 contain "?", so
    # CA = q1(1 - q0) + (q1 q0 + (1 - q1)(1 - q0)) / 2 = 0.72 + 0.13 = 0.85.
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    assert exact_ca(get_predicate("question"), task.pair).mean == 0.85


def test_matches_exhaustive_verifier_bit_for_bit():
    task = generate_task("long_sentence", 0.6, 0.3, 40, seed=9)
    verifier = Verifier(RuleBackend())
    for predicate_id in ("long_sentence", "question", "negation", "hyperlink"):
        predicate = get_predicate(predicate_id)
        reported = verifier.estimate_ca(predicate.description, task.pair, n_pairs=1600)
        assert reported.exhaustive
        assert exact_ca(predicate, task.pair).mean == reported.mean


def test_row_checks():
    task = generate_task("question", 0.8, 0.1, 200, seed=3)
    oracle = ExactCAOracle()
    s = "contains a question mark"
    exact = CAEstimate(mean=0.85, stderr=0.0, n_pairs=40000, seed=0, exhaustive=True)
    assert oracle.check_row(s, exact, task.pair) is None
    off = CAEstimate(mean=0.8500001, stderr=0.0, n_pairs=40000, seed=0, exhaustive=True)
    assert oracle.check_row(s, off, task.pair) is not None
    near = CAEstimate(mean=0.86, stderr=0.015, n_pairs=400, seed=0)
    assert oracle.check_row(s, near, task.pair) is None
    far = CAEstimate(mean=0.95, stderr=0.015, n_pairs=400, seed=0)
    assert oracle.check_row(s, far, task.pair) is not None
    assert oracle.check_row("speaks in riddles", far, task.pair) is None
    assert oracle.rows == 4
    assert oracle.outside_reported_stderr == 2
