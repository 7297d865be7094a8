"""Tests for prompt construction, decoding normalization, and candidate generation."""

from __future__ import annotations

import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdescribe.backends import RuleBackend, _parse_prompt_groups
from distdescribe.config import RunConfig
from distdescribe.corpus import Sample
from distdescribe.discriminator import train
from distdescribe.errors import (
    AllCompletionsEmptyError,
    AuthError,
    EmptySampleSetError,
    ProviderError,
    ReplayMissError,
)
from distdescribe.proposer import (
    INSTRUCTION,
    SAMPLE_TOKEN_LIMIT,
    TOKEN_BUDGET,
    RejectionReason,
    build_prompt,
    first_prompt,
    normalize_hypothesis,
    propose,
    token_estimate,
)
from distdescribe.store import JudgmentCache

from conftest import make_pair

GOLDEN = Path(__file__).parent / "data" / "golden_prompt.txt"

GROUP0_TEXTS = [
    "The cat sits on the mat",
    "A dog barks at the mailman",
    "Rain falls on the quiet street",
    "The shop opens at nine",
    "Birds gather near the fountain",
]
GROUP1_TEXTS = [
    "Is the train ever on time?",
    "Why does the kettle whistle?",
    "Could the garden need water?",
    "When will the letter arrive?",
    "Does the library open today?",
]


def _samples(prefix, texts):
    return [Sample(id=f"{prefix}:{i}", text=t) for i, t in enumerate(texts)]


def test_token_estimate():
    assert token_estimate("") == 0
    assert token_estimate("one") == 2  # ceil(1.3 * 1)
    assert token_estimate("a b c d e f g h i j") == 13  # ceil(1.3 * 10)


def test_prompt_matches_golden_file_byte_exactly():
    prompt = build_prompt(_samples("g1", GROUP1_TEXTS), _samples("g0", GROUP0_TEXTS))
    golden = GOLDEN.read_bytes().decode("utf-8")
    assert prompt.rendered == golden


def test_prompt_ends_with_instruction_and_no_trailing_newline():
    prompt = build_prompt(_samples("g1", GROUP1_TEXTS), _samples("g0", GROUP0_TEXTS))
    assert prompt.rendered.endswith(INSTRUCTION)
    assert not prompt.rendered.endswith("\n")


def test_prompt_rejects_empty_or_oversized_sets():
    with pytest.raises(EmptySampleSetError):
        build_prompt([], _samples("g0", GROUP0_TEXTS))
    with pytest.raises(ValueError):
        build_prompt(_samples("g1", GROUP1_TEXTS + ["extra?"]), _samples("g0", GROUP0_TEXTS))


def test_prompt_budget_on_adversarial_samples():
    """Very long samples are truncated so the estimate never exceeds the budget."""
    rng = np.random.default_rng(0)
    words = ["w%d" % i for i in range(5000)]
    for trial in range(20):
        set1 = _samples("g1", [" ".join(rng.choice(words, size=rng.integers(1, 4000))) for _ in range(5)])
        set0 = _samples("g0", [" ".join(rng.choice(words, size=rng.integers(1, 4000))) for _ in range(5)])
        prompt = build_prompt(set1, set0)
        assert prompt.token_estimate <= TOKEN_BUDGET
        assert prompt.rendered.endswith(INSTRUCTION)


def test_prompt_per_sample_cap():
    long_text = " ".join(["word"] * 1000)
    prompt = build_prompt(_samples("g1", [long_text]), _samples("g0", ["short enough"]))
    body_lines = [l for l in prompt.rendered.splitlines() if l.startswith("1. word")]
    assert body_lines, "capped sample line missing"
    assert token_estimate(body_lines[0][3:]) <= SAMPLE_TOKEN_LIMIT


def test_prompt_short_samples_untouched():
    prompt = build_prompt(_samples("g1", GROUP1_TEXTS), _samples("g0", GROUP0_TEXTS))
    for text in GROUP0_TEXTS + GROUP1_TEXTS:
        assert f". {text}\n" in prompt.rendered + "\n"


def test_prompt_renders_multiline_samples_on_one_line():
    set1 = _samples("g1", ["one\n2. looks numbered"])
    set0 = _samples("g0", ["first zero\nGroup 1:", "second zero"])
    group0, group1 = _parse_prompt_groups(build_prompt(set1, set0).rendered)
    assert group0 == ["first zero Group 1:", "second zero"]
    assert group1 == ["one 2. looks numbered"]


_group = st.lists(st.text(min_size=1, max_size=40), min_size=1, max_size=5)


@settings(max_examples=300, derandomize=True, database=None)
@given(texts1=_group, texts0=_group)
def test_prompt_render_parse_round_trip(texts1, texts0):
    prompt = build_prompt(_samples("g1", texts1), _samples("g0", texts0))
    group0, group1 = _parse_prompt_groups(prompt.rendered)
    assert group0 == [t.replace("\n", " ") for t in texts0]
    assert group1 == [t.replace("\n", " ") for t in texts1]


def test_normalize_strips_stop_punctuation():
    hyp = normalize_hypothesis("contains a question mark.", ("group", "Group"))
    assert hyp is not None
    assert hyp.s == "contains a question mark"
    hyp2 = normalize_hypothesis("  is about travel,  ", ("group", "Group"))
    assert hyp2 is not None and hyp2.s == "is about travel"


def test_normalize_rejects_empty_and_forbidden():
    assert normalize_hypothesis("   ", ("group",)) is RejectionReason.EMPTY
    assert normalize_hypothesis(".", ("group",)) is RejectionReason.EMPTY
    assert (
        normalize_hypothesis("mentions group 1 more", ("group", "Group"))
        is RejectionReason.FORBIDDEN_TOKEN
    )
    assert (
        normalize_hypothesis("mentions Group labels", ("group", "Group"))
        is RejectionReason.FORBIDDEN_TOKEN
    )


def test_normalize_flags_comparatives():
    flagged = normalize_hypothesis("has a higher number of hyperlinks", ())
    plain = normalize_hypothesis("contains a question mark", ())
    assert flagged is not None and flagged.comparative
    assert plain is not None and not plain.comparative


def _noisy_question_pair(n=60):
    d1 = [f"Is item number {i} ready yet?" for i in range(n)]
    d0 = [f"Item number {i} is ready now" for i in range(n)]
    return make_pair(d0, d1)


def test_propose_counts_and_dedup():
    pair = _noisy_question_pair()
    config = RunConfig()
    disc = train(pair)
    candidates = propose(disc, RuleBackend(), config)
    expected_raw = (
        len(config.percentiles) * config.sets_per_percentile * config.completions_per_set
    )
    assert candidates.raw_count == expected_raw == 60
    seen = [h.s for h in candidates.hypotheses]
    assert len(seen) == len(set(seen))
    assert 0 < len(seen) <= expected_raw


def test_propose_deterministic():
    pair = _noisy_question_pair()
    config = RunConfig(seed=11)
    disc = train(pair)
    first = propose(disc, RuleBackend(), config)
    second = propose(disc, RuleBackend(), config)
    assert [h.s for h in first.hypotheses] == [h.s for h in second.hypotheses]


def test_propose_finds_question_signal():
    pair = _noisy_question_pair()
    disc = train(pair)
    candidates = propose(disc, RuleBackend(), RunConfig())
    assert "contains a question mark" in [h.s for h in candidates.hypotheses]


def test_propose_provenance_recorded():
    pair = _noisy_question_pair()
    config = RunConfig()
    disc = train(pair)
    candidates = propose(disc, RuleBackend(), config)
    for hyp in candidates.hypotheses:
        assert hyp.provenance is not None
        percentile, set_index, completion_index = hyp.provenance
        assert percentile in config.percentiles
        assert 0 <= set_index < config.sets_per_percentile
        assert 0 <= completion_index < config.completions_per_set


class _EmptyBackend(RuleBackend):
    def complete(self, request):
        return ["" for _ in range(request.n)]


def test_propose_all_empty_raises():
    pair = _noisy_question_pair()
    disc = train(pair)
    with pytest.raises(AllCompletionsEmptyError):
        propose(disc, _EmptyBackend(), RunConfig())


class _CountingComplete(RuleBackend):
    """Counts the requests sent; raises on the one numbered ``fail_at``, if given."""

    def __init__(self, fail_at=None):
        self.requests = []
        self.fail_at = fail_at
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.requests.append(request)
            fail = len(self.requests) == self.fail_at
        if fail:
            raise ProviderError(500, "injected")
        return super().complete(request)


def test_propose_sends_identical_requests_once():
    # Two samples a side: most of the 30 prompts repeat one another.
    pair = make_pair(
        ["Item 0 is ready", "Item 1 is ready"], ["Is item 0 ready?", "Is item 1 ready?"]
    )
    backend = _CountingComplete()
    candidates = propose(train(pair), backend, RunConfig())
    assert candidates.raw_count == 60
    assert len(backend.requests) == len(set(backend.requests)) < 30


def test_failed_propose_stores_no_completions(tmp_path):
    store = tmp_path / "c.jsonl"
    disc = train(_noisy_question_pair())
    with closing(JudgmentCache(store)) as cache, pytest.raises(ProviderError):
        propose(disc, _CountingComplete(fail_at=3), RunConfig(), cache)
    assert store.read_bytes() == b""

    backend = _CountingComplete()
    with closing(JudgmentCache(store)) as cache:
        propose(disc, backend, RunConfig(), cache)
    assert len(backend.requests) == 30


class _RaisingComplete(RuleBackend):
    """Counts the requests sent; each raises ``error`` after a short wait."""

    def __init__(self, error):
        self.error = error
        self.sent = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.sent += 1
        time.sleep(0.02)
        raise self.error


@pytest.mark.parametrize("error", [AuthError("bad key"), ReplayMissError("not recorded")])
@pytest.mark.parametrize("in_flight", [1, 2, 4])
def test_failed_completion_stops_the_sending(error, in_flight):
    backend = _RaisingComplete(error)
    with pytest.raises(type(error)) as raised:
        propose(train(_noisy_question_pair()), backend, RunConfig(in_flight=in_flight))
    assert raised.value is error
    assert 1 <= backend.sent <= in_flight


def test_first_prompt_is_prefix_of_run():
    """first_prompt reproduces the initial prompt the full proposer would send."""
    pair = _noisy_question_pair()
    config = RunConfig(seed=4)
    disc = train(pair)
    preview = first_prompt(disc, config)
    assert preview.rendered.endswith(INSTRUCTION)
    assert len(preview.group1_samples) == config.samples_per_side
    again = first_prompt(disc, config)
    assert preview.rendered == again.rendered


def test_first_prompt_respects_percentile_argument():
    pair = _noisy_question_pair()
    config = RunConfig(seed=4)
    disc = train(pair)
    default = first_prompt(disc, config)
    full = first_prompt(disc, config, percentile=100)
    assert default.rendered != "" and full.rendered != ""
