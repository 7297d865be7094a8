"""Tests for the rule predicate registry."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distdescribe.predicates import (
    _FIRST_PERSON,
    _SECOND_PERSON,
    _WEATHER,
    PREDICATES,
    _has_any_word,
    _words,
    get_predicate,
    parse_description,
)

NEUTRAL_TEXTS = [
    "The cat sat on the mat",
    "A quiet morning in the village",
    "Bread was on the table",
    "The meeting starts soon",
]


def test_registry_is_nonempty_with_unique_ids():
    ids = [p.id for p in PREDICATES]
    assert len(ids) >= 20
    assert len(set(ids)) == len(ids)


def test_get_predicate_unknown_raises():
    with pytest.raises(KeyError):
        get_predicate("no-such-predicate")


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: p.id)
def test_satisfy_and_violate_invert_each_predicate(pred):
    """Applying satisfy() must make the predicate true; violate() must make it false."""
    for text in NEUTRAL_TEXTS:
        satisfied = pred.satisfy(text)
        assert pred.satisfied(satisfied), f"{pred.id} not satisfied on {satisfied!r}"
        violated = pred.violate(satisfied)
        assert not pred.satisfied(violated), f"{pred.id} still satisfied on {violated!r}"


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: p.id)
def test_scores_bounded(pred):
    texts = NEUTRAL_TEXTS + [pred.satisfy(t) for t in NEUTRAL_TEXTS] + ["", "x"]
    for text in texts:
        assert 0.0 <= pred.score(text) <= 1.0


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: p.id)
def test_descriptions_are_prompt_safe(pred):
    """Descriptions survive the decoding constraints applied to proposer output."""
    assert "," not in pred.description
    assert "." not in pred.description
    assert "\n" not in pred.description
    assert "group" not in pred.description.lower()


@pytest.mark.parametrize("pred", PREDICATES, ids=lambda p: p.id)
def test_parse_description_round_trip(pred):
    parsed = parse_description(pred.description)
    assert parsed is not None
    assert parsed.id == pred.id


def test_parse_description_case_insensitive():
    parsed = parse_description("Contains A Question Mark")
    assert parsed is not None and parsed.id == "question"


def test_parse_description_unknown_returns_none():
    assert parse_description("is written in iambic pentameter") is None


def test_question_predicate_scores():
    pred = get_predicate("question")
    assert pred.score("Is it raining?") == 1.0
    assert pred.score("It is raining") == 0.0


def test_zebra_predicate_word_boundary():
    pred = get_predicate("zebra")
    assert pred.satisfied("a zebra crossed the road")
    assert not pred.satisfied("nothing here")


def test_negation_detects_contractions():
    pred = get_predicate("negation")
    assert pred.satisfied("it doesn't work")
    assert pred.satisfied("we will not go")
    assert not pred.satisfied("all is well")


def test_hyperlink_counts_toward_score():
    pred = get_predicate("hyperlink")
    none = pred.score("no links here")
    one = pred.score("see https://example.com/a now")
    two = pred.score("see https://example.com/a and https://example.com/b")
    assert none < one < two


def test_length_score_monotone_in_words():
    pred = get_predicate("long_sentence")
    short = pred.score("few words")
    longer = pred.score(" ".join(["word"] * 30))
    assert short < longer


def test_satisfiers_leave_other_scores_mostly_alone():
    """A satisfier for one predicate must not fabricate a perfect signal for another."""
    base = "The village bell rang at noon"
    for pred in PREDICATES:
        modified = pred.satisfy(base)
        tripped = [
            other.id
            for other in PREDICATES
            if other.id != pred.id
            and not other.satisfied(base)
            and other.satisfied(modified)
        ]
        # A few structural overlaps are unavoidable (adding words lengthens the
        # text; an emoticon is also punctuation) but they must stay rare.
        assert len(tripped) <= 1, f"{pred.id} trips {tripped}"


# Digits and case changes outside ASCII, where str methods are easy to misjudge.
_TRICKY = ["7", "²", "٣", "①", "İ", "I", "MY", "You!", "Zebras,", "RAIN.", "ß", "ﬁ", "\n"]
_scorer_text = st.lists(st.sampled_from(_TRICKY) | st.text(max_size=6), max_size=6).map(" ".join)


@settings(max_examples=300, derandomize=True, database=None)
@given(text=_scorer_text)
def test_fast_scorers_match_their_reference_formulas(text):
    assert get_predicate("digits").score(text) == (
        1.0 if any(c.isdigit() for c in text) else 0.0
    )
    for vocabulary in (_FIRST_PERSON, _SECOND_PERSON, _WEATHER, frozenset(["zebra", "zebras"])):
        assert _has_any_word(vocabulary)(text) == any(w in vocabulary for w in _words(text))
