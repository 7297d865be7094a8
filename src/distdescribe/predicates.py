"""Registry of exactly-evaluable text predicates.

Each predicate pairs a natural-language description with a scoring
function, so descriptions produced or judged through the rule backends can
be checked mechanically.  Predicates also know how to edit a text to
satisfy or violate themselves, which is what the synthetic benchmark
generator builds tasks out of.

Descriptions deliberately avoid commas and periods (they double as stop
characters in the completion interface) and the reserved group words.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from typing import Callable, Iterable

_PUNCT = string.punctuation + "“”‘’…"


def _words(text: str) -> list[str]:
    """Lowercased tokens with surrounding punctuation stripped."""
    out = []
    for token in text.split():
        token = token.strip(_PUNCT).lower()
        if token:
            out.append(token)
    return out


def _binary(test: Callable[[str], bool]) -> Callable[[str], float]:
    return lambda text: 1.0 if test(text) else 0.0


def _has_any_word(vocabulary: frozenset[str]) -> Callable[[str], bool]:
    return lambda text: not vocabulary.isdisjoint(_words(text))


def _drop_words(vocabulary: frozenset[str], extra: Callable[[str], bool] | None = None):
    def edit(text: str) -> str:
        kept = []
        for token in text.split():
            bare = token.strip(_PUNCT).lower()
            if bare in vocabulary or (extra is not None and extra(bare)):
                continue
            kept.append(token)
        return " ".join(kept)

    return edit


def _strip(parts: Iterable[str]) -> Callable[[str], str]:
    """Remove every occurrence of each part in turn, then collapse runs of spaces."""

    def edit(text: str) -> str:
        for part in parts:
            text = text.replace(part, "")
        return re.sub(r" {2,}", " ", text).strip()

    return edit


@dataclass(frozen=True)
class Predicate:
    """A description plus the machinery to evaluate and synthesize it."""

    id: str
    description: str
    score: Callable[[str], float]
    satisfy: Callable[[str], str]
    violate: Callable[[str], str]
    threshold: float = 0.5

    def satisfied(self, text: str) -> bool:
        return self.score(text) >= self.threshold


_NEGATION = frozenset(
    "no not never none nothing nobody neither nor cannot".split()
)
_FIRST_PERSON = frozenset("i me my mine we us our ours myself ourselves".split())
_SECOND_PERSON = frozenset("you your yours yourself yourselves".split())
_GREETINGS = frozenset("hello hi hey dear greetings".split())
_MONEY_WORDS = frozenset("dollar dollars euro euros cents".split())
_FUTURE = frozenset("will shall gonna".split())
_WEATHER = frozenset(
    "weather rain rainy raining snow snowy snowing sunny cloudy "
    "storm stormy forecast temperature humid windy".split()
)
_PAST_IRREGULAR = frozenset(
    "was were had did went said saw took came gave got made knew thought "
    "found told became left felt brought began kept held stood heard met paid".split()
)
_ABBREVIATIONS = ("etc.", "e.g.", "i.e.", "vs.", "Dr.", "Mr.", "Mrs.", "approx.")
_EMOTICONS = (":)", ":(", ":D", ";)", ":-)", ":-(")
_LINK_RE = re.compile(r"https?://\S+")
_EMAIL_RE = re.compile(r"\b[\w.+-]+@[\w-]+\.[A-Za-z]{2,}\b")
_HASHTAG_RE = re.compile(r"#\w")

_LONG_FILLER = (
    "while the quiet path turns slowly beside tall grass "
    "under a pale evening sky toward distant calm hills"
).split()


def _is_past(token: str) -> bool:
    return token in _PAST_IRREGULAR or (len(token) > 3 and token.endswith("ed"))


def _pad_long(text: str) -> str:
    words = text.split()
    i = 0
    while len(words) < 28:
        words.append(_LONG_FILLER[i % len(_LONG_FILLER)])
        i += 1
    return " ".join(words)


def _first_seven_words(text: str) -> str:
    return " ".join(text.split()[:7])


def _drop_greeting(text: str) -> str:
    parts = text.split(None, 1)
    if parts and parts[0].strip(_PUNCT).lower() in _GREETINGS:
        return parts[1] if len(parts) > 1 else ""
    return text


def _insert_comma(text: str) -> str:
    head, _, tail = text.partition(" ")
    return f"{head}, {tail}" if tail else head + ","


def _hyperlink_score(text: str) -> float:
    return min(len(_LINK_RE.findall(text)) / 3.0, 1.0)


def _length_score(text: str) -> float:
    return min(len(text.split()) / 40.0, 1.0)


PREDICATES: tuple[Predicate, ...] = (
    Predicate(
        "question",
        "contains a question mark",
        _binary(lambda t: "?" in t),
        lambda t: t.rstrip() + "?",
        _strip("?"),
    ),
    Predicate(
        "exclamation",
        "contains an exclamation mark",
        _binary(lambda t: "!" in t),
        lambda t: t.rstrip() + "!",
        _strip("!"),
    ),
    Predicate(
        "zebra",
        "contains the word 'zebra'",
        _binary(_has_any_word(frozenset(["zebra", "zebras"]))),
        lambda t: t + " near the zebra",
        _drop_words(frozenset(["zebra", "zebras"])),
    ),
    Predicate(
        "hyperlink",
        "has a higher number of hyperlinks",
        _hyperlink_score,
        lambda t: t + " https://example.com/info",
        lambda t: re.sub(r" {2,}", " ", _LINK_RE.sub("", t)).strip(),
        threshold=0.3,
    ),
    Predicate(
        "negation",
        "contains a negative statement",
        _binary(
            lambda t: any(
                w in _NEGATION or w.endswith("n't") for w in _words(t)
            )
        ),
        lambda t: t + " but not today",
        _drop_words(_NEGATION, extra=lambda w: w.endswith("n't")),
    ),
    Predicate(
        "first_person",
        "is written in the first person",
        _binary(_has_any_word(_FIRST_PERSON)),
        lambda t: t + " as I recall",
        _drop_words(_FIRST_PERSON),
    ),
    Predicate(
        "digits",
        "contains numeric digits",
        _binary(lambda t: any(map(str.isdigit, t))),
        lambda t: t + " for 7 days",
        lambda t: re.sub(r" {2,}", " ", re.sub(r"\d+", "", t)).strip(),
    ),
    Predicate(
        "long_sentence",
        "is longer in sentence length",
        _length_score,
        _pad_long,
        _first_seven_words,
    ),
    Predicate(
        "uppercase",
        "contains a word in all capital letters",
        _binary(
            lambda t: any(
                len(w) >= 2 and w.isupper() and w.isalpha() for w in t.split()
            )
        ),
        lambda t: t + " INDEED",
        lambda t: " ".join(
            w.lower() if len(w) >= 2 and w.isupper() and w.isalpha() else w
            for w in t.split()
        ),
    ),
    Predicate(
        "emoticon",
        "contains an emoticon",
        _binary(lambda t: any(e in t for e in _EMOTICONS)),
        lambda t: t + " :)",
        _strip(_EMOTICONS),
    ),
    Predicate(
        "past_tense",
        "describes events in the past tense",
        _binary(lambda t: any(_is_past(w) for w in _words(t))),
        lambda t: t + " as it happened before",
        _drop_words(frozenset(), extra=_is_past),
    ),
    Predicate(
        "future_tense",
        "refers to the future",
        _binary(
            lambda t: any(
                w in _FUTURE or w.endswith("'ll") for w in _words(t)
            )
        ),
        lambda t: t + " and it will continue",
        _drop_words(_FUTURE, extra=lambda w: w.endswith("'ll")),
    ),
    Predicate(
        "quote",
        "contains quoted speech",
        _binary(lambda t: '"' in t or "“" in t),
        lambda t: t + ' "just so"',
        _strip('"“”'),
    ),
    Predicate(
        "money",
        "mentions money or prices",
        _binary(lambda t: "$" in t or any(w in _MONEY_WORDS for w in _words(t))),
        lambda t: t + " for ten dollars",
        lambda t: _strip("$")(_drop_words(_MONEY_WORDS)(t)),
    ),
    Predicate(
        "ellipsis",
        "trails off with an ellipsis",
        _binary(lambda t: "..." in t or "…" in t),
        lambda t: t + "...",
        _strip(("...", "…")),
    ),
    Predicate(
        "comma",
        "contains a comma",
        _binary(lambda t: "," in t),
        _insert_comma,
        _strip(","),
    ),
    Predicate(
        "semicolon",
        "contains a semicolon",
        _binary(lambda t: ";" in t),
        lambda t: t + "; so it goes",
        _strip(";"),
    ),
    Predicate(
        "parentheses",
        "contains a parenthetical remark",
        _binary(lambda t: "(" in t and ")" in t),
        lambda t: t + " (more or less)",
        _strip("()"),
    ),
    Predicate(
        "second_person",
        "addresses the reader directly",
        _binary(_has_any_word(_SECOND_PERSON)),
        lambda t: t + " as you know",
        _drop_words(_SECOND_PERSON),
    ),
    Predicate(
        "greeting",
        "opens with a greeting",
        _binary(
            lambda t: bool(t.split())
            and t.split()[0].strip(_PUNCT).lower() in _GREETINGS
        ),
        lambda t: "Hello " + t,
        _drop_greeting,
    ),
    Predicate(
        "hashtag",
        "contains a hashtag",
        _binary(lambda t: bool(_HASHTAG_RE.search(t))),
        lambda t: t + " #update",
        _strip("#"),
    ),
    Predicate(
        "email",
        "contains an email address",
        _binary(lambda t: bool(_EMAIL_RE.search(t))),
        lambda t: t + " via info@example.org",
        lambda t: re.sub(r" {2,}", " ", _EMAIL_RE.sub("someone", t)).strip(),
    ),
    Predicate(
        "abbreviation",
        "uses an abbreviation",
        _binary(lambda t: any(a in t for a in _ABBREVIATIONS)),
        lambda t: t + " etc.",
        _strip(_ABBREVIATIONS),
    ),
    Predicate(
        "weather",
        "mentions the weather",
        _binary(_has_any_word(_WEATHER)),
        lambda t: t + " despite the rain",
        _drop_words(_WEATHER),
    ),
)

_BY_ID = {p.id: p for p in PREDICATES}
_BY_DESCRIPTION = {p.description.casefold(): p for p in PREDICATES}


def get_predicate(predicate_id: str) -> Predicate:
    try:
        return _BY_ID[predicate_id]
    except KeyError:
        raise KeyError(f"unknown predicate {predicate_id!r}") from None


def parse_description(description: str) -> Predicate | None:
    """Match a description back to its predicate; None when unrecognized."""
    return _BY_DESCRIPTION.get(description.strip().casefold())
