"""Lightweight binary classifier separating the two sides of a pair.

The classifier's only job is ranking how representative each sample is of
its own side, so prompts can be built from the most clearly separated
samples.  Naive-Bayes log-count ratios over hashed n-grams (the ``r`` of
NBSVM, Wang & Manning 2012) are enough for that at desk scale, fit in
closed form.  The fit is cross-fitted over ``K_FOLDS`` folds, so every
sample is ranked by a model that never saw it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count
from typing import Mapping, Sequence

import numpy as np

from .corpus import DistributionPair, Sample
from .errors import DegenerateDataError

FEATURE_SPACE = 1 << 18

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def _fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a; fixed so feature indices are stable across platforms."""
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def feature_index(gram: str) -> int:
    """The hashed feature index of one unigram or "_"-joined bigram."""
    return _fnv1a64(gram.encode("utf-8")) % FEATURE_SPACE


def _int_type(limit: int) -> type:
    """int32 when every value is below ``limit``, else int64."""
    return np.int32 if limit <= np.iinfo(np.int32).max else np.int64


def _tokenize(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Dense ids of every text's lowercased tokens, one text after another.

    Returns the ids, each text's token count, and the tokens by id.  Texts
    are split one at a time, so no text's token list outlives its turn.
    """
    ids: defaultdict[str, int] = defaultdict(count().__next__)  # a new token gets the next id
    lengths = []

    def split(text: str) -> list[str]:
        words = text.lower().split()
        lengths.append(len(words))
        return words

    tokens = map(ids.__getitem__, chain.from_iterable(map(split, texts)))
    token_ids = np.fromiter(tokens, dtype=np.int32)
    return token_ids, np.array(lengths, dtype=np.int32), list(ids)


def _gram_features(texts: Sequence[str]) -> tuple[np.ndarray, ...]:
    """The distinct features of ``texts`` and the feature of every n-gram occurrence.

    Returns ``(lengths, features, unigrams, bigrams, has_bigram)``: each
    text's token count; the distinct feature indices, ascending; each
    token's position in ``features``; the same for the bigram each token
    starts, in token order; and which tokens start one (all but a text's
    last).  Each distinct token and each distinct bigram string is hashed
    once.
    """
    token_ids, lengths, vocab = _tokenize(texts)
    has_bigram = np.ones(len(token_ids), dtype=bool)
    has_bigram[np.cumsum(lengths)[lengths > 0] - 1] = False
    pairs = token_ids[has_bigram].astype(_int_type(len(vocab) ** 2)) * len(vocab)
    pairs += token_ids[1:][has_bigram[:-1]]
    distinct, bigram_of = np.unique(pairs, return_inverse=True)
    left, right = (half.tolist() for half in np.divmod(distinct, len(vocab)))
    strings = [f"{vocab[a]}_{vocab[b]}" for a, b in zip(left, right)]
    # Distinct bigrams can share a string: "a_b c" and "a b_c" both give "a_b_c".
    hashed = {gram: feature_index(gram) for gram in dict.fromkeys(strings)}
    grams = [feature_index(token) for token in vocab] + [hashed[gram] for gram in strings]
    features, local = np.unique(np.array(grams, dtype=np.int64), return_inverse=True)
    local = local.astype(_int_type(len(features)))
    return lengths, features, local[token_ids], local[len(vocab) :][bigram_of], has_bigram


def _occurrence_keys(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct features, and one key per n-gram occurrence in entry order.

    A key is text * width + the feature's position in ``features``.  Text
    t's occurrences are its unigrams, then its bigrams: they fill slots
    [2 * start, 2 * end) of its token span but the last, which stays empty.
    """
    lengths, features, unigrams, bigrams, has_bigram = _gram_features(texts)
    n, width = len(lengths), len(features)
    ends = np.cumsum(lengths, dtype=_int_type(2 * len(unigrams)))
    text_of = np.repeat(np.arange(n, dtype=np.int32), lengths)
    base = text_of.astype(_int_type(n * width)) * width
    slot = np.arange(len(unigrams), dtype=ends.dtype) + (ends - lengths)[text_of]
    slots = np.full(2 * len(unigrams), -1, dtype=base.dtype)
    slots[slot] = base + unigrams
    slot += lengths[text_of]
    slots[slot[has_bigram]] = base[has_bigram] + bigrams
    return features, slots[slots >= 0]


def _first_occurrences(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each distinct key first occurs, and how often it occurs, counted there."""
    # A stable sort keeps each run of equal keys in occurrence order.  Every
    # temporary is dropped once used: this is the peak of a fit's memory.
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    bounds = np.ones(len(keys) + 1, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=bounds[1:-1])
    del ordered
    bounds = np.flatnonzero(bounds)
    first = order[bounds[:-1]]
    del order
    counts = np.zeros(len(keys), dtype=np.int32)
    counts[first] = np.diff(bounds)
    del bounds
    is_first = np.zeros(len(keys), dtype=bool)
    is_first[first] = True
    return is_first, counts


def featurize_all(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hashed counts of lowercased unigrams and adjacent bigrams of every text.

    Tokenization is whitespace splitting; bigrams are joined with "_".
    Returns ``(features, sample, local, counts)``: the distinct feature
    indices in ascending order, then one entry per (text, feature) with the
    text's position, the feature's position in ``features`` and its count.
    A text's entries are its unigrams, then its bigrams, each at its first
    occurrence, with repeats and hash collisions merged into that entry.
    """
    features, keys = _occurrence_keys(texts)
    is_first, counts = _first_occurrences(keys)
    sample, local = np.divmod(keys[is_first], max(len(features), 1))
    return features, sample, local, counts[is_first]


def featurize(text: str) -> dict[int, int]:
    """Hashed counts of one text, as :func:`featurize_all` counts it.

    Empty text maps to an empty vector.
    """
    features, _, local, counts = featurize_all([text])
    return dict(zip(features[local].tolist(), counts.tolist()))


K_FOLDS = 5
ALPHA = 1.0


@dataclass(frozen=True)
class Discriminator:
    """Out-of-fold scores and per-side rankings of one pair; label 1 means "drawn from d1".

    ``scores[side][sample_id]`` is the log-odds of each sample of the fitted
    pair, from the fit that never saw it.  Keys are per sample, not per
    text: copies of one text in different folds read different fits.
    ``ranked[side]`` is that side's samples by descending confidence in
    their own side (:func:`_confidence`), ties broken by sample id ascending.
    """

    scores: tuple[Mapping[str, float], Mapping[str, float]]
    ranked: tuple[tuple[Sample, ...], tuple[Sample, ...]]


@dataclass(frozen=True)
class RepresentativeSet:
    """Top-percentile samples per side, sorted by descending own-side confidence."""

    percentile: int
    d1_samples: tuple[Sample, ...]
    d0_samples: tuple[Sample, ...]


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _fit_totals(by_fold: np.ndarray) -> np.ndarray:
    """Per-fold totals (side, fold, ...) to per-fit totals (side, fit, ...).

    Fit k is every fold but k.
    """
    return by_fold.sum(axis=1, keepdims=True) - by_fold


def _log_count_ratios(counts: np.ndarray) -> np.ndarray:
    """``r_f = log(p_f/|p|_1) - log(q_f/|q|_1)`` per fit; 0 where a fit saw no ``f``.

    ``counts`` is (side, fit, feature); ``p = ALPHA + counts[1]`` and
    ``q = ALPHA + counts[0]`` over the features the fit saw.  Counts are
    whole numbers, so every sum here is exact in any order.
    """
    seen = (counts[0] > 0) | (counts[1] > 0)
    p = np.where(seen, ALPHA + counts[1], 0.0)
    q = np.where(seen, ALPHA + counts[0], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.log(p / p.sum(axis=1, keepdims=True)) - np.log(
            q / q.sum(axis=1, keepdims=True)
        )
    return np.where(seen, ratios, 0.0)


def train(pair: DistributionPair) -> Discriminator:
    """Fit cross-fitted naive-Bayes log-count ratios (NBSVM's ``r``).

    A sample's fold is its position within its side mod ``K_FOLDS``.  Each
    sample is scored by the fit on the other folds, so no stored score comes
    from a model that saw its sample.  Both sides are featurized in one
    :func:`featurize_all` call, and each side is ranked once.
    """
    if len(pair.d0) < 2 or len(pair.d1) < 2:
        raise DegenerateDataError(
            f"need at least 2 samples per side, got {len(pair.d0)} and {len(pair.d1)}"
        )

    sides = (pair.d0, pair.d1)
    features, sample, local, counts = featurize_all(
        [s.text for corpus in sides for s in corpus.samples]
    )
    width = len(features)
    folds = np.concatenate(
        [np.arange(len(corpus), dtype=np.int32) % K_FOLDS for corpus in sides]
    )
    groups = np.repeat(np.array([0, K_FOLDS], dtype=np.int32), [len(pair.d0), len(pair.d1)])
    groups += folds  # side*K + fold

    by_fold = np.bincount(
        groups[sample] * width + local, weights=counts, minlength=2 * K_FOLDS * width
    )
    ratios = _log_count_ratios(_fit_totals(by_fold.reshape(2, K_FOLDS, width)))
    sizes = _fit_totals(np.bincount(groups, minlength=2 * K_FOLDS).reshape(2, K_FOLDS))
    biases = np.log(sizes[1] / sizes[0])

    # Sample i is scored by fit folds[i], the one that left its fold out.
    weights = ratios[folds[sample], local]
    weights *= counts
    scores = biases[folds] + np.bincount(sample, weights=weights, minlength=len(folds))
    values = iter(scores.tolist())
    by_side = tuple({s.id: next(values) for s in corpus.samples} for corpus in sides)
    ranked = tuple(
        tuple(sorted(corpus.samples, key=lambda s: (-_confidence(own[s.id], side), s.id)))
        for side, (corpus, own) in enumerate(zip(sides, by_side))
    )
    return Discriminator(scores=by_side, ranked=ranked)


def _confidence(score: float, side: int) -> float:
    """The probability that a sample of log-odds ``score`` is drawn from ``side``."""
    p1 = _sigmoid(score)
    return p1 if side == 1 else 1.0 - p1


def _kept_count(n: int, percentile: int) -> int:
    # ceil(p% of n), floored at 5 when the side has at least 5 samples.
    return min(n, max(math.ceil(percentile * n / 100), 5))


def select_percentile(disc: Discriminator, percentile: int) -> RepresentativeSet:
    """Keep the most confidently classified samples of each side.

    The kept samples are a prefix of the side's ranking, so the sets of a
    smaller and a larger percentile nest.
    """
    if not 1 <= percentile <= 100:
        raise ValueError(f"percentile must be in [1, 100], got {percentile}")
    d0, d1 = disc.ranked
    return RepresentativeSet(
        percentile=percentile,
        d1_samples=d1[: _kept_count(len(d1), percentile)],
        d0_samples=d0[: _kept_count(len(d0), percentile)],
    )
