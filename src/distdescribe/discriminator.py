"""Lightweight binary classifier separating the two sides of a pair.

The classifier's only job is ranking how representative each sample is of
its own side, so prompts can be built from the most clearly separated
samples.  Naive-Bayes log-count ratios over hashed n-grams (the ``r`` of
NBSVM, Wang & Manning 2012) are enough for that at desk scale, fit in
closed form.  The fit is cross-fitted over ``K_FOLDS`` folds, so every
sample is ranked by a model that never saw it.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from typing import Mapping

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


@functools.lru_cache(maxsize=1 << 16)
def feature_index(token: str) -> int:
    # Memoized: one FNV-1a pass per distinct token or bigram of a pair, not
    # per occurrence; :func:`train` empties the memo when it is done.
    return _fnv1a64(token.encode("utf-8")) % FEATURE_SPACE


def featurize(text: str) -> dict[int, int]:
    """Hashed counts of lowercased unigrams and adjacent bigrams.

    Tokenization is whitespace splitting; bigrams are joined with "_".
    Empty text maps to an empty vector.
    """
    tokens = text.lower().split()
    vector: dict[int, int] = {}
    for token in tokens:
        index = feature_index(token)
        vector[index] = vector.get(index, 0) + 1
    for left, right in zip(tokens, tokens[1:]):
        index = feature_index(f"{left}_{right}")
        vector[index] = vector.get(index, 0) + 1
    return vector


K_FOLDS = 5
ALPHA = 1.0


@dataclass(frozen=True)
class Discriminator:
    """Out-of-fold scores and per-side rankings of one pair; label 1 means "drawn from d1".

    ``scores[side][sample_id]`` is the log-odds of each sample of the fitted
    pair, from the fit that never saw it.  Keys are per sample, not per
    text: copies of one text in different folds read different fits.
    ``ranked[side]`` is that side's samples by descending :func:`confidence`
    in their own side, ties broken by sample id ascending.
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
    from a model that saw its sample.  Every sample of both sides is
    featurized once, and each side is ranked once.
    """
    if len(pair.d0) < 2 or len(pair.d1) < 2:
        raise DegenerateDataError(
            f"need at least 2 samples per side, got {len(pair.d0)} and {len(pair.d1)}"
        )

    sides = (pair.d0, pair.d1)
    indices, counts, lengths = array("i"), array("i"), array("i")
    for corpus in sides:
        for sample in corpus.samples:
            vector = featurize(sample.text)
            # fromlist copies at C speed; extend() from a dict view goes item by item.
            indices.fromlist(list(vector))
            counts.fromlist(list(vector.values()))
            lengths.append(len(vector))
    # The token memo serves one fit; emptied, it holds no memory between describes.
    feature_index.cache_clear()

    lengths = np.frombuffer(lengths, dtype=np.intc)
    counts = np.frombuffer(counts, dtype=np.intc)
    features, local = np.unique(np.frombuffer(indices, dtype=np.intc), return_inverse=True)
    width = len(features)
    folds = np.concatenate([np.arange(len(corpus)) % K_FOLDS for corpus in sides])
    groups = np.repeat([0, K_FOLDS], [len(pair.d0), len(pair.d1)]) + folds  # side*K + fold

    by_fold = np.bincount(
        np.repeat(groups, lengths) * width + local,
        weights=counts,
        minlength=2 * K_FOLDS * width,
    )
    ratios = _log_count_ratios(_fit_totals(by_fold.reshape(2, K_FOLDS, width)))
    sizes = _fit_totals(np.bincount(groups, minlength=2 * K_FOLDS).reshape(2, K_FOLDS))
    biases = np.log(sizes[1] / sizes[0])

    # Sample i is scored by fit folds[i], the one that left its fold out.
    scores = biases[folds] + np.bincount(
        np.repeat(np.arange(len(lengths)), lengths),
        weights=counts * ratios[np.repeat(folds, lengths), local],
        minlength=len(lengths),
    )
    values = iter(scores.tolist())
    by_side = tuple({s.id: next(values) for s in corpus.samples} for corpus in sides)
    ranked = tuple(
        tuple(sorted(corpus.samples, key=lambda s: (-_confidence(own[s.id], side), s.id)))
        for side, (corpus, own) in enumerate(zip(sides, by_side))
    )
    return Discriminator(scores=by_side, ranked=ranked)


def held_out_accuracy(disc: Discriminator) -> float:
    """Accuracy of the out-of-fold scores over every sample of both sides."""
    d0, d1 = disc.scores
    correct = sum(1 for score in d0.values() if score <= 0)
    correct += sum(1 for score in d1.values() if score > 0)
    return correct / (len(d0) + len(d1))


def _confidence(score: float, side: int) -> float:
    p1 = _sigmoid(score)
    return p1 if side == 1 else 1.0 - p1


def confidence(disc: Discriminator, sample: Sample, side: int) -> float:
    """Probability the model assigns to ``sample`` belonging to ``side``.

    The two sides are exact complements: confidence(x, 1) + confidence(x, 0)
    is 1.0 by construction.  ``sample`` must belong to the fitted pair; its
    stored score is looked up on ``side`` first.
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side}")
    score = disc.scores[side].get(sample.id)
    if score is None:
        score = disc.scores[1 - side].get(sample.id)
        if score is None:
            raise KeyError(f"sample {sample.id!r} is not in the fitted pair")
    return _confidence(score, side)


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
