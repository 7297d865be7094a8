"""Lightweight binary classifier separating the two sides of a pair.

The classifier's only job is ranking how representative each sample is of
its own side, so prompts can be built from the most clearly separated
samples.  A hashed-n-gram logistic regression is enough for that at desk
scale and keeps the artifact self-contained.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from .corpus import Corpus, DistributionPair, Sample
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


def _log_odds(
    bias: float, weights: Mapping[int, float] | np.ndarray, features: Iterable[tuple[int, int]]
) -> float:
    # Summed left to right in feature insertion order: training, selection
    # and ad-hoc scoring all add in this one order, so scores match bit for bit.
    total = bias
    for index, count in features:
        total += weights[index] * count
    return total


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    learning_rate: float = 0.1
    seed: int = 0


@dataclass(frozen=True)
class Discriminator:
    """Trained logistic-regression weights; label 1 means "drawn from d1".

    ``scores`` holds the log-odds of every text of the pair it was trained
    on, computed once by :func:`train`; other texts are scored on demand.
    """

    weights: np.ndarray
    bias: float
    config: TrainConfig
    scores: Mapping[str, float] = field(default_factory=dict, repr=False, compare=False)

    def score(self, text: str) -> float:
        """Signed log-odds that ``text`` came from the d1 side."""
        known = self.scores.get(text)
        if known is not None:
            return known
        return _log_odds(self.bias, self.weights, featurize(text).items())


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


def _holdout_mask(n: int) -> list[bool]:
    # Every fifth sample (starting at 0) is held out: a deterministic 80/20
    # split that gives every non-empty side at least one held-out sample.
    return [i % 5 == 0 for i in range(n)]


def _split(corpus: Corpus) -> tuple[list[Sample], list[Sample]]:
    mask = _holdout_mask(len(corpus))
    train = [s for s, held in zip(corpus.samples, mask) if not held]
    held = [s for s, held in zip(corpus.samples, mask) if held]
    return train, held


def _compact(vector: dict[int, int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Indices and counts as two tuples take a third of the dict's memory.
    return tuple(vector), tuple(vector.values())


def train(pair: DistributionPair, config: TrainConfig | None = None) -> Discriminator:
    """Fit logistic regression by per-sample SGD with seeded epoch shuffles.

    Training uses the 80% split of each side; the held-out 20% is scored by
    :func:`held_out_accuracy`.  Given the same seed and data order the
    result is bit-identical across runs.  Every sample of both sides is
    featurized once; the returned model carries all their scores.
    """
    config = config or TrainConfig()
    if len(pair.d0) < 2 or len(pair.d1) < 2:
        raise DegenerateDataError(
            f"need at least 2 samples per side, got {len(pair.d0)} and {len(pair.d1)}"
        )

    sides = (pair.d0, pair.d1)
    vectors = [[_compact(featurize(s.text)) for s in corpus.samples] for corpus in sides]
    examples = [
        (vector, float(label))
        for label, side in enumerate(vectors)
        for vector, held in zip(side, _holdout_mask(len(side)))
        if not held
    ]
    # Sparse weights over the features this pair uses, scattered into the
    # dense array once training is done.
    w = dict.fromkeys(
        chain.from_iterable(indices for side in vectors for indices, _ in side), 0.0
    )
    bias = 0.0
    rng = np.random.default_rng(config.seed)
    for _ in range(config.epochs):
        for i in rng.permutation(len(examples)).tolist():
            (indices, counts), label = examples[i]
            error = _sigmoid(_log_odds(bias, w, zip(indices, counts))) - label
            step = config.learning_rate * error
            for index, count in zip(indices, counts):
                w[index] -= step * count
            bias -= step

    weights = np.zeros(FEATURE_SPACE, dtype=np.float64)
    weights[list(w)] = list(w.values())
    scores = {
        sample.text: _log_odds(bias, w, zip(*vector))
        for corpus, side in zip(sides, vectors)
        for sample, vector in zip(corpus.samples, side)
    }
    # The token memo serves one fit; emptied, it holds no memory between describes.
    feature_index.cache_clear()
    return Discriminator(weights=weights, bias=bias, config=config, scores=scores)


def held_out_accuracy(disc: Discriminator, pair: DistributionPair) -> float:
    """Accuracy on the deterministic 20% holdout of each side."""
    _, held0 = _split(pair.d0)
    _, held1 = _split(pair.d1)
    correct = sum(1 for s in held0 if disc.score(s.text) <= 0)
    correct += sum(1 for s in held1 if disc.score(s.text) > 0)
    return correct / (len(held0) + len(held1))


def confidence(disc: Discriminator, sample: Sample, side: int) -> float:
    """Probability the model assigns to ``sample`` belonging to ``side``.

    The two sides are exact complements: confidence(x, 1) + confidence(x, 0)
    is 1.0 by construction.
    """
    if side not in (0, 1):
        raise ValueError(f"side must be 0 or 1, got {side}")
    p1 = _sigmoid(disc.score(sample.text))
    return p1 if side == 1 else 1.0 - p1


def _kept_count(n: int, percentile: int) -> int:
    # ceil(p% of n), floored at 5 when the side has at least 5 samples.
    return min(n, max(math.ceil(percentile * n / 100), 5))


def select_percentile(
    disc: Discriminator, pair: DistributionPair, percentile: int
) -> RepresentativeSet:
    """Keep the most confidently classified samples of each side.

    Ties are broken by sample id ascending so selection is deterministic.
    """
    if not 1 <= percentile <= 100:
        raise ValueError(f"percentile must be in [1, 100], got {percentile}")

    def top(corpus: Corpus, side: int) -> tuple[Sample, ...]:
        ranked = sorted(
            corpus.samples, key=lambda s: (-confidence(disc, s, side), s.id)
        )
        return tuple(ranked[: _kept_count(len(corpus), percentile)])

    return RepresentativeSet(
        percentile=percentile,
        d1_samples=top(pair.d1, 1),
        d0_samples=top(pair.d0, 0),
    )

