"""Pairwise judgment and classification-accuracy estimation.

A hypothesis s is scored on a pair (x1, x0) by asking the judgment backend
the same question in both orientations and combining the answers as

    h_hat = (V(s, x1, x0) - V(s, x0, x1) + 1) / 2

which cancels positional bias and makes h_hat(a, b) + h_hat(b, a) = 1 hold
exactly.  Classification accuracy is the mean of h_hat over random
cross-distribution pairs; small corpora are enumerated exhaustively.
"""

from __future__ import annotations

import hashlib
import math
import string
import threading
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring
from pathlib import Path

import numpy as np

from .backends import (
    QUESTION_PREFIX,
    Backend,
    JsonlAppender,
    JudgmentRequest,
    one_line,
    read_jsonl,
    unusable_row,
)
from .corpus import DistributionPair, Sample
from .errors import AuthError, BackendError, ReplayMissError

ABSTAIN = 0.5
_VALUES = (0.0, ABSTAIN, 1.0)


# (backend id, description, text A, text B): what one directed judgment asks.
Judgment = tuple[str, str, str, str]


def build_question(s: str, a: Sample, b: Sample) -> JudgmentRequest:
    return JudgmentRequest(
        question=f"{QUESTION_PREFIX}{s}?",
        context=f"A: {one_line(a.text)}\nB: {one_line(b.text)}",
    )


@dataclass(frozen=True)
class CAEstimate:
    mean: float
    stderr: float
    n_pairs: int
    seed: int
    exhaustive: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


def _answer_value(answer: str) -> float:
    """Score an answer by its first word, case-folded, trailing punctuation cut.

    Exactly "yes" is 1.0 and exactly "no" is 0.0; anything else abstains.
    """
    words = answer.split(maxsplit=1)
    first = words[0].rstrip(string.punctuation).lower() if words else ""
    if first == "yes":
        return 1.0
    if first == "no":
        return 0.0
    return ABSTAIN


def _usable_row(row: dict) -> bool:
    return isinstance(row.get("key"), str) and row.get("value") in _VALUES


class JudgmentCache:
    """In-memory judgment memo with an optional append-only jsonl store.

    The memo is keyed by the :data:`Judgment` tuple itself; its sha256
    :meth:`key` is computed only to write a row to the store and to look up
    rows loaded from the store, and at most once per new judgment.  Store
    rows are checked once loaded: a row without a ``key`` or ``value``, or a
    loaded value other than 0, 0.5 or 1, raises :class:`CorruptStoreError`.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._memo: dict[Judgment, float] = {}
        self._stored: dict[str, float] = {}
        self._lock = threading.Lock()
        self._writer = JsonlAppender(self.path) if self.path is not None else None
        if self.path is not None and self.path.exists():
            # Checked once loaded, not row by row: a store is read per describe.
            try:
                for row in read_jsonl(self.path):
                    self._stored[row["key"]] = row["value"]
                usable = set(self._stored.values()).issubset(_VALUES)
            except (KeyError, TypeError):
                usable = False
            if not usable:
                raise unusable_row(
                    self.path, _usable_row, 'a row needs a "key" and a "value" of 0, 0.5 or 1'
                )

    @staticmethod
    def key(backend_id: str, s: str, a_text: str, b_text: str) -> str:
        # The bytes of json.dumps([backend_id, s, a_text, b_text], ensure_ascii=False),
        # which fix the store's row keys, without building an encoder per call.
        blob = "[" + ", ".join(map(encode_basestring, (backend_id, s, a_text, b_text))) + "]"
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def get(self, judgment: Judgment) -> tuple[float | None, str | None]:
        """The cached value or None, and the row key if this lookup computed it.

        Pass the key on to :meth:`put`, so a new judgment is hashed once.
        """
        # Single dict reads are atomic; only put() needs the lock.
        value = self._memo.get(judgment)
        if value is not None or not self._stored:
            return value, None
        key = self.key(*judgment)
        return self._stored.get(key), key

    def put(
        self,
        judgment: Judgment,
        key: str | None,
        a_id: str,
        b_id: str,
        answer: str,
        value: float,
    ) -> None:
        with self._lock:
            if judgment in self._memo:
                return
            self._memo[judgment] = value
            if self._writer is None:
                return
            if key is None:
                key = self.key(*judgment)
            if key not in self._stored:
                row = {
                    "key": key,
                    "s": judgment[1],
                    "a_id": a_id,
                    "b_id": b_id,
                    "answer": answer,
                    "value": value,
                }
                self._writer.append(row)

    def close(self) -> None:
        """Close the store's file; a later :meth:`put` opens it again."""
        if self._writer is not None:
            with self._lock:
                self._writer.close()


class Verifier:
    """Stateful wrapper tying a judgment backend to a cache and counters."""

    def __init__(self, backend: Backend, cache: JudgmentCache | None = None):
        self.backend = backend
        self.cache = cache if cache is not None else JudgmentCache()
        self._lock = threading.Lock()
        self.judgment_count = 0
        self.abstain_count = 0
        self.failed_count = 0

    def _count(self, value: float, failed: bool) -> None:
        with self._lock:
            self.judgment_count += 1
            if value == ABSTAIN:
                self.abstain_count += 1
            if failed:
                self.failed_count += 1

    @property
    def abstain_fraction(self) -> float:
        with self._lock:
            if self.judgment_count == 0:
                return 0.0
            return self.abstain_count / self.judgment_count

    def judge(self, s: str, a: Sample, b: Sample) -> float:
        """One directed judgment of description ``s`` in {0, 0.5, 1}; 0.5 is abstention."""
        judgment = (self.backend.id, s, a.text, b.text)
        cached, key = self.cache.get(judgment)
        if cached is not None:
            self._count(cached, failed=False)
            return cached

        try:
            answer = self.backend.judge(build_question(s, a, b))
        except (AuthError, ReplayMissError):
            raise  # configuration mistakes; retrying other pairs cannot help
        except BackendError:
            # Retry budget exhausted inside the backend: score the pair as
            # an abstention and flag it, but do not poison the cache.
            self._count(ABSTAIN, failed=True)
            return ABSTAIN
        value = _answer_value(answer)
        self.cache.put(judgment, key, a.id, b.id, answer, value)
        self._count(value, failed=False)
        return value

    def h_hat(self, s: str, x1: Sample, x0: Sample) -> float:
        forward = self.judge(s, x1, x0)
        backward = self.judge(s, x0, x1)
        return (forward - backward + 1.0) / 2.0

    def estimate_ca(
        self,
        s: str,
        pair: DistributionPair,
        n_pairs: int = 400,
        seed: int = 0,
    ) -> CAEstimate:
        """Mean and stderr of h_hat over cross-distribution pairs.

        Pairs are drawn with replacement from a seeded generator; when the
        full cross product is no larger than ``n_pairs`` it is enumerated
        instead, which removes Monte-Carlo noise entirely.
        """
        if n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
        d1, d0 = pair.d1.samples, pair.d0.samples
        exhaustive = len(d1) * len(d0) <= n_pairs
        if exhaustive:
            drawn = [(x1, x0) for x1 in d1 for x0 in d0]
        else:
            rng = np.random.default_rng(seed)
            idx1 = rng.integers(0, len(d1), size=n_pairs)
            idx0 = rng.integers(0, len(d0), size=n_pairs)
            drawn = [(d1[int(i)], d0[int(j)]) for i, j in zip(idx1, idx0)]

        values = np.array([self.h_hat(s, x1, x0) for x1, x0 in drawn])
        mean = float(values.mean())
        if len(values) > 1:
            stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
        else:
            stderr = 0.0
        return CAEstimate(
            mean=mean,
            stderr=stderr,
            n_pairs=len(values),
            seed=seed,
            exhaustive=exhaustive,
        )

