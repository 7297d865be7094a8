"""Pairwise judgment and classification-accuracy estimation.

A hypothesis s is scored on a pair (x1, x0) by asking the judgment backend
the same question in both orientations and combining the answers as

    h_hat = (V(s, x1, x0) - V(s, x0, x1) + 1) / 2

which cancels positional bias and makes h_hat(a, b) + h_hat(b, a) = 1 hold
exactly.  Classification accuracy is the mean of h_hat over random
cross-distribution pairs; small corpora are enumerated exhaustively.
"""

from __future__ import annotations

import math
import string
import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .backends import QUESTION_PREFIX, Backend, JudgmentRequest, one_line, send_queued
from .corpus import DistributionPair, Sample
from .errors import AuthError, BackendError, ReplayMissError
from .store import JudgmentCache

ABSTAIN = 0.5


def _question(s: str) -> str:
    """The question of a judgment of description ``s``, the same on every pair."""
    return f"{QUESTION_PREFIX}{s}?"


def _context(a_line: str, b_line: str) -> str:
    """The context of a judgment of texts A and B, each already on one line."""
    return f"A: {a_line}\nB: {b_line}"


@dataclass(frozen=True)
class CAEstimate:
    mean: float
    stderr: float
    n_pairs: int
    seed: int
    exhaustive: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


_EXACT_ANSWERS = {"yes": 1.0, "no": 0.0}


def _answer_value(answer: str) -> float:
    """Score an answer by its first word, case-folded, trailing punctuation cut.

    Exactly "yes" is 1.0 and exactly "no" is 0.0; anything else abstains.
    """
    value = _EXACT_ANSWERS.get(answer)
    if value is not None:
        return value
    words = answer.split(maxsplit=1)
    first = words[0].rstrip(string.punctuation).lower() if words else ""
    if first == "yes":
        return 1.0
    if first == "no":
        return 0.0
    return ABSTAIN


class _Misses:
    """The distinct judgments a verification found in no cache, in lookup order.

    Parallel lists, so that a miss adds no object of its own.
    """

    __slots__ = ("positions", "keys", "owners")

    def __init__(self) -> None:
        self.positions: list[int] = []  # the first directed pair it judges
        self.keys: list[str] = []  # row keys, with a store
        self.owners: list[int] = []  # the description that needs it first


def _distinct(texts: Sequence[tuple[str, str]]) -> tuple[list[int], list[int]]:
    """Each (text A, text B)'s index among the distinct ones, and the first position of each."""
    index: dict[tuple[str, str], int] = {}
    ranks: list[int] = []
    firsts: list[int] = []
    for p, both in enumerate(texts):
        r = index.setdefault(both, len(firsts))
        if r == len(firsts):
            firsts.append(p)
        ranks.append(r)
    return ranks, firsts


class Verifier:
    """Stateful wrapper tying a judgment backend to a cache and counters."""

    def __init__(self, backend: Backend, cache: JudgmentCache | None = None):
        self.backend = backend
        self.cache = cache if cache is not None else JudgmentCache()
        self._lock = threading.Lock()
        self.judgment_count = 0
        self.abstain_count = 0
        self.failed_count = 0

    @property
    def abstain_fraction(self) -> float:
        with self._lock:
            if self.judgment_count == 0:
                return 0.0
            return self.abstain_count / self.judgment_count

    def _look_up(
        self, descriptions: Sequence[str], directed: Sequence[tuple[Sample, Sample]]
    ) -> tuple[list[list[float | None]], list[tuple[Sequence[int], Sequence[int]]], _Misses]:
        """Every judgment of every description looked up in the cache.

        Returns each description's values, None where missed; its gaps, the
        positions it missed and the miss each one needs; and the misses.
        Directed pairs with the same two texts ask the same judgment: they
        are deduped by text once per call, at the first miss.  A description
        listed again needs the first copy's misses, which include all of its
        own, since the cache only grows.
        """
        backend_id = self.backend.id
        texts = [(a.text, b.text) for a, b in directed]
        found, gaps = [], []
        misses = _Misses()
        ranks: list[int] = []
        firsts: list[int] = []
        first: dict[str, tuple[Sequence[int], Sequence[int]]] = {}
        lookups = self.cache.lookup(backend_id, descriptions, texts)
        for d, (s, (values, keys)) in enumerate(zip(descriptions, lookups)):
            gap = first.get(s)
            if gap is None and None not in values:
                gap = first[s] = ((), ())
            if gap is None:
                if not firsts:
                    ranks, firsts = _distinct(texts)
                base = len(misses.positions)
                positions: Sequence[int]
                if values.count(None) == len(values):  # nothing cached: each distinct pair
                    positions, missed = range(len(values)), firsts
                    if len(firsts) == len(values):
                        needed = range(base, base + len(values))
                    else:
                        needed = [base + r for r in ranks]
                else:
                    positions = [p for p, value in enumerate(values) if value is None]
                    at: list[int | None] = [None] * len(firsts)  # each distinct pair's miss
                    missed, needed = [], []
                    for p in positions:
                        i = at[ranks[p]]
                        if i is None:
                            i = at[ranks[p]] = base + len(missed)
                            missed.append(p)
                        needed.append(i)
                misses.positions += missed
                if keys is not None:
                    misses.keys += [keys[p] for p in missed]
                misses.owners += [d] * len(missed)
                gap = first[s] = (positions, needed)
            found.append(values)
            gaps.append(gap)
        return found, gaps, misses

    def _send(
        self,
        descriptions: Sequence[str],
        directed: Sequence[tuple[Sample, Sample]],
        misses: _Misses,
        in_flight: int,
        flush: bool,
    ) -> tuple[list[str | None], list[float]]:
        """Send each miss once; return each one's answer, None if it failed, and value.

        Each description's question is built once, and each missed pair's
        context once, from each text put on one line once; a miss's request
        joins the two.  The misses are sent at most ``in_flight`` at a time through
        :func:`send_queued`.  With a store, a description's new judgments
        are put into the cache, and with ``flush`` appended to the store in
        one write, once its last miss is answered.  A :class:`BackendError`
        leaves a miss failed, and it is not cached.  An :class:`AuthError`
        or :class:`ReplayMissError` (or any other exception) stops the
        sending and propagates.
        """
        n = len(misses.positions)
        answers: list[str | None] = [None] * n
        answer_values = [ABSTAIN] * n
        if not n:
            return answers, answer_values
        questions = [_question(s) for s in descriptions]
        pairs = {p: directed[p] for p in misses.positions}
        lines = {t: one_line(t) for t in {x.text for pair in pairs.values() for x in pair}}
        contexts = {p: _context(lines[a.text], lines[b.text]) for p, (a, b) in pairs.items()}
        owned: list[list[int]] = [[] for _ in descriptions]
        for i, d in enumerate(misses.owners):
            owned[d].append(i)
        # deque.pop is atomic: the worker that pops a description's 0 answered its last miss.
        left = [deque(range(len(mine))) for mine in owned]

        def finish(d: int) -> None:
            if self.cache.path is None:
                return
            s, keys = descriptions[d], misses.keys
            new = []
            for i in owned[d]:
                if answers[i] is not None:
                    a, b = directed[misses.positions[i]]
                    new.append((keys[i], answer_values[i], s, a.id, b.id, answers[i]))
            self.cache.put("value", new)
            if flush:
                self.cache.flush()

        def send(i: int) -> None:
            d = misses.owners[i]
            req = JudgmentRequest(questions[d], contexts[misses.positions[i]])
            try:
                answer = self.backend.judge(req)
            except (AuthError, ReplayMissError):
                raise  # configuration mistakes; retrying other pairs cannot help
            except BackendError:
                # Retry budget exhausted inside the backend: score the
                # judgment as an abstention and flag it, but do not
                # poison the cache.
                pass
            else:
                answers[i] = answer
                answer_values[i] = _answer_value(answer)
            if left[d].pop() == 0:
                finish(d)

        send_queued(n, in_flight, send)
        return answers, answer_values

    def _judge_all(
        self,
        descriptions: Sequence[str],
        directed: Sequence[tuple[Sample, Sample]],
        in_flight: int,
        flush: bool,
    ) -> list[list[float]]:
        """Each description's judgment of each directed (A, B) pair, in {0, 0.5, 1}.

        Every judgment is looked up in the cache first, on the calling
        thread; then each distinct miss is sent once (:meth:`_send`).  A
        failed miss abstains wherever it is needed and is counted as failed
        there.
        """
        found, gaps, misses = self._look_up(descriptions, directed)
        answers, answer_values = self._send(descriptions, directed, misses, in_flight, flush)
        abstained = failed = 0
        for values, (positions, needed) in zip(found, gaps):
            for p, i in zip(positions, needed):
                values[p] = answer_values[i]
                failed += answers[i] is None
            abstained += values.count(ABSTAIN)
        with self._lock:
            self.judgment_count += len(descriptions) * len(directed)
            self.abstain_count += abstained
            self.failed_count += failed
        return found

    def judge(self, s: str, a: Sample, b: Sample) -> float:
        """One directed judgment of description ``s`` in {0, 0.5, 1}; 0.5 is abstention.

        Its new row is queued, not written: the cache's next flush or close
        writes it.
        """
        return self._judge_all([s], [(a, b)], in_flight=1, flush=False)[0][0]

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
        instead, which removes Monte-Carlo noise entirely.  The new judgments'
        rows reach the cache's store, in one append, before it returns.
        """
        return self.estimate_cas([s], pair, n_pairs, seed)[0]

    def estimate_cas(
        self,
        descriptions: Sequence[str],
        pair: DistributionPair,
        n_pairs: int = 400,
        seed: int = 0,
        in_flight: int = 1,
    ) -> list[CAEstimate]:
        """:meth:`estimate_ca` of each description, on pairs drawn once for all of them.

        The judgments of every description are looked up first, and the
        distinct misses sent at most ``in_flight`` at a time (see :meth:`_judge_all`).
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
        # Forward and backward judgment of each pair, as h_hat asks them.
        directed = [order for x1, x0 in drawn for order in ((x1, x0), (x0, x1))]

        estimates = []
        for judged in self._judge_all(descriptions, directed, in_flight, flush=True):
            both = np.array(judged)
            values = (both[0::2] - both[1::2] + 1.0) / 2.0
            mean = float(values.mean())
            if len(values) > 1:
                stderr = float(values.std(ddof=1) / math.sqrt(len(values)))
            else:
                stderr = 0.0
            estimates.append(
                CAEstimate(
                    mean=mean,
                    stderr=stderr,
                    n_pairs=len(values),
                    seed=seed,
                    exhaustive=exhaustive,
                )
            )
        return estimates
