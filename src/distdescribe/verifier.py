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
import os
import string
import threading
import zlib
from collections import deque
from dataclasses import asdict, dataclass, replace
from itertools import chain, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .backends import (
    QUESTION_PREFIX,
    Backend,
    CompletionRequest,
    JsonlEnd,
    JudgmentRequest,
    append_jsonl,
    is_string_list,
    one_line,
    read_jsonl,
    request_hash,
)
from .corpus import DistributionPair, Sample
from .errors import AuthError, BackendError, CorruptStoreError, ReplayMissError

ABSTAIN = 0.5
_VALUES = (0.0, ABSTAIN, 1.0)


# (backend id, description, text A, text B): what one directed judgment asks.
Judgment = tuple[str, str, str, str]
# (backend id, request): what one proposer completion request asks.
Completion = tuple[str, CompletionRequest]
# (judgment, (sample A, sample B), row key or None, answer, value): one new judgment.
NewJudgment = tuple[Judgment, tuple[Sample, Sample], str | None, str, float]


def _question(s: str) -> str:
    """The question of a judgment of description ``s``, the same on every pair."""
    return f"{QUESTION_PREFIX}{s}?"


def _context(a_line: str, b_line: str) -> str:
    """The context of a judgment of texts A and B, each already on one line."""
    return f"A: {a_line}\nB: {b_line}"


def build_question(s: str, a: Sample, b: Sample) -> JudgmentRequest:
    """The request of one judgment of ``s`` on (a, b).

    A verification sends the same request, assembled from its question and
    context, each built once per call.
    """
    return JudgmentRequest(
        question=_question(s), context=_context(one_line(a.text), one_line(b.text))
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


def _hold(row: dict, values: dict[str, float], completions: dict[str, list[str]]) -> None:
    """File a store row under its key: a completion row's completions, else its value."""
    if "completions" in row:
        completions[row["key"]] = row["completions"]
    else:
        values[row["key"]] = row["value"]


def _usable_row(row: dict) -> bool:
    if "completions" in row:
        typed = is_string_list(row["completions"])
    else:
        value = row.get("value")
        typed = value in _VALUES and not isinstance(value, bool)
    return typed and isinstance(row.get("key"), str)


@dataclass
class _StoreIndex:
    """The usable rows of one store file, as far as they have been read."""

    file: tuple[int, int]  # (st_dev, st_ino)
    end: JsonlEnd
    crc: int  # zlib.crc32 of the file's bytes before end.offset
    values: dict[str, float]  # judgment row key -> value
    completions: dict[str, list[str]]  # completion row key -> completions


# The most recently opened store, so reopening it reads only the rows
# appended since.  One store at a time: opening another releases it.
_index: _StoreIndex | None = None
_index_lock = threading.Lock()


def _crc(fh, start: int, stop: int, crc: int = 0) -> int:
    """``crc`` extended over the bytes of ``fh`` from ``start`` up to ``stop``."""
    fh.seek(start)
    while start < stop:
        chunk = fh.read(min(stop - start, 1 << 16))
        if not chunk:
            break
        crc = zlib.crc32(chunk, crc)
        start += len(chunk)
    return crc


def _read_store(path: Path) -> _StoreIndex:
    """The rows of the store at ``path``, each row decoded once per process.

    Reuses the rows read at an earlier open when the file is the same one
    (device and inode) and its bytes up to where that read stopped are
    unchanged (length and CRC-32), and reads only what follows; otherwise
    it releases the held rows and reads the file from its first byte.
    """
    global _index
    with _index_lock:
        index, _index = _index, None  # held again once this read succeeds
        with open(path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            file = (stat.st_dev, stat.st_ino)
            if (
                index is None
                or index.file != file
                or stat.st_size < index.end.offset
                or _crc(fh, 0, index.end.offset) != index.crc
            ):
                index = _StoreIndex(file, JsonlEnd(), 0, {}, {})  # drops the rows held before
            end = replace(index.end)
            fresh: dict[str, float] = {}
            fresh_completions: dict[str, list[str]] = {}
            # Checked once read, not row by row: decoding is most of a read.
            try:
                for _, row in read_jsonl(fh, end):
                    _hold(row, fresh, fresh_completions)
                usable = (
                    set(fresh.values()).issubset(_VALUES)
                    and bool not in set(map(type, fresh.values()))  # True == 1.0
                    and {str}.issuperset(map(type, chain(fresh, fresh_completions)))
                    and all(map(is_string_list, fresh_completions.values()))
                )
            except (KeyError, TypeError):
                usable = False
            if not usable:
                rows = read_jsonl(fh, replace(index.end))
                lineno = next(n for n, row in rows if not _usable_row(row))
                raise CorruptStoreError(
                    f'{path}:{lineno}: a row needs a "key" and a "value" of 0, 0.5 or 1,'
                    ' or "completions" that are a list of strings'
                )
            index.crc = _crc(fh, index.end.offset, end.offset, index.crc)
            index.end = end
            if index.values or index.completions:
                index.values.update(fresh)
                index.completions.update(fresh_completions)
            else:  # a full read: no copy
                index.values, index.completions = fresh, fresh_completions
            _index = index
            return index


def _index_appended(index: _StoreIndex, rows: list[dict], size: int, blob: bytes) -> None:
    """Add ``rows``, appended as ``blob`` at ``size``, to ``index`` if it ends there.

    Otherwise the index is left as it is, and the next open reads the rows
    as it reads those of any other writer.
    """
    with _index_lock:
        if _index is not index or index.end.offset != size:
            return
        index.crc = zlib.crc32(blob, index.crc)
        index.end = JsonlEnd(size + len(blob), index.end.lines + len(rows))
        for row in rows:
            _hold(row, index.values, index.completions)


def _key_json(encoded: Iterable[str], opens: bool = True, closes: bool = True) -> str:
    """The JSON array of the JSON string literals ``encoded``, the text a row key hashes.

    Its bytes are those of ``json.dumps(parts, ensure_ascii=False)``, which
    fix the store's row keys, without building an encoder per call.  Without
    ``opens`` the leading "[" is left out, and without ``closes`` the closing
    "]" becomes the ", " before one more part, so a key's text can be built
    from a prefix and a tail.
    """
    return ("[" if opens else "") + ", ".join(encoded) + ("]" if closes else ", ")


class JudgmentCache:
    """In-memory judgment and completion memo with an optional append-only jsonl store.

    Judgments are memoized by the :data:`Judgment` tuple itself, and a
    proposer's completions by the :data:`Completion` tuple, (backend id,
    request).  The sha256 :meth:`key` is computed only to write a row to the
    store and to look up rows loaded from the store, and at most once per
    new judgment.  :meth:`lookup` builds the keys of many judgments from
    each text's JSON encoding, computed once per call, with the bytes
    :meth:`key` hashes.  A judgment row holds its ``value``, a completion row its
    ``completions``.  Store rows are checked once loaded: a row without a
    ``key``, with a loaded value other than 0, 0.5 or 1, or with
    completions that are not a list of strings, raises
    :class:`CorruptStoreError`.

    The store is created when the cache is built, so a store that cannot be
    written fails before any request is sent.  :meth:`put` and
    :meth:`put_completions` only record new results in memory and queue
    their rows; :meth:`flush` appends the queued rows in one write.
    ``propose`` flushes its completions, and :meth:`Verifier.estimate_cas`
    flushes each description's rows once its last new judgment is answered,
    so each description's rows reach the store together, and a process
    killed while descriptions are being judged loses only their new rows.
    No file is held open between writes.

    A process holds the rows of one store, the one opened last, and
    decodes each row once: opening that store again reads only the rows
    appended since, and the rows this process appended itself are taken
    without reading them back.  A store rewritten, truncated or replaced
    since it was read is read again from its start, and opening another
    store releases the rows held.  So only a process that opens a store
    more than once, as ``run_bench`` does per task, gains; a single
    describe reads its store once either way.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._memo: dict[Judgment, float] = {}
        self._completion_memo: dict[Completion, list[str]] = {}
        self._index: _StoreIndex | None = None
        self._stored: dict[str, float] = {}
        self._stored_completions: dict[str, list[str]] = {}
        if self.path is not None:
            open(self.path, "ab").close()  # creates it; an unwritable path fails before judging
            self._index = _read_store(self.path)
            self._stored, self._stored_completions = self._index.values, self._index.completions
        self._lock = threading.Lock()
        self._pending: list[dict] = []  # rows not yet written to the store
        self._write_lock = threading.Lock()

    @staticmethod
    def key(*parts: str) -> str:
        """The row key of the strings ``parts``.

        A judgment's parts are (backend id, description, text A, text B), a
        completion's (backend id, ``request_hash`` of its request).
        """
        blob = _key_json(map(encode_basestring, parts))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def lookup(
        self, backend_id: str, descriptions: Sequence[str], texts: Sequence[tuple[str, str]]
    ) -> Iterator[tuple[list[float | None], list[str] | None]]:
        """Per description, the cached value of each (text A, text B) judgment or None.

        Each is yielded with the judgments' row keys, or None when no store
        rows are loaded: then nothing is hashed.  Pass a new judgment's key
        on to :meth:`put`, so it is hashed once.
        """
        # Single dict reads are atomic; only put() needs the lock.
        memo, stored = self._memo, self._stored
        keys = _row_keys(backend_id, descriptions, texts) if stored else repeat(None)
        for s, row_keys in zip(descriptions, keys):
            if memo:
                values = [memo.get((backend_id, s, a, b)) for a, b in texts]
            else:
                values = [None] * len(texts)
            if row_keys is not None:
                values = [stored.get(k) if v is None else v for v, k in zip(values, row_keys)]
            yield values, row_keys

    def put(self, new: Iterable[NewJudgment]) -> None:
        """Record new judgments and queue their store rows."""
        with self._lock:
            for judgment, (a, b), key, answer, value in new:
                if judgment in self._memo:
                    continue
                self._memo[judgment] = value
                if self.path is None:
                    continue
                if key is None:
                    key = self.key(*judgment)
                if key not in self._stored:
                    row = {
                        "key": key,
                        "s": judgment[1],
                        "a_id": a.id,
                        "b_id": b.id,
                        "answer": answer,
                        "value": value,
                    }
                    self._pending.append(row)

    def get_completions(self, backend_id: str, req: CompletionRequest) -> list[str] | None:
        """The cached completions of ``req`` sent to the backend ``backend_id``, or None."""
        found = self._completion_memo.get((backend_id, req))
        if found is None and self._stored_completions:
            found = self._stored_completions.get(self.key(backend_id, request_hash(req)))
        return found

    def put_completions(
        self, backend_id: str, req: CompletionRequest, completions: list[str]
    ) -> None:
        with self._lock:
            if (backend_id, req) in self._completion_memo:
                return
            self._completion_memo[backend_id, req] = completions
            if self.path is None:
                return
            key = self.key(backend_id, request_hash(req))
            if key not in self._stored_completions:
                self._pending.append({"key": key, "completions": completions})

    def flush(self) -> None:
        """Append the rows queued since the last flush to the store, in one write."""
        with self._write_lock:  # one append at a time, in the order rows were taken
            with self._lock:
                rows, self._pending = self._pending, []
            if rows:
                written = append_jsonl(self.path, rows)
                if written is not None:
                    _index_appended(self._index, rows, *written)

    def close(self) -> None:
        """Write the rows still queued: those of :meth:`Verifier.judge` calls made alone."""
        self.flush()


def _row_keys(
    backend_id: str, descriptions: Sequence[str], texts: Sequence[tuple[str, str]]
) -> Iterator[list[str]]:
    """Per description s, ``JudgmentCache.key(backend_id, s, a, b)`` of each (a, b) in ``texts``.

    Each text and each (backend id, description) prefix is JSON-encoded
    once, not once per judgment.
    """
    encoded = {t: encode_basestring(t) for t in set(chain.from_iterable(texts))}
    tails = [_key_json((encoded[a], encoded[b]), opens=False).encode("utf-8") for a, b in texts]
    head = encode_basestring(backend_id)
    sha256 = hashlib.sha256
    for s in descriptions:
        prefix = _key_json((head, encode_basestring(s)), closes=False).encode("utf-8")
        yield [sha256(prefix + tail).hexdigest() for tail in tails]


class _Misses:
    """The distinct judgments a verification found in no cache, in lookup order.

    Parallel lists, so that a miss adds no object that outlives the
    verification but its judgment tuple, which the cache's memo keeps.
    """

    __slots__ = ("judgments", "positions", "keys", "owners")

    def __init__(self) -> None:
        self.judgments: list[Judgment] = []
        self.positions: list[int] = []  # the first directed pair it judges
        self.keys: list[str | None] = []  # row keys, where the lookup computed them
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
                base = len(misses.judgments)
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
                misses.judgments += [(backend_id, s) + texts[p] for p in missed]
                misses.positions += missed
                misses.keys += [None] * len(missed) if keys is None else [keys[p] for p in missed]
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
        joins the two.  The misses go through one FIFO queue drained by
        ``min(in_flight, misses)`` workers, the calling thread among them:
        with no miss no thread is started.  A description's new judgments
        are put into the cache, and with ``flush`` appended to its store in
        one write, once its last miss is answered.  A :class:`BackendError`
        leaves a miss failed, and it is not cached.  An :class:`AuthError`
        or :class:`ReplayMissError` (or any other exception) empties the
        queue, so no request is sent after it, and propagates once the
        workers are done.
        """
        n = len(misses.judgments)
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
        queue = deque(range(n))
        # deque.pop is atomic: the worker that pops a description's 0 answered its last miss.
        left = [deque(range(len(mine))) for mine in owned]
        errors: list[BaseException] = []

        def finish(d: int) -> None:
            self.cache.put(
                (
                    misses.judgments[i],
                    directed[misses.positions[i]],
                    misses.keys[i],
                    answers[i],
                    answer_values[i],
                )
                for i in owned[d]
                if answers[i] is not None
            )
            if flush:
                self.cache.flush()

        def work() -> None:
            try:
                while queue:
                    try:
                        i = queue.popleft()
                    except IndexError:  # another worker took the last one
                        return
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
            except BaseException as exc:
                queue.clear()
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(min(in_flight, n) - 1)]
        for worker in workers:
            worker.start()
        try:
            work()
            for worker in workers:
                worker.join()
        finally:
            queue.clear()  # interrupted while joining: no request is sent after it
        if errors:
            raise errors[0]
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
        distinct misses sent ``in_flight`` at a time (see :meth:`_judge_all`).
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
