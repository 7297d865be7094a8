"""Append-only JSONL stores: their framing, and the result cache kept in one.

Transcripts (``backends.RecordingBackend`` and ``ReplayBackend``) and the
store of a :class:`JudgmentCache` share the framing: one JSON object per
line, each append starting on a fresh line.  The cache's rows come in the
kinds of :data:`ROW_KINDS`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
import zlib
from dataclasses import dataclass, replace
from itertools import chain
from json.encoder import encode_basestring
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

from .errors import CorruptStoreError

# json.loads without its per-call checks: a judgment cache's rows are
# decoded one by one.
_decode_json = json.JSONDecoder().decode
# json.dumps(row, ensure_ascii=False, sort_keys=True) without an encoder per row.
_encode_row = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def _parse_row(line: bytes) -> dict | None:
    try:
        row = _decode_json(line.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    return row if isinstance(row, dict) else None


@dataclass
class JsonlEnd:
    """Where a read of an append-only JSONL store stopped."""

    offset: int = 0  # bytes, just past the last complete line read
    lines: int = 0  # complete lines before ``offset``


def read_jsonl(fh: BinaryIO, end: JsonlEnd | None = None) -> Iterator[tuple[int, dict]]:
    """``(line number, row)`` for each row of the JSONL store open as ``fh``.

    Reading starts at ``end``, where an earlier read stopped (by default the
    start of the file), and advances ``end`` past each complete line, so
    afterwards it says where this read stopped; line numbers count from the
    start of the file.  Blank lines are skipped.  A crash mid-append leaves
    a final line without its newline that does not parse; it is skipped
    with a warning, and the next :func:`append_jsonl` cuts it off.
    Any other line that does not parse to an object raises
    :class:`CorruptStoreError` naming ``path:line``.
    """
    end = end if end is not None else JsonlEnd()
    fh.seek(end.offset)
    for line in fh:
        lineno = end.lines + 1
        complete = line.endswith(b"\n")
        row = _parse_row(line)
        if row is None and not line.isspace():
            if not complete:
                warnings.warn(f"{fh.name}:{lineno}: skipping torn final line", stacklevel=2)
                return
            raise CorruptStoreError(f"{fh.name}:{lineno}: not a JSON object")
        if complete:  # a final row without its newline is read again next time
            end.offset += len(line)
            end.lines = lineno
        if row is not None:
            yield lineno, row


def is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def append_jsonl(path: Path, rows: list[dict]) -> tuple[int, bytes] | None:
    """Append ``rows`` to the JSONL store at ``path`` in one write, then close it.

    The rows start on a fresh line of the file as it is now, even if
    something else appended to it since: a torn final line (one that does
    not parse) is cut off, and a whole row missing only its newline gets
    one.  Callers serialize appends to one path.

    Returns the file's size before the write and the bytes written there,
    or None when the file's end was repaired first.
    """
    blob = "".join(_encode_row(row) + "\n" for row in rows).encode("utf-8")
    with open(path, "a+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        written = size, blob
        if size:
            fh.seek(size - 1)
            if fh.read(1) != b"\n":
                written = None
                fh.seek(0)
                data = fh.read()
                start = data.rfind(b"\n") + 1
                if _parse_row(data[start:]) is None:
                    fh.truncate(start)  # the torn line read_jsonl skipped
                else:
                    blob = b"\n" + blob
        fh.write(blob)
    return written


def _is_value(value) -> bool:
    return value in (0.0, 0.5, 1.0) and not isinstance(value, bool)  # True == 1.0


# Each row kind under its payload field: the check a payload read from a
# store must pass, and what else a row records besides its "key", in the
# order put() is given it.  A row is of the first kind whose field it has.
ROW_KINDS: dict[str, tuple[Callable[[object], bool], tuple[str, ...]]] = {
    "value": (_is_value, ("s", "a_id", "b_id", "answer")),  # a judgment: no, abstain or yes
    "completions": (is_string_list, ()),  # a proposer request's completions
}


def _payload(row: dict) -> object | None:
    """The payload of ``row`` if it is a usable row of one of the kinds, else None."""
    if isinstance(row.get("key"), str):
        for field, (check, _) in ROW_KINDS.items():
            if field in row:
                payload = row[field]
                return payload if check(payload) else None
    return None


@dataclass
class _StoreIndex:
    """The usable rows of one store file, as far as they have been read."""

    file: tuple[int, int]  # (st_dev, st_ino)
    end: JsonlEnd
    crc: int  # zlib.crc32 of the file's bytes before end.offset
    rows: dict[str, object]  # row key -> payload


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
                index = _StoreIndex(file, JsonlEnd(), 0, {})  # drops the rows held before
            end = replace(index.end)
            fresh: dict[str, object] = {}
            for lineno, row in read_jsonl(fh, end):
                payload = _payload(row)
                if payload is None:
                    raise CorruptStoreError(
                        f'{path}:{lineno}: a row needs a "key" and a "value" of 0, 0.5 or 1,'
                        ' or "completions" that are a list of strings'
                    )
                fresh[row["key"]] = payload
            index.crc = _crc(fh, index.end.offset, end.offset, index.crc)
            index.end = end
            if index.rows:
                index.rows.update(fresh)
            else:  # a full read: no copy
                index.rows = fresh
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
        index.rows.update((row["key"], _payload(row)) for row in rows)


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
    """Results kept in an append-only jsonl store, or nothing without one.

    Every row kind of :data:`ROW_KINDS` is cached the same way: keyed by
    the sha256 row :meth:`key` of what the result answers, a judgment's
    (backend id, description, text A, text B) or a proposer request's
    (backend id, ``request_hash``).  The rows this cache put are looked up
    before the store's rows, so a result is served again and queued once
    even after the process has opened another store.  :meth:`lookup` builds
    the keys of many judgments from each text's JSON encoding, computed once
    per call.  A store row without a string ``key``, or whose payload fails
    its kind's check, raises :class:`CorruptStoreError`.

    The store is created when the cache is built, so a store that cannot be
    written fails before any request is sent.  :meth:`put` records new
    results in memory and queues their rows; :meth:`flush` appends the
    queued rows in one write, as ``propose`` does with its completions and
    ``Verifier.estimate_cas`` with each description's judgments.  No file
    is held open between writes.  Without a store nothing is hashed, kept
    or written.

    A process holds the rows of one store, the one opened last (see
    :func:`_read_store`): opening it again decodes only the rows other
    writers appended since, and this process's own appends are taken
    without reading them back.
    """

    def __init__(self, path: str | Path | None = None):
        self.path = Path(path) if path is not None else None
        self._index: _StoreIndex | None = None
        self._stored: dict[str, object] = {}
        self._put: dict[str, object] = {}  # row key -> payload, of the rows this cache put
        if self.path is not None:
            open(self.path, "ab").close()  # creates it; an unwritable path fails before judging
            self._index = _read_store(self.path)
            self._stored = self._index.rows
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

    def get(self, key: str | None) -> object | None:
        """The result cached under the row ``key``, or None (always, without a store)."""
        found = self._put.get(key)
        return found if found is not None else self._stored.get(key)

    def lookup(
        self, backend_id: str, descriptions: Sequence[str], texts: Sequence[tuple[str, str]]
    ) -> Iterator[tuple[list[float | None], list[str] | None]]:
        """Per description, the cached value of each (text A, text B) judgment or None.

        Each is yielded with the judgments' row keys, or None without a
        store: then nothing is hashed and every value is None.  Pass a new
        judgment's key on to :meth:`put`, so it is hashed once.
        """
        if self.path is None:
            for _ in descriptions:
                yield [None] * len(texts), None
            return
        # Single dict reads are atomic; only put() needs the lock.
        ours, stored = self._put, self._stored
        for row_keys in _row_keys(backend_id, descriptions, texts):
            values = list(map(stored.get, row_keys))
            if ours:
                values = [ours.get(k, v) for k, v in zip(row_keys, values)]
            yield values, row_keys

    def put(self, field: str, new: Iterable[tuple]) -> None:
        """Record new results of the row kind ``field`` and queue their store rows.

        Each is (row key, payload, then the values of the kind's other
        fields).  Only results neither put nor stored already are queued.
        Without a store nothing is recorded.
        """
        if self.path is None:
            return
        fields = ROW_KINDS[field][1]
        with self._lock:
            for key, payload, *values in new:
                if key in self._put or key in self._stored:
                    continue
                self._put[key] = payload
                row = dict(zip(fields, values), key=key)
                row[field] = payload
                self._pending.append(row)

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
        """Write the rows still queued: those of ``Verifier.judge`` calls made alone."""
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
