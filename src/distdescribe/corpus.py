"""Text corpora, two-sided distribution pairs, and clustered corpora.

Samples are kept verbatim: only a single trailing newline is stripped per
line, because candidate descriptions may hinge on punctuation or whitespace.
Duplicate texts are retained; they carry distributional weight when pairs
are sampled for accuracy estimation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import (
    EmptyCorpusError,
    FewerThanTwoClustersError,
    MalformedRecordError,
    UnknownClusterError,
)

CORPUS_FORMATS = ("jsonl", "lines")


@dataclass(frozen=True)
class Sample:
    """One text record with a stable opaque identifier."""

    id: str
    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"sample {self.id!r} has empty text")


@dataclass(frozen=True)
class Corpus:
    """An ordered, non-empty collection of samples with unique ids."""

    name: str
    samples: tuple[Sample, ...]

    def __post_init__(self):
        if not self.samples:
            raise EmptyCorpusError(f"corpus {self.name!r} has no samples")
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError(f"corpus {self.name!r} has duplicate sample ids")

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)


@dataclass(frozen=True)
class DistributionPair:
    """The two corpora whose difference is to be described.

    The question the pipeline answers is: how does ``d1`` differ from
    ``d0``?  The corpora may overlap in text content.
    """

    d0: Corpus
    d1: Corpus


@dataclass(frozen=True)
class ClusteredCorpus:
    """Samples grouped under at least two cluster ids."""

    clusters: Mapping[str, Corpus] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.clusters) < 2:
            raise FewerThanTwoClustersError(
                f"need at least 2 clusters, got {len(self.clusters)}"
            )

    def cluster_ids(self) -> list[str]:
        return sorted(self.clusters)


def _strip_trailing_newline(text: str) -> str:
    if text.endswith("\r\n"):
        return text[:-2]
    if text.endswith("\n") or text.endswith("\r"):
        return text[:-1]
    return text


def _iter_jsonl(path: Path) -> Iterable[tuple[int, dict]]:
    with open(path, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            raw = _strip_trailing_newline(line)
            if raw == "":
                raise MalformedRecordError(line_number, "blank line")
            try:
                record = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise MalformedRecordError(line_number, f"invalid JSON: {exc.msg}")
            if not isinstance(record, dict):
                raise MalformedRecordError(line_number, "record is not an object")
            yield line_number, record


def _record_text(line_number: int, record: dict) -> str:
    if "text" not in record:
        raise MalformedRecordError(line_number, 'missing "text" field')
    text = record["text"]
    if not isinstance(text, str):
        raise MalformedRecordError(line_number, '"text" is not a string')
    text = _strip_trailing_newline(text)
    if text == "":
        raise MalformedRecordError(line_number, "empty text")
    return text


def load_corpus(path: str | Path, format: str = "jsonl", name: str | None = None) -> Corpus:
    """Load a corpus from ``path``.

    ``format`` is ``"jsonl"`` (one object per line with a ``"text"`` key) or
    ``"lines"`` (one sample per plain-text line).  Sample ids are the
    zero-based record index prefixed by the corpus name, so repeated loads
    of the same file assign identical ids.
    """
    path = Path(path)
    if format not in CORPUS_FORMATS:
        raise ValueError(f"unknown corpus format {format!r}")
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {path}")
    corpus_name = name if name is not None else path.stem

    samples: list[Sample] = []
    if format == "jsonl":
        for line_number, record in _iter_jsonl(path):
            text = _record_text(line_number, record)
            samples.append(Sample(id=f"{corpus_name}:{len(samples)}", text=text))
    else:
        with open(path, "r", encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                text = _strip_trailing_newline(line)
                if text == "":
                    raise MalformedRecordError(line_number, "blank line")
                samples.append(Sample(id=f"{corpus_name}:{len(samples)}", text=text))

    if not samples:
        raise EmptyCorpusError(f"{path}: zero usable samples")
    return Corpus(name=corpus_name, samples=tuple(samples))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write ``corpus`` back to jsonl, preserving every text byte."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for sample in corpus.samples:
            fh.write(json.dumps({"text": sample.text}, ensure_ascii=False))
            fh.write("\n")


def load_clustered(path: str | Path, name: str | None = None) -> ClusteredCorpus:
    """Load a clustered corpus from jsonl records with "text" and "cluster" keys.

    Per-cluster load order is preserved; ids are assigned by global record
    index so they stay unique when clusters are later concatenated.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"corpus file not found: {path}")
    corpus_name = name if name is not None else path.stem

    grouped: dict[str, list[Sample]] = {}
    index = 0
    for line_number, record in _iter_jsonl(path):
        text = _record_text(line_number, record)
        if "cluster" not in record:
            raise MalformedRecordError(line_number, 'missing "cluster" field')
        cluster = record["cluster"]
        if not isinstance(cluster, str) or cluster == "":
            raise MalformedRecordError(line_number, '"cluster" is not a non-empty string')
        grouped.setdefault(cluster, []).append(
            Sample(id=f"{corpus_name}:{index}", text=text)
        )
        index += 1

    if len(grouped) < 2:
        raise FewerThanTwoClustersError(
            f"{path}: need at least 2 clusters, got {len(grouped)}"
        )
    clusters = {
        cluster: Corpus(name=f"{corpus_name}/{cluster}", samples=tuple(samples))
        for cluster, samples in grouped.items()
    }
    return ClusteredCorpus(clusters=clusters)


def one_vs_rest(clustered: ClusteredCorpus, target: str) -> DistributionPair:
    """Contrast one cluster against the concatenation of all others.

    The rest side concatenates clusters in lexicographic cluster-id order so
    that seeded pair sampling is reproducible.
    """
    if target not in clustered.clusters:
        raise UnknownClusterError(f"no cluster named {target!r}")
    d1 = clustered.clusters[target]
    rest: list[Sample] = []
    for cluster_id in clustered.cluster_ids():
        if cluster_id == target:
            continue
        rest.extend(clustered.clusters[cluster_id].samples)
    d0 = Corpus(name=f"rest-of-{target}", samples=tuple(rest))
    return DistributionPair(d0=d0, d1=d1)
