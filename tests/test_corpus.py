"""Tests for corpus loading, serialization, and cluster handling."""

from __future__ import annotations

import json

import pytest

from distdescribe.corpus import (
    ClusteredCorpus,
    Corpus,
    Sample,
    load_clustered,
    load_corpus,
    one_vs_rest,
    save_corpus,
)
from distdescribe.errors import (
    EmptyCorpusError,
    FewerThanTwoClustersError,
    MalformedRecordError,
    UnknownClusterError,
)

from conftest import write_jsonl


def test_load_jsonl_order_and_ids(jsonl_corpus):
    corpus = load_corpus(jsonl_corpus, "jsonl", name="small")
    assert [s.text for s in corpus.samples] == ["a", "b", "c"]
    assert [s.id for s in corpus.samples] == ["small:0", "small:1", "small:2"]


def test_load_lines(tmp_path):
    path = tmp_path / "plain.txt"
    path.write_text("first line\nsecond line\n", encoding="utf-8")
    corpus = load_corpus(path, "lines")
    assert [s.text for s in corpus.samples] == ["first line", "second line"]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path / "absent.jsonl", "jsonl")


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path, "jsonl")


def test_load_rejects_empty_text(tmp_path):
    path = write_jsonl(tmp_path / "blank.jsonl", [{"text": "ok"}, {"text": ""}])
    with pytest.raises(MalformedRecordError) as excinfo:
        load_corpus(path, "jsonl")
    assert excinfo.value.line_number == 2


def test_load_rejects_missing_text_key(tmp_path):
    path = write_jsonl(tmp_path / "nokey.jsonl", [{"body": "oops"}])
    with pytest.raises(MalformedRecordError):
        load_corpus(path, "jsonl")


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"text": "ok"}\nnot json\n', encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        load_corpus(path, "jsonl")
    assert excinfo.value.line_number == 2


def test_duplicates_are_retained(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("hello\nhello\n", encoding="utf-8")
    corpus = load_corpus(path, "lines")
    assert [s.text for s in corpus.samples] == ["hello", "hello"]
    assert len({s.id for s in corpus.samples}) == 2


def test_trailing_newline_stripped_text_otherwise_verbatim(tmp_path):
    path = write_jsonl(tmp_path / "ws.jsonl", [{"text": "  spaced \tout  "}])
    corpus = load_corpus(path, "jsonl")
    assert corpus.samples[0].text == "  spaced \tout  "


def test_round_trip_byte_exact(tmp_path):
    texts = ["plain", "has \"quotes\"", "tab\there", "unicode: café — ok", "abc\n", "a\r\n", "\r", "\n"]
    src = write_jsonl(tmp_path / "src.jsonl", [{"text": t} for t in texts])
    corpus = load_corpus(src, "jsonl")
    assert [s.text for s in corpus.samples] == texts
    out = tmp_path / "out.jsonl"
    save_corpus(corpus, out)
    reloaded = load_corpus(out, "jsonl")
    assert [s.text for s in reloaded.samples] == texts


def test_ids_stable_across_loads(jsonl_corpus):
    first = load_corpus(jsonl_corpus, "jsonl")
    second = load_corpus(jsonl_corpus, "jsonl")
    assert [s.id for s in first.samples] == [s.id for s in second.samples]


def test_load_clustered_groups_in_order(tmp_path):
    path = write_jsonl(
        tmp_path / "clusters.jsonl",
        [
            {"text": "a", "cluster": "c1"},
            {"text": "b", "cluster": "c2"},
            {"text": "c", "cluster": "c1"},
        ],
    )
    clustered = load_clustered(path)
    assert set(clustered.clusters) == {"c1", "c2"}
    assert [s.text for s in clustered.clusters["c1"].samples] == ["a", "c"]
    assert [s.text for s in clustered.clusters["c2"].samples] == ["b"]


def test_load_clustered_keeps_text_verbatim(tmp_path):
    texts = ["abc\n", "a\r\n", "\r", "\n"]
    rows = [{"text": t, "cluster": f"c{i % 2}"} for i, t in enumerate(texts)]
    clustered = load_clustered(write_jsonl(tmp_path / "clusters.jsonl", rows))
    assert [s.text for s in clustered.clusters["c0"].samples] == ["abc\n", "\r"]
    assert [s.text for s in clustered.clusters["c1"].samples] == ["a\r\n", "\n"]


def test_load_clustered_single_cluster_rejected(tmp_path):
    path = write_jsonl(
        tmp_path / "one.jsonl",
        [{"text": "a", "cluster": "only"}, {"text": "b", "cluster": "only"}],
    )
    with pytest.raises(FewerThanTwoClustersError):
        load_clustered(path)


def test_load_clustered_missing_cluster_key(tmp_path):
    path = write_jsonl(tmp_path / "nocluster.jsonl", [{"text": "a"}])
    with pytest.raises(MalformedRecordError):
        load_clustered(path)


def test_load_clustered_many_clusters(tmp_path):
    rows = [{"text": f"text {i} {j}", "cluster": f"c{i:02d}"} for i in range(64) for j in range(3)]
    clustered = load_clustered(write_jsonl(tmp_path / "many.jsonl", rows))
    assert len(clustered.clusters) == 64
    assert all(len(c.samples) == 3 for c in clustered.clusters.values())


def _clustered(mapping):
    clusters = {}
    for cid, texts in mapping.items():
        samples = tuple(Sample(id=f"{cid}:{i}", text=t) for i, t in enumerate(texts))
        clusters[cid] = Corpus(name=cid, samples=samples)
    return ClusteredCorpus(clusters=clusters)


def test_one_vs_rest_basic():
    pair = one_vs_rest(_clustered({"c1": ["a", "c"], "c2": ["b"]}), "c1")
    assert [s.text for s in pair.d1.samples] == ["a", "c"]
    assert [s.text for s in pair.d0.samples] == ["b"]


def test_one_vs_rest_rest_in_sorted_cluster_order():
    pair = one_vs_rest(_clustered({"c3": ["c"], "c1": ["a"], "c2": ["b"]}), "c2")
    assert [s.text for s in pair.d0.samples] == ["a", "c"]


def test_one_vs_rest_unknown_target():
    with pytest.raises(UnknownClusterError):
        one_vs_rest(_clustered({"c1": ["a"], "c2": ["b"]}), "zz")


def test_one_vs_rest_partitions_full_multiset():
    clustered = _clustered({"c1": ["a", "b"], "c2": ["b"], "c3": ["c", "d", "d"]})
    everything = sorted(s.text for c in clustered.clusters.values() for s in c.samples)
    union = []
    for cid in clustered.clusters:
        union.extend(s.text for s in one_vs_rest(clustered, cid).d1.samples)
    assert sorted(union) == everything
