"""Tests for corpus loading, serialization, and cluster handling."""

from __future__ import annotations

import json
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from distdescribe.predicates import get_predicate

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


# Characters a line-oriented reader could mistake for line ends, or a JSON
# writer could escape differently: only "\n" (after text mode turns "\r\n"
# and "\r" into it) ends a line, as when iterating over a text-mode file.
_AWKWARD = "\"\\\r\t\u2028\u2029\x85\x0b\x0c\x1c\x1d\x1e" + "aé—ü漢😀 "
_awkward_text = st.text(alphabet=_AWKWARD + "\n", min_size=1, max_size=12)
_awkward_line = st.text(alphabet=_AWKWARD.replace("\r", ""), min_size=1, max_size=12)


def _read_lines_per_line(path):
    """The reference reader: iterate over the file in text mode, drop each terminator."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line[:-1] if line.endswith("\n") else line for line in fh]


@settings(max_examples=150, derandomize=True, database=None)
@given(texts=st.lists(_awkward_text, min_size=1, max_size=6))
@example(texts=["a\u2028b", "c\x85d\x0be\x0cf", "g\x1ch\x1di\x1ej\u2029", "\r\n", "\"\\"])
def test_save_corpus_bytes_and_round_trip(tmp_path_factory, texts):
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    corpus = Corpus(
        name="c", samples=tuple(Sample(id=f"c:{i}", text=t) for i, t in enumerate(texts))
    )
    save_corpus(corpus, path)
    expected = "".join(json.dumps({"text": t}, ensure_ascii=False) + "\n" for t in texts)
    assert path.read_bytes() == expected.encode("utf-8")
    loaded = load_corpus(path, "jsonl")
    assert [(s.id, s.text) for s in loaded.samples] == [(s.id, s.text) for s in corpus.samples]


@settings(max_examples=150, derandomize=True, database=None)
@given(
    lines=st.lists(_awkward_line, min_size=1, max_size=6),
    ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=6, max_size=6),
    last_end=st.sampled_from(["", "\n", "\r\n", "\r"]),
)
@example(lines=["a\u2028b", "c\x85d", "e\x0bf\x0cg", "h\x1ci\x1dj\x1ek\u2029"],
         ends=["\n", "\r\n", "\r", "\n", "\n", "\n"], last_end="")
def test_lines_file_splits_only_where_line_iteration_did(tmp_path_factory, lines, ends, last_end):
    content = "".join(line + end for line, end in zip(lines, ends[: len(lines) - 1] + [last_end]))
    path = tmp_path_factory.mktemp("lines") / "c.txt"
    path.write_bytes(content.encode("utf-8"))
    expected = _read_lines_per_line(path)
    assert expected == lines
    assert [s.text for s in load_corpus(path, "lines").samples] == expected


_VALID = '{"text": "ok", "cluster": "c"}'
_OTHER = '{"text": "other", "cluster": "d"}'
_MALFORMED = [
    ("", "blank line"),
    ('{"text": ', "invalid JSON: Expecting value"),
    ('{"text": "a"} x', "invalid JSON: Extra data"),
    ('["a"]', "record is not an object"),
    ('"a"', "record is not an object"),
    ('{"cluster": "c"}', 'missing "text" field'),
    ('{"text": 5, "cluster": "c"}', '"text" is not a string'),
    ('{"text": null, "cluster": "c"}', '"text" is not a string'),
    ('{"text": "", "cluster": "c"}', "empty text"),
]
_MALFORMED_CLUSTER = [
    ('{"text": "a"}', 'missing "cluster" field'),
    ('{"text": "a", "cluster": ""}', '"cluster" is not a non-empty string'),
    ('{"text": "a", "cluster": 3}', '"cluster" is not a non-empty string'),
]
# Only the file's first character may be a byte-order mark.
_BOM_LATER = ("\ufeff" + _VALID, "invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")


def _malformed_cases():
    loaders = {"jsonl": partial(load_corpus, format="jsonl"), "clustered": load_clustered}
    for loader, load in loaders.items():
        rows = _MALFORMED + (_MALFORMED_CLUSTER if loader == "clustered" else [])
        for bad, reason in rows:
            yield pytest.param(load, [bad, _VALID, _OTHER], 1, reason, id=f"{loader}-1-{reason}")
            yield pytest.param(
                load, [_VALID, _OTHER, bad, _VALID], 3, reason, id=f"{loader}-3-{reason}"
            )
        yield pytest.param(load, [_VALID, _BOM_LATER[0], _OTHER], 2, _BOM_LATER[1],
                           id=f"{loader}-2-bom")
    lines = partial(load_corpus, format="lines")
    yield pytest.param(lines, ["", "a"], 1, "blank line", id="lines-1-blank line")
    yield pytest.param(lines, ["a", "b", "", "c"], 3, "blank line", id="lines-3-blank line")


@pytest.mark.parametrize("load, rows, line_number, reason", _malformed_cases())
def test_malformed_record_messages(tmp_path, load, rows, line_number, reason):
    path = tmp_path / "bad.jsonl"
    path.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(MalformedRecordError) as info:
        load(path)
    assert (info.value.line_number, info.value.reason) == (line_number, reason)
    assert str(info.value) == f"line {line_number}: {reason}"


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_lines_file_with_byte_order_mark(tmp_path, newline):
    path = tmp_path / "bom.txt"
    path.write_bytes(("\ufeffHello there" + newline + "\ufeffsecond" + newline).encode("utf-8"))
    texts = [s.text for s in load_corpus(path, "lines").samples]
    # The mark is dropped at the start of the file only.
    assert texts == ["Hello there", "\ufeffsecond"]
    assert get_predicate("greeting").satisfied(texts[0])


def test_jsonl_and_clustered_files_with_byte_order_mark(tmp_path):
    path = tmp_path / "bom.jsonl"
    path.write_bytes(("\ufeff" + _VALID + "\n" + _OTHER + "\n").encode("utf-8"))
    assert [s.text for s in load_corpus(path, "jsonl").samples] == ["ok", "other"]
    clustered = load_clustered(path)
    assert {c: [s.text for s in corpus] for c, corpus in clustered.clusters.items()} == {
        "c": ["ok"], "d": ["other"]
    }


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
