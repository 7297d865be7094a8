"""Tests for the cross-fitted naive-Bayes discriminator and representative-sample selection."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import distdescribe.discriminator as discriminator
from distdescribe.bench import generate_task
from distdescribe.cli import main
from distdescribe.config import CONFIG_FORMAT, parse_config_file
from distdescribe.corpus import Corpus, DistributionPair, Sample
from distdescribe.discriminator import (
    FEATURE_SPACE,
    K_FOLDS,
    Discriminator,
    _confidence,
    featurize,
    featurize_all,
    select_percentile,
    train,
)
from distdescribe.errors import ConfigError, DegenerateDataError

from conftest import make_pair

GOLDEN_DISCRIMINATOR = Path(__file__).parent / "data" / "golden_discriminator.json"


def _separable_pair(n=100):
    d1 = [f"the zebra walked past point {i}" for i in range(n)]
    d0 = [f"the horse walked past point {i}" for i in range(n)]
    return make_pair(d0, d1)


def _reference_featurize(text):
    """The plain per-text featurizer: one dict update per token and bigram occurrence."""
    tokens = text.lower().split()
    vector = {}
    for gram in tokens + [f"{left}_{right}" for left, right in zip(tokens, tokens[1:])]:
        index = discriminator._fnv1a64(gram.encode("utf-8")) % discriminator.FEATURE_SPACE
        vector[index] = vector.get(index, 0) + 1
    return vector


def _entries_by_text(texts):
    """featurize_all's entries as one ordered (feature index, count) list per text."""
    features, sample, local, counts = featurize_all(texts)
    by_text = [[] for _ in texts]
    for i, index, count in zip(sample.tolist(), features[local].tolist(), counts.tolist()):
        by_text[i].append((index, count))
    return by_text


# Few distinct tokens, so lists repeat tokens and bigrams; "İ" lowercases to
# two code points; "\xa0" and "\u2028" are whitespace to str.split.
_gram_text = st.text(alphabet=st.sampled_from("ab_ İ\n\t\xa0\u2028A"), max_size=14)


@settings(max_examples=300, derandomize=True, database=None)
@given(texts=st.lists(_gram_text, max_size=6))
@example(texts=[" ", "\n", "\t", " \t\n "])
@example(texts=["İ", "İİ i̇", "Straße STRASSE"])
@example(texts=["a_b c", "a b_c", "a_b c a b_c"])
@example(texts=["go go go go", "to be or not to be", "x y x y x y"])
@example(texts=[])
def test_featurize_all_matches_reference_in_entry_order(texts):
    expected = [list(_reference_featurize(text).items()) for text in texts]
    assert _entries_by_text(texts) == expected
    for text, entries in zip(texts, expected):
        assert list(featurize(text).items()) == entries


def test_featurize_all_merges_hash_collisions(monkeypatch):
    monkeypatch.setattr(discriminator, "FEATURE_SPACE", 7)
    texts = ["a b c d e f g h i j", "the cat sat on the mat", "x_y z x y_z", ""]
    expected = [list(_reference_featurize(text).items()) for text in texts]
    assert any(sum(count for _, count in e) > len(e) for e in expected)  # collisions merged
    assert _entries_by_text(texts) == expected
    features, _, _, _ = featurize_all(texts)
    assert features.tolist() == sorted({i for e in expected for i, _ in e})


def test_featurize_all_with_int64_keys_matches_reference(monkeypatch):
    # Large vocabularies and corpora need int64 keys; force that path on small input.
    monkeypatch.setattr(discriminator, "_int_type", lambda limit: np.int64)
    texts = ["the cat sat on the mat", "a_b c a b_c", "", "go go go"]
    expected = [list(_reference_featurize(text).items()) for text in texts]
    assert _entries_by_text(texts) == expected


def test_train_with_hash_collisions_matches_reference_fit(monkeypatch):
    monkeypatch.setattr(discriminator, "FEATURE_SPACE", 13)
    task = generate_task("question", 0.8, 0.1, 30, seed=3)
    pair = make_pair(
        [s.text for s in task.pair.d0.samples[:17]],
        [s.text for s in task.pair.d1.samples[:12]],
    )
    disc = train(pair)
    for side, corpus in enumerate((pair.d0, pair.d1)):
        for position, sample in enumerate(corpus.samples):
            expected = _reference_score(pair, side, position)
            assert math.isclose(disc.scores[side][sample.id], expected, rel_tol=1e-12)


def test_train_hashes_each_distinct_gram_once_per_fit(monkeypatch):
    task = generate_task("question", 0.8, 0.1, 60, seed=3)
    texts = [s.text for corpus in (task.pair.d0, task.pair.d1) for s in corpus.samples]
    texts[:2] = ["a_b c", "a b_c"]  # two bigrams, one string
    pair = make_pair(texts[: len(task.pair.d0)], texts[len(task.pair.d0) :])
    tokens = [text.lower().split() for text in texts]
    distinct = {t for words in tokens for t in words}
    distinct_bigrams = {f"{a}_{b}" for words in tokens for a, b in zip(words, words[1:])}
    original = discriminator._fnv1a64
    calls = []

    def counted(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(discriminator, "_fnv1a64", counted)
    train(pair)
    assert len(calls) == len(distinct) + len(distinct_bigrams)
    train(pair)  # no memo outlives a fit
    assert len(calls) == 2 * (len(distinct) + len(distinct_bigrams))


def test_featurize_empty():
    assert featurize("") == {}


def test_featurize_counts_unigrams_and_bigrams():
    vec = featurize("a b")
    assert sum(vec.values()) == 3  # a, b, a_b
    assert all(0 <= idx < FEATURE_SPACE for idx in vec)
    assert all(count > 0 for count in vec.values())


def test_featurize_case_insensitive_and_deterministic():
    assert featurize("Hello World") == featurize("hello world")
    assert featurize("some longer text here") == featurize("some longer text here")


def test_featurize_repeated_token_counts():
    vec = featurize("go go")
    # tokens: go x2, bigram go_go x1 -> two distinct features unless collided
    assert sum(vec.values()) == 3


def held_out_accuracy(disc: Discriminator) -> float:
    """Accuracy of the out-of-fold scores over every sample of both sides."""
    d0, d1 = disc.scores
    correct = sum(1 for score in d0.values() if score <= 0)
    correct += sum(1 for score in d1.values() if score > 0)
    return correct / (len(d0) + len(d1))


def test_train_requires_two_per_side():
    with pytest.raises(DegenerateDataError):
        train(make_pair(["only one"], ["a", "b"]))


def test_train_separable_holdout_accuracy():
    disc = train(_separable_pair())
    assert held_out_accuracy(disc) >= 0.95


def test_train_deterministic():
    pair = _separable_pair()
    a = train(pair)
    b = train(pair)
    assert a.scores == b.scores
    assert a.ranked == b.ranked


def test_train_identical_sides_near_chance():
    texts = [f"the same sentence number {i}" for i in range(60)]
    pair = make_pair(texts, texts)
    disc = train(pair)
    assert 0.35 <= held_out_accuracy(disc) <= 0.65


def test_label_swap_symmetry():
    pair = _separable_pair()
    swapped = make_pair([s.text for s in pair.d1.samples], [s.text for s in pair.d0.samples])
    acc = held_out_accuracy(train(pair))
    acc_swapped = held_out_accuracy(train(swapped))
    assert abs(acc - acc_swapped) <= 0.02


def test_confidence_complement_identity():
    pair = _separable_pair()
    disc = train(pair)
    for side, corpus in enumerate((pair.d0, pair.d1)):
        for sample in corpus.samples[:50]:
            c1 = _confidence(disc.scores[side][sample.id], 1)
            c0 = _confidence(disc.scores[side][sample.id], 0)
            assert 0.0 <= c1 <= 1.0
            assert abs((c0 + c1) - 1.0) <= 1e-12


def test_confidence_zero_score_is_half():
    sample = Sample(id="x:0", text="anything at all")
    disc = Discriminator(scores=({sample.id: 0.0}, {}), ranked=((sample,), ()))
    assert _confidence(disc.scores[0][sample.id], 0) == 0.5
    assert _confidence(disc.scores[0][sample.id], 1) == 0.5


def test_confidence_high_for_marker_token():
    pair = _separable_pair()
    disc = train(pair)
    assert _confidence(disc.scores[1][pair.d1.samples[3].id], 1) > 0.9


def test_select_percentile_counts():
    pair = _separable_pair(200)
    disc = train(pair)
    rep = select_percentile(disc, 5)
    assert len(rep.d1_samples) == 10
    assert len(rep.d0_samples) == 10
    assert rep.percentile == 5


def test_select_percentile_full():
    pair = _separable_pair(40)
    disc = train(pair)
    rep = select_percentile(disc, 100)
    assert len(rep.d1_samples) == 40
    confs = [_confidence(disc.scores[1][s.id], 1) for s in rep.d1_samples]
    assert confs == sorted(confs, reverse=True)


def test_select_percentile_small_side_keeps_everything():
    pair = make_pair(
        ["alpha one", "alpha two", "alpha three"],
        ["beta one", "beta two", "beta three"],
    )
    disc = train(pair)
    rep = select_percentile(disc, 5)
    assert len(rep.d1_samples) == 3
    assert len(rep.d0_samples) == 3


def test_select_percentile_floor_of_five():
    pair = _separable_pair(20)
    disc = train(pair)
    rep = select_percentile(disc, 5)  # ceil(0.05*20)=1, floor lifts to 5
    assert len(rep.d1_samples) == 5


def test_select_percentile_nesting():
    pair = _separable_pair(80)
    disc = train(pair)
    by_p = {p: select_percentile(disc, p) for p in (5, 20, 100)}
    for side in ("d1_samples", "d0_samples"):
        ids5 = {s.id for s in getattr(by_p[5], side)}
        ids20 = {s.id for s in getattr(by_p[20], side)}
        ids100 = {s.id for s in getattr(by_p[100], side)}
        assert ids5 <= ids20 <= ids100


def test_ranked_sorted_by_confidence_then_id():
    task = generate_task("hyperlink", 0.7, 0.3, 120, seed=11)
    disc = train(task.pair)
    for side, corpus in enumerate((task.pair.d0, task.pair.d1)):
        ranked = disc.ranked[side]
        assert sorted(s.id for s in ranked) == sorted(s.id for s in corpus.samples)
        keys = [(-_confidence(disc.scores[side][s.id], side), s.id) for s in ranked]
        assert keys == sorted(keys)


def test_select_percentile_is_prefix_of_ranking():
    task = generate_task("hyperlink", 0.7, 0.3, 120, seed=11)
    disc = train(task.pair)
    for p in (5, 20, 100):
        rep = select_percentile(disc, p)
        for side, kept in ((0, rep.d0_samples), (1, rep.d1_samples)):
            assert kept == disc.ranked[side][: len(kept)]


def test_select_percentile_validates_range():
    pair = _separable_pair(10)
    disc = train(pair)
    with pytest.raises(ValueError):
        select_percentile(disc, 0)
    with pytest.raises(ValueError):
        select_percentile(disc, 101)


def _discriminator_fingerprint() -> dict:
    """Out-of-fold scores, held-out accuracy and selections on one fixed noisy task."""
    task = generate_task("hyperlink", 0.7, 0.3, 500, seed=11)
    disc = train(task.pair)
    scores = [
        repr(disc.scores[side][s.id])
        for side, corpus in enumerate((task.pair.d0, task.pair.d1))
        for s in corpus.samples
    ]
    selected = {}
    for p in (5, 20, 100):
        rep = select_percentile(disc, p)
        selected[str(p)] = {
            "d1": [s.id for s in rep.d1_samples],
            "d0": [s.id for s in rep.d0_samples],
        }
    return {
        "scores_sha256": hashlib.sha256("\n".join(scores).encode("utf-8")).hexdigest(),
        "held_out_accuracy": repr(held_out_accuracy(disc)),
        "selected": selected,
    }


def test_discriminator_matches_golden_file():
    """Training and selection are pinned bit for bit across builds."""
    golden = json.loads(GOLDEN_DISCRIMINATOR.read_text(encoding="utf-8"))
    assert _discriminator_fingerprint() == golden


def _reference_score(pair, side, position):
    """Plain-Python naive-Bayes fit on every fold but the sample's own, alpha = 1."""
    fold = position % K_FOLDS
    totals = ({}, {})
    sizes = [0, 0]
    for label, corpus in enumerate((pair.d0, pair.d1)):
        for i, sample in enumerate(corpus.samples):
            if i % K_FOLDS == fold:
                continue
            sizes[label] += 1
            for index, count in _reference_featurize(sample.text).items():
                totals[label][index] = totals[label].get(index, 0) + count
    vocab = set(totals[0]) | set(totals[1])
    p = {f: 1 + totals[1].get(f, 0) for f in vocab}
    q = {f: 1 + totals[0].get(f, 0) for f in vocab}
    p_norm, q_norm = sum(p.values()), sum(q.values())
    score = math.log(sizes[1] / sizes[0])
    text = (pair.d0, pair.d1)[side].samples[position].text
    for index, count in _reference_featurize(text).items():
        if index in vocab:
            score += count * (math.log(p[index] / p_norm) - math.log(q[index] / q_norm))
    return score


def test_stored_scores_match_reference_fit_of_other_folds():
    task = generate_task("question", 0.8, 0.1, 30, seed=3)
    pair = make_pair(
        [s.text for s in task.pair.d0.samples[:17]],
        [s.text for s in task.pair.d1.samples[:12]],
    )
    disc = train(pair)
    assert [len(side) for side in disc.scores] == [17, 12]
    for side, corpus in enumerate((pair.d0, pair.d1)):
        for position, sample in enumerate(corpus.samples):
            expected = _reference_score(pair, side, position)
            assert math.isclose(disc.scores[side][sample.id], expected, rel_tol=1e-12)


def test_sample_score_ignores_features_only_it_has():
    task = generate_task("question", 0.8, 0.1, 40, seed=3)
    d1 = list(task.pair.d1.samples)
    d1[2] = Sample(id=d1[2].id, text=d1[2].text + " zzqx")
    changed = DistributionPair(
        d0=task.pair.d0, d1=Corpus(name=task.pair.d1.name, samples=tuple(d1))
    )
    key = d1[2].id
    assert train(changed).scores[1][key] == train(task.pair).scores[1][key]


def test_duplicate_texts_read_their_own_fold_score():
    shared = "is the shared sentence here?"
    d0 = [f"plain words number {i}" for i in range(10)]
    d1 = [f"is this question number {i}?" for i in range(10)]
    d1[0] = d0[1] = shared  # fold 0 of d1, fold 1 of d0
    pair = make_pair(d0, d1)
    disc = train(pair)
    copy1, copy0 = pair.d1.samples[0], pair.d0.samples[1]
    # Each copy's fit saw only the other copy, on the other side.
    assert disc.scores[1][copy1.id] < 0 < disc.scores[0][copy0.id]
    for side, position, sample in ((1, 0, copy1), (0, 1, copy0)):
        score = disc.scores[side][sample.id]
        assert math.isclose(score, _reference_score(pair, side, position), rel_tol=1e-12)
        unrelated = Sample(id=sample.id, text="unrelated")
        assert _confidence(disc.scores[side][sample.id], 1) == _confidence(
            disc.scores[side][unrelated.id], 1
        )


def test_removed_training_knobs_are_rejected(tmp_path, capsys):
    path = tmp_path / "run.conf"
    path.write_text(f"{CONFIG_FORMAT}\nepochs = 5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key 'epochs'"):
        parse_config_file(path)
    for flag in ("--epochs", "--learning-rate"):
        with pytest.raises(SystemExit) as excinfo:
            main(["describe", "--d0", "a.jsonl", "--d1", "b.jsonl", flag, "5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
