"""Tests for the hashed-feature linear discriminator and representative-sample selection."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from distdescribe.bench import generate_task
from distdescribe.corpus import Sample
from distdescribe.discriminator import (
    FEATURE_SPACE,
    Discriminator,
    TrainConfig,
    confidence,
    featurize,
    held_out_accuracy,
    select_percentile,
    train,
)
from distdescribe.errors import DegenerateDataError

from conftest import make_pair

GOLDEN_DISCRIMINATOR = Path(__file__).parent / "data" / "golden_discriminator.json"


def _separable_pair(n=100):
    d1 = [f"the zebra walked past point {i}" for i in range(n)]
    d0 = [f"the horse walked past point {i}" for i in range(n)]
    return make_pair(d0, d1)


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


def test_train_requires_two_per_side():
    with pytest.raises(DegenerateDataError):
        train(make_pair(["only one"], ["a", "b"]), TrainConfig())


def test_train_separable_holdout_accuracy():
    disc = train(_separable_pair(), TrainConfig())
    assert held_out_accuracy(disc, _separable_pair()) >= 0.95


def test_train_deterministic_given_seed():
    pair = _separable_pair()
    a = train(pair, TrainConfig(seed=7))
    b = train(pair, TrainConfig(seed=7))
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias


def test_train_identical_sides_near_chance():
    texts = [f"the same sentence number {i}" for i in range(60)]
    pair = make_pair(texts, texts)
    disc = train(pair, TrainConfig())
    assert 0.35 <= held_out_accuracy(disc, pair) <= 0.65


def test_label_swap_symmetry():
    pair = _separable_pair()
    swapped = make_pair([s.text for s in pair.d1.samples], [s.text for s in pair.d0.samples])
    acc = held_out_accuracy(train(pair, TrainConfig()), pair)
    acc_swapped = held_out_accuracy(train(swapped, TrainConfig()), swapped)
    assert abs(acc - acc_swapped) <= 0.02


def test_confidence_complement_identity():
    pair = _separable_pair()
    disc = train(pair, TrainConfig())
    for sample in list(pair.d0.samples)[:50] + list(pair.d1.samples)[:50]:
        c1 = confidence(disc, sample, 1)
        c0 = confidence(disc, sample, 0)
        assert 0.0 <= c1 <= 1.0
        assert abs((c0 + c1) - 1.0) <= 1e-12


def test_confidence_zero_weights_is_half():
    disc = Discriminator(
        weights=np.zeros(FEATURE_SPACE), bias=0.0, config=TrainConfig()
    )
    sample = Sample(id="x:0", text="anything at all")
    assert confidence(disc, sample, 0) == 0.5
    assert confidence(disc, sample, 1) == 0.5


def test_confidence_high_for_marker_token():
    pair = _separable_pair()
    disc = train(pair, TrainConfig())
    assert confidence(disc, Sample(id="q:0", text="zebra zebra"), 1) > 0.9


def test_confidence_rejects_bad_side():
    disc = train(_separable_pair(), TrainConfig())
    with pytest.raises(ValueError):
        confidence(disc, Sample(id="q:0", text="x"), 2)


def test_select_percentile_counts():
    pair = _separable_pair(200)
    disc = train(pair, TrainConfig())
    rep = select_percentile(disc, pair, 5)
    assert len(rep.d1_samples) == 10
    assert len(rep.d0_samples) == 10
    assert rep.percentile == 5


def test_select_percentile_full():
    pair = _separable_pair(40)
    disc = train(pair, TrainConfig())
    rep = select_percentile(disc, pair, 100)
    assert len(rep.d1_samples) == 40
    confs = [confidence(disc, s, 1) for s in rep.d1_samples]
    assert confs == sorted(confs, reverse=True)


def test_select_percentile_small_side_keeps_everything():
    pair = make_pair(
        ["alpha one", "alpha two", "alpha three"],
        ["beta one", "beta two", "beta three"],
    )
    disc = train(pair, TrainConfig())
    rep = select_percentile(disc, pair, 5)
    assert len(rep.d1_samples) == 3
    assert len(rep.d0_samples) == 3


def test_select_percentile_floor_of_five():
    pair = _separable_pair(20)
    disc = train(pair, TrainConfig())
    rep = select_percentile(disc, pair, 5)  # ceil(0.05*20)=1, floor lifts to 5
    assert len(rep.d1_samples) == 5


def test_select_percentile_nesting():
    pair = _separable_pair(80)
    disc = train(pair, TrainConfig())
    by_p = {p: select_percentile(disc, pair, p) for p in (5, 20, 100)}
    for side in ("d1_samples", "d0_samples"):
        ids5 = {s.id for s in getattr(by_p[5], side)}
        ids20 = {s.id for s in getattr(by_p[20], side)}
        ids100 = {s.id for s in getattr(by_p[100], side)}
        assert ids5 <= ids20 <= ids100


def test_select_percentile_validates_range():
    pair = _separable_pair(10)
    disc = train(pair, TrainConfig())
    with pytest.raises(ValueError):
        select_percentile(disc, pair, 0)
    with pytest.raises(ValueError):
        select_percentile(disc, pair, 101)


def _discriminator_fingerprint() -> dict:
    """Weights, bias, holdout accuracy and selections on one fixed noisy task."""
    task = generate_task("hyperlink", 0.7, 0.3, 500, seed=11)
    disc = train(task.pair, TrainConfig())
    selected = {}
    for p in (5, 20, 100):
        rep = select_percentile(disc, task.pair, p)
        selected[str(p)] = {
            "d1": [s.id for s in rep.d1_samples],
            "d0": [s.id for s in rep.d0_samples],
        }
    return {
        "weights_sha256": hashlib.sha256(disc.weights.tobytes()).hexdigest(),
        "bias": repr(disc.bias),
        "held_out_accuracy": repr(held_out_accuracy(disc, task.pair)),
        "selected": selected,
    }


def test_discriminator_matches_golden_file():
    """Training and selection are pinned bit for bit across builds."""
    golden = json.loads(GOLDEN_DISCRIMINATOR.read_text(encoding="utf-8"))
    assert _discriminator_fingerprint() == golden
