"""Tests for the command-line interface: exit codes, output routing, determinism."""

from __future__ import annotations

import argparse
import json
from dataclasses import fields

import pytest

from distdescribe.backends import RecordingBackend, RuleBackend
from distdescribe.bench import generate_task
from distdescribe.cli import RUN_FLAGS, _add_run_flags, _config_from_args, main
from distdescribe.config import (
    CONFIG_FORMAT,
    EndpointConfig,
    RunConfig,
    build_config,
    parse_config_file,
)
from distdescribe.corpus import save_corpus
from distdescribe.errors import ConfigError, PipelineAbortedError
from distdescribe.pipeline import describe_pair

from conftest import write_jsonl


def test_describe_writes_report_and_table(zebra_task_files, tmp_path, capsys):
    d0, d1 = zebra_task_files
    out = tmp_path / "report.json"
    rc = main(["describe", "--d0", str(d0), "--d1", str(d1), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "contains the word 'zebra'" in captured.out
    assert captured.err == ""
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["format"] == "distdescribe-report-v1"
    assert payload["ranked"][0]["s"] == "contains the word 'zebra'"
    assert payload["ranked"][0]["ca"]["mean"] == 1.0


def test_describe_without_out_prints_table_only(zebra_task_files, capsys):
    d0, d1 = zebra_task_files
    rc = main(["describe", "--d0", str(d0), "--d1", str(d1)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "contains the word 'zebra'" in out
    assert not out.lstrip().startswith("{")


def test_describe_deterministic_byte_identical(zebra_task_files, tmp_path, capsys):
    d0, d1 = zebra_task_files
    out = tmp_path / "r.json"
    argv = ["describe", "--d0", str(d0), "--d1", str(d1), "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    second = out.read_bytes()
    assert first == second
    capsys.readouterr()


def test_missing_corpus_file_exits_2(tmp_path, capsys):
    rc = main(
        ["describe", "--d0", str(tmp_path / "nope.jsonl"), "--d1", str(tmp_path / "nope.jsonl")]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("distdescribe:")


def test_bad_config_file_exits_2(zebra_task_files, tmp_path, capsys):
    d0, d1 = zebra_task_files
    conf = tmp_path / "bad.conf"
    conf.write_text("wrong-header\nseed = 1\n", encoding="utf-8")
    rc = main(["describe", "--d0", str(d0), "--d1", str(d1), "--config", str(conf)])
    assert rc == 2
    assert "distdescribe:" in capsys.readouterr().err


def test_config_file_flags_precedence(zebra_task_files, tmp_path, capsys):
    d0, d1 = zebra_task_files
    conf = tmp_path / "run.conf"
    conf.write_text(f"{CONFIG_FORMAT}\nn_pairs = 123\ntop_k = 2\n", encoding="utf-8")
    out = tmp_path / "r.json"
    rc = main(
        [
            "describe",
            "--d0",
            str(d0),
            "--d1",
            str(d1),
            "--config",
            str(conf),
            "--top-k",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["n_pairs"] == 123  # file beats default
    assert payload["config"]["top_k"] == 1  # flag beats file
    assert len(payload["ranked"]) == 1


def test_replay_miss_exits_3(zebra_task_files, tmp_path, capsys):
    d0, d1 = zebra_task_files
    empty = tmp_path / "empty-transcript.jsonl"
    empty.write_text("", encoding="utf-8")
    rc = main(
        [
            "describe",
            "--d0",
            str(d0),
            "--d1",
            str(d1),
            "--verifier-backend",
            f"replay:{empty}",
        ]
    )
    assert rc == 3
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, row",
    [
        ("--cache", {"key": "0f3a", "value": "yes"}),
        ("--verifier-backend", {"kind": "judge", "response": "yes"}),
        ("--verifier-backend", {"kind": "judge", "hash": "0f3a", "response": ["yes"]}),
        ("--proposer-backend", {"kind": "complete", "hash": "0f3a", "response": "is longer"}),
        ("--cache", {"key": "0f3a", "completions": "is longer"}),
        ("--cache", {"key": "0f3a", "completions": ["is longer", 1]}),
    ],
)
def test_unusable_store_row_exits_2(zebra_task_files, tmp_path, capsys, flag, row):
    d0, d1 = zebra_task_files
    store = tmp_path / "store.jsonl"
    store.write_text(json.dumps(row) + "\n", encoding="utf-8")
    value = f"replay:{store}" if flag.endswith("-backend") else str(store)
    rc = main(["describe", "--d0", str(d0), "--d1", str(d1), flag, value])
    assert rc == 2
    assert f"{store}:1: a row needs" in capsys.readouterr().err


def test_warm_describe_with_cache_sends_no_request(
    zebra_task_files, tmp_path, capsys, monkeypatch
):
    requests = []
    complete, judge = RuleBackend.complete, RuleBackend.judge

    def counting_complete(self, req):
        requests.append(req)
        return complete(self, req)

    def counting_judge(self, req):
        requests.append(req)
        return judge(self, req)

    monkeypatch.setattr(RuleBackend, "complete", counting_complete)
    monkeypatch.setattr(RuleBackend, "judge", counting_judge)
    d0, d1 = zebra_task_files
    out = tmp_path / "report.json"
    argv = ["describe", "--d0", str(d0), "--d1", str(d1), "--cache", str(tmp_path / "c.jsonl")]
    argv += ["--out", str(out)]
    assert main(argv) == 0
    cold = capsys.readouterr().out, out.read_bytes()
    assert requests
    requests.clear()
    assert main(argv) == 0
    assert requests == []
    assert (capsys.readouterr().out, out.read_bytes()) == cold


class _AbstainingJudge(RuleBackend):
    def judge(self, req):
        return "maybe"


def test_aborted_pipeline_exits_4(tmp_path, capsys):
    task = generate_task("question", 1.0, 0.0, 30, seed=21)
    d0 = tmp_path / "d0.jsonl"
    d1 = tmp_path / "d1.jsonl"
    save_corpus(task.pair.d0, d0)
    save_corpus(task.pair.d1, d1)
    p_store = tmp_path / "proposer.jsonl"
    v_store = tmp_path / "verifier.jsonl"
    proposer = RecordingBackend(RuleBackend(), p_store)
    verifier = RecordingBackend(_AbstainingJudge(), v_store)
    with pytest.raises(PipelineAbortedError):
        describe_pair(task.pair, RunConfig(), proposer_backend=proposer, verifier_backend=verifier)
    rc = main(
        [
            "describe",
            "--d0",
            str(d0),
            "--d1",
            str(d1),
            "--proposer-backend",
            f"replay:{p_store}",
            "--verifier-backend",
            f"replay:{v_store}",
        ]
    )
    assert rc == 4
    assert "distdescribe:" in capsys.readouterr().err


def test_verify_exhaustive_output(zebra_task_files, capsys):
    d0, d1 = zebra_task_files
    rc = main(
        [
            "verify",
            "--hypothesis",
            "contains the word 'zebra'",
            "--d0",
            str(d0),
            "--d1",
            str(d1),
            "--n-pairs",
            "3600",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("CA 1.000 stderr 0.000")
    assert "exhaustive" in out


def test_verify_sampled_output(zebra_task_files, capsys):
    d0, d1 = zebra_task_files
    rc = main(
        [
            "verify",
            "--hypothesis",
            "contains the word 'zebra'",
            "--d0",
            str(d0),
            "--d1",
            str(d1),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sampled seed=0" in out
    assert "n_pairs=400" in out


def test_verify_of_an_unparseable_description_exits_4(zebra_task_files, capsys):
    d0, d1 = zebra_task_files
    rc = main(["verify", "--hypothesis", "", "--d0", str(d0), "--d1", str(d1)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""  # no CA printed
    assert "warning: 800 of 800 judgments abstained" in captured.err
    assert "aborting" in captured.err


def test_verify_against_a_failing_endpoint_exits_4(zebra_task_files, tmp_path, capsys, http_server):
    url, script = http_server(lambda path, body: (500, {"error": "down"}))
    conf = tmp_path / "run.conf"
    conf.write_text(f"{CONFIG_FORMAT}\nverifier.backoff_s = 0.001\n", encoding="utf-8")
    d0, d1 = zebra_task_files
    argv = ["verify", "--hypothesis", "contains the word 'zebra'", "--d0", str(d0), "--d1", str(d1)]
    argv += ["--verifier-backend", "http", "--verifier-base-url", url, "--n-pairs", "2"]
    rc = main(argv + ["--config", str(conf)])
    assert rc == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "warning: 4 judgments failed and were scored as abstentions" in captured.err
    assert "4 of 4 judgments abstained" in captured.err
    assert script.hits == 4 * 3  # each judgment tried retries = 3 times


def test_verify_cache_writes_store_then_serves_repeat(
    zebra_task_files, tmp_path, capsys, monkeypatch
):
    d0, d1 = zebra_task_files
    store = tmp_path / "c.jsonl"
    calls = []
    original_judge = RuleBackend.judge

    def counted_judge(self, req):
        calls.append(req)
        return original_judge(self, req)

    monkeypatch.setattr(RuleBackend, "judge", counted_judge)
    argv = [
        "verify",
        "--hypothesis",
        "contains the word 'zebra'",
        "--d0",
        str(d0),
        "--d1",
        str(d1),
        "--n-pairs",
        "50",
        "--cache",
        str(store),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert calls
    assert store.exists() and store.stat().st_size > 0
    calls.clear()
    assert main(argv) == 0
    assert calls == []
    assert capsys.readouterr().out == first


def test_verify_cache_that_cannot_be_created_exits_2_before_judging(
    zebra_task_files, tmp_path, capsys, monkeypatch
):
    d0, d1 = zebra_task_files
    store = tmp_path / "missing" / "c.jsonl"
    calls = []
    monkeypatch.setattr(RuleBackend, "judge", lambda self, req: calls.append(req) or "yes")
    argv = ["verify", "--hypothesis", "contains the word 'zebra'", "--d0", str(d0), "--d1", str(d1)]
    assert main(argv + ["--cache", str(store)]) == 2
    assert "distdescribe:" in capsys.readouterr().err
    assert calls == []
    assert not store.parent.exists()


def test_gen_bench_then_bench_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["gen-bench", "--gold", "question", "--q1", "1.0", "--q0", "0.0", "--n", "40", "--seed", "5"])
    assert rc == 0
    assert "wrote 1 task(s) to bench-question" in capsys.readouterr().out
    assert (tmp_path / "bench-question" / "manifest.jsonl").exists()

    rc = main(["bench", "--suite", str(tmp_path / "bench-question")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hit rate: 1/1" in out


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda row: {k: v for k, v in row.items() if k != "gold"}, 'missing "gold"'),
        (lambda row: ["x"], "not a JSON object"),
        (lambda row: {**row, "task": "00"}, '"task" is not an integer'),
        (lambda row: {**row, "gold": "nope"}, "\"gold\" 'nope' is not a registered predicate"),
    ],
    ids=["missing-field", "non-object", "string-task", "unknown-gold"],
)
def test_bench_malformed_manifest_row_exits_2(tmp_path, capsys, edit, message):
    suite = tmp_path / "suite"
    assert main(["gen-bench", "--tasks", "2", "--n", "20", "--out", str(suite)]) == 0
    manifest = suite / "manifest.jsonl"
    first, second = manifest.read_text(encoding="utf-8").splitlines()
    edited = json.dumps(edit(json.loads(second)))
    manifest.write_text(f"{first}\n\n{edited}\n", encoding="utf-8")  # blank lines are skipped
    capsys.readouterr()
    rc = main(["bench", "--suite", str(suite)])
    assert rc == 2
    assert f"line 3: {message} in {manifest}" in capsys.readouterr().err


def test_gen_bench_gold_requires_rates(capsys):
    rc = main(["gen-bench", "--gold", "question"])
    assert rc == 2
    assert "distdescribe:" in capsys.readouterr().err


def test_gen_bench_suite_mode(tmp_path, capsys):
    out_dir = tmp_path / "suite"
    rc = main(["gen-bench", "--tasks", "3", "--n", "20", "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    manifest = (out_dir / "manifest.jsonl").read_text(encoding="utf-8")
    assert len(manifest.splitlines()) == 3


def test_scan_subcommand(tmp_path, capsys):
    rows = []
    for i in range(30):
        rows.append({"text": f"plain entry number {i} stands alone", "cluster": "plain"})
        rows.append({"text": f"is entry number {i} a question?", "cluster": "asking"})
    data = write_jsonl(tmp_path / "labeled.jsonl", rows)
    rc = main(["scan", "--input", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "asking vs plain" in out or "plain vs asking" in out


def test_scan_unknown_label_exits_2(tmp_path, capsys):
    rows = [
        {"text": "alpha beta gamma", "cluster": "a"},
        {"text": "delta epsilon zeta", "cluster": "a"},
        {"text": "is this one? yes", "cluster": "b"},
        {"text": "another line here", "cluster": "b"},
    ]
    data = write_jsonl(tmp_path / "labeled.jsonl", rows)
    rc = main(["scan", "--input", str(data), "--labels", "a,zz"])
    assert rc == 2
    assert "zz" in capsys.readouterr().err


def test_shift_subcommand(tmp_path, capsys):
    train = write_jsonl(
        tmp_path / "train.jsonl",
        [{"text": f"steady sentence number {i}"} for i in range(40)],
    )
    test = write_jsonl(
        tmp_path / "test.jsonl",
        [{"text": f"is sentence {i} drifting?"} for i in range(40)],
    )
    rc = main(["shift", "--train", str(train), "--test", str(test)])
    assert rc == 0
    assert "contains a question mark" in capsys.readouterr().out


def test_label_clusters_subcommand(tmp_path, capsys):
    rows = []
    for i in range(30):
        rows.append({"text": f"plain entry number {i} rests here", "cluster": "plain"})
        rows.append({"text": f"is entry {i} missing again?", "cluster": "asking"})
    data = write_jsonl(tmp_path / "clusters.jsonl", rows)
    rc = main(["label-clusters", "--input", str(data)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== cluster asking ===" in out
    assert "contains a question mark" in out


def test_dump_prompt_ends_with_instruction(zebra_task_files, capsys):
    d0, d1 = zebra_task_files
    rc = main(["dump-prompt", "--d0", str(d0), "--d1", str(d1)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n").endswith("Compared to group 0, each sentence from group 1")
    assert out.startswith("Group 0:")


def _resolve(config, dest):
    """The config value behind a flag's dest, e.g. proposer_model -> proposer_endpoint.model."""
    for role in ("proposer", "verifier"):
        if not hasattr(config, dest) and dest.startswith(f"{role}_"):
            return getattr(getattr(config, f"{role}_endpoint"), dest[len(role) + 1 :])
    return getattr(config, dest)


# A flag value for each field annotation, unlike every default.
_FLAG_TEXTS = {
    "int": "7",
    "int | None": "7",
    "float": "0.25",
    "str": "replay:t.jsonl",
    "str | None": "replay:t.jsonl",
    "tuple[int, ...]": "7,9",
}


def _annotation(key):
    """The field annotation behind a config key, e.g. proposer.model -> EndpointConfig.model."""
    cls, name = (EndpointConfig, key.partition(".")[2]) if "." in key else (RunConfig, key)
    return {f.name: f.type for f in fields(cls)}[name]


def test_every_run_flag_reaches_the_config():
    parser = argparse.ArgumentParser()
    _add_run_flags(parser)
    flags = [a for a in parser._actions if a.option_strings and a.dest not in ("help", "config")]
    keys = {flag: key for flag, key, _ in RUN_FLAGS}
    argv = []
    for action in flags:
        flag = action.option_strings[0]
        argv += [flag, _FLAG_TEXTS[_annotation(keys[flag])]]
    args = parser.parse_args(argv)
    config = _config_from_args(args)

    for action in flags:
        value = _resolve(config, action.dest)
        assert value == getattr(args, action.dest), action.dest
        assert value != _resolve(RunConfig(), action.dest), action.dest


# Flag texts each annotation's keys reject: unparsable, or out of range.
_REJECTED = {
    "int": ("x", "-1"),
    "int | None": ("x", "-1"),
    "float": ("x",),
    "tuple[int, ...]": ("5,x", "0"),
}
# Keys whose every text is valid until it is used: a URL, a model name, a path.
_FREE_TEXT = {
    "proposer.base_url",
    "proposer.model",
    "verifier.base_url",
    "verifier.model",
    "cache_path",
    "out_path",
}


# Keys that reject more texts than their annotation's.
_REJECTED_BY_KEY = {"temperature": ("x", "nan", "inf", "-3")}


@pytest.mark.parametrize("flag, key", [row[:2] for row in RUN_FLAGS], ids=[r[0] for r in RUN_FLAGS])
def test_bad_flag_value_fails_like_its_config_line(tmp_path, capsys, flag, key):
    texts = _REJECTED_BY_KEY.get(key) or _REJECTED.get(
        _annotation(key), ("telegraph",) if key.endswith("_backend") else ()
    )
    assert texts or key in _FREE_TEXT
    argv = ["describe", "--d0", str(tmp_path / "d0.jsonl"), "--d1", str(tmp_path / "d1.jsonl")]
    conf = tmp_path / "run.conf"
    for text in texts:
        conf.write_text(f"{CONFIG_FORMAT}\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            build_config(parse_config_file(conf))
        assert main(argv + ["--config", str(conf)]) == 2
        assert main(argv + [flag, text]) == 2
        expected = f"distdescribe: {excinfo.value}\n"
        assert capsys.readouterr() == ("", expected * 2), (flag, text)
