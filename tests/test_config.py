"""Tests for run configuration, the config file format, and precedence."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from distdescribe.config import (
    CONFIG_FORMAT,
    EndpointConfig,
    RunConfig,
    build_config,
    parse_config_file,
)
from distdescribe.errors import ConfigError


def _write_config(tmp_path, body, header=CONFIG_FORMAT):
    path = tmp_path / "run.conf"
    text = (header + "\n" if header else "") + body
    path.write_text(text, encoding="utf-8")
    return path


def test_defaults_match_documented_cardinalities():
    config = RunConfig()
    assert config.percentiles == (5, 20, 100)
    assert config.sets_per_percentile == 10
    assert config.completions_per_set == 2
    assert config.samples_per_side == 5
    assert config.n_pairs == 400
    assert config.top_k == 5
    assert config.stop_sequences == (",", ".", "\n")
    assert config.forbidden_tokens == ("group", "Group")
    assert config.temperature == 0.7
    assert config.max_completion_tokens == 32


def test_effective_seeds_default_to_run_seed():
    config = RunConfig(seed=9)
    assert config.effective_pair_seed == 9
    assert config.effective_prompt_seed == 9
    split = RunConfig(seed=9, pair_seed=1, prompt_seed=2)
    assert split.effective_pair_seed == 1
    assert split.effective_prompt_seed == 2


def test_validation_rejects_nonsense():
    with pytest.raises(ConfigError):
        RunConfig(n_pairs=0)
    with pytest.raises(ConfigError):
        RunConfig(top_k=0)
    with pytest.raises(ConfigError):
        RunConfig(percentiles=())
    with pytest.raises(ConfigError):
        RunConfig(percentiles=(0, 20))
    with pytest.raises(ConfigError):
        RunConfig(proposer_backend="telegraph")
    with pytest.raises(ConfigError):
        EndpointConfig(route="smoke-signals")
    with pytest.raises(ConfigError):
        EndpointConfig(retries=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("samples_per_side", 0),
        ("samples_per_side", 6),
        ("sets_per_percentile", 0),
        ("completions_per_set", 0),
        ("max_completion_tokens", 0),
        ("seed", -1),
        ("pair_seed", -1),
        ("prompt_seed", -1),
        ("temperature", float("nan")),
        ("temperature", float("inf")),
        ("temperature", float("-inf")),
        ("temperature", -3.0),
    ],
)
def test_validation_rejects_bad_run_settings(field, value):
    # Each would otherwise fail only mid-run, after the discriminator is trained.
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


def test_zero_temperature_accepted():
    assert RunConfig(temperature=0.0).temperature == 0.0


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout_s", 0.0),
        ("timeout_s", -1.0),
        ("timeout_s", float("nan")),
        ("backoff_s", -0.5),
        ("backoff_s", float("nan")),
    ],
)
def test_validation_rejects_bad_endpoint_timings(field, value):
    # A negative backoff would otherwise fail only after a retryable HTTP error.
    with pytest.raises(ConfigError, match=field):
        EndpointConfig(**{field: value})


def test_replay_selector_accepted():
    config = RunConfig(verifier_backend="replay:/tmp/t.jsonl")
    assert config.verifier_backend.startswith("replay:")


def test_parse_config_file_round_trip(tmp_path):
    path = _write_config(
        tmp_path,
        "\n".join(
            [
                "# comment survives",
                "seed = 3",
                "n_pairs = 200",
                "percentiles = 10, 50, 100",
                "proposer_backend = rule",
                "proposer.base_url = http://localhost:9999/v1",
                "proposer.model = tiny",
                "verifier.retries = 5",
                "",
            ]
        ),
    )
    values = parse_config_file(path)
    assert values["seed"] == 3
    assert values["n_pairs"] == 200
    assert values["percentiles"] == (10, 50, 100)
    assert values["proposer_endpoint"]["base_url"] == "http://localhost:9999/v1"
    assert values["verifier_endpoint"]["retries"] == 5

    config = build_config(file_values=values)
    assert config.seed == 3
    assert config.proposer_endpoint.model == "tiny"
    assert config.verifier_endpoint.retries == 5


def test_parse_config_file_requires_header(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(_write_config(tmp_path, "seed = 3", header="not-a-header"))
    with pytest.raises(ConfigError):
        parse_config_file(_write_config(tmp_path, "seed = 3", header=None))


def test_parse_config_file_drops_a_byte_order_mark(tmp_path):
    path = _write_config(tmp_path, "seed = 3", header="\ufeff" + CONFIG_FORMAT)
    assert parse_config_file(path)["seed"] == 3


def test_parse_config_file_splits_lines_only_at_newlines(tmp_path):
    # U+2028 is a line boundary to str.splitlines, not to a text file.
    path = _write_config(tmp_path, "seed = 3\n\nproposer.model = a\u2028b\nsede = 3")
    with pytest.raises(ConfigError, match=r"run\.conf:5: unknown key 'sede'"):
        parse_config_file(path)
    path = _write_config(tmp_path, "seed = 3\n\nproposer.model = a\u2028b\n")
    assert parse_config_file(path)["proposer_endpoint"]["model"] == "a\u2028b"


def test_parse_config_file_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_file(_write_config(tmp_path, "sede = 3"))
    assert "sede" in str(excinfo.value)
    with pytest.raises(ConfigError):
        parse_config_file(_write_config(tmp_path, "proposer.volume = loud"))


def test_parse_config_file_bad_value(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(_write_config(tmp_path, "seed = many"))
    with pytest.raises(ConfigError):
        parse_config_file(_write_config(tmp_path, "just a line"))


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(ConfigError):
        parse_config_file(tmp_path / "absent.conf")


def test_flags_override_file_values(tmp_path):
    values = parse_config_file(_write_config(tmp_path, "seed = 3\nn_pairs = 100"))
    config = build_config(file_values=values, flag_values={"seed": 8})
    assert config.seed == 8  # flag wins
    assert config.n_pairs == 100  # file wins over default


def test_with_overrides_replaces_only_named_fields():
    base = RunConfig(seed=2, n_pairs=100)
    changed = replace(base, top_k=3)
    assert changed.top_k == 3
    assert changed.seed == 2
    assert changed.n_pairs == 100
    assert base.top_k == 5  # original untouched


def test_echo_is_json_ready():
    echo = RunConfig().echo()
    assert echo["seed"] == 0
    assert echo["proposer_backend"] == "rule"
    assert isinstance(echo["percentiles"], list)
    assert echo["proposer_endpoint"]["route"] == "completions"


# A config-file value for each field annotation, unlike every default.
_FILE_VALUES = {
    "int": ("7", 7),
    "int | None": ("7", 7),
    "float": ("0.25", 0.25),
    "str": ("replay:t.jsonl", "replay:t.jsonl"),
    "str | None": ("replay:t.jsonl", "replay:t.jsonl"),
    "tuple[int, ...]": ("7, 9", [7, 9]),
    "tuple[str, ...]": ('["x", "y"]', ["x", "y"]),
}


# Fields whose range excludes their type's value above.
_FIELD_VALUES = {"route": ("chat", "chat"), "samples_per_side": ("3", 3)}


def _file_value(f):
    return _FIELD_VALUES.get(f.name) or _FILE_VALUES[f.type]


def test_every_field_is_settable_from_file_and_echoed(tmp_path):
    lines, expected = [], {}
    for f in fields(RunConfig):
        if f.type == "EndpointConfig":
            role = f.name.removesuffix("_endpoint")
            for sub in fields(EndpointConfig):
                text, value = _file_value(sub)
                lines.append(f"{role}.{sub.name} = {text}")
                expected.setdefault(f.name, {})[sub.name] = value
        else:
            text, value = _file_value(f)
            lines.append(f"{f.name} = {text}")
            expected[f.name] = value

    config = build_config(parse_config_file(_write_config(tmp_path, "\n".join(lines))))
    echo = config.echo()
    assert echo == expected
    default = RunConfig().echo()
    for key, value in expected.items():
        if isinstance(value, dict):
            assert all(value[sub] != default[key][sub] for sub in value), key
        else:
            assert value != default[key], key
