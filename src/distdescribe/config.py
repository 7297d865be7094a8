"""Run configuration: defaults, config files, and flag overrides.

Precedence is flags > config file > built-in defaults.  The effective
configuration is echoed verbatim into every report so a run can be
reproduced from its output alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .corpus import _iter_lines
from .errors import ConfigError

CONFIG_FORMAT = "distdescribe-config-v1"

BACKEND_CHOICES = ("http", "rule")  # plus "replay:<path>"


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to reach one OpenAI-compatible endpoint."""

    base_url: str = "http://localhost:8000/v1"
    route: str = "completions"  # or "chat"
    model: str = "default"
    credential_env: str = ""
    timeout_s: float = 30.0
    retries: int = 3
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        if self.route not in ("completions", "chat"):
            raise ConfigError(f"route must be 'completions' or 'chat', got {self.route!r}")
        if self.retries < 1:
            raise ConfigError(f"retries must be >= 1, got {self.retries}")
        if not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be > 0, got {self.timeout_s}")
        if not self.backoff_s >= 0:
            raise ConfigError(f"backoff_s must be >= 0, got {self.backoff_s}")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    pair_seed: int | None = None
    prompt_seed: int | None = None
    n_pairs: int = 400
    top_k: int = 5
    percentiles: tuple[int, ...] = (5, 20, 100)
    samples_per_side: int = 5
    sets_per_percentile: int = 10
    completions_per_set: int = 2
    temperature: float = 0.7
    max_completion_tokens: int = 32
    stop_sequences: tuple[str, ...] = (",", ".", "\n")
    forbidden_tokens: tuple[str, ...] = ("group", "Group")
    in_flight: int = 4
    proposer_backend: str = "rule"
    verifier_backend: str = "rule"
    cache_path: str | None = None
    out_path: str | None = None
    proposer_endpoint: EndpointConfig = field(default_factory=EndpointConfig)
    verifier_endpoint: EndpointConfig = field(default_factory=EndpointConfig)

    def __post_init__(self) -> None:
        for name in (
            "n_pairs",
            "top_k",
            "sets_per_percentile",
            "completions_per_set",
            "max_completion_tokens",
            "in_flight",
        ):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("seed", "pair_seed", "prompt_seed"):
            if (getattr(self, name) or 0) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 <= self.temperature < math.inf:  # NaN fails every comparison
            raise ConfigError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not 1 <= self.samples_per_side <= 5:
            raise ConfigError(f"samples_per_side must be in [1, 5], got {self.samples_per_side}")
        if not self.percentiles:
            raise ConfigError("percentiles must be non-empty")
        for p in self.percentiles:
            if not 1 <= p <= 100:
                raise ConfigError(f"percentile out of range: {p}")
        for name in ("proposer_backend", "verifier_backend"):
            selector = getattr(self, name)
            if selector not in BACKEND_CHOICES and not selector.startswith("replay:"):
                raise ConfigError(
                    f"{name} must be one of {BACKEND_CHOICES} or replay:<path>, "
                    f"got {selector!r}"
                )

    @property
    def effective_pair_seed(self) -> int:
        return self.seed if self.pair_seed is None else self.pair_seed

    @property
    def effective_prompt_seed(self) -> int:
        return self.seed if self.prompt_seed is None else self.prompt_seed

    def echo(self) -> dict:
        """Full effective configuration as a plain serializable mapping."""
        echo = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(self).items()
        }
        echo["pair_seed"] = self.effective_pair_seed
        echo["prompt_seed"] = self.effective_prompt_seed
        return echo


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    # JSON array syntax so separators and escapes (a literal comma, "\n")
    # can appear inside the items themselves.
    parsed = json.loads(text)
    if not isinstance(parsed, list) or not all(isinstance(x, str) for x in parsed):
        raise ValueError(text)
    return tuple(parsed)


# Value parser and what it expects, by field annotation; a field of any
# other type fails import.
_PARSERS = {
    "int": (int, "an integer"),
    "int | None": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "a string"),
    "str | None": (str, "a string"),
    "tuple[int, ...]": (_int_list, "comma-separated integers"),
    "tuple[str, ...]": (_str_list, "a JSON array of strings"),
}

# Every config key, as a config-file line names it: endpoint fields are
# "<role>.<field>".
_SETTINGS = {f.name: _PARSERS[f.type] for f in fields(RunConfig) if f.type != "EndpointConfig"}
_SETTINGS.update(
    (f"{role}.{f.name}", _PARSERS[f.type])
    for role in ("proposer", "verifier")
    for f in fields(EndpointConfig)
)


def parse_setting(key: str, text: str):
    """The value of config key ``key`` written as ``text``.

    A config-file line ``key = text`` and the key's run flag both parse here,
    so they accept the same values and fail with the same message.
    """
    parse, expected = _SETTINGS[key]
    try:
        return parse(text)
    except ValueError:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None


def nest_settings(settings: dict) -> dict:
    """The set (non-None) settings as ``build_config`` takes them.

    Endpoint keys ("proposer.model") nest under their role ("proposer_endpoint").
    """
    values: dict = {}
    for key, value in settings.items():
        if value is None:
            continue
        role, dot, sub = key.partition(".")
        if dot:
            values.setdefault(f"{role}_endpoint", {})[sub] = value
        else:
            values[key] = value
    return values


def parse_config_file(path: str | Path) -> dict:
    """Read a key=value config file into a typed mapping.

    The first non-blank line must be the format header.  Endpoint settings
    use dotted keys ("proposer.base_url"); unknown keys are errors so typos
    fail loudly instead of silently using defaults.
    """
    path = Path(path)
    try:
        lines = list(_iter_lines(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None

    settings: dict = {}
    saw_header = False
    for lineno, line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if not saw_header:
            if stripped != CONFIG_FORMAT:
                raise ConfigError(
                    f"{path}:{lineno}: first line must be {CONFIG_FORMAT!r}"
                )
            saw_header = True
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        settings[key] = parse_setting(key, value.strip())
    if not saw_header:
        raise ConfigError(f"{path}: missing {CONFIG_FORMAT!r} header")
    return nest_settings(settings)


def build_config(file_values: dict | None = None, flag_values: dict | None = None) -> RunConfig:
    """Merge defaults, config-file values, and flag overrides (in that order)."""
    merged: dict = {}
    endpoints: dict[str, dict] = {"proposer_endpoint": {}, "verifier_endpoint": {}}
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key in ("proposer_endpoint", "verifier_endpoint"):
                endpoints[key].update(value)
            else:
                merged[key] = value
    for key, overrides in endpoints.items():
        if overrides:
            merged[key] = EndpointConfig(**overrides)
    unknown = set(merged) - set(RunConfig.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**merged)

