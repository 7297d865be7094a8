"""Prompt assembly and candidate hypothesis collection.

A proposer prompt shows a handful of representative samples from each side
and ends with a fixed instruction; the completion backend continues the
sentence, and each continuation is a candidate description of how side 1
differs from side 0.
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterator

import numpy as np

from .backends import Backend, CompletionRequest, one_line
from .config import RunConfig
from .corpus import Sample
from .discriminator import Discriminator, select_percentile
from .errors import AllCompletionsEmptyError, EmptySampleSetError

INSTRUCTION = "Compared to group 0, each sentence from group 1"
TOKEN_BUDGET = 2048
SAMPLE_TOKEN_LIMIT = 256
TRUNCATION_MARKER = "…"

_SHAVE_STEP = 32
_SHAVE_FLOOR = 8

_COMPARATIVE_RE = re.compile(
    r"\b(more|less|fewer|higher|lower|longer|shorter|greater|smaller|larger)\b"
    r"|\ber than\b",
    re.IGNORECASE,
)


def token_estimate(text: str) -> int:
    """Conservative model-token proxy: 1.3 x whitespace tokens, rounded up."""
    return math.ceil(1.3 * len(text.split()))


class RejectionReason(Enum):
    EMPTY = "empty"
    FORBIDDEN_TOKEN = "forbidden-token"


@dataclass(frozen=True)
class Hypothesis:
    s: str
    raw: str
    comparative: bool
    provenance: tuple[int, int, int] | None = None  # (percentile, set, completion)


@dataclass(frozen=True)
class CandidateSet:
    hypotheses: tuple[Hypothesis, ...]
    raw_count: int

    def __len__(self) -> int:
        return len(self.hypotheses)


@dataclass(frozen=True)
class ProposerPrompt:
    group1_samples: tuple[Sample, ...]
    group0_samples: tuple[Sample, ...]
    instruction: str
    rendered: str
    token_estimate: int


def _truncate_words(text: str, max_words: int) -> str:
    words = text.split()
    if len(words) <= max_words:
        return text
    return " ".join(words[:max_words]) + TRUNCATION_MARKER


def _cap_sample(text: str) -> str:
    # Largest word count whose 1.3x estimate stays within the per-sample cap.
    max_words = int(SAMPLE_TOKEN_LIMIT / 1.3)
    if token_estimate(text) <= SAMPLE_TOKEN_LIMIT:
        return text
    return _truncate_words(text, max_words)


def _render(texts0: list[str], texts1: list[str]) -> str:
    lines = ["Group 0:"]
    lines += [f"{i}. {one_line(t)}" for i, t in enumerate(texts0, start=1)]
    lines.append("")
    lines.append("Group 1:")
    lines += [f"{i}. {one_line(t)}" for i, t in enumerate(texts1, start=1)]
    lines.append("")
    lines.append(INSTRUCTION)
    return "\n".join(lines)


def build_prompt(set1: list[Sample], set0: list[Sample]) -> ProposerPrompt:
    """Render the pinned two-group prompt within the token budget.

    Overlong samples are cut back to whole words: first each sample to the
    per-sample cap, then — if the whole prompt still exceeds the budget —
    repeatedly shaving words off whichever sample is currently longest.
    """
    if not set1 or not set0:
        raise EmptySampleSetError("both sample groups must be non-empty")
    if len(set1) > 5 or len(set0) > 5:
        raise ValueError("prompt groups carry at most 5 samples each")

    texts0 = [_cap_sample(s.text) for s in set0]
    texts1 = [_cap_sample(s.text) for s in set1]

    rendered = _render(texts0, texts1)
    while token_estimate(rendered) > TOKEN_BUDGET:
        pools = [texts0, texts1]
        flat = [
            (len(t.split()), side, i)
            for side, pool in enumerate(pools)
            for i, t in enumerate(pool)
        ]
        words, side, i = max(flat)
        if words <= _SHAVE_FLOOR:
            break
        target = max(words - _SHAVE_STEP, _SHAVE_FLOOR)
        text = pools[side][i]
        if text.endswith(TRUNCATION_MARKER):
            text = text[: -len(TRUNCATION_MARKER)]
        pools[side][i] = _truncate_words(text, target)
        rendered = _render(texts0, texts1)

    return ProposerPrompt(
        group1_samples=tuple(set1),
        group0_samples=tuple(set0),
        instruction=INSTRUCTION,
        rendered=rendered,
        token_estimate=token_estimate(rendered),
    )


def normalize_hypothesis(
    raw: str, forbidden_tokens: tuple[str, ...] = ("group", "Group")
) -> Hypothesis | RejectionReason:
    """Clean one completion into a hypothesis string, or say why not.

    Strips surrounding whitespace and at most one trailing terminator; the
    forbidden-token check runs here as well because not every backend
    honors decoding constraints.
    """
    s = raw.strip()
    if s.endswith((",", ".")):
        s = s[:-1].rstrip()
    if not s:
        return RejectionReason.EMPTY
    if any(token in s for token in forbidden_tokens):
        return RejectionReason.FORBIDDEN_TOKEN
    return Hypothesis(
        s=s, raw=raw, comparative=bool(_COMPARATIVE_RE.search(s))
    )


def _draw_group(pool: tuple[Sample, ...], rng: np.random.Generator, k: int) -> list[Sample]:
    take = min(k, len(pool))
    indices = rng.choice(len(pool), size=take, replace=False)
    return [pool[int(i)] for i in indices]


def _prompts(disc: Discriminator, config: RunConfig, percentile: int) -> Iterator[ProposerPrompt]:
    """The ``sets_per_percentile`` prompts of one percentile, in run order."""
    rep = select_percentile(disc, percentile)
    rng = np.random.default_rng([config.effective_prompt_seed, percentile])
    for _ in range(config.sets_per_percentile):
        set1 = _draw_group(rep.d1_samples, rng, config.samples_per_side)
        set0 = _draw_group(rep.d0_samples, rng, config.samples_per_side)
        yield build_prompt(set1, set0)


def first_prompt(
    disc: Discriminator, config: RunConfig, percentile: int | None = None
) -> ProposerPrompt:
    """The first prompt a run would issue for ``percentile`` (inspection aid)."""
    p = config.percentiles[0] if percentile is None else percentile
    return next(_prompts(disc, config, p))


def propose(disc: Discriminator, backend: Backend, config: RunConfig) -> CandidateSet:
    """Collect, normalize, and deduplicate candidate hypotheses.

    For each percentile, ``sets_per_percentile`` sample sets are drawn with
    a per-percentile seeded generator and each is sent for
    ``completions_per_set`` completions.  Requests may run concurrently;
    results are merged in (percentile, set, completion) order so the
    outcome does not depend on arrival order.
    """
    tasks: list[tuple[int, int, CompletionRequest]] = []
    for p in config.percentiles:
        for set_index, prompt in enumerate(_prompts(disc, config, p)):
            req = CompletionRequest(
                prompt=prompt.rendered,
                n=config.completions_per_set,
                max_tokens=config.max_completion_tokens,
                temperature=config.temperature,
                stop=config.stop_sequences,
                forbidden_tokens=config.forbidden_tokens,
            )
            tasks.append((p, set_index, req))

    with ThreadPoolExecutor(max_workers=config.in_flight) as pool:
        responses = list(pool.map(backend.complete, [req for _, _, req in tasks]))

    hypotheses: list[Hypothesis] = []
    seen: set[str] = set()
    raw_count = 0
    for (p, set_index, _), completions in zip(tasks, responses):
        for completion_index, raw in enumerate(completions):
            raw_count += 1
            result = normalize_hypothesis(raw, config.forbidden_tokens)
            if isinstance(result, RejectionReason):
                continue
            if result.s in seen:
                continue
            seen.add(result.s)
            hypotheses.append(
                replace(result, provenance=(p, set_index, completion_index))
            )

    if not hypotheses:
        raise AllCompletionsEmptyError(
            f"all {raw_count} completions were rejected during normalization"
        )
    return CandidateSet(hypotheses=tuple(hypotheses), raw_count=raw_count)

