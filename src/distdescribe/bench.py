"""Synthetic benchmark tasks with exactly known gold descriptions.

Tasks are built from a seeded template synthesizer producing short neutral
sentences, which are then edited per-sample so that an exact count on each
side satisfies the gold predicate.  Because ground truth is constructed
rather than annotated, every benchmark number here is checkable by direct
predicate evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .corpus import Corpus, DistributionPair, Sample, load_corpus, save_corpus
from .errors import MalformedRecordError, UnsatisfiablePredicateError
from .pipeline import REPORT_FORMAT, Report, describe_pair, verify
from .predicates import PREDICATES, get_predicate, parse_description
from .backends import make_backend

MANIFEST_NAME = "manifest.jsonl"
_MANIFEST_FIELDS = ("task", "gold", "q1", "q0", "seed")

# Pools deliberately mix word counts so sentence lengths overlap between
# any two constructed sides; otherwise a satisfier that appends words
# would let the length predicate shadow every gold.
_SUBJECTS = (
    "The gardener", "The engineer", "The village teacher", "The painter",
    "The head librarian", "The farmer", "The musician", "The master carpenter",
    "The baker", "The tailor",
)
_VERBS = (
    "waters", "examines", "arranges", "observes", "paints",
    "measures", "organizes", "polishes", "prepares", "inspects",
)
_OBJECTS = (
    "the plants", "the narrow bridge", "the shelves", "the garden",
    "the wooden fence", "the canvas", "the oak table", "the windows",
    "the doorway", "the stone benches",
)
_TRAILERS = (
    "near the market", "beside the old road", "behind the house",
    "along the river", "inside the workshop", "at the far corner",
    "under the archway", "at dawn", "with great care", "",
)

_POOL_SIZE = 10
assert all(len(pool) == _POOL_SIZE for pool in (_SUBJECTS, _VERBS, _OBJECTS, _TRAILERS))

SALT_RATE = 0.1


def _exact_count(rate: float, n: int) -> int:
    return int(rate * n + 0.5)


@dataclass(frozen=True)
class SyntheticTask:
    gold: str  # predicate id
    q1: float
    q0: float
    pair: DistributionPair
    seed: int


@dataclass(frozen=True)
class TaskResult:
    task_index: int
    gold: str
    q1: float
    q0: float
    gold_in_top_k: bool
    gold_rank: int | None
    top1_ca: float
    gold_ca: float

    def to_dict(self) -> dict:
        return {
            "task": self.task_index,
            "gold": self.gold,
            "q1": self.q1,
            "q0": self.q0,
            "gold_in_top_k": self.gold_in_top_k,
            "gold_rank": self.gold_rank,
            "top1_ca": self.top1_ca,
            "gold_ca": self.gold_ca,
        }


@dataclass(frozen=True)
class BenchReport:
    results: tuple[TaskResult, ...]
    top_k: int

    @property
    def hit_rate(self) -> float:
        return sum(r.gold_in_top_k for r in self.results) / len(self.results)

    @property
    def mean_gold_ca(self) -> float:
        return sum(r.gold_ca for r in self.results) / len(self.results)

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "kind": "bench",
            "top_k": self.top_k,
            "tasks": [r.to_dict() for r in self.results],
            "aggregate": {
                "hit_rate": self.hit_rate,
                "mean_gold_ca": self.mean_gold_ca,
            },
        }

    def table(self) -> str:
        lines = [
            f"{'task':>4}  {'gold':<16} {'hit':>3}  {'rank':>4}  {'top-1 CA':>8}  {'gold CA':>8}"
        ]
        for r in self.results:
            rank = str(r.gold_rank) if r.gold_rank is not None else "-"
            lines.append(
                f"{r.task_index:>4}  {r.gold:<16} {'yes' if r.gold_in_top_k else 'no':>3}  "
                f"{rank:>4}  {r.top1_ca:>8.3f}  {r.gold_ca:>8.3f}"
            )
        hits = sum(r.gold_in_top_k for r in self.results)
        lines.append(
            f"top-{self.top_k} hit rate: {hits}/{len(self.results)} ({self.hit_rate:.3f})"
        )
        lines.append(f"mean gold CA: {self.mean_gold_ca:.3f}")
        return "\n".join(lines) + "\n"


def _build_side(
    predicate, rate: float, n_per_side: int, rng: np.random.Generator, name: str
) -> Corpus:
    n_satisfy = _exact_count(rate, n_per_side)
    # One row of pool picks per sentence, drawn in one call: the generator
    # yields the same values as one scalar draw per pick, in the same order.
    # Every pool word is neutral with respect to every registered predicate,
    # so the edits below fully control the gold labels.
    picks = rng.integers(_POOL_SIZE, size=(n_per_side, 4)).tolist()
    texts = [
        predicate.violate(
            f"{_SUBJECTS[s]} {_VERBS[v]} {_OBJECTS[o]} {_TRAILERS[t]}".rstrip()
        )
        for s, v, o, t in picks
    ]
    satisfy_at = set(rng.permutation(n_per_side)[:n_satisfy].tolist())
    for i in satisfy_at:
        texts[i] = predicate.satisfy(texts[i])
        if not predicate.satisfied(texts[i]):
            raise UnsatisfiablePredicateError(
                f"satisfier for {predicate.id!r} did not take effect"
            )

    # A slice of each side additionally satisfies one random other
    # predicate, so rankings must beat plausible contrast features, not
    # just noise.  An edit that would disturb the gold label is dropped.
    others = [p for p in PREDICATES if p.id != predicate.id]
    salt_at = rng.permutation(n_per_side)[: _exact_count(SALT_RATE, n_per_side)]
    salt_with = rng.integers(len(others), size=len(salt_at))
    for i, j in zip(salt_at.tolist(), salt_with.tolist()):
        salted = others[j].satisfy(texts[i])
        if predicate.satisfied(salted) == predicate.satisfied(texts[i]):
            texts[i] = salted

    samples = tuple(
        Sample(id=f"{name}:{i}", text=text) for i, text in enumerate(texts)
    )
    return Corpus(name=name, samples=samples)


def generate_task(
    gold: str, q1: float, q0: float, n_per_side: int, seed: int
) -> SyntheticTask:
    """Build one rate-controlled task with exact satisfaction counts."""
    try:
        predicate = get_predicate(gold)
    except KeyError:
        raise UnsatisfiablePredicateError(f"no registered predicate {gold!r}") from None
    if not 0.0 <= q0 < q1 <= 1.0:
        raise ValueError(f"need 0 <= q0 < q1 <= 1, got q0={q0}, q1={q1}")
    if n_per_side < 10:
        raise ValueError(f"n_per_side must be >= 10, got {n_per_side}")

    rng = np.random.default_rng(seed)
    d1 = _build_side(predicate, q1, n_per_side, rng, name=f"bench-{gold}-d1")
    d0 = _build_side(predicate, q0, n_per_side, rng, name=f"bench-{gold}-d0")
    return SyntheticTask(
        gold=gold, q1=q1, q0=q0, pair=DistributionPair(d0=d0, d1=d1), seed=seed
    )


def default_suite(
    task_count: int = 54, n_per_side: int = 200, seed: int = 1
) -> list[SyntheticTask]:
    """Noiseless tasks cycling through the registry predicates."""
    tasks = []
    for i in range(task_count):
        gold = PREDICATES[i % len(PREDICATES)].id
        tasks.append(
            generate_task(gold, 1.0, 0.0, n_per_side, seed=seed * 1000 + i)
        )
    return tasks


def save_suite(tasks: list[SyntheticTask], directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / MANIFEST_NAME, "w", encoding="utf-8") as fh:
        for i, task in enumerate(tasks):
            task_dir = directory / f"task-{i:02d}"
            task_dir.mkdir(exist_ok=True)
            save_corpus(task.pair.d0, task_dir / "d0.jsonl")
            save_corpus(task.pair.d1, task_dir / "d1.jsonl")
            row = {
                "task": i,
                "gold": task.gold,
                "q1": task.q1,
                "q0": task.q0,
                "n_per_side": len(task.pair.d1),
                "seed": task.seed,
            }
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _manifest_row(line: str, line_number: int, manifest: Path) -> dict:
    try:
        row = json.loads(line)
    except ValueError:
        row = None
    if not isinstance(row, dict):
        reason = "not a JSON object"
    elif missing := [f for f in _MANIFEST_FIELDS if f not in row]:
        reason = "missing " + ", ".join(f'"{f}"' for f in missing)
    elif type(row["task"]) is not int:
        reason = '"task" is not an integer'
    elif row["gold"] not in [p.id for p in PREDICATES]:
        reason = f'"gold" {row["gold"]!r} is not a registered predicate'
    else:
        return row
    raise MalformedRecordError(line_number, f"{reason} in {manifest}")


def load_suite(directory: str | Path) -> list[SyntheticTask]:
    directory = Path(directory)
    manifest = directory / MANIFEST_NAME
    if not manifest.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {directory}")
    tasks = []
    with open(manifest, "r", encoding="utf-8") as fh:
        for line_number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            row = _manifest_row(line, line_number, manifest)
            name = f"task-{row['task']:02d}"
            d0 = load_corpus(directory / name / "d0.jsonl", name=f"{name}-d0")
            d1 = load_corpus(directory / name / "d1.jsonl", name=f"{name}-d1")
            tasks.append(
                SyntheticTask(
                    gold=row["gold"],
                    q1=row["q1"],
                    q0=row["q0"],
                    pair=DistributionPair(d0=d0, d1=d1),
                    seed=row["seed"],
                )
            )
    if not tasks:
        raise FileNotFoundError(f"manifest in {directory} lists no tasks")
    return tasks


def run_bench(tasks: list[SyntheticTask], config: RunConfig) -> BenchReport:
    """Score the pipeline on known-gold tasks.

    Gold recovery is decided by parsing each ranked description back to a
    predicate id.  The gold CA column is the verifier-quality metric: the
    CA of the gold description on the run's pairs.  When the gold
    description is a ranked row, that row already holds it; otherwise it is
    estimated through the run's judgment cache.
    """
    if not tasks:
        raise ValueError("tasks must be non-empty")
    verifier_backend = make_backend(config.verifier_backend, config.verifier_endpoint)
    results = []
    for i, task in enumerate(tasks):
        report: Report = describe_pair(task.pair, config)
        gold_rank = None
        for ranked in report.ranked:
            parsed = parse_description(ranked.hypothesis.s)
            if parsed is not None and parsed.id == task.gold:
                gold_rank = ranked.rank
                break
        gold_description = get_predicate(task.gold).description
        gold_row = next(
            (r for r in report.ranked if r.hypothesis.s == gold_description), None
        )
        if gold_row is not None:
            gold_ca = gold_row.ca.mean
        else:
            (estimate,), _ = verify([gold_description], task.pair, config, verifier_backend)
            gold_ca = estimate.mean
        top1_ca = report.ranked[0].ca.mean if report.ranked else 0.5
        results.append(
            TaskResult(
                task_index=i,
                gold=task.gold,
                q1=task.q1,
                q0=task.q0,
                gold_in_top_k=gold_rank is not None,
                gold_rank=gold_rank,
                top1_ca=top1_ca,
                gold_ca=gold_ca,
            )
        )
    return BenchReport(results=tuple(results), top_k=config.top_k)
