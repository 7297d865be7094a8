"""End-to-end orchestration: propose, verify, re-rank, report.

Also implements the downstream applications built on the same loop:
labeling clusters one-vs-rest, describing train/test shift, and scanning a
labeled dataset for shortcut features separating its classes.
"""

from __future__ import annotations

import json
from contextlib import closing, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .backends import Backend, make_backend
from .config import RunConfig
from .corpus import ClusteredCorpus, Corpus, DistributionPair, one_vs_rest
from .discriminator import train
from .errors import FewerThanTwoClustersError, PipelineAbortedError
from .proposer import CandidateSet, Hypothesis, propose
from .store import JudgmentCache
from .verifier import CAEstimate, Verifier

REPORT_FORMAT = "distdescribe-report-v1"

NO_SIGNIFICANT_DIFFERENCE = "no significant difference"


@dataclass(frozen=True)
class RankedHypothesis:
    hypothesis: Hypothesis
    ca: CAEstimate
    rank: int
    significant: bool

    def to_dict(self) -> dict:
        h = self.hypothesis
        return {
            "rank": self.rank,
            "s": h.s,
            "raw": h.raw,
            "provenance": list(h.provenance) if h.provenance else None,
            "comparative": h.comparative,
            "ca": self.ca.to_dict(),
            "significant": self.significant,
        }


@dataclass(frozen=True)
class Report:
    d0_name: str
    d0_size: int
    d1_name: str
    d1_size: int
    roles: tuple[str, str]  # what d0 and d1 stand for in this run
    config_echo: dict
    ranked: tuple[RankedHypothesis, ...]
    candidate_count: int
    raw_candidate_count: int
    warnings: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "pair": {
                "d0": {"name": self.d0_name, "size": self.d0_size, "role": self.roles[0]},
                "d1": {"name": self.d1_name, "size": self.d1_size, "role": self.roles[1]},
            },
            "config": self.config_echo,
            "candidate_count": self.candidate_count,
            "raw_candidate_count": self.raw_candidate_count,
            "ranked": [r.to_dict() for r in self.ranked],
            "warnings": list(self.warnings),
        }


def report_json(report) -> str:
    """Canonical machine-readable rendering (stable across identical runs).

    Renders every ``--out`` document: a report, or anything else with a
    ``to_dict()``, or a plain dict.
    """
    doc = report if isinstance(report, dict) else report.to_dict()
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def report_table(report: Report) -> str:
    """Human-readable summary for the terminal."""
    lines = [
        f"{report.roles[1]} = {report.d1_name} ({report.d1_size} samples)  "
        f"vs  {report.roles[0]} = {report.d0_name} ({report.d0_size} samples)",
        f"candidates: {report.candidate_count} kept of {report.raw_candidate_count} raw",
        "",
        f"{'rank':>4}  {'CA':>7}  {'stderr':>7}  {'sig':>3}  description",
    ]
    for r in report.ranked:
        lines.append(
            f"{r.rank:>4}  {r.ca.mean:>7.3f}  {r.ca.stderr:>7.3f}  "
            f"{'yes' if r.significant else 'no':>3}  {r.hypothesis.s}"
        )
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ShortcutReport:
    labels: tuple[str, ...]
    reports: tuple[tuple[tuple[str, str], Report], ...]

    def to_dict(self) -> dict:
        entries = []
        for (label0, label1), report in self.reports:
            doc = report.to_dict()
            # Both orientations are conveyed without re-running: by
            # anti-symmetry the reverse-direction CA is exactly 1 - mean.
            for row in doc["ranked"]:
                row["ca_reverse_mean"] = 1.0 - row["ca"]["mean"]
            entries.append({"labels": [label0, label1], "report": doc})
        return {
            "format": REPORT_FORMAT,
            "kind": "shortcut-scan",
            "labels": list(self.labels),
            "pairs": entries,
        }


@contextmanager
def open_run(
    config: RunConfig,
    proposer_backend: Backend | None = None,
    verifier_backend: Backend | None = None,
    cache: JudgmentCache | None = None,
) -> Iterator[tuple[Backend, Backend, JudgmentCache]]:
    """The proposer backend, verifier backend and judgment cache a run's describes share.

    Parts not passed are built from the config, both backends before the cache so a
    bad selector fails before any request; a cache opened here is closed on exit.
    """
    if proposer_backend is None:
        proposer_backend = make_backend(config.proposer_backend, config.proposer_endpoint)
    if verifier_backend is None:
        verifier_backend = make_backend(config.verifier_backend, config.verifier_endpoint)
    opened = closing(JudgmentCache(config.cache_path)) if cache is None else nullcontext(cache)
    with opened as cache:
        yield proposer_backend, verifier_backend, cache


def verify(
    descriptions: Sequence[str],
    pair: DistributionPair,
    config: RunConfig,
    backend: Backend,
    cache: JudgmentCache,
) -> tuple[list[CAEstimate], Verifier]:
    """Each description's CA on the run's seeded pairs, in order, and the verifier.

    The one place a run verifies: the distinct misses of all descriptions share one
    queue drained by up to ``in_flight`` workers, after every judgment is looked up.
    """
    verifier = Verifier(backend, cache)
    estimates = verifier.estimate_cas(
        descriptions,
        pair,
        n_pairs=config.n_pairs,
        seed=config.effective_pair_seed,
        in_flight=config.in_flight,
    )
    return estimates, verifier


def check_abstentions(verifier: Verifier) -> None:
    """Abort when more than half the judgments abstained: no CA then means anything."""
    if verifier.abstain_fraction > 0.5:
        raise PipelineAbortedError(verifier.abstain_count, verifier.judgment_count)


def judgment_warnings(verifier: Verifier) -> list[str]:
    """Warnings about a run's abstained and failed judgments, if any."""
    warnings = []
    if verifier.abstain_count:
        warnings.append(
            f"{verifier.abstain_count} of {verifier.judgment_count} judgments abstained"
        )
    if verifier.failed_count:
        warnings.append(
            f"{verifier.failed_count} judgments failed and were scored as abstentions"
        )
    return warnings


def describe_pair(
    pair: DistributionPair,
    config: RunConfig,
    proposer_backend: Backend | None = None,
    verifier_backend: Backend | None = None,
    cache: JudgmentCache | None = None,
    roles: tuple[str, str] = ("d0", "d1"),
) -> Report:
    """Run the full loop on one distribution pair and rank the findings.

    The backends and the cache may be passed in (a run's shared ones, tests, embedding);
    :func:`open_run` builds the others before training.  All candidates are scored on
    the same seeded pair set, so their CA values are directly comparable.
    """
    with open_run(config, proposer_backend, verifier_backend, cache) as run:
        proposer_backend, verifier_backend, cache = run
        disc = train(pair)
        candidates: CandidateSet = propose(disc, proposer_backend, config, cache)
        hypotheses = candidates.hypotheses
        descriptions = [h.s for h in hypotheses]
        estimates, verifier = verify(descriptions, pair, config, verifier_backend, cache)

    check_abstentions(verifier)

    scored = sorted(zip(hypotheses, estimates), key=lambda item: (-item[1].mean, item[0].s))
    ranked = tuple(
        RankedHypothesis(h, ca, rank=index + 1, significant=ca.mean - 2.0 * ca.stderr > 0.5)
        for index, (h, ca) in enumerate(scored[: config.top_k])
    )

    warnings: list[str] = []
    if not any(r.significant for r in ranked):
        warnings.append(NO_SIGNIFICANT_DIFFERENCE)
    warnings.extend(judgment_warnings(verifier))

    return Report(
        d0_name=pair.d0.name,
        d0_size=len(pair.d0),
        d1_name=pair.d1.name,
        d1_size=len(pair.d1),
        roles=roles,
        config_echo=config.echo(),
        ranked=ranked,
        candidate_count=len(candidates),
        raw_candidate_count=candidates.raw_count,
        warnings=tuple(warnings),
    )


def label_clusters(clustered: ClusteredCorpus, config: RunConfig) -> dict[str, Report]:
    """Describe every cluster against the union of the others, through one run's parts."""
    reports: dict[str, Report] = {}
    with open_run(config) as run:
        for cluster_id in clustered.cluster_ids():
            pair, roles = one_vs_rest(clustered, cluster_id), ("rest", f"cluster {cluster_id}")
            reports[cluster_id] = describe_pair(pair, config, *run, roles=roles)
    return reports


def shift_report(train_corpus: Corpus, test_corpus: Corpus, config: RunConfig) -> Report:
    """Describe how a test corpus drifted from its training corpus."""
    pair = DistributionPair(d0=train_corpus, d1=test_corpus)
    return describe_pair(pair, config, roles=("train", "test"))


def shortcut_scan(
    labeled: ClusteredCorpus | Mapping[str, Corpus], config: RunConfig
) -> ShortcutReport:
    """Contrast every unordered pair of label classes, through one run's parts.

    Surfacing a high-CA separating description between two classes is the
    cheap way to notice annotation artifacts before a model learns them.
    """
    clusters = labeled.clusters if isinstance(labeled, ClusteredCorpus) else dict(labeled)
    if len(clusters) < 2:
        raise FewerThanTwoClustersError(
            f"need at least 2 labels to scan, got {len(clusters)}"
        )
    labels = sorted(clusters)
    reports: list[tuple[tuple[str, str], Report]] = []
    with open_run(config) as run:
        for i, label0 in enumerate(labels):
            for label1 in labels[i + 1 :]:
                pair = DistributionPair(d0=clusters[label0], d1=clusters[label1])
                report = describe_pair(pair, config, *run, roles=(label0, label1))
                reports.append(((label0, label1), report))
    return ShortcutReport(labels=tuple(labels), reports=tuple(reports))
