"""End-to-end orchestration: propose, verify, re-rank, report.

Also implements the downstream applications built on the same loop:
labeling clusters one-vs-rest, describing train/test shift, and scanning a
labeled dataset for shortcut features separating its classes.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Mapping, Sequence

from .backends import Backend, make_backend
from .config import RunConfig
from .corpus import ClusteredCorpus, Corpus, DistributionPair, one_vs_rest
from .discriminator import train
from .errors import FewerThanTwoClustersError, PipelineAbortedError
from .proposer import CandidateSet, Hypothesis, propose
from .verifier import CAEstimate, JudgmentCache, Verifier

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


def verify(
    descriptions: Sequence[str],
    pair: DistributionPair,
    config: RunConfig,
    backend: Backend | None = None,
) -> tuple[list[CAEstimate], Verifier]:
    """Each description's CA on the run's seeded pairs, in order, and the verifier.

    The one place a run verifies: through the config's verifier backend unless
    one is passed, the run's judgment cache, and ``in_flight`` workers.
    """
    if backend is None:
        backend = make_backend(config.verifier_backend, config.verifier_endpoint)
    pair_seed = config.effective_pair_seed
    with closing(JudgmentCache(config.cache_path)) as cache:
        verifier = Verifier(backend, cache)

        def score(s: str) -> CAEstimate:
            return verifier.estimate_ca(s, pair, n_pairs=config.n_pairs, seed=pair_seed)

        with ThreadPoolExecutor(max_workers=config.in_flight) as pool:
            estimates = list(pool.map(score, descriptions))
    return estimates, verifier


def describe_pair(
    pair: DistributionPair,
    config: RunConfig,
    proposer_backend: Backend | None = None,
    verifier_backend: Backend | None = None,
    roles: tuple[str, str] = ("d0", "d1"),
) -> Report:
    """Run the full loop on one distribution pair and rank the findings.

    Backends may be passed directly (tests, embedding); otherwise they are
    built from the config selectors.  All candidates are scored on the same
    seeded pair set, so their CA values are directly comparable.
    """
    if proposer_backend is None:
        proposer_backend = make_backend(config.proposer_backend, config.proposer_endpoint)

    disc = train(pair)
    candidates: CandidateSet = propose(disc, proposer_backend, config)
    hypotheses = candidates.hypotheses
    estimates, verifier = verify([h.s for h in hypotheses], pair, config, verifier_backend)

    if verifier.abstain_fraction > 0.5:
        raise PipelineAbortedError(verifier.abstain_count, verifier.judgment_count)

    scored = sorted(zip(hypotheses, estimates), key=lambda item: (-item[1].mean, item[0].s))
    ranked = tuple(
        RankedHypothesis(
            hypothesis=h,
            ca=ca,
            rank=index + 1,
            significant=ca.mean - 2.0 * ca.stderr > 0.5,
        )
        for index, (h, ca) in enumerate(scored[: config.top_k])
    )

    warnings: list[str] = []
    if not any(r.significant for r in ranked):
        warnings.append(NO_SIGNIFICANT_DIFFERENCE)
    if verifier.abstain_count:
        warnings.append(
            f"{verifier.abstain_count} of {verifier.judgment_count} judgments abstained"
        )
    if verifier.failed_count:
        warnings.append(
            f"{verifier.failed_count} judgments failed and were scored as abstentions"
        )

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
    """Describe every cluster against the union of the others."""
    reports: dict[str, Report] = {}
    for cluster_id in clustered.cluster_ids():
        pair = one_vs_rest(clustered, cluster_id)
        reports[cluster_id] = describe_pair(
            pair, config, roles=("rest", f"cluster {cluster_id}")
        )
    return reports


def shift_report(train_corpus: Corpus, test_corpus: Corpus, config: RunConfig) -> Report:
    """Describe how a test corpus drifted from its training corpus."""
    pair = DistributionPair(d0=train_corpus, d1=test_corpus)
    return describe_pair(pair, config, roles=("train", "test"))


def shortcut_scan(
    labeled: ClusteredCorpus | Mapping[str, Corpus], config: RunConfig
) -> ShortcutReport:
    """Contrast every unordered pair of label classes.

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
    for i, label0 in enumerate(labels):
        for label1 in labels[i + 1 :]:
            pair = DistributionPair(d0=clusters[label0], d1=clusters[label1])
            report = describe_pair(pair, config, roles=(label0, label1))
            reports.append(((label0, label1), report))
    return ShortcutReport(labels=tuple(labels), reports=tuple(reports))
