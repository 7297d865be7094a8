"""Exact classification accuracy for rule-oracle descriptions.

The rule judge answers "yes" exactly when the predicate scores sentence A
above sentence B, so a pair's symmetric score h_hat is 1, 0.5 or 0 as the
d1 sample scores above, level with or below the d0 sample.  The mean of
h_hat over the full |d1| x |d0| cross product is therefore the AUC
(Mann-Whitney U) of the per-sample scores (Hanley & McNeil, 1982), which a
sort gives in O(n log n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from distdescribe import DistributionPair, Predicate, parse_description

STDERR_MULTIPLE = 4.0


@dataclass(frozen=True)
class ExactCA:
    """Exact CA of a predicate on a pair, with the spread of h_hat over all pairs."""

    mean: float
    sd: float  # population standard deviation of h_hat over the cross product

    def sampling_stderr(self, n_pairs: int) -> float:
        """Standard error of a mean of ``n_pairs`` pairs drawn with replacement."""
        return self.sd / math.sqrt(n_pairs)


def exact_ca(predicate: Predicate, pair: DistributionPair) -> ExactCA:
    s1 = np.array([predicate.score(s.text) for s in pair.d1.samples])
    s0 = np.sort(np.array([predicate.score(s.text) for s in pair.d0.samples]))
    below = np.searchsorted(s0, s1, side="left")  # d0 samples scoring below each d1 sample
    level = np.searchsorted(s0, s1, side="right") - below
    n = len(s1) * len(s0)
    greater, ties = int(below.sum()), int(level.sum())
    # Halves are counted in integers so the mean is one correctly rounded
    # division, as the verifier's exhaustive mean over {0, 0.5, 1} is.
    mean = (2 * greater + ties) / (2 * n)
    second_moment = (4 * greater + ties) / (4 * n)
    return ExactCA(mean=mean, sd=math.sqrt(max(second_moment - mean * mean, 0.0)))


class ExactCAOracle:
    """Checks reported CA rows against their exact values, memoized per pair."""

    def __init__(self):
        self._memo: dict[tuple[int, str], ExactCA] = {}
        self.tally = True  # whether checked rows count in the error statistics
        self.rows = 0
        self.abs_err_sum = 0.0
        self.outside_reported_stderr = 0

    def exact(self, predicate: Predicate, pair: DistributionPair) -> ExactCA:
        key = (id(pair), predicate.id)
        if key not in self._memo:
            self._memo[key] = exact_ca(predicate, pair)
        return self._memo[key]

    def check_row(self, description: str, ca, pair: DistributionPair) -> str | None:
        """Return why the row is wrong, or None.  Unparseable rows are skipped.

        Exhaustive rows must equal the exact CA.  A sampled row must lie
        within 4 standard errors of it, where the standard error is the larger
        of the reported one and the true one of the sampling design: the
        reported plug-in estimate is near zero on rows with only a handful of
        non-tied pairs, so it cannot bound their error on its own.  Rows
        outside 4 reported standard errors are still counted.
        """
        predicate = parse_description(description)
        if predicate is None:
            return None
        exact = self.exact(predicate, pair)
        err = abs(ca.mean - exact.mean)
        if self.tally:
            self.rows += 1
            self.abs_err_sum += err
            self.outside_reported_stderr += err > STDERR_MULTIPLE * ca.stderr
        if ca.exhaustive:
            if err != 0.0:
                return f"{description!r}: exhaustive CA {ca.mean!r} != exact {exact.mean!r}"
            return None
        stderr = max(ca.stderr, exact.sampling_stderr(ca.n_pairs))
        if err > STDERR_MULTIPLE * stderr:
            return (
                f"{description!r}: CA {ca.mean:.5f} is {err:.5f} from exact "
                f"{exact.mean:.5f}, beyond {STDERR_MULTIPLE:g} x stderr {stderr:.5f}"
            )
        return None

    def check_report(self, report, pair: DistributionPair) -> list[str]:
        problems = []
        for row in report.ranked:
            problem = self.check_row(row.hypothesis.s, row.ca, pair)
            if problem is not None:
                problems.append(problem)
        return problems

    @property
    def abs_err_mean(self) -> float:
        return self.abs_err_sum / self.rows if self.rows else 0.0
