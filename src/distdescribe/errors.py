"""Exception types shared across the package."""

from __future__ import annotations


class DistDescribeError(Exception):
    """Base class for all errors raised by this package."""


class MalformedRecordError(DistDescribeError):
    """A line of a corpus file or of a bench suite's manifest cannot be used."""

    def __init__(self, line_number: int, reason: str):
        super().__init__(f"line {line_number}: {reason}")
        self.line_number = line_number
        self.reason = reason


class EmptyCorpusError(DistDescribeError):
    """A corpus file yielded zero usable samples."""


class FewerThanTwoClustersError(DistDescribeError):
    """A clustered corpus needs at least two clusters."""


class UnknownClusterError(DistDescribeError):
    """The requested cluster id does not exist."""


class DegenerateDataError(DistDescribeError):
    """Too little data on one side to train a classifier."""


class EmptySampleSetError(DistDescribeError):
    """A prompt was requested for an empty sample group."""


class AllCompletionsEmptyError(DistDescribeError):
    """Every completion was rejected during normalization."""


class UnsatisfiablePredicateError(DistDescribeError):
    """No registered editor can force or break the requested predicate."""


class PipelineAbortedError(DistDescribeError):
    """Verification abstained too often for the accuracy ranking to mean anything."""

    def __init__(self, abstained: int, total: int):
        frac = abstained / total if total else 1.0
        super().__init__(
            f"{abstained} of {total} judgments abstained ({frac:.0%}); aborting"
        )
        self.abstained = abstained
        self.total = total


class CorruptStoreError(DistDescribeError):
    """A judgment cache or transcript holds a damaged line or an unusable row.

    A damaged line is one before the last that does not parse.  An unusable
    row lacks a field it needs, or stores a value or response of the wrong type.
    """


class ConfigError(DistDescribeError):
    """A run configuration file or value is invalid."""


class BackendError(DistDescribeError):
    """Base class for completion/judgment backend failures."""


class AuthError(BackendError):
    """The endpoint rejected our credentials."""


class RateLimitedError(BackendError):
    """The endpoint kept rate-limiting us until the retry budget ran out."""

    def __init__(self, attempts: int, detail: str = ""):
        msg = f"rate limited after {attempts} attempts"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.attempts = attempts


class TransportError(BackendError):
    """The endpoint could not be reached."""


class ProviderError(BackendError):
    """The endpoint answered with a non-retryable error."""

    def __init__(self, status: int, body_excerpt: str):
        super().__init__(f"HTTP {status}: {body_excerpt}")
        self.status = status
        self.body_excerpt = body_excerpt


class ReplayMissError(BackendError):
    """Replay mode saw a request that is not in the transcript."""


class UnparseablePromptError(BackendError):
    """The rule backend could not parse the prompt back into sample groups."""
