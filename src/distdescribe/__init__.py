"""Describe how two text distributions differ, in natural language.

The pipeline proposes candidate descriptions from representative samples,
verifies each one on sampled cross-distribution pairs, and ranks the
survivors by estimated classification accuracy.
"""

# Before the submodule imports: the HTTP backend's User-Agent names it.
__version__ = "0.1.0"

from .backends import (
    Backend,
    CompletionRequest,
    HttpBackend,
    JudgmentRequest,
    RecordingBackend,
    ReplayBackend,
    RuleBackend,
    make_backend,
)
from .bench import (
    BenchReport,
    SyntheticTask,
    default_suite,
    generate_task,
    load_suite,
    run_bench,
    save_suite,
)
from .config import EndpointConfig, RunConfig, build_config, parse_config_file
from .corpus import (
    ClusteredCorpus,
    Corpus,
    DistributionPair,
    Sample,
    load_clustered,
    load_corpus,
    one_vs_rest,
    save_corpus,
)
from .discriminator import (
    Discriminator,
    RepresentativeSet,
    featurize,
    select_percentile,
    train,
)
from .errors import (
    BackendError,
    ConfigError,
    DistDescribeError,
    PipelineAbortedError,
)
from .pipeline import (
    Report,
    ShortcutReport,
    describe_pair,
    label_clusters,
    report_json,
    report_table,
    shift_report,
    shortcut_scan,
)
from .predicates import PREDICATES, Predicate, get_predicate, parse_description
from .proposer import (
    CandidateSet,
    Hypothesis,
    ProposerPrompt,
    build_prompt,
    normalize_hypothesis,
    propose,
)
from .store import JudgmentCache
from .verifier import CAEstimate, Verifier
