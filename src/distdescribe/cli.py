"""Command-line interface.

Exit codes: 0 success, 2 input/configuration error, 3 backend failure,
4 pipeline aborted (verifier abstained too often).  Stdout carries report
content only; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from functools import partial
from pathlib import Path

from .backends import make_backend
from .bench import default_suite, generate_task, load_suite, run_bench, save_suite
from .config import RunConfig, build_config, nest_settings, parse_config_file, parse_setting
from .corpus import DistributionPair, load_clustered, load_corpus
from .discriminator import train
from .errors import (
    BackendError,
    ConfigError,
    DistDescribeError,
    PipelineAbortedError,
    UnknownClusterError,
)
from .pipeline import (
    REPORT_FORMAT,
    Report,
    check_abstentions,
    describe_pair,
    judgment_warnings,
    label_clusters,
    report_json,
    report_table,
    shift_report,
    shortcut_scan,
    verify,
)
from .proposer import first_prompt
from .store import JudgmentCache


# Each run flag sets one config key and parses its value exactly as a
# config-file line setting that key would.
RUN_FLAGS = (
    ("--seed", "seed", "global seed"),
    ("--pair-seed", "pair_seed", "pair-sampling seed"),
    ("--prompt-seed", "prompt_seed", "prompt-sampling seed"),
    ("--n-pairs", "n_pairs", "pairs per CA estimate"),
    ("--top-k", "top_k", "ranked hypotheses to keep"),
    ("--percentiles", "percentiles", "comma-separated percentiles, e.g. 5,20,100"),
    ("--temperature", "temperature", "proposer sampling temperature"),
    ("--max-completion-tokens", "max_completion_tokens", "max tokens per proposer completion"),
    ("--in-flight", "in_flight", "most requests in flight at once"),
    ("--proposer-backend", "proposer_backend", "http, rule, or replay:<path>"),
    ("--verifier-backend", "verifier_backend", "http, rule, or replay:<path>"),
    ("--proposer-base-url", "proposer.base_url", "proposer endpoint URL"),
    ("--proposer-model", "proposer.model", "proposer model name"),
    ("--verifier-base-url", "verifier.base_url", "verifier endpoint URL"),
    ("--verifier-model", "verifier.model", "verifier model name"),
    ("--cache", "cache_path", "judgment and completion cache path"),
    ("--out", "out_path", "write the machine-readable report here"),
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", help="config file (distdescribe-config-v1)")
    for flag, key, help_text in RUN_FLAGS:
        p.add_argument(
            flag, dest=key.replace(".", "_"), type=partial(parse_setting, key), help=help_text
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {key: getattr(args, key.replace(".", "_")) for _, key, _ in RUN_FLAGS}
    return build_config(file_values, nest_settings(flags))


def _load_pair(args: argparse.Namespace) -> DistributionPair:
    return DistributionPair(
        d0=load_corpus(args.d0, format=args.format),
        d1=load_corpus(args.d1, format=args.format),
    )


def _write_out(config: RunConfig, doc) -> None:
    if config.out_path:
        Path(config.out_path).write_text(report_json(doc), encoding="utf-8")


def _emit_report(config: RunConfig, report: Report) -> None:
    _write_out(config, report)
    sys.stdout.write(report_table(report))


def cmd_describe(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pair = _load_pair(args)
    report = describe_pair(pair, config)
    _emit_report(config, report)
    return 0


def cmd_label_clusters(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    clustered = load_clustered(args.input)
    reports = label_clusters(clustered, config)
    doc = {
        "format": REPORT_FORMAT,
        "kind": "label-clusters",
        "clusters": {cid: rep.to_dict() for cid, rep in reports.items()},
    }
    _write_out(config, doc)
    for cid in sorted(reports):
        sys.stdout.write(f"=== cluster {cid} ===\n")
        sys.stdout.write(report_table(reports[cid]))
        sys.stdout.write("\n")
    return 0


def cmd_shift(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = shift_report(
        load_corpus(args.train, name="train"),
        load_corpus(args.test, name="test"),
        config,
    )
    _emit_report(config, report)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    clustered = load_clustered(args.input)
    labeled = clustered.clusters
    if args.labels:
        wanted = [part.strip() for part in args.labels.split(",") if part.strip()]
        for label in wanted:
            if label not in labeled:
                raise UnknownClusterError(f"label {label!r} not present in {args.input}")
        labeled = {label: labeled[label] for label in wanted}
    scan = shortcut_scan(labeled, config)
    _write_out(config, scan)
    for (label0, label1), rep in scan.reports:
        sys.stdout.write(f"=== {label1} vs {label0} ===\n")
        sys.stdout.write(report_table(rep))
        sys.stdout.write("\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    backend = make_backend(config.verifier_backend, config.verifier_endpoint)  # no proposer
    with closing(JudgmentCache(config.cache_path)) as cache:
        (est,), verifier = verify([args.hypothesis], _load_pair(args), config, backend, cache)
    for warning in judgment_warnings(verifier):
        print(f"distdescribe: warning: {warning}", file=sys.stderr)
    check_abstentions(verifier)
    _write_out(config, est)
    mode = "exhaustive" if est.exhaustive else f"sampled seed={est.seed}"
    sys.stdout.write(
        f"CA {est.mean:.3f} stderr {est.stderr:.3f} (n_pairs={est.n_pairs}, {mode})\n"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    tasks = load_suite(args.suite)
    report = run_bench(tasks, config)
    _write_out(config, report)
    sys.stdout.write(report.table())
    return 0


def cmd_gen_bench(args: argparse.Namespace) -> int:
    if args.gold:
        if args.q1 is None or args.q0 is None:
            raise ConfigError("--gold requires --q1 and --q0")
        tasks = [generate_task(args.gold, args.q1, args.q0, args.n, args.seed)]
        out_dir = args.out or f"bench-{args.gold}"
    else:
        if args.suite != "default":
            raise ConfigError(f"unknown suite recipe {args.suite!r}")
        tasks = default_suite(task_count=args.tasks, n_per_side=args.n, seed=args.seed)
        out_dir = args.out or f"bench-{args.suite}"
    save_suite(tasks, out_dir)
    sys.stdout.write(f"wrote {len(tasks)} task(s) to {out_dir}\n")
    return 0


def cmd_dump_prompt(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pair = _load_pair(args)
    disc = train(pair)
    prompt = first_prompt(disc, config, args.percentile)
    sys.stdout.write(prompt.rendered + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdescribe",
        description="Describe how two text distributions differ, in plain language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pair_flags(p):
        p.add_argument("--d0", required=True, help="baseline corpus (jsonl or lines)")
        p.add_argument("--d1", required=True, help="contrast corpus (jsonl or lines)")
        p.add_argument(
            "--format", choices=("jsonl", "lines"), default="jsonl", help="corpus format"
        )

    p = sub.add_parser("describe", help="rank descriptions of how d1 differs from d0")
    pair_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("label-clusters", help="describe each cluster vs the rest")
    p.add_argument("--input", required=True, help="clustered corpus jsonl")
    _add_run_flags(p)
    p.set_defaults(func=cmd_label_clusters)

    p = sub.add_parser("shift", help="describe train/test distribution shift")
    p.add_argument("--train", required=True, help="training corpus jsonl")
    p.add_argument("--test", required=True, help="test corpus jsonl")
    _add_run_flags(p)
    p.set_defaults(func=cmd_shift)

    p = sub.add_parser("scan", help="scan a labeled dataset for shortcut features")
    p.add_argument("--input", required=True, help="labeled corpus jsonl (cluster = class)")
    p.add_argument("--labels", help="comma-separated subset of class labels")
    _add_run_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="estimate CA of one hypothesis string")
    p.add_argument("--hypothesis", required=True, help="description to verify")
    pair_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="run the pipeline over a generated suite")
    p.add_argument("--suite", required=True, help="suite directory (from gen-bench)")
    _add_run_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen-bench", help="generate synthetic benchmark tasks")
    p.add_argument("--suite", default="default", help="suite recipe name")
    p.add_argument("--tasks", type=int, default=54, help="number of tasks")
    p.add_argument("--gold", help="single-task mode: gold predicate id")
    p.add_argument("--q1", type=float, help="single-task satisfaction rate, side 1")
    p.add_argument("--q0", type=float, help="single-task satisfaction rate, side 0")
    p.add_argument("--n", type=int, default=200, help="samples per side")
    p.add_argument("--seed", type=int, default=1, help="generation seed")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_gen_bench)

    p = sub.add_parser("dump-prompt", help="print the first proposer prompt for a pair")
    pair_flags(p)
    p.add_argument("--percentile", type=int, help="representativeness percentile")
    _add_run_flags(p)
    p.set_defaults(func=cmd_dump_prompt)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BackendError as exc:
        print(f"distdescribe: backend error: {exc}", file=sys.stderr)
        return 3
    except PipelineAbortedError as exc:
        print(f"distdescribe: {exc}", file=sys.stderr)
        return 4
    except (DistDescribeError, ValueError, OSError) as exc:
        print(f"distdescribe: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
