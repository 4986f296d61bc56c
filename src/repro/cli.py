"""Command-line interface: run experiments and single trials from a shell.

Usage examples::

    # list the experiments of DESIGN.md
    python -m repro list

    # run one experiment and print its markdown report
    python -m repro run E11

    # run every experiment (the content of EXPERIMENTS.md)
    python -m repro run-all --output experiments.md

    # one-off trial of an algorithm against the randomized adversary
    python -m repro trial gathering --n 100 --seed 3

    # vectorized n sweep across 3 worker processes (one trial range each per n)
    python -m repro sweep gathering --ns 50,100,200 --trials 20 \
        --engine vectorized --workers 3

    # adversarial worst-case search, persisting the find as a replayable corpus
    python -m repro search gathering --family uniform --n 60 --budget 192 \
        --store corpora/gathering-uniform

    # declarative campaign: run (resumable), inspect, report
    python -m repro campaign run examples/campaign_paper.toml --workers 4
    python -m repro campaign status campaigns/paper-grid
    python -m repro campaign report campaigns/paper-grid --output report.md

Knob composition (details in ``docs/engines.md``): ``--engine`` selects the
executor everywhere it appears; ``--workers`` fans sweep cells (one per
``n``, split into one trial range per worker, or one per campaign grid
point) over processes; ``--block-size``
tunes the vectorized engine's committed window.  ``--ratio`` (on ``run``,
``run-all``, ``trial`` and ``sweep``) additionally captures the
offline-optimum baseline per trial, adding ``opt_cost``/
``competitive_ratio`` metrics and ratio table columns
(``docs/metrics.md``); campaign specs opt in with ``ratio = true`` and
their reports then carry ratio columns automatically.  Every
combination produces identical results — the knobs trade wall-clock time
only, and ``--ratio`` only *adds* metrics without changing any existing
one.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import List, Optional

from .adversaries.factory import ADVERSARY_FAMILIES
from .core.algorithm import registry
from .experiments.registry import EXPERIMENTS, run_experiment
from .sim.parallel import sweep_random_adversary
from .sim.runner import (
    ENGINES,
    resolve_engine,
    run_random_trial,
    validate_sweep_parameters,
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-doda`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-doda",
        description="Reproduction of 'Distributed Online Data Aggregation in "
        "Dynamic Graphs' (Bramas, Masuzawa, Tixeuil, ICDCS 2016)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_engine_option(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--engine",
            choices=sorted(ENGINES),
            default="reference",
            help="execution engine: 'reference' is the semantics oracle, "
            "'vectorized' runs whole sweep cells as numpy arrays (trials "
            "its kernels cannot mirror fall back to the reference engine) "
            "— both produce identical results seed for seed "
            "(default: reference)",
        )

    def add_workers_option(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for sweeps; each sweep cell (one n, or "
            "one campaign grid point) is one task, and a sweep splits each "
            "n into up to N trial ranges; results are identical for any "
            "worker count (default: 1)",
        )

    def add_ratio_option(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--ratio",
            action="store_true",
            help="also evaluate the offline-optimum baseline (the paper's "
            "opt) on the committed window each trial consumed, reporting "
            "per-trial opt_cost and competitive_ratio (>= 1 whenever "
            "finite) and ratio table columns; identical values on every "
            "engine and execution path (see docs/metrics.md)",
        )

    def add_adversary_option(target: argparse.ArgumentParser) -> None:
        target.add_argument(
            "--adversary",
            choices=sorted(ADVERSARY_FAMILIES),
            default="uniform",
            help="committed adversary family: 'uniform' is the paper's "
            "Section 4 randomized adversary; 'zipf'/'hub' skew the pair "
            "distribution; 'waypoint'/'community' are mobility models "
            "(default: uniform)",
        )

    subparsers.add_parser("list", help="list available experiments and algorithms")

    run_parser = subparsers.add_parser("run", help="run one experiment by id (e.g. E11)")
    run_parser.add_argument("experiment_id", help="experiment identifier from DESIGN.md")
    run_parser.add_argument(
        "--output", help="write the markdown report to this file", default=None
    )
    add_engine_option(run_parser)
    add_workers_option(run_parser)
    add_ratio_option(run_parser)

    all_parser = subparsers.add_parser("run-all", help="run every experiment")
    all_parser.add_argument(
        "--output", help="write the combined markdown report to this file", default=None
    )
    add_engine_option(all_parser)
    add_workers_option(all_parser)
    add_ratio_option(all_parser)

    trial_parser = subparsers.add_parser(
        "trial", help="run one trial of an algorithm against the randomized adversary"
    )
    trial_parser.add_argument("algorithm", help="registered algorithm name")
    trial_parser.add_argument("--n", type=int, default=50, help="number of nodes")
    trial_parser.add_argument("--seed", type=int, default=0, help="adversary seed")
    trial_parser.add_argument(
        "--tau", type=int, default=None, help="tau parameter (waiting_greedy only)"
    )
    add_engine_option(trial_parser)
    add_adversary_option(trial_parser)
    add_ratio_option(trial_parser)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="sweep n for one algorithm against a committed adversary",
    )
    sweep_parser.add_argument("algorithm", help="registered algorithm name")
    sweep_parser.add_argument(
        "--ns",
        default="16,24,36,54,80",
        help="comma-separated values of n (default: 16,24,36,54,80)",
    )
    sweep_parser.add_argument(
        "--trials", type=int, default=12, help="trials per n (default: 12)"
    )
    sweep_parser.add_argument(
        "--master-seed", type=int, default=0, help="master seed (default: 0)"
    )
    sweep_parser.add_argument(
        "--output", help="write the markdown table to this file", default=None
    )
    add_engine_option(sweep_parser)
    add_workers_option(sweep_parser)
    add_adversary_option(sweep_parser)
    add_ratio_option(sweep_parser)
    sweep_parser.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="committed-future window consumed per vectorized-engine step "
        "(ignored by the reference engine; default: the engine's "
        "benchmarked default)",
    )

    search_parser = subparsers.add_parser(
        "search",
        help="adversarial worst-case search: mutate committed schedules to "
        "hunt high-competitive-ratio instances (docs/search.md)",
        description="Seeded elitist search over committed schedules "
        "(docs/search.md): materialize family draws, mutate them through "
        "invariant-preserving operators, score each generation in one "
        "batched engine call with the offline-optimum baseline, and "
        "optionally persist the hardest finds into a replayable "
        "worst-case corpus.  Deterministic per --seed.",
    )
    search_parser.add_argument("algorithm", help="registered algorithm name")
    search_parser.add_argument(
        "--family",
        choices=sorted(ADVERSARY_FAMILIES),
        default="uniform",
        help="adversary family whose schedules are searched (default: uniform)",
    )
    search_parser.add_argument("--n", type=int, default=60, help="number of nodes (default: 60)")
    search_parser.add_argument(
        "--budget",
        type=int,
        default=192,
        help="total candidate evaluations, initial samples included (default: 192)",
    )
    search_parser.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    search_parser.add_argument(
        "--pool-size", type=int, default=6, help="elitist pool size (default: 6)"
    )
    search_parser.add_argument(
        "--generation-size",
        type=int,
        default=16,
        help="children per generation — one engine call each (default: 16)",
    )
    search_parser.add_argument(
        "--initial", type=int, default=32, help="initial family draws (default: 32)"
    )
    search_parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="schedule length in interactions (default: the algorithm's "
        "default horizon at n)",
    )
    search_parser.add_argument(
        "--tau", type=int, default=None, help="tau parameter (waiting_greedy only)"
    )
    search_parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="vectorized",
        help="scoring engine; any vectorized-engine fallback aborts the "
        "search instead of silently downgrading (default: vectorized)",
    )
    search_parser.add_argument(
        "--store",
        default=None,
        help="persist the top finds into this worst-case corpus directory "
        "(content-addressed; replayable via TraceReplayAdversary)",
    )
    search_parser.add_argument(
        "--top",
        type=int,
        default=1,
        help="how many pool members to persist with --store (default: 1)",
    )
    search_parser.add_argument(
        "--output", help="write the markdown summary to this file", default=None
    )

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="declarative experiment campaigns: sharded resumable runs "
        "with a checkpointed on-disk store and paper-figure reports",
        description="Run, inspect and report declarative campaigns "
        "(docs/campaigns.md).  A campaign spec (TOML/JSON) names "
        "algorithms x adversary families x n x trials; 'run' executes it "
        "cell by cell with checkpointing and resumes interrupted "
        "campaigns; 'status' verifies the store; 'report' aggregates it "
        "into the paper's comparison tables and figures.",
    )
    campaign_sub = campaign_parser.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run",
        help="run (or resume) a campaign spec; completed cells are "
        "skipped, so re-running after an interrupt finishes the grid",
    )
    campaign_run.add_argument("spec", help="path to a .toml/.json campaign spec")
    campaign_run.add_argument(
        "--store",
        default=None,
        help="store directory (default: campaigns/<campaign name>)",
    )
    campaign_run.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        help="override the spec's engine for this run; results are "
        "engine-invariant, so a campaign may be resumed under a "
        "different engine (default: the spec's engine)",
    )
    add_workers_option(campaign_run)
    campaign_run.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="execute at most this many pending cells, then stop (the "
        "store stays resumable; mainly for smoke tests and budgeted runs)",
    )
    campaign_run.add_argument(
        "--block-size",
        type=int,
        default=None,
        help="override the spec's committed-window block size for the "
        "vectorized engine",
    )

    campaign_status_parser = campaign_sub.add_parser(
        "status",
        help="verify a campaign store: complete / pending / corrupt cells",
    )
    campaign_status_parser.add_argument(
        "target", help="store directory, or a spec file (resolves its default store)"
    )

    campaign_report = campaign_sub.add_parser(
        "report",
        help="aggregate a campaign store into markdown tables "
        "(+ figures when matplotlib is available)",
    )
    campaign_report.add_argument(
        "target", help="store directory, or a spec file (resolves its default store)"
    )
    campaign_report.add_argument(
        "--output", default=None, help="write the markdown report to this file"
    )
    campaign_report.add_argument(
        "--figures",
        default=None,
        help="also write duration-vs-n figures into this directory "
        "(skipped with a note when matplotlib is not installed)",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="wrap any repro command with span capture and write a "
        "Chrome-trace (Perfetto) JSON of where the time went",
        description="Run any repro subcommand under the recording "
        "collector (docs/observability.md) and export the captured "
        "engine/sweep/campaign/search spans as Chrome-trace JSON, "
        "loadable at ui.perfetto.dev or chrome://tracing.  Telemetry is "
        "observe-only: the wrapped command's results, stores and exit "
        "code are identical with and without tracing.",
    )
    trace_parser.add_argument(
        "--trace-out",
        default="trace.json",
        help="write the Chrome-trace JSON here (default: trace.json)",
    )
    trace_parser.add_argument(
        "wrapped",
        nargs=argparse.REMAINDER,
        help="the repro command line to trace, e.g. "
        "'campaign run examples/campaign_smoke.toml'",
    )

    bench_parser = subparsers.add_parser(
        "bench",
        help="inspect the recorded benchmark trajectory "
        "(benchmarks/BENCH_*.json)",
        description="Render the benchmark history the perf gate floors: "
        "'trajectory' tabulates BENCH_engine.json (per-record engine "
        "speedups vs the reference) and BENCH_blocksize.json (committed-"
        "window tuning) so regressions and improvements are visible "
        "without scraping JSON.",
    )
    bench_sub = bench_parser.add_subparsers(dest="bench_command", required=True)
    bench_trajectory = bench_sub.add_parser(
        "trajectory",
        help="tabulate the recorded BENCH_engine / BENCH_blocksize history",
    )
    bench_trajectory.add_argument(
        "--dir",
        default="benchmarks",
        help="directory holding BENCH_engine.json / BENCH_blocksize.json "
        "(default: benchmarks)",
    )
    bench_trajectory.add_argument(
        "--output", default=None, help="write the markdown tables to this file"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("Experiments:")
        for experiment_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
            print(f"  {experiment_id:4s} {EXPERIMENTS[experiment_id].claim}")
        print("Algorithms:")
        for name in registry.names():
            print(f"  {name}")
        return 0

    if args.command == "run":
        spec = EXPERIMENTS.get(args.experiment_id)
        kwargs = _engine_kwargs(spec.runner, args) if spec is not None else {}
        # Unknown identifiers fall through to run_experiment's KeyError.
        report = run_experiment(args.experiment_id, **kwargs)
        text = report.to_markdown()
        _emit(text, args.output)
        return 0 if report.verdict else 1

    if args.command == "run-all":
        sections = []
        all_ok = True
        for experiment_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
            runner = EXPERIMENTS[experiment_id].runner
            report = runner(**_engine_kwargs(runner, args))
            sections.append(report.to_markdown())
            all_ok = all_ok and report.verdict
        _emit("\n\n".join(sections), args.output)
        return 0 if all_ok else 1

    if args.command == "trial":
        algorithm = _create_algorithm(args.algorithm, args.n, tau=args.tau)
        metrics = run_random_trial(
            algorithm, args.n, args.seed, engine=args.engine,
            adversary=args.adversary, capture_opt=args.ratio,
        )
        line = (
            f"algorithm={metrics.algorithm} n={metrics.n} "
            f"adversary={args.adversary} terminated={metrics.terminated} "
            f"duration={metrics.duration} transmissions={metrics.transmissions}"
        )
        if args.ratio:
            ratio = metrics.competitive_ratio
            line += (
                f" opt_cost={metrics.opt_cost} "
                f"competitive_ratio={'undefined' if ratio is None else ratio}"
            )
        print(line)
        return 0 if metrics.terminated else 1

    if args.command == "sweep":
        try:
            ns = [int(value) for value in args.ns.split(",") if value.strip()]
        except ValueError:
            parser.error(f"--ns must be a comma-separated list of integers, got {args.ns!r}")
        try:
            validate_sweep_parameters(ns, args.trials)
            resolve_engine(args.engine)
            if args.workers < 1:
                raise ValueError(f"workers must be >= 1, got {args.workers}")
            if args.block_size is not None and args.block_size < 1:
                raise ValueError(
                    f"--block-size must be >= 1, got {args.block_size}"
                )
            if args.algorithm not in registry.names():
                raise ValueError(
                    f"unknown algorithm {args.algorithm!r}; "
                    f"available: {', '.join(registry.names())}"
                )
        except ValueError as error:
            parser.error(str(error))
        sweep = sweep_random_adversary(
            lambda n: _create_algorithm(args.algorithm, n),
            ns,
            args.trials,
            master_seed=args.master_seed,
            engine=args.engine,
            workers=args.workers,
            adversary=args.adversary,
            block_size=args.block_size,
            capture_opt=args.ratio,
        )
        _emit(sweep.to_table().to_markdown(), args.output)
        return 0

    if args.command == "search":
        return _search_main(parser, args)

    if args.command == "campaign":
        return _campaign_main(parser, args)

    if args.command == "trace":
        return _trace_main(parser, args)

    if args.command == "bench":
        return _bench_main(parser, args)

    parser.error(f"unknown command {args.command!r}")
    return 2


def _search_main(parser: argparse.ArgumentParser, args) -> int:
    """Dispatch the ``search`` subcommand (adversarial worst-case search)."""
    import math

    from .search import (
        SearchConfig,
        SearchEngineFallbackError,
        SearchError,
        WorstCaseCorpus,
        instance_from_candidate,
        run_search,
    )
    from .sim.results import ResultTable

    config = SearchConfig(
        algorithm=args.algorithm,
        family=args.family,
        n=args.n,
        budget=args.budget,
        seed=args.seed,
        engine=args.engine,
        pool_size=args.pool_size,
        generation_size=args.generation_size,
        initial_samples=args.initial,
        horizon=args.horizon,
        tau=args.tau,
    )
    try:
        outcome = run_search(config)
    except (SearchError, SearchEngineFallbackError) as error:
        parser.error(str(error))

    digests = {}
    if args.store is not None:
        corpus = WorstCaseCorpus(args.store)
        for rank, candidate in enumerate(outcome.pool[: max(args.top, 1)]):
            if math.isfinite(candidate.score):
                digests[rank] = corpus.add(
                    instance_from_candidate(config, candidate)
                )

    table = ResultTable(
        title=(
            f"Adversarial search: {args.algorithm} × {args.family} "
            f"(n={args.n}, budget={outcome.evaluations}, seed={args.seed})"
        ),
        columns=[
            "rank",
            "competitive_ratio",
            "duration",
            "opt_cost",
            "lineage_depth",
            "base_seed",
            "digest",
        ],
    )
    for rank, candidate in enumerate(outcome.pool):
        metrics = candidate.metrics
        table.add_row(
            rank=rank,
            competitive_ratio=(
                round(candidate.score, 3)
                if math.isfinite(candidate.score)
                else None
            ),
            duration=(
                int(metrics.duration) if metrics.terminated else None
            ),
            opt_cost=metrics.opt_cost,
            lineage_depth=len(candidate.lineage),
            base_seed=candidate.base_seed,
            digest=digests.get(rank, ""),
        )
    table.add_note(
        "best-so-far per generation: "
        + ", ".join(
            f"{value:.2f}" if math.isfinite(value) else "n/a"
            for value in outcome.history
        )
    )
    if args.store is not None:
        table.add_note(f"persisted {len(digests)} instance(s) to {args.store}")
    _emit(table.to_markdown(), args.output)
    return 0 if math.isfinite(outcome.best_ratio) else 1


def _trace_main(parser: argparse.ArgumentParser, args) -> int:
    """Dispatch ``trace``: run a wrapped command under span capture.

    The wrapped command runs through :func:`main` recursively with a
    :class:`~repro.obs.RecordingCollector` installed; its exit code is
    passed through unchanged and the recording is written as Chrome-trace
    JSON afterwards.  ``--trace-out`` is accepted on either side of the
    wrapped command (argparse's REMAINDER captures everything after the
    first positional, so the flag may land inside ``wrapped``).
    """
    from .obs import RecordingCollector, use_collector, write_chrome_trace

    wrapped = list(args.wrapped)
    trace_out = args.trace_out
    # Allow `repro trace sweep ... --trace-out f.json`: pull the flag
    # back out of the remainder if argparse swallowed it.
    while "--trace-out" in wrapped:
        position = wrapped.index("--trace-out")
        if position + 1 >= len(wrapped):
            parser.error("--trace-out requires a path argument")
        trace_out = wrapped[position + 1]
        del wrapped[position : position + 2]
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        parser.error("trace requires a repro command to wrap")
    if wrapped[0] == "trace":
        parser.error("trace cannot wrap itself")

    collector = RecordingCollector()
    with use_collector(collector):
        exit_code = main(wrapped)
    path = write_chrome_trace(collector, trace_out)
    print(
        f"trace: {len(collector.spans)} spans, {len(collector.events)} "
        f"events -> {path} (load at ui.perfetto.dev)",
        file=sys.stderr,
    )
    return exit_code


def _bench_main(parser: argparse.ArgumentParser, args) -> int:
    """Dispatch ``bench trajectory``: tabulate the BENCH_*.json history."""
    import json
    from pathlib import Path

    from .sim.results import ResultTable

    if args.bench_command != "trajectory":
        parser.error(f"unknown bench command {args.bench_command!r}")

    bench_dir = Path(args.dir)
    sections = []

    engine_path = bench_dir / "BENCH_engine.json"
    if engine_path.is_file():
        try:
            records = json.loads(engine_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            print(f"bench error: {engine_path}: {error}", file=sys.stderr)
            return 2
        table = ResultTable(
            title="Engine speedup trajectory (BENCH_engine.json)",
            columns=[
                "engine", "baseline", "adversary", "n", "trials",
                "speedup", "seconds", "baseline_seconds", "host",
            ],
        )
        for record in records:
            table.add_row(
                engine=record.get("engine"),
                baseline=record.get("baseline"),
                adversary=record.get("adversary"),
                n=record.get("n"),
                trials=record.get("trials"),
                speedup=record.get("speedup"),
                seconds=record.get("seconds"),
                baseline_seconds=record.get("baseline_seconds"),
                host=record.get("host"),
            )
        sections.append(table.to_markdown())

    blocksize_path = bench_dir / "BENCH_blocksize.json"
    if blocksize_path.is_file():
        try:
            records = json.loads(blocksize_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            print(f"bench error: {blocksize_path}: {error}", file=sys.stderr)
            return 2
        table = ResultTable(
            title="Committed-window tuning trajectory (BENCH_blocksize.json)",
            columns=[
                "n", "trials", "best_block_size", "default_block_size",
                "best_ms", "default_ms",
            ],
        )
        for record in records:
            timings = record.get("timings_ms", {})
            best = record.get("best_block_size")
            default = record.get("default_block_size")
            table.add_row(
                n=record.get("n"),
                trials=record.get("trials"),
                best_block_size=best,
                default_block_size=default,
                best_ms=timings.get(str(best)),
                default_ms=timings.get(str(default)),
            )
        sections.append(table.to_markdown())

    if not sections:
        print(
            f"bench error: no BENCH_engine.json or BENCH_blocksize.json "
            f"under {bench_dir}",
            file=sys.stderr,
        )
        return 2
    _emit("\n\n".join(sections), args.output)
    return 0


def _campaign_store_dir(target: str):
    """Resolve a campaign CLI target: a store directory or a spec file."""
    from pathlib import Path

    from .campaign import default_store_dir, load_campaign_spec

    path = Path(target)
    if path.suffix.lower() in (".toml", ".json") and path.is_file():
        return default_store_dir(load_campaign_spec(path))
    return path


def _campaign_main(parser: argparse.ArgumentParser, args) -> int:
    """Dispatch the ``campaign run|status|report`` subcommands."""
    from .campaign import (
        CampaignSpecError,
        CampaignStoreError,
        build_campaign_report,
        campaign_status,
        default_store_dir,
        load_campaign_spec,
        run_campaign,
        write_campaign_figures,
    )

    try:
        if args.campaign_command == "run":
            spec = load_campaign_spec(args.spec)
            store_dir = args.store or default_store_dir(spec)
            summary = run_campaign(
                spec,
                store_dir,
                engine=args.engine,
                workers=args.workers,
                max_cells=args.max_cells,
                block_size=args.block_size,
                echo=lambda line: print(line, file=sys.stderr),
            )
            print(summary.to_text())
            return 0 if summary.complete else 3

        if args.campaign_command == "status":
            print(campaign_status(_campaign_store_dir(args.target)))
            return 0

        if args.campaign_command == "report":
            store_dir = _campaign_store_dir(args.target)
            report = build_campaign_report(store_dir)
            if args.figures is not None:
                figures = write_campaign_figures(store_dir, args.figures)
                if figures is None:
                    report.notes.append(
                        "figures skipped: matplotlib is not installed"
                    )
                elif not figures:
                    report.notes.append(
                        "no figures written: the store holds no complete "
                        "cells with terminated trials yet"
                    )
                else:
                    report.notes.append(
                        "figures: " + ", ".join(str(path) for path in figures)
                    )
            _emit(report.to_markdown(), args.output)
            return 0
    except (CampaignSpecError, CampaignStoreError) as error:
        # Mirrors the perf_gate.py hardening: a missing, empty or corrupt
        # store (or a broken spec) is an operator-facing condition, so it
        # exits 2 with one clear actionable line — never a traceback, and
        # no argparse usage noise drowning the message.
        print(f"campaign error: {error}", file=sys.stderr)
        return 2
    parser.error(f"unknown campaign command {args.campaign_command!r}")
    return 2


def _create_algorithm(name: str, n: int, tau: Optional[int] = None):
    """Instantiate a registered algorithm, filling in per-``n`` parameters."""
    kwargs = {}
    if name == "waiting_greedy":
        from .algorithms.waiting_greedy import optimal_tau

        kwargs["tau"] = tau if tau is not None else optimal_tau(n)
    return registry.create(name, **kwargs)


def _engine_kwargs(runner, args) -> dict:
    """The subset of ``--engine`` / ``--workers`` the runner understands.

    Experiment runners opt into the knobs by declaring ``engine`` /
    ``workers`` parameters; the others (offline/impossibility experiments)
    run as before, and a note is printed when a non-default flag had to be
    dropped so the user is never silently surprised.
    """
    parameters = inspect.signature(runner).parameters
    kwargs = {}
    if "engine" in parameters:
        kwargs["engine"] = args.engine
    elif args.engine != "reference":
        print(
            f"note: experiment {runner.__name__} is not wired for engine "
            "selection; --engine ignored",
            file=sys.stderr,
        )
    if "workers" in parameters:
        kwargs["workers"] = args.workers
    elif args.workers != 1:
        print(
            f"note: experiment {runner.__name__} is not wired for parallel "
            "sweeps; --workers ignored",
            file=sys.stderr,
        )
    ratio = getattr(args, "ratio", False)
    if "capture_opt" in parameters:
        kwargs["capture_opt"] = ratio
    elif ratio:
        print(
            f"note: experiment {runner.__name__} is not wired for "
            "offline-baseline capture; --ratio ignored",
            file=sys.stderr,
        )
    return kwargs


def _emit(text: str, output: Optional[str]) -> None:
    """Print the text or write it to a file."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
