"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``attack <name>``      run one attack on the simulator and report the leak
``attacks``            run the whole corpus (one line per attack)
``workloads``          run the benign suite and report IPCs
``collect <out>``      build and save a labelled trace corpus
``train <corpus>``     vaccinate a detector on a saved corpus
``adaptive``           train then demo the adaptive architecture
``explain <detector>``  interpret a trained detector
``report <corpus> <detector>``  markdown system report
``campaign <dir>``     fault-isolated parallel evaluation-matrix run
``arena <dir>``        closed-loop adversarial arms race
``serve``              multi-tenant batched streaming inference

Every command accepts the observability options (``--log-file``,
``--log-level``, ``--metrics-out``, ``--manifest-out``/``--no-manifest``,
``--profile``); ``collect``/``train``/``report``/``explain`` write a run
manifest by default, next to their primary artifact.  See
``docs/observability.md``.
"""

import argparse
import sys

from repro.obs import time_block


def _die2(message):
    """Print a one-line error and exit with status 2 (bad input file)."""
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _load_corpus_or_die(path):
    """Load a saved corpus, or exit 2 with a one-line message naming the
    file instead of a traceback."""
    from repro.data import DatasetError, load_dataset
    try:
        return load_dataset(path)
    except (DatasetError, OSError) as exc:
        _die2(f"error: cannot load corpus {path}: {exc}")


def _load_detector_or_die(path):
    """Load a saved detector, or exit 2 with a one-line message.

    ``load_detector`` verifies the artifact end to end (format,
    checksum, dimensions, finiteness) and raises a typed
    :class:`ModelError`; here every failure becomes one stderr line.
    """
    from repro.core.patching import ModelError, load_detector
    try:
        return load_detector(path)
    except ModelError as exc:
        _die2(f"error: cannot load detector {path}: {exc}")
    except FileNotFoundError:
        _die2(f"error: cannot load detector {path}: file not found")
    except (ValueError, KeyError, OSError) as exc:
        _die2(f"error: cannot load detector {path}: {exc}")


def _cmd_attack(args):
    from repro.attacks import ATTACKS_BY_NAME
    from repro.sim import SimConfig
    from repro.sim.config import DefenseMode

    cls = ATTACKS_BY_NAME.get(args.name)
    if cls is None:
        sys.exit(f"unknown attack {args.name!r}; "
                 f"choose from {sorted(ATTACKS_BY_NAME)}")
    config = SimConfig(defense=DefenseMode(args.defense))
    outcome = cls(seed=args.seed).run(config=config)
    print(f"attack      : {outcome.name}")
    print(f"defense     : {args.defense}")
    print(f"expected    : {outcome.expected_bits}")
    print(f"recovered   : {outcome.recovered_bits}")
    print(f"leaked      : {outcome.leaked}")
    print(f"cycles      : {outcome.run.cycles}")
    print(f"committed   : {outcome.run.committed}")
    return 0 if outcome.leaked == (args.defense == "none") else 1


def _cmd_attacks(args):
    from repro.attacks import ALL_ATTACKS
    for cls in ALL_ATTACKS:
        outcome = cls(seed=args.seed).run()
        print(f"{outcome.name:18s} leak={outcome.leaked!s:5s} "
              f"rate={outcome.success_rate:.2f} "
              f"cycles={outcome.run.cycles}")
    return 0


def _cmd_workloads(args):
    from repro.defenses import run_workload
    from repro.sim import SimConfig
    from repro.workloads import all_workloads

    for w in all_workloads(scale=args.scale):
        result = run_workload(w, SimConfig())
        print(f"{w.name:14s} IPC={result.ipc:5.2f} "
              f"cycles={result.cycles:7d} committed={result.committed}")
    return 0


def _cmd_collect(args):
    from repro.attacks import ALL_ATTACKS
    from repro.data import build_dataset, save_dataset
    from repro.data.parallel import build_dataset_resilient
    from repro.runtime import CheckpointError, CoverageError
    from repro.workloads import all_workloads

    attacks = [cls(seed=s) for cls in ALL_ATTACKS
               for s in range(1, args.seeds + 1)]
    workloads = all_workloads(scale=args.scale,
                              seeds=tuple(range(args.seeds)))
    with time_block("stage.collect.build"):
        if args.jobs == 1:
            dataset = build_dataset(attacks, workloads,
                                    sample_period=args.period,
                                    tenancy=args.tenancy)
        else:
            shard_dir = args.checkpoint_dir or (args.out + ".shards")
            try:
                dataset, report = build_dataset_resilient(
                    attacks, workloads, sample_period=args.period,
                    processes=args.jobs, retries=args.retries,
                    task_timeout=args.task_timeout, checkpoint_dir=shard_dir,
                    resume=args.resume, min_coverage=args.min_coverage,
                    tenancy=args.tenancy)
            except CheckpointError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            except CoverageError as exc:
                if exc.report is not None:
                    print(exc.report.summary(), file=sys.stderr)
                print(f"error: {exc}", file=sys.stderr)
                return 1
            if report.failures or report.skipped:
                print(report.summary())
    with time_block("stage.collect.save"):
        save_dataset(dataset, args.out)
    attack_n, benign_n = dataset.balance_counts()
    print(f"saved {len(dataset)} windows ({attack_n} attack / "
          f"{benign_n} benign) to {args.out}")
    return 0


def _cmd_train(args):
    from repro.core import vaccinate
    from repro.core.patching import save_detector
    from repro.ml.resilience import (
        TrainingCheckpointer, TrainingDivergedError, TrainingGuard,
    )
    from repro.runtime import CheckpointError

    with time_block("stage.train.load"):
        dataset = _load_corpus_or_die(args.corpus)
    guard = TrainingGuard(policy=args.guard_policy)
    ckpt_dir = args.checkpoint_dir or \
        ((args.out or args.corpus) + ".train-ckpt")
    checkpointer = None
    if args.checkpoint_every > 0:
        # context pins what determines the training trajectory (the
        # corpus's content, not its path, and the seed) — not the
        # iteration target, so a finished run can be legally resumed
        # with a higher --iterations to train further
        try:
            checkpointer = TrainingCheckpointer(
                ckpt_dir,
                context={"corpus_sha256": dataset.content_sha256,
                         "seed": args.seed},
                interval=args.checkpoint_every, resume=args.resume)
        except CheckpointError as exc:
            _die2(f"error: cannot use training checkpoints in "
                  f"{ckpt_dir}: {exc}")
    with time_block("stage.train.vaccinate"):
        try:
            result = vaccinate(dataset, gan_iterations=args.iterations,
                               seed=args.seed, guard=guard,
                               checkpointer=checkpointer)
        except TrainingDivergedError as exc:
            _die2(f"error: training diverged and could not recover: {exc}")
        except CheckpointError as exc:
            _die2(f"error: cannot use training checkpoints in "
                  f"{ckpt_dir}: {exc}")
    with time_block("stage.train.evaluate"):
        scores = result.detector.evaluate(dataset.raw_matrix(result.schema),
                                          dataset.labels())
    print(f"accuracy={scores['accuracy']:.4f} auc={scores['auc']:.4f} "
          f"fp={scores['fp_rate']:.4f} fn={scores['fn_rate']:.4f}")
    print("engineered HPCs:")
    for name, counters in result.engineered:
        print(f"  {' AND '.join(counters)}")
    if args.out:
        with time_block("stage.train.save"):
            save_detector(result.detector, args.out)
        print(f"detector saved to {args.out}")
    return 0


def _cmd_adaptive(args):
    from repro.attacks import ALL_ATTACKS, ATTACKS_BY_NAME, default_secret_bits
    from repro.core import AdaptiveArchitecture, vaccinate
    from repro.data import build_dataset
    from repro.sim.config import DefenseMode
    from repro.workloads import all_workloads

    if args.detector:
        with time_block("stage.adaptive.load"):
            detector = _load_detector_or_die(args.detector)
    else:
        print("training...")
        with time_block("stage.adaptive.train"):
            attacks = [cls(seed=s) for cls in ALL_ATTACKS for s in (1, 2)]
            dataset = build_dataset(attacks,
                                    all_workloads(scale=4, seeds=(0, 1)),
                                    sample_period=100)
            evax = vaccinate(dataset, gan_iterations=args.iterations,
                             seed=args.seed)
        detector = evax.detector
    arch = AdaptiveArchitecture(detector,
                                secure_mode=DefenseMode(args.defense),
                                secure_window=args.window,
                                sample_period=100,
                                fail_secure=not args.no_fail_secure)
    names = args.attacks or ["spectre-pht", "meltdown", "lvi"]
    with time_block("stage.adaptive.run"):
        for name in names:
            attack = ATTACKS_BY_NAME[name](
                secret_bits=default_secret_bits(9, n=10), seed=9)
            run, leaked = arch.run_attack(attack)
            latch = " LATCHED" if run.latched else ""
            print(f"{name:18s} flags={run.flags:3d} "
                  f"secure={run.secure_fraction:4.0%} "
                  f"leaked={leaked}{latch}")
    return 0


def _cmd_explain(args):
    from repro.core import explain_window, weight_report

    with time_block("stage.explain.load"):
        detector = _load_detector_or_die(args.detector)
    with time_block("stage.explain.weights"):
        malicious, benign = weight_report(detector, top=args.top)
    print("most malicious-leaning features:")
    for name, weight in malicious:
        print(f"  {weight:+8.3f}  {name}")
    print("most benign-leaning features:")
    for name, weight in benign:
        print(f"  {weight:+8.3f}  {name}")
    if args.corpus:
        with time_block("stage.explain.load"):
            dataset = _load_corpus_or_die(args.corpus)
        with time_block("stage.explain.windows"):
            flagged = [r for r in dataset.records
                       if r.label == 1][: args.top]
            for record in flagged[:3]:
                score, contributions = explain_window(detector,
                                                      record.deltas)
                tops = ", ".join(f"{n}={v:.2f}"
                                 for n, v in contributions[:4])
                print(f"window from {record.source}: "
                      f"score={score:.3f} [{tops}]")
    return 0


def _cmd_report(args):
    from repro.analysis import markdown_report
    from repro.runtime.atomic import atomic_write_bytes

    with time_block("stage.report.load"):
        dataset = _load_corpus_or_die(args.corpus)
        detector = _load_detector_or_die(args.detector)
    with time_block("stage.report.render"):
        text = markdown_report(dataset, detector)
    if args.out:
        atomic_write_bytes(args.out, text.encode("utf-8"))
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_campaign(args):
    from repro.campaign import (
        CampaignSpec, CampaignSpecError, default_spec, run_campaign,
        run_smoke,
    )
    from repro.runtime import CampaignError

    if args.smoke:
        with time_block("stage.campaign.run"):
            return run_smoke(jobs=args.jobs)
    if not args.dir:
        _die2("error: campaign directory required (or use --smoke)")
    try:
        if args.spec:
            spec = CampaignSpec.from_json_file(args.spec)
        else:
            overrides = {}
            if args.workloads is not None:
                overrides["workloads"] = tuple(args.workloads)
            if args.attacks is not None:
                overrides["attacks"] = tuple(args.attacks)
            if args.defenses is not None:
                overrides["defenses"] = tuple(args.defenses)
            if args.periods is not None:
                overrides["periods"] = tuple(args.periods)
            if args.cell_seeds is not None:
                overrides["seeds"] = tuple(args.cell_seeds)
            if args.tenancies is not None:
                overrides["tenancies"] = tuple(args.tenancies)
            if args.scale is not None:
                overrides["scale"] = args.scale
            if args.max_cycles is not None:
                overrides["max_cycles"] = args.max_cycles
            spec = default_spec(**overrides)
    except CampaignSpecError as exc:
        _die2(f"error: {exc}")
    with time_block("stage.campaign.run"):
        try:
            result = run_campaign(
                spec, args.dir, processes=args.jobs, retries=args.retries,
                task_timeout=args.task_timeout or None, resume=args.resume)
        except CampaignError as exc:
            _die2(f"error: {exc}")
    print(result.summary())
    print(f"aggregate: {result.aggregate_path}")
    print(f"manifest : {result.manifest_path}")
    return result.exit_code


def _cmd_arena(args):
    from repro.arena import ArenaSpec, run_arena, run_smoke
    from repro.core.patching import ModelSchemaError
    from repro.runtime import ArenaError, CheckpointError

    if args.smoke:
        with time_block("stage.arena.run"):
            return run_smoke(jobs=args.jobs)
    if not args.dir:
        _die2("error: arena directory required (or use --smoke)")
    overrides = {}
    if args.attacks is not None:
        overrides["attacks"] = tuple(args.attacks)
    if args.workloads is not None:
        overrides["workloads"] = tuple(args.workloads)
    spec = ArenaSpec(
        generations=args.generations, population=args.population,
        survivors=args.survivors, sample_period=args.period,
        gan_iterations=args.iterations, fp_budget=args.fp_budget,
        fn_budget=args.fn_budget, seed=args.seed, **overrides)
    initial = None
    if args.detector:
        initial = _load_detector_or_die(args.detector)
    eval_corpus = None
    if args.eval_corpus:
        eval_corpus = _load_corpus_or_die(args.eval_corpus)
    with time_block("stage.arena.run"):
        try:
            result = run_arena(
                spec, args.dir, processes=args.jobs,
                retries=args.retries,
                task_timeout=args.task_timeout or None,
                resume=args.resume, guard_policy=args.guard_policy,
                initial_detector=initial, eval_corpus=eval_corpus)
        except (ArenaError, CheckpointError) as exc:
            _die2(f"error: {exc}")
        except ModelSchemaError as exc:
            _die2(f"error: detector/corpus schema mismatch: {exc}")
    print(result.summary())
    print(f"report   : {result.directory}/arena.md")
    print(f"manifest : {result.directory}/arena.json")
    print(f"detector : {result.directory}/detector.json")
    return result.exit_code


def _cmd_serve(args):
    import json

    from repro.runtime.atomic import atomic_write_bytes
    from repro.serve import (
        ServeConfig, demo_detector, run_bench, run_serve,
        streams_from_dataset, synthetic_streams,
    )
    from repro.sim.config import DefenseMode

    if args.smoke:
        from repro.serve import run_smoke
        with time_block("stage.serve.run"):
            return run_smoke()
    if args.bench:
        with time_block("stage.serve.run"):
            run_bench()
        return 0
    with time_block("stage.serve.load"):
        if args.detector:
            detector = _load_detector_or_die(args.detector)
        else:
            detector = demo_detector(seed=args.seed)
        if args.corpus:
            dataset = _load_corpus_or_die(args.corpus)
            streams = streams_from_dataset(dataset, args.tenants,
                                           period=args.period)
        else:
            streams = synthetic_streams(args.tenants, seed=args.seed,
                                        period=args.period)
    config = ServeConfig(duration=args.duration,
                         batch_window=args.batch_window,
                         queue_limit=args.queue_limit,
                         secure_mode=DefenseMode(args.defense),
                         secure_window=args.secure_window)
    with time_block("stage.serve.run"):
        _, report = run_serve(detector, streams, config)
    with time_block("stage.serve.report"):
        if args.out:
            payload = json.dumps(report, indent=2, sort_keys=True) + "\n"
            atomic_write_bytes(args.out, payload.encode("utf-8"))
    w = report["windows"]
    lat = report["latency_ms"]
    thr = report["throughput"]
    print(f"tenants={len(streams)} ingested={w['ingested']} "
          f"scored={w['scored']} shed={w['shed']} "
          f"batches={report['batches']['count']} "
          f"(max {report['batches']['max_windows']})")
    print(f"latency p50={lat['p50']:.3f}ms p95={lat['p95']:.3f}ms "
          f"p99={lat['p99']:.3f}ms  throughput="
          f"{thr['windows_per_sec']:,.0f} windows/s")
    if report["latched"]:
        print(f"latched tenants: {', '.join(report['latched'])}")
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _obs_parent():
    """Observability options shared by every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    g = parent.add_argument_group("observability")
    g.add_argument("--log-file", default=None, metavar="JSONL",
                   help="append structured JSONL events to this file")
    g.add_argument("--log-level", default="info",
                   choices=["debug", "info", "warn", "error"],
                   help="drop events below this level (default info)")
    g.add_argument("--metrics-out", default=None, metavar="JSON",
                   help="write the final metrics snapshot to this file")
    g.add_argument("--manifest-out", default=None, metavar="JSON",
                   help="run-manifest path (default: next to the "
                        "command's primary artifact)")
    g.add_argument("--no-manifest", action="store_true",
                   help="skip writing the run manifest")
    g.add_argument("--profile", default=None, metavar="PSTATS",
                   help="profile the command with cProfile and dump "
                        "stats to this file")
    return parent


def build_parser():
    """Construct the argparse CLI (one sub-parser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="EVAX reproduction command line")
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run one attack", parents=[obs])
    p.add_argument("name")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--defense", default="none",
                   choices=[m.value for m in __import__(
                       "repro.sim.config", fromlist=["DefenseMode"]
                   ).DefenseMode])
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("attacks", help="run the whole corpus",
                       parents=[obs])
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_attacks)

    p = sub.add_parser("workloads", help="run the benign suite",
                       parents=[obs])
    p.add_argument("--scale", type=int, default=3)
    p.set_defaults(func=_cmd_workloads)

    p = sub.add_parser("collect", help="build + save a trace corpus",
                       parents=[obs])
    p.add_argument("out")
    p.add_argument("--seeds", type=int, default=2)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--period", type=int, default=100)
    p.add_argument("--tenancy", default="single",
                   choices=["single", "smt"],
                   help="run each source alone or under SMT co-tenant "
                        "interference noise")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel collection processes (1 = sequential)")
    p.add_argument("--resume", action="store_true",
                   help="skip sources already completed in the "
                        "checkpoint shards and re-simulate only the rest")
    p.add_argument("--retries", type=int, default=2,
                   help="re-attempts per failed source (default 2)")
    p.add_argument("--task-timeout", type=float, default=300.0,
                   help="per-source wall-clock limit in seconds "
                        "(0 = unlimited)")
    p.add_argument("--min-coverage", type=float, default=0.9,
                   help="fail the build when fewer than this fraction "
                        "of sources survive (default 0.9)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="shard/manifest directory "
                        "(default: <out>.shards)")
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("report", help="markdown report for corpus+detector",
                       parents=[obs])
    p.add_argument("corpus")
    p.add_argument("detector")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("train", help="vaccinate on a saved corpus",
                       parents=[obs])
    p.add_argument("corpus")
    p.add_argument("--out", default=None)
    p.add_argument("--iterations", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--resume", action="store_true",
                   help="resume GAN training from the latest checkpoint "
                        "(bit-exact vs an uninterrupted run)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="training checkpoint directory "
                        "(default: <out|corpus>.train-ckpt)")
    p.add_argument("--checkpoint-every", type=int, default=200,
                   help="GAN iterations between checkpoints "
                        "(0 disables checkpointing; default 200)")
    p.add_argument("--guard-policy", default="rollback",
                   choices=["rollback", "clip", "raise"],
                   help="TrainingGuard reaction to NaN/spike/divergence "
                        "(default rollback)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("adaptive", help="adaptive architecture demo",
                       parents=[obs])
    p.add_argument("--attacks", nargs="*", default=None)
    p.add_argument("--defense", default="fence-futuristic")
    p.add_argument("--window", type=int, default=10_000)
    p.add_argument("--iterations", type=int, default=1200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detector", default=None, metavar="JSON",
                   help="use a saved detector artifact instead of "
                        "training one in-process")
    p.add_argument("--no-fail-secure", action="store_true",
                   help="propagate detector faults instead of latching "
                        "always-secure mode (debugging only)")
    p.set_defaults(func=_cmd_adaptive)

    p = sub.add_parser(
        "campaign", parents=[obs],
        help="fault-isolated parallel evaluation-matrix run",
        description="Expand a {workload x attack x defense x "
                    "sampling-period} matrix, fan it out over isolated "
                    "workers with a content-addressed result cache that "
                    "records each cell as it resolves, and write the "
                    "aggregate when the run starts and when it ends.  "
                    "Exit 0 = clean, 1 = "
                    "completed with holes, 2 = fatal.  See "
                    "docs/campaigns.md.")
    p.add_argument("dir", nargs="?", default=None,
                   help="campaign directory (cache + aggregate.md + "
                        "campaign.json)")
    p.add_argument("--spec", default=None, metavar="JSON",
                   help="matrix spec file (overrides the axis flags)")
    p.add_argument("--workloads", nargs="*", default=None,
                   help="workload names (default: all)")
    p.add_argument("--attacks", nargs="*", default=None,
                   help="attack names (default: all)")
    p.add_argument("--defenses", nargs="*", default=None,
                   help="defense modes (default: none)")
    p.add_argument("--periods", nargs="*", type=int, default=None,
                   help="sampling periods (default: 100)")
    p.add_argument("--cell-seeds", nargs="*", type=int, default=None,
                   help="per-source seeds (default: 0)")
    p.add_argument("--tenancies", nargs="*", default=None,
                   choices=["single", "smt"],
                   help="tenancy axis: single and/or smt co-tenant "
                        "noise (default: single)")
    p.add_argument("--scale", type=int, default=None,
                   help="workload scale factor (default 2)")
    p.add_argument("--max-cycles", type=int, default=None,
                   help="cap each cell's simulated cycles")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel cell workers (default: CPU count)")
    p.add_argument("--retries", type=int, default=1,
                   help="re-attempts per failed cell (default 1)")
    p.add_argument("--task-timeout", type=float, default=600.0,
                   help="per-cell wall-clock limit in seconds "
                        "(0 = unlimited)")
    p.add_argument("--resume", action="store_true",
                   help="replay verified cache entries and re-run only "
                        "incomplete/corrupt cells (bit-identical "
                        "aggregate)")
    p.add_argument("--smoke", action="store_true",
                   help="run the CI resumability check (chaos kill + "
                        "corruption, resume, bit-identity) and exit")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "arena", parents=[obs],
        help="closed-loop adversarial arms race",
        description="Evolve a fuzzed attack population against the "
                    "current detector, re-vaccinate on the survivors, "
                    "and promote candidates only past a held-out "
                    "regression gate; every generation checkpoints for "
                    "bit-exact --resume.  Exit 0 = clean, 1 = completed "
                    "with holes, 2 = fatal.  See docs/arena.md.")
    p.add_argument("dir", nargs="?", default=None,
                   help="arena directory (checkpoints + arena.md + "
                        "arena.json + detector.json)")
    p.add_argument("--generations", type=int, default=3,
                   help="arms-race rounds after generation 0 "
                        "(default 3)")
    p.add_argument("--population", type=int, default=9,
                   help="genomes per generation (default 9)")
    p.add_argument("--survivors", type=int, default=3,
                   help="breeding-pool size (default 3)")
    p.add_argument("--attacks", nargs="*", default=None,
                   help="canonical-attack fold names (default: "
                        "meltdown flush-reload)")
    p.add_argument("--workloads", nargs="*", default=None,
                   help="benign fold names (default: stream sort)")
    p.add_argument("--period", type=int, default=150,
                   help="sampling period (default 150)")
    p.add_argument("--iterations", type=int, default=40,
                   help="GAN iterations per re-vaccination (default 40)")
    p.add_argument("--fp-budget", type=float, default=0.02,
                   help="held-out false-positive-rate regression "
                        "budget (default 0.02)")
    p.add_argument("--fn-budget", type=float, default=0.05,
                   help="held-out false-negative-rate regression "
                        "budget (default 0.05)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--detector", default=None, metavar="JSON",
                   help="seed the race from a saved detector artifact "
                        "instead of vaccinating generation 0 in-process")
    p.add_argument("--eval-corpus", default=None, metavar="NPZ",
                   help="held-out gate corpus from disk (its counter-"
                        "layout fingerprint must match the detector's; "
                        "default: rebuilt from the spec's eval seeds)")
    p.add_argument("--guard-policy", default="rollback",
                   choices=["rollback", "clip", "raise"],
                   help="TrainingGuard reaction during re-vaccination "
                        "(default rollback)")
    p.add_argument("--jobs", type=int, default=None,
                   help="parallel evaluation workers (default: CPU "
                        "count)")
    p.add_argument("--retries", type=int, default=1,
                   help="re-attempts per crashed genome evaluation "
                        "(default 1)")
    p.add_argument("--task-timeout", type=float, default=600.0,
                   help="per-genome wall-clock limit in seconds "
                        "(0 = unlimited)")
    p.add_argument("--resume", action="store_true",
                   help="restore the latest valid generation checkpoint "
                        "and replay the rest (bit-identical report)")
    p.add_argument("--smoke", action="store_true",
                   help="run the CI arms-race drill (kill + resume "
                        "bit-identity, gate rollback) and exit")
    p.set_defaults(func=_cmd_arena)

    p = sub.add_parser(
        "serve", parents=[obs],
        help="multi-tenant batched streaming inference",
        description="Stream HPC windows from many simulated tenants "
                    "through the batched detector (thousands of windows "
                    "per matrix-matrix pass) with one fail-secure "
                    "secure-mode controller per tenant and a bounded, "
                    "shed-to-secure ingest queue.  See docs/serving.md.")
    p.add_argument("--tenants", type=int, default=8,
                   help="simulated tenant streams (default 8)")
    p.add_argument("--duration", type=int, default=200,
                   help="ticks to drive; each tenant emits one window "
                        "per tick unless chaos says otherwise "
                        "(default 200)")
    p.add_argument("--batch-window", type=int, default=1024,
                   help="max windows coalesced per score_batch call "
                        "(default 1024)")
    p.add_argument("--queue-limit", type=int, default=8192,
                   help="bounded ingest queue; overflow sheds windows "
                        "into secure mode (default 8192)")
    p.add_argument("--period", type=int, default=100,
                   help="sampling period the streams emulate "
                        "(default 100)")
    p.add_argument("--defense", default="fence-futuristic",
                   help="secure mode entered on a flag "
                        "(default fence-futuristic)")
    p.add_argument("--secure-window", type=int, default=10_000,
                   help="committed instructions per secure-mode re-arm "
                        "(default 10000)")
    p.add_argument("--detector", default=None, metavar="JSON",
                   help="saved detector artifact (default: a quick-fit "
                        "demo detector)")
    p.add_argument("--corpus", default=None, metavar="JSON",
                   help="replay windows from this saved corpus instead "
                        "of synthetic streams")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, metavar="JSON",
                   help="write the run report (and the run manifest "
                        "next to it)")
    p.add_argument("--bench", action="store_true",
                   help="measure batched vs per-window scoring "
                        "throughput and exit")
    p.add_argument("--smoke", action="store_true",
                   help="run the CI serving check (equivalence, kernel "
                        "floors, end-to-end CLI run) and exit")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("explain", help="interpret a trained detector",
                       parents=[obs])
    p.add_argument("detector")
    p.add_argument("--corpus", default=None)
    p.add_argument("--top", type=int, default=8)
    p.set_defaults(func=_cmd_explain)
    return parser


def main(argv=None):
    """CLI entry point; returns the command's exit status.

    Every command runs inside a :class:`repro.obs.context.RunContext`,
    which configures logging/profiling on entry and — on success *and*
    failure — snapshots metrics and writes the run manifest on exit.
    """
    from repro.obs.context import RunContext

    args = build_parser().parse_args(argv)
    ctx = RunContext(args, argv=argv if argv is not None else sys.argv[1:])
    with ctx:
        code = args.func(args)
        ctx.exit_code = code if isinstance(code, int) else 0
    return code


if __name__ == "__main__":
    sys.exit(main())
