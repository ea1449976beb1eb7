"""Command-line interface: ``python -m repro <command>``.

Every command is a thin constructor over the experiment orchestration
layer (:mod:`repro.exp`): it builds a seed-pinned
:class:`~repro.exp.ExperimentSpec`, runs it through the stage DAG
``substrate → design → {netsim, weather, apps, econ}``, and prints the
resulting records.  Expensive stages (substrate build, topology solve)
are memoized in a content-addressed artifact store shared across
processes and sessions — rerunning a command, or sweeping around it,
reuses everything whose spec slice did not change.

Commands:

* ``design``  — design a cISP for a scenario and print the summary
  (optionally the ASCII map).  ``--solver`` picks any registered
  topology backend (heuristic, ilp, lp_rounding, exhaustive,
  evolution).
* ``solvers`` — list the registered topology-solver backends.
* ``sweep``   — budget sweep (the Fig 4a curve); ``--jobs N`` fans the
  points out over worker processes.
* ``netsim``  — simulate offered load on a designed network with the
  packet engine or the fluid fast path (the Fig 5 methodology).
* ``weather`` — yearly weather analysis for a designed network.
* ``econ``    — the §8 value-per-GB table.
* ``run``     — execute a spec file (single experiment or multi-axis
  sweep) and print/emit the tidy records table.

Examples::

    python -m repro design --scenario us --sites 30 --budget 1000 --map
    python -m repro design --scenario us --sites 12 --solver ilp
    python -m repro sweep --scenario us --sites 40 --max-budget 3000 --jobs 4
    python -m repro netsim --scenario us --sites 20 --engine fluid \\
        --loads 0.3,0.6,0.9
    python -m repro weather --sites 30 --budget 1000 --intervals 120
    python -m repro econ --cost-per-gb 0.81
    python -m repro run examples/specs/us_budget_load_sweep.json --jobs 4

Caching flags (on every experiment command): ``--cache-dir PATH``
points the artifact store somewhere explicit, ``--no-cache`` disables
it; the default location is ``$REPRO_ARTIFACT_DIR`` or
``~/.cache/repro/artifacts``.

Sweeps (``sweep`` and multi-axis ``run``) execute through the
fault-tolerant :class:`~repro.exp.SweepService`: failing points retry
up to ``--retries`` then quarantine (exit 1).  When a journal location
exists (an on-disk store or ``--journal-dir``) every point is
checkpointed, the quarantine report lands in ``failures.json``, and
Ctrl-C checkpoints the journal and prints the exact ``--resume``
command (exit 130) instead of discarding completed work.
``--fault-plan plan.json`` injects deterministic worker kills /
failures / delays / artifact corruption for chaos testing.
"""

from __future__ import annotations

import argparse
import json
import sys

#: Per-command default site counts for the sized scenarios (us/city_dc),
#: preserving the pre-orchestration CLI defaults.
_DEFAULT_SITES = {"design": 30, "sweep": 30, "netsim": 20, "weather": 30}


def _resolve_sites(args: argparse.Namespace, command: str) -> int | None:
    """CLI default sites for sized scenarios; None for fixed-site ones.

    An explicit ``--sites`` for a fixed-site scenario is passed through
    so the spec layer rejects it loudly (never silently ignored).
    """
    if args.sites is not None:
        return args.sites
    if args.scenario in ("us", "city_dc"):
        return _DEFAULT_SITES[command]
    return None


def _store_from_args(args: argparse.Namespace):
    from .exp import ArtifactStore, NullStore

    if getattr(args, "no_cache", False):
        return NullStore()
    if getattr(args, "cache_dir", None):
        return ArtifactStore(args.cache_dir)
    return ArtifactStore()


def _add_service_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume the sweep from its journal: execute only points "
        "without a recorded result (safe to pass on a fresh sweep)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=3,
        help="attempts per sweep point before it is quarantined "
        "(default: 3)",
    )
    p.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        help="wall-clock seconds per point attempt; the watchdog kills "
        "workers past it (pool mode only)",
    )
    p.add_argument(
        "--journal-dir",
        default=None,
        help="sweep journal directory (default: <store>/sweeps/<fingerprint>)",
    )
    p.add_argument(
        "--fault-plan",
        default=None,
        help="JSON fault-injection plan for chaos testing (see "
        "repro.exp.faults)",
    )


def _build_service(args: argparse.Namespace, spec, axes, store):
    """The SweepService for the CLI flags.

    A ``--no-cache`` sweep without ``--journal-dir`` journals privately
    (nothing durable to checkpoint), so it cannot resume or take a
    fault plan.
    """
    from .exp import FaultPlan, NullStore, RetryPolicy, SweepService

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.from_json_file(args.fault_plan)
        except OSError as exc:
            raise SystemExit(f"cannot read fault plan: {exc}")
    if isinstance(store, NullStore) and args.journal_dir is None:
        if args.resume:
            raise SystemExit(
                "--resume needs a journal: drop --no-cache or pass "
                "--journal-dir"
            )
        if fault_plan is not None:
            raise SystemExit(
                "--fault-plan needs a journaled sweep: drop --no-cache or "
                "pass --journal-dir"
            )
    if args.retries < 1:
        raise SystemExit("--retries must be >= 1")
    return SweepService(
        spec,
        axes=axes,
        store=store,
        jobs=args.jobs,
        journal_dir=args.journal_dir,
        resume=args.resume,
        retry=RetryPolicy(max_attempts=args.retries),
        point_timeout_s=args.point_timeout,
        fault_plan=fault_plan,
    )


def _run_service(args: argparse.Namespace, service):
    """Run the sweep; returns ``(result, exit status)``.

    With a durable journal, SIGINT checkpoints it instead of killing
    the sweep; a privately journaled sweep has nothing to resume from,
    so SIGINT interrupts it as usual.
    """
    if service.journal_dir is None:
        result = service.run()
    else:
        restore_sigint = _checkpoint_on_sigint(service)
        try:
            result = service.run()
        finally:
            restore_sigint()
    return result, _service_exit_status(args, service, result)


def _checkpoint_on_sigint(service):
    """SIGINT checkpoints the journal instead of killing the sweep.

    Returns a zero-argument restore function for a ``finally`` block.
    """
    import signal

    def handler(signum, frame):
        print(
            "\ninterrupt: checkpointing sweep journal; in-flight points "
            "will be requeued for --resume",
            file=sys.stderr,
        )
        service.request_stop()

    previous = signal.signal(signal.SIGINT, handler)
    return lambda: signal.signal(signal.SIGINT, previous)


def _resume_command(args: argparse.Namespace) -> str:
    """The exact CLI invocation that resumes this sweep."""
    import shlex

    argv = list(getattr(args, "_argv", None) or [])
    if "--resume" not in argv:
        argv.append("--resume")
    return "python -m repro " + shlex.join(argv)


def _service_exit_status(args: argparse.Namespace, service, result) -> int:
    """Report interruption/quarantine to stderr; pick the exit code.

    0 = clean sweep, 1 = quarantined failures, 130 = interrupted (the
    conventional SIGINT code) with a copy-pasteable resume command.
    """
    counts = service.queue.counts()
    if result.interrupted:
        remaining = service.queue.n_tasks - counts["done"] - counts["failed"]
        print(
            f"\ninterrupted: {counts['done']}/{service.queue.n_tasks} "
            f"point(s) done, {remaining} remaining "
            f"(journal: {service.queue.journal_dir})",
            file=sys.stderr,
        )
        print(f"resume with: {_resume_command(args)}", file=sys.stderr)
        return 130
    if result.failures:
        report = (
            f" (report: {service.queue.failure_report_path})"
            if result.journal_dir is not None
            else ""
        )
        print(
            f"\n{len(result.failures)} point(s) quarantined after "
            f"retries{report}:",
            file=sys.stderr,
        )
        for failure in result.failures:
            assignment = json.dumps(
                failure.to_dict()["assignment"], sort_keys=True
            )
            print(
                f"  point {failure.index} {assignment}: {failure.error} "
                f"[{failure.attempts} attempt(s)]",
                file=sys.stderr,
            )
        return 1
    return 0


def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cache-dir",
        default=None,
        help="artifact-store directory (default: $REPRO_ARTIFACT_DIR or "
        "~/.cache/repro/artifacts)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="compute every stage fresh; cache nothing",
    )


def _scenario_spec(args: argparse.Namespace, command: str):
    from .exp import ScenarioSpec

    return ScenarioSpec(
        name=args.scenario,
        sites=_resolve_sites(args, command),
        max_range_km=getattr(args, "max_range_km", 100.0),
        usable_height_fraction=getattr(args, "usable_height", 1.0),
        seed=args.seed,
    )


def _cmd_design(args: argparse.Namespace) -> int:
    from .exp import DesignSpec, ExperimentSpec, run_experiment
    from .viz import render_topology

    solver_opts = {}
    if args.solver == "heuristic":
        # The CLI favors speed; pass --refine to run the restricted ILP.
        solver_opts["ilp_refinement"] = args.refine
    spec = ExperimentSpec(
        scenario=_scenario_spec(args, "design"),
        design=DesignSpec(
            budget_towers=args.budget,
            solver=args.solver,
            aggregate_gbps=args.gbps,
            solver_opts=solver_opts,
        ),
    )
    run = run_experiment(spec, store=_store_from_args(args))
    scenario = run.artifacts["substrate"]
    result = run.artifacts["design"]
    print(f"scenario:        {scenario.name} ({scenario.n_sites} sites)")
    print(f"solver:          {result.backend} "
          f"({result.solve_outcome.runtime_s:.2f}s"
          f"{', cached' if run.stage_status['design'] == 'cached' else ''})")
    print(f"budget:          {args.budget:.0f} towers "
          f"({result.towers_used:.0f} used)")
    print(f"MW links:        {result.mw_link_count}")
    print(f"mean stretch:    {result.mean_stretch:.4f} "
          f"(fiber: {result.fiber_mean_stretch:.3f})")
    if result.cost_per_gb_usd is not None:
        print(f"cost per GB:     ${result.cost_per_gb_usd:.2f} "
              f"at {args.gbps:.0f} Gbps")
    if args.map:
        print()
        print(render_topology(result.topology, result.augmentation))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import numpy as np

    from .exp import DesignSpec, ExperimentSpec

    n_points = max(args.points, 2)
    budgets = [float(b) for b in np.linspace(0.0, args.max_budget, n_points)]
    spec = ExperimentSpec(
        scenario=_scenario_spec(args, "sweep"),
        design=DesignSpec(budget_towers=budgets[0], solver=args.solver),
    )
    axes = {"design.budget_towers": budgets}
    store = _store_from_args(args)
    service = _build_service(args, spec, axes, store)
    result, status = _run_service(args, service)
    print("budget_towers  mean_stretch  links")
    for row in result.records:
        if row["stage"] != "design":
            continue
        print(f"{row['budget_towers']:13.0f}  {row['mean_stretch']:12.4f}  "
              f"{row['mw_links']:5d}")
    return status


def _cmd_netsim(args: argparse.Namespace) -> int:
    from .exp import DesignSpec, ExperimentSpec, NetsimSpec, run_experiment

    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x)
    except ValueError:
        raise SystemExit(f"bad --loads value {args.loads!r}")
    # Range/emptiness rules live in NetsimSpec; its ValueError surfaces
    # as a clean exit via main().
    spec = ExperimentSpec(
        scenario=_scenario_spec(args, "netsim"),
        design=DesignSpec(
            budget_towers=args.budget,
            solver="heuristic",
            aggregate_gbps=args.gbps,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(
            loads=loads,
            engine=args.engine,
            duration_s=args.duration,
            seed=args.flow_seed,
            demand_model=args.demand,
            demand_hour_utc=args.hour_utc,
            demand_seed=args.demand_seed,
            users_millions=args.users_millions,
            transport=args.transport,
            profile=args.profile,
        ),
    )
    run = run_experiment(spec, store=_store_from_args(args))
    scenario = run.artifacts["substrate"]
    print(f"scenario:  {scenario.name} ({scenario.n_sites} sites, "
          f"budget {args.budget:.0f} towers)")
    print(f"engine:    {args.engine} ({args.transport}, "
          f"{args.demand} demand)")
    header = "load  mean_delay_ms  loss_rate  max_link_util"
    if args.profile:
        header += "  setup_ms  fill_ms  freeze_ms"
    print(header)
    for row in run.records:
        if row["stage"] != "netsim":
            continue
        line = (f"{row['load']:4.2f}  {row['mean_delay_ms']:13.3f}  "
                f"{row['loss_rate']:9.4f}  {row['max_link_utilization']:13.3f}")
        if args.profile and "setup_s" in row:
            line += (f"  {row['setup_s'] * 1e3:8.2f}  "
                     f"{row['fill_s'] * 1e3:7.2f}  "
                     f"{row['freeze_s'] * 1e3:9.2f}")
        print(line)
    return 0


def _cmd_weather(args: argparse.Namespace) -> int:
    from .exp import DesignSpec, ExperimentSpec, WeatherSpec, run_experiment

    spec = ExperimentSpec(
        scenario=_scenario_spec(args, "weather"),
        design=DesignSpec(
            budget_towers=args.budget,
            solver="heuristic",
            solver_opts={"ilp_refinement": False},
        ),
        weather=WeatherSpec(
            n_intervals=args.intervals,
            graded=args.graded,
            frequency_ghz=args.frequency_ghz,
            sample_interval_days=args.interval_days,
            delta_k=args.delta_k,
            cache_mb=args.cache_mb,
        ),
    )
    run = run_experiment(spec, store=_store_from_args(args))
    solver_row = None
    print("series  median  p95")
    for row in run.records:
        if row["stage"] != "weather":
            continue
        if row["series"] == "solver":
            solver_row = row
            continue
        print(f"{row['series']:6s}  {row['median']:.3f}  {row['p95']:.3f}")
    if solver_row is not None:
        print(
            f"solver: {solver_row['intervals']} intervals -> "
            f"{solver_row['full_solves']} full / "
            f"{solver_row['delta_solves']} delta / "
            f"{solver_row['memo_hits']} memo; "
            f"{solver_row['cached_sets']} sets cached "
            f"({solver_row['cache_bytes'] / 2**20:.1f} MiB, "
            f"{solver_row['evictions']} evictions)"
        )
    return 0


def _cmd_econ(args: argparse.Namespace) -> int:
    from .exp import EconSpec, ExperimentSpec, run_experiment

    # An explicit cost makes the econ stage self-contained: no design
    # solve happens (and none is cached) just to print the table.
    spec = ExperimentSpec(econ=EconSpec(cost_per_gb=args.cost_per_gb))
    run = run_experiment(spec, store=_store_from_args(args), stages=("econ",))
    print(f"network cost: ${args.cost_per_gb:.2f}/GB")
    print("scenario      low_$per_GB  high_$per_GB  justifies")
    for row in run.records:
        if row["stage"] != "econ":
            continue
        print(f"{row['scenario']:12s}  {row['low_usd_per_gb']:11.2f}  "
              f"{row['high_usd_per_gb']:12.2f}  {row['justifies']}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .exp import ExperimentSpec, run_experiment
    from .viz import render_records_table

    try:
        with open(args.spec) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read spec file: {exc}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"spec file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise SystemExit("spec file must hold a JSON object")
    axes = doc.pop("axes", None)
    spec_doc = doc.pop("spec", None)
    if spec_doc is None:
        spec_doc = doc  # bare ExperimentSpec document
    elif doc:
        raise SystemExit(
            f"unknown top-level key(s) next to 'spec': {', '.join(sorted(doc))}"
        )
    spec = ExperimentSpec.from_dict(spec_doc)
    store = _store_from_args(args)

    if axes:
        if not isinstance(axes, dict):
            raise SystemExit("'axes' must map spec paths to value lists")
        for path, values in axes.items():
            if not isinstance(values, list) or not values:
                raise SystemExit(
                    f"axis {path!r} must be a non-empty JSON list of values "
                    f"(got {values!r})"
                )
        axes = {
            path: [tuple(v) if isinstance(v, list) else v for v in values]
            for path, values in axes.items()
        }
        service = _build_service(args, spec, axes, store)
        result, status = _run_service(args, service)
        records = result.records
        counts = result.stage_counts
    else:
        run = run_experiment(spec, store=store)
        records = run.records
        counts = {
            name: {outcome: 1} for name, outcome in run.stage_status.items()
        }
        status = 0
    if args.json:
        json.dump(records, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        print(render_records_table(records))
        executed = sum(c.get("computed", 0) for c in counts.values())
        cached = sum(c.get("cached", 0) for c in counts.values())
        print(f"\nstages: {executed} computed, {cached} cached "
              f"({len(records)} record rows)")
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import (
        LintConfig,
        all_rules,
        default_lock_path,
        render_json,
        render_text,
        rule_names,
        run_lint,
        update_lock,
    )

    if args.list_rules:
        print("rule                          description")
        for rule in all_rules():
            print(f"{rule.name:28s}  {rule.description}")
        return 0
    lock_path = args.lock or None
    if args.update_lock:
        path, entries = update_lock(lock_path)
        print(f"wrote {path} ({len(entries)} entries)")
        return 0
    rules = None
    if args.rules:
        rules = [name.strip() for name in args.rules.split(",") if name.strip()]
        unknown = sorted(set(rules) - set(rule_names()))
        if unknown:
            raise SystemExit(
                f"unknown rule(s): {', '.join(unknown)}; "
                f"registered: {', '.join(rule_names())}"
            )
    paths = [str(p) for p in args.paths]
    if not paths:
        # Default to the committed layout around the lockfile: the
        # package sources plus the tests and benchmarks that ride on
        # its contracts (whichever of them exist here).
        root = default_lock_path().parent
        paths = [
            str(root / name)
            for name in ("src", "tests", "benchmarks")
            if (root / name).is_dir()
        ] or [str(root)]
    result = run_lint(
        paths, rules=rules, config=LintConfig(lock_path=lock_path)
    )
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    return 0 if result.ok else 1


def _cmd_solvers(args: argparse.Namespace) -> int:
    from .core import get_solver, solver_names

    print("backend      description")
    for name in solver_names():
        solver = get_solver(name)
        doc_lines = (type(solver).__doc__ or "").strip().splitlines()
        print(f"{name:12s} {doc_lines[0] if doc_lines else '(no description)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .core import solver_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="cISP (NSDI 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    from .exp.spec import SCENARIO_NAMES

    def add_scenario_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--scenario", default="us", choices=SCENARIO_NAMES)
        p.add_argument(
            "--sites",
            type=int,
            default=None,
            help="site count (us/city_dc only; errors loudly for the "
            "fixed-site europe/interdc scenarios)",
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="tower-synthesis seed (default: the scenario's pinned seed)",
        )

    p = sub.add_parser("design", help="design a cISP network")
    add_scenario_args(p)
    p.add_argument("--budget", type=float, default=1000.0)
    p.add_argument("--gbps", type=float, default=100.0)
    p.add_argument(
        "--solver",
        default="heuristic",
        choices=solver_names(),
        help="topology-solver backend (see the 'solvers' command)",
    )
    p.add_argument(
        "--refine",
        action="store_true",
        help="heuristic only: run the restricted final ILP (slower)",
    )
    p.add_argument("--map", action="store_true", help="print the ASCII map")
    _add_cache_args(p)
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("solvers", help="list topology-solver backends")
    p.set_defaults(func=_cmd_solvers)

    p = sub.add_parser("sweep", help="budget sweep (Fig 4a)")
    add_scenario_args(p)
    p.add_argument("--max-budget", type=float, default=3000.0)
    p.add_argument("--points", type=int, default=10)
    p.add_argument(
        "--solver",
        default="evolution",
        choices=solver_names(),
        help="backend per budget point (evolution reproduces the "
        "incremental build-out of Fig 4a)",
    )
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for the sweep points")
    _add_service_args(p)
    _add_cache_args(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "netsim", help="simulate load on a designed network (Fig 5)"
    )
    add_scenario_args(p)
    p.add_argument("--budget", type=float, default=800.0)
    p.add_argument("--gbps", type=float, default=100.0,
                   help="design aggregate the network is provisioned for")
    from .exp.spec import DEMAND_MODELS, ENGINES, TRANSPORTS

    p.add_argument(
        "--engine",
        default="packet",
        choices=ENGINES,
        help="packet: per-packet simulation; fluid: max-min fast path",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="add fluid setup/fill/freeze wall-clock timings to each "
             "record row (timings are nondeterministic; default records "
             "stay byte-identical)",
    )
    p.add_argument("--loads", default="0.3,0.6,0.9",
                   help="comma-separated offered-load fractions")
    p.add_argument("--duration", type=float, default=0.5,
                   help="simulated seconds per load point (packet engine)")
    p.add_argument("--flow-seed", type=int, default=0,
                   help="Poisson-arrival seed (packet engine)")
    p.add_argument(
        "--transport",
        default="udp",
        choices=TRANSPORTS,
        help="udp: open-loop offers; tcp: Mathis macro-model "
             "(fluid engine only)",
    )
    p.add_argument(
        "--demand",
        default="design",
        choices=DEMAND_MODELS,
        help="design: scale the design matrix; users: bottom-up "
             "diurnal + heavy-tail per-city demand",
    )
    p.add_argument("--hour-utc", type=float, default=20.0,
                   help="UTC hour for the diurnal profile (users demand)")
    p.add_argument("--demand-seed", type=int, default=0,
                   help="heavy-tail multiplier seed (users demand)")
    p.add_argument("--users-millions", type=float, default=None,
                   help="rescale to this many million active users "
                        "(users demand)")
    _add_cache_args(p)
    p.set_defaults(func=_cmd_netsim)

    p = sub.add_parser("weather", help="yearly weather analysis (Fig 7)")
    add_scenario_args(p)
    p.add_argument("--budget", type=float, default=1000.0)
    p.add_argument("--intervals", type=int, default=120)
    p.add_argument("--graded", action="store_true",
                   help="also run the graded (modulation-downshift) model")
    p.add_argument("--frequency-ghz", type=float, default=11.0,
                   help="MW carrier frequency for the rain-fade physics "
                        "(shared by the binary and graded models)")
    p.add_argument("--interval-days", type=int, default=None,
                   help="evaluate every Nth day of the year "
                        "deterministically (1 = daily resolution) "
                        "instead of sampling --intervals random days")
    p.add_argument("--delta-k", type=int, default=2,
                   help="failure-set solver neighbor radius (0 = "
                        "memo-only, no delta reuse)")
    p.add_argument("--cache-mb", type=float, default=256.0,
                   help="LRU byte budget (MiB) for cached distance "
                        "matrices and stretch rows")
    _add_cache_args(p)
    p.set_defaults(func=_cmd_weather)

    p = sub.add_parser(
        "lint",
        help="static contract checks (determinism, cache versions, "
        "kernel bans)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repo's src, "
        "tests, and benchmarks trees)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format (default: text)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule subset (default: every registered "
        "rule; see --list-rules)",
    )
    p.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    p.add_argument(
        "--update-lock", action="store_true",
        help="recompute every code fingerprint and rewrite "
        "stage_versions.lock (run after bumping a version tag)",
    )
    p.add_argument(
        "--lock",
        default=None,
        help="stage_versions.lock location (default: the repo root)",
    )
    p.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings waived by inline "
        "'# repro: allow[rule] -- reason' comments",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("econ", help="cost-benefit table (§8)")
    p.add_argument("--cost-per-gb", type=float, default=0.81)
    _add_cache_args(p)
    p.set_defaults(func=_cmd_econ)

    p = sub.add_parser(
        "run",
        help="run an experiment spec file (optionally a multi-axis sweep)",
    )
    p.add_argument("spec", help="path to the spec JSON (an ExperimentSpec "
                   "document, or {'spec': ..., 'axes': {path: [values]}})")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for sweep points")
    p.add_argument("--json", action="store_true",
                   help="emit the records as JSON instead of a table")
    _add_service_args(p)
    _add_cache_args(p)
    p.set_defaults(func=_cmd_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Kept for reconstructing the exact --resume command after a SIGINT.
    args._argv = list(argv) if argv is not None else list(sys.argv[1:])
    try:
        return args.func(args)
    except ValueError as exc:
        # Spec/scenario validation errors surface as clean CLI failures.
        raise SystemExit(str(exc))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
