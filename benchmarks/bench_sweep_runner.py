"""Sweep-runner gate: warm-cache sweeps >= 3x over the pre-PR sequential path.

Before the orchestration layer, composed sweeps were wired by hand:
every (budget, load) point re-solved the topology design from scratch
and re-ran the evaluation, the way ``repro netsim`` did per invocation
(the substrate was rebuilt per *process*, too — this baseline is
generous and hands it the in-process scenario cache for free).

The :class:`repro.exp.SweepService` path memoizes each stage in the
content-addressed artifact store, so a warm rerun of the whole two-axis
(budget x load) sweep reduces to store reads.  Gates:

1. the warm sweep must be >= 3x faster than the sequential baseline;
2. cold and warm sweep records must be byte-identical, and the warm run
   must execute zero substrate/design stages (all cache hits);
3. a ``jobs=4`` warm run must produce byte-identical records to
   ``jobs=1`` (parallelism never changes results);
4. the sweep's netsim metrics must equal the baseline's — the
   orchestration layer composes the same experiment, it does not
   remodel it.

Each run appends to the ``BENCH_sweep_runner.json`` perf trajectory.
"""

import os
import tempfile
import time

from repro.core import solve_heuristic
from repro.exp import (
    ArtifactStore,
    DesignSpec,
    ExperimentSpec,
    NetsimSpec,
    ScenarioSpec,
    SweepService,
)
from repro.netsim import run_udp_experiment
from repro.scenarios import us_scenario

from _support import report, write_bench_json

#: Acceptance threshold (see module docstring).
MIN_WARM_SPEEDUP = 3.0

#: The two-axis workload: a Fig 4a-style budget sweep crossed with a
#: Fig 5-style load sweep, on the 20-city US scenario.
N_SITES = 20
AGGREGATE_GBPS = 100.0
BUDGETS = (400.0, 800.0, 1200.0)
LOADS = (0.3, 0.6, 0.9)
ENGINE = "fluid"
SEED = 0

AXES = {
    "design.budget_towers": list(BUDGETS),
    "netsim.loads": [(load,) for load in LOADS],
}


def base_spec() -> ExperimentSpec:
    return ExperimentSpec(
        scenario=ScenarioSpec(name="us", sites=N_SITES, seed=42),
        design=DesignSpec(
            budget_towers=BUDGETS[0],
            solver="heuristic",
            aggregate_gbps=AGGREGATE_GBPS,
            solver_opts={"ilp_refinement": False},
        ),
        netsim=NetsimSpec(loads=(LOADS[0],), engine=ENGINE, seed=SEED),
    )


def run_sequential_baseline(scenario) -> list[dict]:
    """The pre-PR composition: re-solve the design at every budget."""
    rows = []
    for budget in BUDGETS:
        topology = solve_heuristic(
            scenario.design_input(), budget, ilp_refinement=False
        ).topology
        for load in LOADS:
            res = run_udp_experiment(
                topology,
                AGGREGATE_GBPS,
                load,
                seed=SEED,
                engine=ENGINE,
            )
            rows.append(
                {
                    "budget_towers": budget,
                    "load": load,
                    "mean_delay_ms": float(res.mean_delay_ms),
                    "loss_rate": float(res.loss_rate),
                    "max_link_utilization": float(res.max_link_utilization),
                }
            )
    return rows


def netsim_rows(records: list[dict]) -> list[dict]:
    return [
        {
            "budget_towers": row["design.budget_towers"],
            "load": row["load"],
            "mean_delay_ms": row["mean_delay_ms"],
            "loss_rate": row["loss_rate"],
            "max_link_utilization": row["max_link_utilization"],
        }
        for row in records
        if row["stage"] == "netsim"
    ]


def bench_sweep_runner(benchmark=None):
    # Build the substrate up front so the sequential baseline gets it
    # for free (pre-PR CLI runs actually rebuilt it per process).
    scenario = us_scenario(n_sites=N_SITES, seed=42)

    t0 = time.perf_counter()
    baseline_rows = run_sequential_baseline(scenario)
    t_seq = time.perf_counter() - t0

    store_root = os.environ.get("REPRO_ARTIFACT_DIR")
    tmp = None
    if store_root is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-bench-store-")
        store_root = tmp.name
    store = ArtifactStore(store_root)

    spec = base_spec()
    t0 = time.perf_counter()
    cold = SweepService(spec, AXES, store=store, jobs=1).run()
    t_cold = time.perf_counter() - t0

    # A *fresh* store instance models a new session over the same cache
    # directory: every artifact comes off disk (once — the per-process
    # memory layer dedups the nine points' shared substrate/designs).
    t0 = time.perf_counter()
    warm = SweepService(spec, AXES, store=ArtifactStore(store_root), jobs=1).run()
    t_warm = time.perf_counter() - t0

    warm_parallel = SweepService(
        spec, AXES, store=ArtifactStore(store_root), jobs=4
    ).run()

    speedup = t_seq / t_warm if t_warm > 0 else float("inf")
    n_points = len(BUDGETS) * len(LOADS)
    rows = [
        "sweep-runner warm-cache gate (two-axis budget x load sweep)",
        f"workload: us-{N_SITES}, {len(BUDGETS)} budgets x {len(LOADS)} loads "
        f"= {n_points} points, engine={ENGINE}",
        f"sequential pre-PR path   {t_seq:8.3f} s",
        f"sweep cold (fills cache) {t_cold:8.3f} s",
        f"sweep warm               {t_warm:8.3f} s",
        f"warm speedup             {speedup:8.1f} x  (gate: >= {MIN_WARM_SPEEDUP:.0f}x)",
        f"warm substrate/design executions: "
        f"{warm.executed('substrate')}/{warm.executed('design')}",
    ]

    identical = cold.records_json() == warm.records_json()
    parallel_identical = warm.records_json() == warm_parallel.records_json()
    baseline_matches = netsim_rows(warm.records) == baseline_rows
    rows.append(f"cold == warm records: {identical}")
    rows.append(f"jobs=1 == jobs=4 records: {parallel_identical}")
    rows.append(f"sweep matches sequential baseline metrics: {baseline_matches}")

    try:
        assert identical, "warm-cache sweep records differ from the cold run"
        assert parallel_identical, "jobs=4 records differ from jobs=1"
        assert baseline_matches, (
            "sweep netsim metrics differ from the sequential baseline"
        )
        assert warm.executed("substrate") == 0 and warm.executed("design") == 0, (
            "warm sweep re-executed substrate/design stages"
        )
        assert speedup >= MIN_WARM_SPEEDUP, (
            f"warm sweep speedup {speedup:.1f}x below the "
            f"{MIN_WARM_SPEEDUP:.0f}x acceptance bar"
        )
        report("sweep_runner", rows)
        write_bench_json(
            "sweep_runner",
            {
                "workload": {
                    "n_sites": N_SITES,
                    "budgets": list(BUDGETS),
                    "loads": list(LOADS),
                    "engine": ENGINE,
                    "points": n_points,
                },
                "sequential_s": round(t_seq, 4),
                "sweep_cold_s": round(t_cold, 4),
                "sweep_warm_s": round(t_warm, 4),
                "warm_speedup": round(speedup, 2),
                "records_identical": identical,
                "jobs4_identical": parallel_identical,
                "baseline_metrics_match": baseline_matches,
            },
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    if benchmark is not None:
        benchmark.pedantic(
            lambda: SweepService(spec, AXES, store=store, jobs=1).run(),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_sweep_runner()
