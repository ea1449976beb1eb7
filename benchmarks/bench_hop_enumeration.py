"""Hop-enumeration speedup: spatial-indexed pipeline vs brute force.

The candidate-hop pipeline prunes tower pairs beyond radio range with a
grid spatial index before any terrain work.  This benchmark times it
against the brute-force pairwise path (every one of the n(n-1)/2 pairs
pushed through the batch LoS checker) on a 500-tower continental field,
verifies the two paths find *identical* hop sets, checks that a second
enumeration reproduces the hop graph byte for byte, and reports the
speedup.  Each run appends a record to ``BENCH_hop_enumeration.json``.
"""

import time

import numpy as np

from repro.core.pipeline import HopPipeline
from repro.geo.terrain import us_terrain
from repro.towers.los import LosChecker, LosConfig
from repro.towers.registry import Tower, TowerRegistry

from _support import report, write_bench_json

N_TOWERS = 500

#: Minimum pipeline speedup over brute force (acceptance threshold).
MIN_SPEEDUP = 5.0


def _continental_registry(n: int = N_TOWERS, seed: int = 1234) -> TowerRegistry:
    """A random US-scale tower field (paper-like densities)."""
    rng = np.random.default_rng(seed)
    towers = [
        Tower(
            tower_id=i,
            lat=float(rng.uniform(30.0, 48.0)),
            lon=float(rng.uniform(-120.0, -75.0)),
            height_m=float(rng.uniform(60.0, 180.0)),
            source="fcc",
        )
        for i in range(n)
    ]
    return TowerRegistry(towers)


def _brute_force_hops(
    registry: TowerRegistry, checker: LosChecker, batch_size: int = 4096
) -> set[tuple[int, int]]:
    """Every O(n^2) pair through the batch checker — no spatial pruning."""
    towers = registry.towers
    n = len(towers)
    a, b = np.triu_indices(n, k=1)
    hops: set[tuple[int, int]] = set()
    for start in range(0, len(a), batch_size):
        sl = slice(start, start + batch_size)
        batch_a = [towers[i] for i in a[sl]]
        batch_b = [towers[i] for i in b[sl]]
        ok = checker.batch_feasible(batch_a, batch_b)
        for i, j in zip(a[sl][ok], b[sl][ok]):
            hops.add((int(i), int(j)))
    return hops


def run_comparison(n_towers: int = N_TOWERS) -> dict:
    registry = _continental_registry(n_towers)
    terrain = us_terrain()
    config = LosConfig()

    t0 = time.perf_counter()
    brute_hops = _brute_force_hops(registry, LosChecker(terrain, config))
    brute_s = time.perf_counter() - t0

    pipeline = HopPipeline(LosChecker(terrain, config))
    t0 = time.perf_counter()
    graph = pipeline.enumerate_hops(registry)
    pipeline_s = time.perf_counter() - t0
    pipeline_hops = {
        (int(i), int(j)) for i, j in zip(graph.edges_a, graph.edges_b)
    }

    graph2 = pipeline.enumerate_hops(registry)

    assert pipeline_hops == brute_hops, (
        f"hop sets differ: pipeline {len(pipeline_hops)} vs "
        f"brute force {len(brute_hops)}"
    )
    assert all(
        np.array_equal(x, y)
        for x, y in zip(
            (graph.edges_a, graph.edges_b, graph.lengths_km),
            (graph2.edges_a, graph2.edges_b, graph2.lengths_km),
        )
    ), "re-enumeration changed the hop graph"

    stats = pipeline.stats
    return {
        "n_towers": n_towers,
        "all_pairs": n_towers * (n_towers - 1) // 2,
        "candidate_pairs": stats.candidate_pairs,
        "feasible_hops": len(pipeline_hops),
        "brute_s": brute_s,
        "pipeline_s": pipeline_s,
        "speedup": brute_s / pipeline_s if pipeline_s > 0 else float("inf"),
    }


def bench_hop_enumeration(benchmark=None):
    r = run_comparison()
    rows = [
        "path                 pairs_checked  feasible  runtime_s  speedup",
        f"brute force          {r['all_pairs']:13d}  {r['feasible_hops']:8d}  "
        f"{r['brute_s']:9.3f}  {1.0:7.1f}x",
        f"pipeline             {r['candidate_pairs']:13d}  {r['feasible_hops']:8d}  "
        f"{r['pipeline_s']:9.3f}  {r['speedup']:7.1f}x",
        f"hop sets identical across brute force and the pipeline "
        f"({r['feasible_hops']} hops over {r['n_towers']} towers)",
        f"spatial pruning discarded "
        f"{1.0 - r['candidate_pairs'] / r['all_pairs']:.1%} of pairs "
        f"before terrain work",
    ]
    assert r["speedup"] >= MIN_SPEEDUP, (
        f"pipeline speedup {r['speedup']:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x acceptance bar"
    )
    report("hop_enumeration", rows)
    write_bench_json(
        "hop_enumeration",
        {
            "n_towers": r["n_towers"],
            "all_pairs": r["all_pairs"],
            "candidate_pairs": r["candidate_pairs"],
            "feasible_hops": r["feasible_hops"],
            "brute_s": round(r["brute_s"], 3),
            "pipeline_s": round(r["pipeline_s"], 3),
            "speedup": round(r["speedup"], 2),
        },
    )
    if benchmark is not None:
        registry = _continental_registry()
        pipeline = HopPipeline(LosChecker(us_terrain(), LosConfig()))
        benchmark.pedantic(
            lambda: pipeline.enumerate_hops(registry), rounds=1, iterations=1
        )


if __name__ == "__main__":
    bench_hop_enumeration()
