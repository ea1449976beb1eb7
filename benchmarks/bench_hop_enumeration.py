"""Hop-enumeration gates: the pipeline vs brute force, and the terrain kernel.

Gate 1 (pipeline).  The candidate-hop pipeline prunes tower pairs
beyond radio range with a grid spatial index before any terrain work.
This benchmark times it against the brute-force pairwise path (every
one of the n(n-1)/2 pairs pushed through the batch LoS checker) on a
500-tower continental field, verifies the two paths find *identical*
hop sets, checks that a second enumeration reproduces the hop graph
byte for byte, and requires a >= 5x speedup.

Gate 2 (terrain kernel).  ``TerrainModel.elevation_m`` evaluates the
field in cache-sized blocks, hashes lattice corners from shared uint64
terms and skips ridge roughness where it cannot change a bit.  The
embedded ``_baseline_elevation_m`` is the unblocked kernel it
replaced, ridge distance included.  Both replay the same
flagship-shaped query stream: the interior profile samples of every
candidate pair of the tower field ``synthesize_towers`` places for the
flagship's first 60 US cities (seed 7, not the flagship's 42: ~6,300
towers, ~1.7M points), grouped by per-pair sample count and chunked at
4096 pairs, one ``elevation_m`` call per chunk (up to ~117k points), as
the pipeline issues them.  Smaller fields give smaller calls, which
flatter the unblocked kernel; this one matches the flagship's call
sizes.  Each round replays the stream once, timing the
baseline and the new kernel back to back on every call and
alternating which goes first, so host clock drift hits both sides
alike.  Every call's output must be bitwise equal, and the median
per-round ratio (summed baseline time / summed new time) must be
>= 2x.

Each run appends a record to ``BENCH_hop_enumeration.json``.
"""

import statistics
import time

import numpy as np

from repro.core.pipeline import DEFAULT_CHUNK_SIZE, HopPipeline
from repro.datasets.us_cities import us_population_centers
from repro.geo.coords import haversine_km
from repro.geo.terrain import TerrainModel, us_terrain
from repro.towers.los import LosChecker, LosConfig, profile_sample_points
from repro.towers.registry import Tower, TowerRegistry, cull_towers
from repro.towers.synthesis import SynthesisConfig, synthesize_towers

from _support import report, write_bench_json

N_TOWERS = 500

#: Minimum pipeline speedup over brute force (acceptance threshold).
MIN_SPEEDUP = 5.0

#: Kernel replay (gate 2): the flagship's first cities, a seed of its
#: own, the pipeline's chunk size, and the interleaved rounds.
KERNEL_SITES = 60
KERNEL_SEED = 7
KERNEL_CHUNK = DEFAULT_CHUNK_SIZE
KERNEL_ROUNDS = 5

#: Minimum median per-round kernel ratio, baseline / new (gate 2).
MIN_KERNEL_RATIO = 2.0


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


# -- gate 2: the unblocked terrain kernel, embedded as the baseline ---------


def _baseline_mix_hash(ix: np.ndarray, iy: np.ndarray, seed: int) -> np.ndarray:
    seed_mix = np.uint64((seed * 0x165667B19E3779F9) % (1 << 64))
    h = (
        ix.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        ^ iy.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
        ^ seed_mix
    )
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(33)
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _baseline_smoothstep(t: np.ndarray) -> np.ndarray:
    return t * t * (3.0 - 2.0 * t)


def _baseline_value_noise(x: np.ndarray, y: np.ndarray, seed: int) -> np.ndarray:
    x0 = np.floor(x)
    y0 = np.floor(y)
    tx = _baseline_smoothstep(x - x0)
    ty = _baseline_smoothstep(y - y0)
    ix0 = x0.astype(np.int64)
    iy0 = y0.astype(np.int64)
    v00 = _baseline_mix_hash(ix0, iy0, seed)
    v10 = _baseline_mix_hash(ix0 + 1, iy0, seed)
    v01 = _baseline_mix_hash(ix0, iy0 + 1, seed)
    v11 = _baseline_mix_hash(ix0 + 1, iy0 + 1, seed)
    top = v00 + (v10 - v00) * tx
    bottom = v01 + (v11 - v01) * tx
    return top + (bottom - top) * ty


def _baseline_fractal_noise(x, y, octaves: int, seed: int) -> np.ndarray:
    total = np.zeros_like(np.asarray(x, dtype=float))
    amplitude = 1.0
    frequency = 1.0
    norm = 0.0
    for octave in range(octaves):
        total += amplitude * _baseline_value_noise(
            x * frequency, y * frequency, seed + octave
        )
        norm += amplitude
        amplitude *= 0.5
        frequency *= 2.0
    return total / norm


def _baseline_distance_km(ridge, lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    best = np.full(lats.shape, np.inf)
    pts = ridge.waypoints
    for (lat_a, lon_a), (lat_b, lon_b) in zip(pts[:-1], pts[1:]):
        mean_lat = np.radians((lat_a + lat_b) / 2.0)
        kx = 111.19 * np.cos(mean_lat)
        ax, ay = lon_a * kx, lat_a * 111.19
        bx, by = lon_b * kx, lat_b * 111.19
        px = lons * kx
        py = lats * 111.19
        dx, dy = bx - ax, by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq <= 0:
            t = np.zeros_like(px)
        else:
            t = np.clip(((px - ax) * dx + (py - ay) * dy) / seg_len_sq, 0.0, 1.0)
        cx = ax + t * dx
        cy = ay + t * dy
        dist = np.hypot(px - cx, py - cy)
        best = np.minimum(best, dist)
    return best


def _baseline_elevation_m(model: TerrainModel, lats, lons) -> np.ndarray:
    """The unblocked kernel: full-length temporaries, every ridge everywhere."""
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    x = lons / model.noise_scale_deg
    y = lats / model.noise_scale_deg
    elevation = model.base_m + model.relief_m * _baseline_fractal_noise(
        x, y, octaves=5, seed=model.seed
    )
    for i, ridge in enumerate(model.ridges):
        dist = _baseline_distance_km(ridge, lats, lons)
        envelope = np.exp(-((dist / ridge.width_km) ** 2))
        rough = 0.55 + 0.45 * _baseline_fractal_noise(
            x * 3.0, y * 3.0, octaves=3, seed=model.seed + 101 + i
        )
        elevation = elevation + ridge.height_m * envelope * rough
    return np.maximum(elevation, 0.0)


def _profile_stream(checker: LosChecker, registry: TowerRegistry) -> list:
    """Per-chunk (lats, lons) profile queries, as the pipeline issues them."""
    cand_a, cand_b = HopPipeline(checker).candidate_pairs(registry)
    lats, lons = registry.coordinates()
    la, lo, lb, lob = lats[cand_a], lons[cand_a], lats[cand_b], lons[cand_b]
    dist = haversine_km(la, lo, lb, lob)
    in_range = (dist <= checker.config.radio.max_range_km) & (dist > 1e-6)
    samples = checker.sample_count(dist)
    stream = []
    for m in np.unique(samples[in_range]):
        idx = np.flatnonzero(in_range & (samples == m))
        for start in range(0, len(idx), KERNEL_CHUNK):
            sl = idx[start : start + KERNEL_CHUNK]
            s_lats, s_lons = profile_sample_points(la[sl], lo[sl], lb[sl], lob[sl], int(m))
            stream.append((s_lats.ravel(), s_lons.ravel()))
    return stream


def _synthesized_registry(terrain: TerrainModel) -> TowerRegistry:
    """The flagship's tower synthesis over its first ``KERNEL_SITES`` cities."""
    sites = us_population_centers()[:KERNEL_SITES]
    config = SynthesisConfig(seed=KERNEL_SEED)
    return TowerRegistry(cull_towers(synthesize_towers(sites, terrain, config)))


def run_kernel_replay(rounds: int = KERNEL_ROUNDS) -> dict:
    """Interleaved baseline-vs-blocked replay of the profile stream."""
    terrain = us_terrain()
    registry = _synthesized_registry(terrain)
    stream = _profile_stream(LosChecker(terrain, LosConfig()), registry)
    kernels = {
        "baseline": lambda q: _baseline_elevation_m(terrain, *q),
        "blocked": lambda q: terrain.elevation_m(*q),
    }
    ratios, times = [], {name: [] for name in kernels}
    for r in range(rounds):
        spent = dict.fromkeys(kernels, 0.0)
        for k, query in enumerate(stream):
            order = ("baseline", "blocked") if (r + k) % 2 == 0 else ("blocked", "baseline")
            outputs = {}
            for name in order:
                t0 = time.perf_counter()
                outputs[name] = kernels[name](query)
                spent[name] += time.perf_counter() - t0
            assert outputs["baseline"].tobytes() == outputs["blocked"].tobytes(), (
                f"round {r}, call {k}: blocked elevations differ from the baseline"
            )
        for name in kernels:
            times[name].append(spent[name])
        ratios.append(spent["baseline"] / spent["blocked"])
    return {
        "kernel_towers": len(registry),
        "kernel_calls": len(stream),
        "kernel_points": int(sum(q[0].size for q in stream)),
        "kernel_max_call": int(max(q[0].size for q in stream)),
        "kernel_rounds": rounds,
        "baseline_s": statistics.median(times["baseline"]),
        "blocked_s": statistics.median(times["blocked"]),
        "kernel_ratio": statistics.median(ratios),
        "kernel_ratios": ratios,
    }


def bench_hop_enumeration(benchmark=None):
    r = run_comparison()
    k = run_kernel_replay()
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
        "",
        f"terrain kernel replay: {k['kernel_calls']} calls, "
        f"{k['kernel_points']} points (largest call {k['kernel_max_call']}), "
        f"{k['kernel_towers']} towers, {k['kernel_rounds']} interleaved rounds",
        "kernel               median_s  ratio",
        f"unblocked baseline   {k['baseline_s']:8.3f}  {1.0:5.2f}x",
        f"blocked              {k['blocked_s']:8.3f}  {k['kernel_ratio']:5.2f}x",
        "per-round ratios " + ", ".join(f"{x:.2f}x" for x in k["kernel_ratios"]),
        "elevations bitwise equal to the baseline on every call",
    ]
    assert r["speedup"] >= MIN_SPEEDUP, (
        f"pipeline speedup {r['speedup']:.1f}x below the "
        f"{MIN_SPEEDUP:.0f}x acceptance bar"
    )
    assert k["kernel_ratio"] >= MIN_KERNEL_RATIO, (
        f"terrain kernel ratio {k['kernel_ratio']:.2f}x below the "
        f"{MIN_KERNEL_RATIO:.0f}x acceptance bar"
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
            "kernel_points": k["kernel_points"],
            "kernel_baseline_s": round(k["baseline_s"], 3),
            "kernel_blocked_s": round(k["blocked_s"], 3),
            "kernel_ratio": round(k["kernel_ratio"], 2),
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
