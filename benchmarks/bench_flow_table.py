"""Array-native flow-table gate: zero-object end-to-end evaluation at
10^6 flows.

The vectorized solver once received its workload as a list of a
million ``FluidFlow`` objects built one Python allocation at a time,
and profiles showed ~90% of wall-clock in that front-end.  The
struct-of-arrays path (``PathPool``/``FlowTable`` → ``CommodityTable``
→ ``_CommodityProblem.from_table``) keeps the workload in numpy and is
now the only front-end in ``repro``.  The object-list problem build it
replaced is embedded below (:func:`object_problem`) as the baseline;
both feed the same ``_progressive_fill``.  This benchmark pins three
promises:

1. **Scale** — from raw demand arrays to per-flow rates on a 10^6-flow
   continental workload, the table path must be >= 10x the embedded
   object path end-to-end (workload build + problem setup + progressive
   fill).
2. **Exactness** — per-flow rates must match the object path to
   <= 1e-9 relative at 10^6 flows, and *bit for bit* (exact float
   equality) on the dual-homed metro/core 10^5-flow workload pushed
   through both front-ends.
3. **Footprint** — peak RSS after the table-path build + solve at 10^6
   flows stays under 2 GB (the table path runs first so the ceiling
   reads its footprint, not the object path's).
"""

import resource
import time

import numpy as np
from scipy import sparse

from repro.netsim import FlowTable, FluidFlow, PathPool, max_min_rates_table
from repro.netsim.fluid import _CommodityProblem, _progressive_fill

from _support import report, write_bench_json

#: Acceptance thresholds (see module docstring).
MIN_TABLE_SPEEDUP = 10.0
MAX_RATE_PARITY_REL = 1e-9
MAX_PEAK_RSS_BYTES = 2 * 1024**3

#: Million-flow workload shape: single-homed metros behind a core mesh,
#: so paths collapse to one commodity per metro pair and the front-end
#: (not the fill loop) dominates end-to-end time.
N_CORE = 24
N_METRO = 240
N_FLOWS = 1_000_000
N_TIERS = 256
MEAN_DEMAND_BPS = 2e6
SEED = 11

#: Bit-parity workload: the dual-homed 10^5-flow metro/core shape of
#: ``bench_fluid_engine``.
PARITY_N_FLOWS = 100_000
PARITY_MEAN_DEMAND_BPS = 2e7
PARITY_SEED = 7


def object_problem(capacities_bps, flows):
    """The retired object-list ``_CommodityProblem`` build (baseline).

    One Python pass over ``FluidFlow`` objects: flows sharing a path
    tuple collapse into one commodity row in first-seen order, and the
    CSR incidence is appended link by link along each new path.
    """
    problem = _CommodityProblem.__new__(_CommodityProblem)
    problem.link_keys = list(capacities_bps)
    link_index = {key: i for i, key in enumerate(problem.link_keys)}
    problem.capacities = np.array(
        [capacities_bps[key] for key in problem.link_keys], dtype=float
    )
    commodity_of_path = {}
    flow_commodity = np.empty(len(flows), dtype=np.int64)
    indices = []
    indptr = [0]
    for i, flow in enumerate(flows):
        path = flow.path
        c = commodity_of_path.get(path)
        if c is None:
            c = len(commodity_of_path)
            commodity_of_path[path] = c
            prev = path[0]
            for node in path[1:]:
                li = link_index.get((prev, node))
                if li is None:
                    raise KeyError(
                        f"flow {flow.flow_id} uses unknown link {prev}->{node}"
                    )
                indices.append(li)
                prev = node
            indptr.append(len(indices))
        flow_commodity[i] = c
    problem.flow_ids = np.array([f.flow_id for f in flows], dtype=np.int64)
    problem.demands = np.array([f.offered_bps for f in flows], dtype=float)
    problem.flow_commodity = flow_commodity
    problem.n_commodities = len(commodity_of_path)
    problem.incidence = sparse.csr_matrix(
        (
            np.ones(len(indices), dtype=float),
            np.array(indices, dtype=np.int64),
            np.array(indptr, dtype=np.int64),
        ),
        shape=(problem.n_commodities, len(problem.link_keys)),
    )
    return problem


def object_path_rates(capacities, flows):
    """Per-flow rate dict through the embedded object-list build."""
    problem = object_problem(capacities, flows)
    rates = _progressive_fill(problem)
    return dict(zip(problem.flow_ids.tolist(), rates.tolist()))


def build_core_capacities():
    cores = [f"core{i}" for i in range(N_CORE)]
    capacities = {}
    for i, u in enumerate(cores):
        for v in cores[i + 1:]:
            capacities[(u, v)] = 40e9
            capacities[(v, u)] = 40e9
    return cores, capacities


def build_raw_million_flow_demands():
    """The raw workload as plain arrays: (src metro, dst metro, demand).

    This is the input *both* front-ends start from — the benchmark
    measures everything downstream of these arrays.
    """
    rng = np.random.default_rng(SEED)
    raw = (rng.pareto(1.3, size=N_FLOWS) + 1.0) * MEAN_DEMAND_BPS
    tier_rates = np.quantile(raw, np.linspace(0, 1, N_TIERS + 1)[1:])
    demands = tier_rates[
        np.searchsorted(tier_rates, raw).clip(max=N_TIERS - 1)
    ]
    src = rng.integers(0, N_METRO, size=N_FLOWS)
    dst = rng.integers(0, N_METRO, size=N_FLOWS)
    dst = np.where(src == dst, (dst + 1) % N_METRO, dst)
    return src, dst, demands


def million_flow_network():
    cores, capacities = build_core_capacities()
    home = [cores[m % N_CORE] for m in range(N_METRO)]
    for m in range(N_METRO):
        metro = f"metro{m}"
        capacities[(metro, home[m])] = 10e9
        capacities[(home[m], metro)] = 10e9
    return home, capacities


def table_path_end_to_end(src, dst, demands, home, capacities):
    """Raw arrays -> rates, never materializing per-flow objects."""
    pair_code = src * N_METRO + dst
    seen = np.zeros(N_METRO * N_METRO, dtype=bool)
    seen[pair_code] = True
    unique_codes = np.flatnonzero(seen)
    path_id = (np.cumsum(seen) - 1)[pair_code]
    u_src, u_dst = np.divmod(unique_codes, N_METRO)
    paths = []
    for s, d in zip(u_src.tolist(), u_dst.tolist()):
        hs, hd = home[s], home[d]
        inner = (hs,) if hs == hd else (hs, hd)
        paths.append((f"metro{s}",) + inner + (f"metro{d}",))
    pool = PathPool.from_paths(paths)
    table = FlowTable(
        pool=pool,
        path_id=path_id,
        demand_bps=demands,
        flow_ids=np.arange(N_FLOWS, dtype=np.int64),
    )
    return max_min_rates_table(capacities, table)


def object_path_end_to_end(src, dst, demands, home, capacities):
    """Raw arrays -> rates through FluidFlow objects (the baseline)."""
    flows = []
    for i in range(N_FLOWS):
        s, d = int(src[i]), int(dst[i])
        hs, hd = home[s], home[d]
        if hs == hd:
            path = (f"metro{s}", hs, f"metro{d}")
        else:
            path = (f"metro{s}", hs, hd, f"metro{d}")
        flows.append(FluidFlow(i, path, float(demands[i])))
    return object_path_rates(capacities, flows)


def run_scale_gate(timing_rounds: int = 3):
    home, capacities = million_flow_network()
    src, dst, demands = build_raw_million_flow_demands()

    # Table path FIRST: the RSS ceiling must reflect the array path's
    # footprint, before a million FluidFlow objects inflate the peak.
    table_times = []
    table_rates = None
    for _ in range(timing_rounds):
        t0 = time.perf_counter()
        table_rates = table_path_end_to_end(
            src, dst, demands, home, capacities
        )
        table_times.append(time.perf_counter() - t0)
    table_s = float(np.median(table_times))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024

    t0 = time.perf_counter()
    object_rates = object_path_end_to_end(
        src, dst, demands, home, capacities
    )
    object_s = time.perf_counter() - t0

    object_vec = np.array(
        [object_rates[i] for i in range(N_FLOWS)]
    )
    parity = float(
        np.max(
            np.abs(table_rates - object_vec)
            / np.maximum(np.abs(object_vec), 1e-9)
        )
    )
    return {
        "n_links": len(capacities),
        "n_flows": N_FLOWS,
        "n_commodities": len(np.unique(src * N_METRO + dst)),
        "object_s": object_s,
        "table_s": table_s,
        "speedup": object_s / table_s,
        "carried_fraction": float(table_rates.sum() / demands.sum()),
        "parity_rel": parity,
        "peak_rss_bytes": peak_rss,
    }


def build_parity_workload():
    """The dual-homed metro/core 10^5-flow workload, in both forms.

    Mirrors ``bench_fluid_engine.build_metro_core_workload`` (same
    seed, same draws) so the bit-identity gate runs on the exact
    workload the vectorized-solver gate already certifies.
    """
    rng = np.random.default_rng(PARITY_SEED)
    cores, capacities = build_core_capacities()
    homes = {}
    for m in range(N_METRO):
        metro = f"metro{m}"
        h1 = cores[m % N_CORE]
        h2 = cores[(m * 7 + 3) % N_CORE]
        if h2 == h1:
            h2 = cores[(m * 7 + 4) % N_CORE]
        homes[metro] = (h1, h2)
        for h in (h1, h2):
            capacities[(metro, h)] = 10e9
            capacities[(h, metro)] = 10e9

    raw = (rng.pareto(1.3, size=PARITY_N_FLOWS) + 1.0) * PARITY_MEAN_DEMAND_BPS
    tier_rates = np.quantile(raw, np.linspace(0, 1, N_TIERS + 1)[1:])
    tiers = tier_rates[
        np.searchsorted(tier_rates, raw).clip(max=N_TIERS - 1)
    ]

    metros = list(homes)
    src = rng.integers(0, N_METRO, size=PARITY_N_FLOWS)
    dst = rng.integers(0, N_METRO, size=PARITY_N_FLOWS)
    pick = rng.integers(0, 2, size=(PARITY_N_FLOWS, 2))
    flows = []
    for i in range(PARITY_N_FLOWS):
        s, d = metros[src[i]], metros[dst[i]]
        if s == d:
            d = metros[(dst[i] + 1) % N_METRO]
        hs = homes[s][pick[i, 0]]
        hd = homes[d][pick[i, 1]]
        path = (s, hs, d) if hs == hd else (s, hs, hd, d)
        flows.append(FluidFlow(i, path, float(tiers[i])))

    pool = PathPool.from_paths([f.path for f in flows])
    table = FlowTable(
        pool=pool,
        path_id=np.arange(PARITY_N_FLOWS, dtype=np.int64),
        demand_bps=np.array([f.offered_bps for f in flows]),
        flow_ids=np.arange(PARITY_N_FLOWS, dtype=np.int64),
    )
    return capacities, flows, table


def run_bit_parity_gate():
    capacities, flows, table = build_parity_workload()
    object_rates = object_path_rates(capacities, flows)
    table_rates = max_min_rates_table(capacities, table)
    as_dict = dict(zip(table.flow_ids.tolist(), table_rates.tolist()))
    return {
        "bit_parity_n_flows": len(flows),
        "bit_identical": as_dict == object_rates,
    }


def bench_flow_table(benchmark=None):
    scale = run_scale_gate()
    bits = run_bit_parity_gate()

    rows = [
        f"workload: {scale['n_flows']} flows "
        f"({scale['n_commodities']} pair commodities) over "
        f"{scale['n_links']} directed links, saturated "
        f"(carried {scale['carried_fraction']:.1%} of offered)",
        "front-end + solve         runtime_s   speedup",
        f"FluidFlow objects         {scale['object_s']:9.3f}  {1.0:7.1f}x",
        f"array-native table        {scale['table_s']:9.3f}  "
        f"{scale['speedup']:7.1f}x",
        f"rate parity vs object path: {scale['parity_rel']:.3g} rel "
        f"(bar {MAX_RATE_PARITY_REL:.0e})",
        f"bit-identical on the {bits['bit_parity_n_flows']}-flow metro/core "
        f"workload: {bits['bit_identical']}",
        f"peak RSS after table path: "
        f"{scale['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"(bar {MAX_PEAK_RSS_BYTES / 1024**3:.0f} GiB)",
    ]
    assert scale["speedup"] >= MIN_TABLE_SPEEDUP, (
        f"table path speedup {scale['speedup']:.1f}x below the "
        f"{MIN_TABLE_SPEEDUP:.0f}x acceptance bar"
    )
    assert scale["parity_rel"] <= MAX_RATE_PARITY_REL, (
        f"million-flow rate parity {scale['parity_rel']:.3g} exceeds "
        f"{MAX_RATE_PARITY_REL:.0e} relative"
    )
    assert bits["bit_identical"], (
        "table front-end is not bit-identical to the object path on "
        "the metro/core workload"
    )
    assert scale["peak_rss_bytes"] <= MAX_PEAK_RSS_BYTES, (
        f"table-path peak RSS {scale['peak_rss_bytes'] / 1024**3:.2f} GiB "
        f"exceeds the {MAX_PEAK_RSS_BYTES / 1024**3:.0f} GiB ceiling"
    )
    report("flow_table", rows)
    write_bench_json(
        "netsim",
        {
            "benchmark": "flow_table",
            "workload": {
                "n_core": N_CORE,
                "n_metro": N_METRO,
                "n_flows": scale["n_flows"],
                "n_commodities": scale["n_commodities"],
                "n_links": scale["n_links"],
                "n_tiers": N_TIERS,
                "carried_fraction": round(scale["carried_fraction"], 4),
            },
            "object_s": round(scale["object_s"], 4),
            "table_s": round(scale["table_s"], 4),
            "table_speedup": round(scale["speedup"], 1),
            "parity_rel": scale["parity_rel"],
            "bit_identical_100k": bits["bit_identical"],
            "peak_rss_gib": round(scale["peak_rss_bytes"] / 1024**3, 3),
        },
    )
    if benchmark is not None:
        home, capacities = million_flow_network()
        src, dst, demands = build_raw_million_flow_demands()
        benchmark.pedantic(
            lambda: table_path_end_to_end(
                src, dst, demands, home, capacities
            ),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_flow_table()
