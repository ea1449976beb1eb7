"""Fluid-engine gate: vectorized commodity-aggregate solver vs the
scalar reference, at million-flow scale.

The fluid engine runs progressive filling as whole-array numpy/scipy
work over path commodities (flows sharing a path collapse into one
sparse incidence row; demand-limited flows freeze in bulk through one
globally demand-sorted array).  The scalar per-flow fill it replaced is
embedded below (:func:`scalar_max_min_rates`) as the baseline.  This
benchmark pins three promises:

1. **Scale** — on a ~10^5-flow continental metro/core workload (240
   dual-homed metros behind a 24-core full mesh, heavy-tail demands
   quantized to 256 service tiers, pushed past saturation), the
   vectorized solver (``FluidFlow`` list in, rates out) must be >= 50x
   the scalar reference.
2. **Exactness** — per-flow rates must match the scalar reference to
   <= 1e-6 relative, on the big workload and on small random ones;
   the vectorization is an optimization, not a remodelling.
3. **Fidelity** — behind ``run_udp_experiment``, the fluid engine's
   mean per-flow throughput must stay within 10% of the packet engine
   on a congested US-topology workload (the bar that makes the fast
   path usable for Fig 5/11/13-class sweeps).
"""

import time

import numpy as np

from repro.core import solve_heuristic
from repro.netsim import FlowMonitor, Network, Simulator, UdpFlow
from repro.netsim.experiments import build_edge_specs, kept_flow_table
from repro.netsim.flowtable import FlowTable
from repro.netsim.fluid import (
    _EPS_BPS,
    FluidFlow,
    max_min_rates_table,
    solve_fluid,
)
from repro.scenarios import us_scenario

from _support import report, write_bench_json

#: Acceptance thresholds (see module docstring).
MIN_VECTORIZED_SPEEDUP = 50.0
MAX_RATE_PARITY_REL = 1e-6
MAX_PACKET_PARITY_ERROR = 0.10

#: Metro/core aggregate workload shape.
N_CORE = 24
N_METRO = 240
N_FLOWS = 100_000
N_TIERS = 256
MEAN_DEMAND_BPS = 2e7  # overloads the 10G metro uplinks
SEED = 7

#: Packet-parity workload (mirrors bench_netsim_kernel's Fig 5 regime).
N_SITES = 15
BUDGET_TOWERS = 600.0
AGGREGATE_GBPS = 50.0
LOAD_FRACTION = 1.3
RATE_SCALE = 2e-3
DURATION_S = 1.0
CAPACITY_MODE = "tight"


def scalar_max_min_rates(capacities_bps, flows):
    """Max-min fair rates via scalar progressive filling (baseline).

    Per-round Python loops over a residual-capacity dict.  Each round
    takes the largest uniform step every active flow can take (the
    smaller of the least remaining demand and the least link fair
    share), then freezes the satisfied flows and every flow on a link
    within epsilon of that step.
    """
    for flow in flows:
        for u, v in zip(flow.path[:-1], flow.path[1:]):
            if (u, v) not in capacities_bps:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {u}->{v}")
    alloc = {flow.flow_id: 0.0 for flow in flows}
    remaining = {flow.flow_id: flow.offered_bps for flow in flows}
    residual = dict(capacities_bps)
    on_link = {}
    for flow in flows:
        for u, v in zip(flow.path[:-1], flow.path[1:]):
            on_link.setdefault((u, v), set()).add(flow.flow_id)
    active = set(alloc)
    while active:
        demand_step = min(remaining[fid] for fid in active)
        min_share = float("inf")
        for link, users in on_link.items():
            if not users:
                continue
            share = residual[link] / len(users)
            if share < min_share:
                min_share = share
        step = max(min(demand_step, min_share), 0.0)
        bottlenecks = [
            link
            for link, users in on_link.items()
            if users and residual[link] / len(users) <= step + _EPS_BPS
        ]
        for fid in active:
            alloc[fid] += step
            remaining[fid] -= step
        for link, users in on_link.items():
            if users:
                residual[link] -= step * len(users)
        frozen = {fid for fid in active if remaining[fid] <= _EPS_BPS}
        for link in bottlenecks:
            frozen |= on_link[link]
        if not frozen:  # numerical safety: freeze everything and stop
            frozen = set(active)
        for fid in frozen:
            for link, users in on_link.items():
                users.discard(fid)
        active -= frozen
    return alloc


def vectorized_max_min_rates(capacities, flows):
    """The engine's solver, from a ``FluidFlow`` list to a rate dict."""
    table = FlowTable.from_flows(flows)
    rates = max_min_rates_table(capacities, table)
    return dict(zip(table.flow_ids.tolist(), rates.tolist()))


def build_metro_core_workload():
    """~1e5 flows over a two-tier continental aggregate, past saturation.

    Demands are heavy-tail (Pareto 1.3) but quantized onto 256 service
    tiers — the realistic shape for commodity aggregates (users buy
    plans, not continuous rates), and the regime where the scalar
    solver's batch demand freezes keep its round count CI-runnable.
    """
    rng = np.random.default_rng(SEED)
    cores = [f"core{i}" for i in range(N_CORE)]
    capacities = {}
    for i, u in enumerate(cores):
        for v in cores[i + 1:]:
            capacities[(u, v)] = 40e9
            capacities[(v, u)] = 40e9
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

    raw = (rng.pareto(1.3, size=N_FLOWS) + 1.0) * MEAN_DEMAND_BPS
    tier_rates = np.quantile(raw, np.linspace(0, 1, N_TIERS + 1)[1:])
    tiers = tier_rates[
        np.searchsorted(tier_rates, raw).clip(max=N_TIERS - 1)
    ]

    metros = list(homes)
    src = rng.integers(0, N_METRO, size=N_FLOWS)
    dst = rng.integers(0, N_METRO, size=N_FLOWS)
    pick = rng.integers(0, 2, size=(N_FLOWS, 2))
    flows = []
    for i in range(N_FLOWS):
        s, d = metros[src[i]], metros[dst[i]]
        if s == d:
            d = metros[(dst[i] + 1) % N_METRO]
        hs = homes[s][pick[i, 0]]
        hd = homes[d][pick[i, 1]]
        path = (s, hs, d) if hs == hd else (s, hs, hd, d)
        flows.append(FluidFlow(i, path, float(tiers[i])))
    return capacities, flows


def small_random_workload(seed):
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(10)]
    capacities = {}
    for i in range(10):
        capacities[(nodes[i], nodes[(i + 1) % 10])] = float(rng.uniform(1, 20))
        capacities[(nodes[(i + 1) % 10], nodes[i])] = float(rng.uniform(1, 20))
    flows = []
    for fid in range(40):
        start = int(rng.integers(0, 10))
        hops = int(rng.integers(1, 4))
        path = tuple(nodes[(start + j) % 10] for j in range(hops + 1))
        flows.append(FluidFlow(fid, path, float(rng.uniform(0.1, 10.0))))
    return capacities, flows


def worst_rel_diff(a: dict, b: dict) -> float:
    ids = list(a)
    x = np.array([a[i] for i in ids])
    y = np.array([b[i] for i in ids])
    return float(np.max(np.abs(x - y) / np.maximum(np.abs(y), 1e-9)))


def run_scale_gate(timing_rounds: int = 3):
    capacities, flows = build_metro_core_workload()
    vec_times = []
    vec_rates = None
    for _ in range(timing_rounds):
        t0 = time.perf_counter()
        vec_rates = vectorized_max_min_rates(capacities, flows)
        vec_times.append(time.perf_counter() - t0)
    vectorized_s = float(np.median(vec_times))

    t0 = time.perf_counter()
    scalar_rates = scalar_max_min_rates(capacities, flows)
    scalar_s = time.perf_counter() - t0

    offered = sum(f.offered_bps for f in flows)
    return {
        "n_links": len(capacities),
        "n_flows": len(flows),
        "n_commodities": len({f.path for f in flows}),
        "scalar_s": scalar_s,
        "vectorized_s": vectorized_s,
        "speedup": scalar_s / vectorized_s,
        "carried_fraction": sum(vec_rates.values()) / offered,
        "scale_parity_rel": worst_rel_diff(vec_rates, scalar_rates),
    }


def run_small_parity_gate(n_seeds: int = 6) -> float:
    worst = 0.0
    for seed in range(n_seeds):
        capacities, flows = small_random_workload(seed)
        vec = vectorized_max_min_rates(capacities, flows)
        sca = scalar_max_min_rates(capacities, flows)
        worst = max(worst, worst_rel_diff(vec, sca))
    return worst


def run_packet_parity_gate():
    scenario = us_scenario(n_sites=N_SITES)
    topology = solve_heuristic(
        scenario.design_input(), BUDGET_TOWERS, ilp_refinement=False
    ).topology
    specs = build_edge_specs(
        topology, AGGREGATE_GBPS, rate_scale=RATE_SCALE,
        capacity_mode=CAPACITY_MODE,
    )
    node_names = {s.a for s in specs} | {s.b for s in specs}
    pool, path_ids, shares, kept_mass = kept_flow_table(
        topology.routed_paths(), topology.design.traffic, node_names, 2e-4
    )
    offered_bps = AGGREGATE_GBPS * 1e9 * RATE_SCALE * LOAD_FRACTION
    flows = [
        (fid, pool.path_names(path_id), offered_bps * h / kept_mass)
        for fid, (path_id, h) in enumerate(zip(path_ids.tolist(), shares.tolist()))
    ]

    sim = Simulator()
    net = Network.from_edges(sim, specs)
    monitor = FlowMonitor(sim)
    for link in net.links.values():
        monitor.watch_link(link)
    for fid, path, rate in flows:
        UdpFlow(
            sim, net, monitor, fid, path, rate_bps=rate,
            seed=SEED * 100_003 + fid,
        ).start()
    sim.run(until=DURATION_S)
    packet_mean = monitor.mean_flow_throughput_bps(DURATION_S)

    fluid = solve_fluid(
        specs, [FluidFlow(fid, path, rate) for fid, path, rate in flows]
    )
    fluid_mean = fluid.mean_rate_bps
    return {
        "parity_n_flows": len(flows),
        "packet_mean_bps": packet_mean,
        "fluid_mean_bps": fluid_mean,
        "packet_parity_error": abs(fluid_mean - packet_mean) / packet_mean,
    }


def bench_fluid_engine(benchmark=None):
    scale = run_scale_gate()
    small_parity = run_small_parity_gate()
    packet = run_packet_parity_gate()

    rows = [
        f"workload: {scale['n_flows']} flows ({scale['n_commodities']} "
        f"path commodities) over {scale['n_links']} directed links, "
        f"saturated (carried {scale['carried_fraction']:.1%} of offered)",
        "solver                    runtime_s   speedup",
        f"scalar reference          {scale['scalar_s']:9.3f}  {1.0:7.1f}x",
        f"vectorized commodity      {scale['vectorized_s']:9.3f}  "
        f"{scale['speedup']:7.1f}x",
        f"rate parity vs scalar: {scale['scale_parity_rel']:.3g} rel "
        f"(scale), {small_parity:.3g} rel (small random; "
        f"bar {MAX_RATE_PARITY_REL:.0e})",
        f"fluid vs packet mean throughput: "
        f"{packet['fluid_mean_bps'] / 1e3:.1f} vs "
        f"{packet['packet_mean_bps'] / 1e3:.1f} kbps "
        f"({packet['packet_parity_error']:.2%} error, "
        f"bar {MAX_PACKET_PARITY_ERROR:.0%})",
    ]
    assert scale["speedup"] >= MIN_VECTORIZED_SPEEDUP, (
        f"vectorized solver speedup {scale['speedup']:.1f}x below the "
        f"{MIN_VECTORIZED_SPEEDUP:.0f}x acceptance bar"
    )
    assert scale["scale_parity_rel"] <= MAX_RATE_PARITY_REL, (
        f"scale-workload rate parity {scale['scale_parity_rel']:.3g} "
        f"exceeds {MAX_RATE_PARITY_REL:.0e} relative"
    )
    assert small_parity <= MAX_RATE_PARITY_REL, (
        f"small-workload rate parity {small_parity:.3g} exceeds "
        f"{MAX_RATE_PARITY_REL:.0e} relative"
    )
    assert packet["packet_parity_error"] <= MAX_PACKET_PARITY_ERROR, (
        f"fluid vs packet mean throughput off by "
        f"{packet['packet_parity_error']:.1%} (> {MAX_PACKET_PARITY_ERROR:.0%})"
    )
    report("fluid_engine", rows)
    write_bench_json(
        "netsim",
        {
            "benchmark": "fluid_engine",
            "workload": {
                "n_core": N_CORE,
                "n_metro": N_METRO,
                "n_flows": scale["n_flows"],
                "n_commodities": scale["n_commodities"],
                "n_links": scale["n_links"],
                "n_tiers": N_TIERS,
                "carried_fraction": round(scale["carried_fraction"], 4),
            },
            "scalar_s": round(scale["scalar_s"], 4),
            "vectorized_s": round(scale["vectorized_s"], 4),
            "vectorized_speedup": round(scale["speedup"], 1),
            "scale_parity_rel": scale["scale_parity_rel"],
            "small_parity_rel": small_parity,
            "packet_parity_error": round(packet["packet_parity_error"], 4),
        },
    )
    if benchmark is not None:
        capacities, flows = build_metro_core_workload()
        benchmark.pedantic(
            lambda: vectorized_max_min_rates(capacities, flows),
            rounds=1,
            iterations=1,
        )


if __name__ == "__main__":
    bench_fluid_engine()
