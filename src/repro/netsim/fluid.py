"""Fluid-approximation engine: max-min fair flow rates (fast path).

For sweeps where per-packet fidelity is unnecessary (Fig 11/13-scale
load scans), solving the steady-state fluid allocation is orders of
magnitude cheaper than simulating every packet.  Flows are modelled as
fluids on their fixed paths; link bandwidth is shared max-min fairly
(progressive filling, Bertsekas & Gallager §6.5): all unfrozen flows
ramp together until a link saturates or a flow hits its offered rate,
the constrained flows freeze, and filling continues with the rest.

Every solve runs one path: a :class:`~repro.netsim.flowtable.FlowTable`
collapses into a :class:`~repro.netsim.flowtable.CommodityTable`
(flows sharing a path become one demand row), which becomes a
:class:`_CommodityProblem` (path->link incidence as a scipy sparse
matrix), which :func:`_progressive_fill` solves with whole-array numpy
rounds.  Because all unfrozen flows always sit at one *global* fill
level, a flow's final rate is ``min(demand, theta_P)`` where
``theta_P`` is the fill level at which its path's first link saturated
— so the solve only tracks per-commodity freeze levels plus a single
globally demand-sorted flow array, and demand-limited flows freeze in
bulk per round.  This is what makes million-flow commodity aggregates
tractable (see ``benchmarks/bench_fluid_engine.py``).  A list of
:class:`FluidFlow` objects is still accepted; it is converted once by
:meth:`FlowTable.from_flows <repro.netsim.flowtable.FlowTable.from_flows>`.
The scalar per-flow progressive fill the allocation is tested against
lives in ``tests/fluid_oracle.py``.

The engine consumes the same :class:`~repro.netsim.network.EdgeSpec`
capacities and node paths as the packet engine, so an experiment can
switch between ``engine="packet"`` and ``engine="fluid"`` behind one
API (see :func:`repro.netsim.experiments.run_udp_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter

import numpy as np
from scipy import sparse

from .flowtable import CommodityTable, FlowTable
from .network import EdgeSpec

#: Rate slack treated as saturation (absolute, bits/second).
_EPS_BPS = 1e-9

#: Relative capacity slack treated as saturation (scales the absolute
#: epsilon up for multi-gigabit links, where float64 resolution alone
#: exceeds 1e-9 bps).
_EPS_REL = 1e-12

#: Allocations may exceed capacity by at most this relative slack; more
#: is a solver bug and fails loudly (never clamped away in reporting).
CAPACITY_SLACK_REL = 1e-9


@dataclass(frozen=True)
class FluidFlow:
    """One fluid demand.

    Attributes:
        flow_id: unique id.
        path: node names from source to destination.  The path must be
            edge-simple (no directed link twice): allocation treats a
            path as a *set* of links, so a repeated edge would receive
            half the load the latency/utilization accounting charges it.
        offered_bps: the flow's offered (maximum) rate; finite and
            positive.
    """

    flow_id: int
    path: tuple[str, ...]
    offered_bps: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.offered_bps):
            raise ValueError(
                f"flow {self.flow_id} offered rate must be finite "
                f"(got {self.offered_bps})"
            )
        if self.offered_bps <= 0:
            raise ValueError("offered rate must be positive")
        if len(self.path) < 2:
            raise ValueError("path needs at least two nodes")
        if not _path_is_edge_simple(self.path):
            raise ValueError(
                f"flow {self.flow_id} path repeats a directed link; "
                "fluid paths must be edge-simple"
            )


@lru_cache(maxsize=65536)
def _path_is_edge_simple(path: tuple[str, ...]) -> bool:
    """Whether a path repeats no directed link (cached by path value).

    Workloads routinely hand the same path tuple to thousands of flows;
    caching by value means the O(len) set-build runs once per distinct
    path instead of once per flow.
    """
    edges = list(zip(path[:-1], path[1:]))
    return len(set(edges)) == len(edges)


@dataclass(frozen=True)
class FluidTableResult:
    """Steady-state max-min allocation for one workload.

    Aligned per-flow arrays: entry ``i`` of ``rates_bps`` /
    ``offered_bps`` / ``latencies_s`` belongs to ``flow_ids[i]``.
    Aggregate properties (``loss_rate``, ``mean_latency_s`` ...) sum
    sequentially in flow order, so experiment rows are reproducible
    bit for bit.

    Attributes:
        flow_ids: caller-visible flow ids.
        rates_bps: allocated rate per flow.
        offered_bps: offered rate per flow.
        latencies_s: static per-flow path latency (propagation plus one
            packet serialization per hop; queueing is not modelled).
        link_utilization: per directed link, allocated load / capacity —
            the *true* ratio.  The solver guarantees it never exceeds
            ``1 + CAPACITY_SLACK_REL``; an over-allocation is a bug and
            raises rather than being clamped out of sight.
        timings_s: wall-clock seconds per solve phase (``setup_s`` —
            problem construction, ``fill_s`` — progressive filling,
            ``freeze_s`` — result accounting).  Excluded from equality:
            two solves of the same workload are the same result however
            long they took.
    """

    flow_ids: np.ndarray
    rates_bps: np.ndarray
    offered_bps: np.ndarray
    latencies_s: np.ndarray
    link_utilization: dict[tuple[str, str], float]
    timings_s: dict[str, float] | None = field(default=None, compare=False)

    @property
    def n_flows(self) -> int:
        return len(self.flow_ids)

    @property
    def total_offered_bps(self) -> float:
        return float(sum(self.offered_bps.tolist()))

    @property
    def total_rate_bps(self) -> float:
        return float(sum(self.rates_bps.tolist()))

    @property
    def loss_rate(self) -> float:
        """Offered load the allocation could not carry, as a fraction."""
        offered = self.total_offered_bps
        if offered <= 0:
            return 0.0
        return max(0.0, 1.0 - self.total_rate_bps / offered)

    @property
    def mean_rate_bps(self) -> float:
        if self.n_flows == 0:
            return 0.0
        return self.total_rate_bps / self.n_flows

    @property
    def max_link_utilization(self) -> float:
        return max(self.link_utilization.values(), default=0.0)

    def mean_latency_s(self) -> float:
        """Throughput-weighted mean path latency."""
        total = self.total_rate_bps
        if total <= 0:
            return 0.0
        return float(sum((self.latencies_s * self.rates_bps).tolist())) / total

    def rates_by_flow(self) -> dict[int, float]:
        """The dict form of the rates (parity checks, small workloads)."""
        return dict(zip(self.flow_ids.tolist(), self.rates_bps.tolist()))


class _CommodityProblem:
    """Flows collapsed into path commodities over an indexed link set.

    Built once per solve: flows sharing a path become one incidence row
    (their demands stay individually visible to the filling loop via
    one globally demand-sorted array), links become dense capacity /
    delay arrays, and path->link membership becomes a CSR matrix
    ``incidence`` of shape (n_commodities, n_links).
    """

    @classmethod
    def from_table(
        cls,
        capacities_bps: dict[tuple[str, str], float],
        table: CommodityTable,
    ) -> "_CommodityProblem":
        """The problem for a :class:`CommodityTable`.

        All-array construction: path edges come from the pool in one
        gather, the link lookup is a searchsorted over integer edge
        codes, and the CSR incidence lands with columns in traversal
        order and rows in first-seen commodity order.
        """
        self = cls.__new__(cls)
        self.link_keys = list(capacities_bps)
        self.capacities = np.array(
            [capacities_bps[key] for key in self.link_keys], dtype=float
        )
        pool = table.pool
        n_names = len(pool.node_names)
        name_id = {name: i for i, name in enumerate(pool.node_names)}
        # Integer code u_id * n + v_id per capacity link; links naming
        # nodes outside the pool get unique negative codes (no pool
        # path can ever reference them, they just keep the table total).
        link_codes = np.empty(len(self.link_keys), dtype=np.int64)
        for i, (u, v) in enumerate(self.link_keys):
            ui = name_id.get(u)
            vi = name_id.get(v)
            link_codes[i] = (
                ui * n_names + vi if ui is not None and vi is not None else -(i + 1)
            )
        code_order = np.argsort(link_codes, kind="stable")
        sorted_codes = link_codes[code_order]

        edge_u, edge_v, edge_indptr = pool.gather_edges(table.commodity_path)
        codes = edge_u * n_names + edge_v
        pos = np.searchsorted(sorted_codes, codes)
        pos = np.minimum(pos, max(len(sorted_codes) - 1, 0))
        if len(sorted_codes):
            bad = sorted_codes[pos] != codes
        else:
            bad = np.ones(len(codes), dtype=bool)
        if bad.any():
            # First offense in (commodity, traversal) order: the first
            # flow, walking its path, that names a missing link.
            first = int(np.argmax(bad))
            commodity = int(np.searchsorted(edge_indptr, first, side="right")) - 1
            fid = int(table.first_flow_ids()[commodity])
            u = pool.node_names[int(edge_u[first])]
            v = pool.node_names[int(edge_v[first])]
            raise KeyError(f"flow {fid} uses unknown link {u}->{v}")
        indices = code_order[pos].astype(np.int64)
        self.flow_ids = table.flow_ids
        self.demands = table.demand_bps
        self.flow_commodity = table.flow_commodity
        self.incidence = sparse.csr_matrix(
            (
                np.ones(len(indices), dtype=float),
                indices,
                edge_indptr.astype(np.int64),
            ),
            shape=(len(table.commodity_path), len(self.link_keys)),
        )
        self.n_commodities = len(table.commodity_path)
        return self

    def commodity_flow_counts(self) -> np.ndarray:
        counts = np.zeros(self.n_commodities, dtype=np.int64)
        np.add.at(counts, self.flow_commodity, 1)
        return counts

    def path_costs(self, per_link: np.ndarray) -> np.ndarray:
        """Per-commodity sum of a per-link quantity (one sparse matvec)."""
        return self.incidence @ per_link

    def link_loads(self, flow_rates: np.ndarray) -> np.ndarray:
        """Per-link load implied by per-flow rates (one sparse matvec)."""
        commodity_rates = np.zeros(self.n_commodities, dtype=float)
        np.add.at(commodity_rates, self.flow_commodity, flow_rates)
        return self.incidence.T @ commodity_rates


def _progressive_fill(problem: _CommodityProblem) -> np.ndarray:
    """Vectorized progressive filling; returns per-flow rates.

    Every unfrozen flow sits at the single global fill level, so the
    state is: the level, per-commodity active-flow counts ``k`` (flows
    whose demand the level has not yet passed), per-link residual
    capacity, and a pointer into the globally demand-sorted flow array.
    Each round advances the level by the minimum link fair share; flows
    whose demands fall inside the advance freeze in bulk (an O(crossed)
    scatter-add, amortized O(n_flows) over the whole solve), and links
    whose residual reaches zero freeze every commodity crossing them at
    the current level.  A flow's final rate is ``min(demand, theta)``
    of its commodity's freeze level.
    """
    order = np.argsort(problem.demands, kind="stable")
    sorted_demands = problem.demands[order]
    sorted_commodity = problem.flow_commodity[order]

    n_c = problem.n_commodities
    # Rows of the incidence matrix are compacted as commodities freeze;
    # col_map tracks each current row's original commodity index.
    inc = problem.incidence
    # The two per-round matvecs go through the transpose; cache it as
    # CSR (refreshed only at compaction) instead of reconstructing a
    # transposed view a thousand times.
    inc_t = inc.T.tocsr()
    k = problem.commodity_flow_counts().astype(float)
    col_map = np.arange(n_c, dtype=np.int64)
    orig_to_cur = np.arange(n_c, dtype=np.int64)

    theta = np.full(n_c, np.inf)
    residual = problem.capacities.astype(float).copy()
    eps_link = _EPS_BPS + _EPS_REL * problem.capacities
    link_done = np.zeros(len(problem.capacities), dtype=bool)

    level = 0.0
    ptr = 0
    while k.any():
        counts = inc_t @ k
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(counts > 0, residual / np.maximum(counts, 1.0), np.inf)
        delta = max(float(share.min(initial=np.inf)), 0.0)
        if not np.isfinite(delta):  # no loaded link left (defensive)
            break
        new_level = level + delta

        # Bulk demand freezes: every flow whose demand lies in
        # (level, new_level] stops growing at its own demand.
        new_ptr = int(
            np.searchsorted(sorted_demands, new_level, side="right")
        )
        increment = k * delta
        crossed = 0
        if new_ptr > ptr:
            cz_orig = sorted_commodity[ptr:new_ptr]
            cz_cur = orig_to_cur[cz_orig]
            live = cz_cur >= 0
            cz_cur = cz_cur[live]
            crossed = len(cz_cur)
            if crossed:
                overshoot = new_level - sorted_demands[ptr:new_ptr][live]
                np.subtract.at(increment, cz_cur, overshoot)
                np.subtract.at(k, cz_cur, 1.0)
        residual -= inc_t @ increment
        level = new_level
        ptr = new_ptr

        # Freeze every commodity crossing a newly saturated link.
        saturated = (residual <= eps_link) & ~link_done
        froze_any = False
        if saturated.any():
            link_done |= saturated
            touched = inc @ saturated.astype(float)
            newly = (touched > 0) & (k > 0)
            if newly.any():
                froze_any = True
                frozen_orig = col_map[newly]
                theta[frozen_orig] = level
                k[newly] = 0.0
                # A frozen commodity's still-unmet demands must not be
                # processed when the global pointer passes them later.
                orig_to_cur[frozen_orig] = -1
        if delta <= 0.0 and crossed == 0 and not froze_any:
            # Numerical safety valve: no progress is possible, freeze
            # everything at the level.
            remaining = k > 0
            theta[col_map[remaining]] = level
            k[remaining] = 0.0
            break

        # Compact away frozen/exhausted commodities once they are the
        # majority, keeping the per-round matvecs proportional to the
        # surviving active set.
        active = k > 0
        n_active = int(active.sum())
        if n_active and n_active * 2 <= len(k):
            inc = inc[active]
            inc_t = inc.T.tocsr()
            k = k[active]
            col_map = col_map[active]
            orig_to_cur = np.full(n_c, -1, dtype=np.int64)
            orig_to_cur[col_map] = np.arange(len(col_map), dtype=np.int64)

    return np.minimum(problem.demands, theta[problem.flow_commodity])


def aggregate_capacities(
    specs: list[EdgeSpec],
) -> tuple[dict[tuple[str, str], float], dict[tuple[str, str], float]]:
    """Directed (capacity, delay) maps with parallel links aggregated.

    Two specs covering the same directed link add their bandwidth and
    keep the smallest delay — the packet path's "aggregate the bandwidth
    of parallel links" semantics — instead of the last spec silently
    overwriting the first.
    """
    capacities: dict[tuple[str, str], float] = {}
    delays: dict[tuple[str, str], float] = {}
    for spec in specs:
        for u, v in ((spec.a, spec.b), (spec.b, spec.a)):
            if (u, v) in capacities:
                capacities[(u, v)] += spec.rate_bps
                delays[(u, v)] = min(delays[(u, v)], spec.delay_s)
            else:
                capacities[(u, v)] = spec.rate_bps
                delays[(u, v)] = spec.delay_s
    return capacities, delays


def _assert_capacity_invariant(
    loads: np.ndarray, capacities: np.ndarray
) -> None:
    """Fail loudly if any link is allocated beyond its capacity."""
    slack = capacities * CAPACITY_SLACK_REL + _EPS_BPS
    overfilled = loads > capacities + slack
    if overfilled.any():
        worst = int(np.argmax(loads / np.maximum(capacities, _EPS_BPS)))
        raise AssertionError(
            "max-min solver over-allocated a link: load "
            f"{loads[worst]:.6g} bps on capacity {capacities[worst]:.6g} "
            "bps (solver bug — utilizations are never clamped)"
        )


def max_min_rates_table(
    capacities_bps: dict[tuple[str, str], float],
    table: FlowTable | CommodityTable,
) -> np.ndarray:
    """Max-min fair rates over a directed capacity map, per flow.

    The solver behind :func:`solve_fluid` without the edge-spec
    expansion and the latency/utilization accounting.  Entry ``i`` of
    the result belongs to ``table.flow_ids[i]``.
    """
    if isinstance(table, FlowTable):
        table = table.to_commodities()
    if table.n_flows == 0:
        return np.empty(0, dtype=float)
    problem = _CommodityProblem.from_table(capacities_bps, table)
    return _progressive_fill(problem)


def _assemble_accounting(
    problem: _CommodityProblem,
    delays: dict[tuple[str, str], float],
    rates: np.ndarray,
    packet_bytes: int,
) -> tuple[np.ndarray, dict[tuple[str, str], float]]:
    """Per-flow latencies and the link-utilization dict for a solve."""
    packet_bits = packet_bytes * 8
    delay_arr = np.array([delays[key] for key in problem.link_keys])
    per_link_latency = delay_arr + packet_bits / problem.capacities
    commodity_latency = problem.path_costs(per_link_latency)
    latencies = commodity_latency[problem.flow_commodity]

    loads = problem.link_loads(rates)
    _assert_capacity_invariant(loads, problem.capacities)
    used = loads > 0
    utilization = {
        problem.link_keys[i]: float(loads[i] / problem.capacities[i])
        for i in np.flatnonzero(used)
    }
    return latencies, utilization


def solve_fluid(
    specs: list[EdgeSpec],
    flows: list[FluidFlow] | FlowTable | CommodityTable,
    packet_bytes: int = 500,
) -> FluidTableResult:
    """Allocate max-min rates over a network built from edge specs.

    ``packet_bytes`` only affects the static latency estimate (one
    serialization per hop), mirroring the packet engine's uniform UDP
    size.  ``flows`` is a :class:`FlowTable` / :class:`CommodityTable`,
    or a ``FluidFlow`` list (converted by :meth:`FlowTable.from_flows`).
    """
    t0 = perf_counter()
    if not isinstance(flows, (FlowTable, CommodityTable)):
        flows = FlowTable.from_flows(flows)
    if isinstance(flows, FlowTable):
        flows = flows.to_commodities()
    capacities, delays = aggregate_capacities(specs)
    problem = _CommodityProblem.from_table(capacities, flows)
    t1 = perf_counter()
    rates = _progressive_fill(problem)
    t2 = perf_counter()
    # Per-commodity latency and per-link load via the same incidence
    # matrix the solver filled over.
    latencies, utilization = _assemble_accounting(
        problem, delays, rates, packet_bytes
    )
    t3 = perf_counter()
    return FluidTableResult(
        flow_ids=problem.flow_ids,
        rates_bps=rates,
        offered_bps=problem.demands,
        latencies_s=latencies,
        link_utilization=utilization,
        timings_s={
            "setup_s": t1 - t0,
            "fill_s": t2 - t1,
            "freeze_s": t3 - t2,
        },
    )
